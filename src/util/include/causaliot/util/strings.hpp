// Small string utilities used by CSV parsing and log formatting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "causaliot/util/result.hpp"

namespace causaliot::util {

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins items with the given separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Strict full-string parses (no trailing garbage allowed). parse_double
/// accepts finite values only: `nan`, `inf` and `infinity` are errors.
Result<double> parse_double(std::string_view text);
Result<std::int64_t> parse_int(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes `text` for embedding inside a double-quoted JSON string:
/// backslash, quote, and control characters (\n, \t, ... and \u00XX for
/// the rest). Does not add the surrounding quotes.
std::string json_escape(std::string_view text);

}  // namespace causaliot::util
