// The one flat-JSON object grammar, behind event traces (telemetry/jsonl),
// ingest lines (serve/ingest) and alert rules (obs/alert): one
// `{"key": value, ...}` object of string / number / true / false / null
// members, JSON whitespace between tokens, no nesting, only whitespace
// after the closing brace. Strings are validated but not decoded.
// Numbers are what std::from_chars reads, finite only: `nan`, `inf` and
// `infinity` are errors, not values. The scanner allocates nothing and
// hands each member to a visitor; which keys and types are allowed is
// each caller's policy. It is a header template so the visitor inlines
// into the per-line ingest path.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "causaliot/util/result.hpp"

namespace causaliot::util {

/// One member value, viewed in place (`text` aliases the scanned line).
struct FlatJsonValue {
  enum class Kind : std::uint8_t { kString, kNumber, kTrue, kFalse, kNull };
  Kind kind = Kind::kNull;
  std::string_view text;  // kString: raw bytes between the quotes
  bool escaped = false;   // kString: `text` holds a backslash escape
  double number = 0.0;    // kNumber: always finite

  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
};

/// The first thing wrong with a line: a byte offset and a static reason.
struct FlatJsonError {
  std::size_t offset = 0;
  const char* what = nullptr;
};

/// Reason reported when the visitor stops the walk by returning false.
inline constexpr const char* kFlatJsonVisitorStop = "rejected by visitor";

namespace flat_json_detail {

/// Reads the 4 hex digits of a \u escape starting at text[at].
inline bool read_hex4(std::string_view text, std::size_t at, unsigned& code) {
  if (at + 4 > text.size()) return false;
  const char* begin = text.data() + at;
  return std::from_chars(begin, begin + 4, code, 16).ptr == begin + 4;
}

/// Each scan_* step returns the error, or nullptr; `i` is then the offset.
struct Scanner {
  std::string_view line;
  std::size_t i = 0;

  char peek() const { return i < line.size() ? line[i] : '\0'; }
  bool consume(char c) {
    if (i >= line.size() || line[i] != c) return false;
    ++i;
    return true;
  }
  void skip_ws() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
           peek() == '\n') {
      ++i;
    }
  }

  /// At an opening quote; validates escapes without decoding them.
  const char* scan_string(FlatJsonValue& out) {
    const std::size_t begin = ++i;
    out.kind = FlatJsonValue::Kind::kString;
    for (; i < line.size(); ++i) {
      if (line[i] == '"') {
        out.text = line.substr(begin, i++ - begin);
        return nullptr;
      }
      if (line[i] != '\\') continue;
      out.escaped = true;
      const char e = i + 1 < line.size() ? line[i + 1] : '\0';
      unsigned code = 0;
      if (e == 'u') {
        if (!read_hex4(line, i + 2, code)) return "invalid \\u escape";
        i += 5;
      } else if (std::string_view("\"\\/bfnrt").find(e) !=
                 std::string_view::npos) {
        ++i;
      } else {
        return "invalid escape";
      }
    }
    return "unterminated string";
  }

  const char* scan_value(FlatJsonValue& out) {
    if (peek() == '"') return scan_string(out);
    if (peek() == '{' || peek() == '[') {
      return "nested values are not supported";
    }
    using Kind = FlatJsonValue::Kind;
    static constexpr std::pair<std::string_view, Kind> kLiterals[] = {
        {"true", Kind::kTrue}, {"false", Kind::kFalse}, {"null", Kind::kNull}};
    for (const auto& [literal, kind] : kLiterals) {
      if (peek() == literal.front() && line.substr(i).starts_with(literal)) {
        out.kind = kind;
        i += literal.size();
        return nullptr;
      }
    }
    const char* begin = line.data() + i;
    const auto [end, ec] =
        std::from_chars(begin, line.data() + line.size(), out.number);
    if (ec == std::errc::result_out_of_range) return "number out of range";
    if (ec != std::errc{}) return "expected a value";
    if (!std::isfinite(out.number)) return "non-finite number";
    out.kind = Kind::kNumber;
    i += static_cast<std::size_t>(end - begin);
    return nullptr;
  }

  template <typename Visit>
  const char* scan_object(Visit& visit) {
    skip_ws();
    if (!consume('{')) return "expected '{'";
    skip_ws();
    if (!consume('}')) {
      while (true) {
        skip_ws();
        if (peek() != '"') return "expected a quoted key";
        FlatJsonValue key, value;
        if (const char* error = scan_string(key)) return error;
        skip_ws();
        if (!consume(':')) return "expected ':'";
        skip_ws();
        const std::size_t value_at = i;
        if (const char* error = scan_value(value)) return error;
        if (!visit(key.text, value)) {
          i = value_at;
          return kFlatJsonVisitorStop;
        }
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) break;
        return "expected ',' or '}'";
      }
    }
    skip_ws();
    return i == line.size() ? nullptr : "trailing characters after '}'";
  }
};

}  // namespace flat_json_detail

/// Walks one flat object, calling `visit(std::string_view key,
/// const FlatJsonValue& value) -> bool` once per member in order. Keys
/// are passed raw (an escaped key matches no literal name). A visitor
/// returning false stops the walk with kFlatJsonVisitorStop at the
/// value's offset. Returns nullopt for one well-formed object.
template <typename Visit>
std::optional<FlatJsonError> scan_flat_json(std::string_view line,
                                            Visit&& visit) {
  flat_json_detail::Scanner scanner{line};
  const char* what = scanner.scan_object(visit);
  if (what == nullptr) return std::nullopt;
  return FlatJsonError{scanner.i, what};
}

/// The inverse of json_escape: decodes \" \\ \/ \b \f \n \r \t and
/// \u0000-\u007f. Any other escape is a parse error.
Result<std::string> json_unescape(std::string_view text);

}  // namespace causaliot::util
