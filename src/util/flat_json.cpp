#include "causaliot/util/flat_json.hpp"

namespace causaliot::util {

Result<std::string> json_unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    const char e = ++i < text.size() ? text[i] : '\0';
    unsigned code = 0;
    switch (e) {
      case '"': case '\\': case '/': out += e; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (!flat_json_detail::read_hex4(text, i + 1, code) || code > 0x7f) {
          return Error::parse_error("unsupported \\u escape");
        }
        out += static_cast<char>(code);
        i += 4;
        break;
      default:
        return Error::parse_error("invalid escape");
    }
  }
  return out;
}

}  // namespace causaliot::util
