#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "src/util/file.h"

namespace cedar::util {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString()
                                        : std::string(fallback);
}

namespace {

void DumpTo(const JsonValue& v, std::string& out, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      const double d = v.AsNumber();
      char buf[64];
      // Whole numbers within integer range print exactly; everything else
      // keeps enough digits to round-trip typical metric values.
      // (Range first: casting a double past long long's range is UB.)
      if (d >= -9.0e15 && d <= 9.0e15 &&
          d == static_cast<double>(static_cast<long long>(d))) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      } else {
        std::snprintf(buf, sizeof(buf), "%.10g", d);
      }
      out += buf;
      break;
    }
    case JsonValue::Kind::kString: {
      out += '"';
      for (const char c : v.AsString()) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof(buf), "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      break;
    }
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        out += inner_pad;
        DumpTo(v.items()[i], out, depth + 1);
        if (i + 1 < v.items().size()) out += ',';
        out += '\n';
      }
      out += pad;
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      if (v.members().empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        out += inner_pad;
        DumpTo(JsonValue::String(v.members()[i].first), out, depth + 1);
        out += ": ";
        DumpTo(v.members()[i].second, out, depth + 1);
        if (i + 1 < v.members().size()) out += ',';
        out += '\n';
      }
      out += pad;
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    CEDAR_ASSIGN_OR_RETURN(JsonValue v, Value());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return MakeError(ErrorCode::kInvalidArgument,
                     "json error at offset " + std::to_string(pos_) + ": " +
                         what);
  }

  // Consumes exactly four hex digits into *code; false on truncation or a
  // non-hex character (pos_ is left mid-escape, fine for error reporting).
  bool ReadHex4(std::uint32_t* code) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      value <<= 4;
      if (h >= '0' && h <= '9') {
        value |= static_cast<std::uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<std::uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<std::uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    *code = value;
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> Value() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // One frame of recursion per level: bound it before the stack is.
      if (depth_ == kMaxJsonDepth) {
        return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      ++depth_;
      Result<JsonValue> nested = c == '{' ? ObjectValue() : ArrayValue();
      --depth_;
      return nested;
    }
    if (c == '"') {
      CEDAR_ASSIGN_OR_RETURN(std::string s, StringLiteral());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeWord("true")) {
      return JsonValue::Bool(true);
    }
    if (ConsumeWord("false")) {
      return JsonValue::Bool(false);
    }
    if (ConsumeWord("null")) {
      return JsonValue::Null();
    }
    return NumberValue();
  }

  Result<JsonValue> ObjectValue() {
    Consume('{');
    JsonValue obj = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) {
      return obj;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      CEDAR_ASSIGN_OR_RETURN(std::string key, StringLiteral());
      SkipSpace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      CEDAR_ASSIGN_OR_RETURN(JsonValue v, Value());
      obj.Set(std::move(key), std::move(v));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return obj;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ArrayValue() {
    Consume('[');
    JsonValue arr = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) {
      return arr;
    }
    while (true) {
      CEDAR_ASSIGN_OR_RETURN(JsonValue v, Value());
      arr.Append(std::move(v));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return arr;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> StringLiteral() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          // Decode \uXXXX to UTF-8. A high surrogate (D800-DBFF) must be
          // followed by an escaped low surrogate (DC00-DFFF); the pair
          // combines into one supplementary-plane code point. Unpaired
          // surrogates in either order are malformed JSON text and are
          // rejected rather than smuggled through as WTF-8.
          std::uint32_t code = 0;
          if (!ReadHex4(&code)) {
            return Fail("bad \\u escape");
          }
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!ReadHex4(&low)) {
              return Fail("bad \\u escape");
            }
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> NumberValue() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    double d = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return Fail("malformed number");
    }
    return JsonValue::Number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, out, 0);
  out += '\n';
  return out;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

Result<JsonValue> LoadJsonFile(const std::string& path) {
  CEDAR_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> bytes,
                         ReadFileBytes(path, "json file"));
  auto parsed = ParseJson(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  if (!parsed.ok()) {
    return MakeError(parsed.status().code(),
                     path + ": " + std::string(parsed.status().message()));
  }
  return parsed;
}

}  // namespace cedar::util
