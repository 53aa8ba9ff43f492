#include "common/json.h"

#include <cstdlib>

#include "common/strings.h"

namespace rasa {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipSpace();
    JsonValue value;
    RASA_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return InvalidArgumentError(
        StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status ConsumeWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(StrFormat("expected '%s'", word));
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ConsumeWord("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ConsumeWord("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      std::string key;
      RASA_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipSpace();
      JsonValue value;
      RASA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipSpace();
      JsonValue value;
      RASA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // The writers only escape control characters, so a compact
          // Latin-1 decoding covers every code point they emit; anything
          // wider passes through as UTF-8 bytes.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&]() {
      size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const size_t integer_start = pos_;
    if (digits() == 0) return Error("expected a number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - integer_start > 1 && text_[integer_start] == '0') {
      pos_ = integer_start;
      return Error("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) return Error("expected digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) return Error("expected exponent digits");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.c_str() + start, nullptr);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace rasa
