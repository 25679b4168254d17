#include "obs/json.hpp"

#include <cmath>
#include <cstdlib>

namespace morph::obs {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError("not a number");
  return num_;
}

uint64_t JsonValue::as_u64() const {
  double d = as_number();
  if (d < 0) throw JsonError("negative where unsigned expected");
  if (d >= 0x1p64) throw JsonError("number too large for u64");
  return static_cast<uint64_t>(std::round(d));
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw JsonError("not an array");
  return arr_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw JsonError("not an object");
  return obj_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("missing key '" + key + "'");
  return *v;
}

class Parser {
 public:
  /// Deepest nesting of arrays and objects accepted. Documents come from
  /// peers (a scrape, a collector reply), and each level is one frame of
  /// recursion, so an unbounded depth would let a peer overflow the stack.
  static constexpr int kMaxDepth = 256;

  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) throw JsonError("trailing characters at offset " + std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) throw JsonError("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw JsonError(std::string("expected '") + c + "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // One level of recursion per nesting level; a throw abandons the
        // parser, so only the normal return needs to unwind the count.
        if (++depth_ > kMaxDepth) throw JsonError("nesting too deep");
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.str_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) throw JsonError("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) throw JsonError("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) throw JsonError("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw JsonError("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else throw JsonError("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not emitted by our
          // writer and are rejected here).
          if (cp >= 0xD800 && cp <= 0xDFFF) throw JsonError("surrogate \\u escape unsupported");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: throw JsonError("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) throw JsonError("expected value at offset " + std::to_string(pos_));
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    char* end = nullptr;
    std::string num = s_.substr(start, pos_ - start);
    v.num_ = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') throw JsonError("bad number '" + num + "'");
    if (!std::isfinite(v.num_)) throw JsonError("non-finite number '" + num + "'");
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue json_parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace morph::obs
