// Minimal recursive-descent JSON parser, enough to validate the files the
// obs exporters emit (metrics JSON, Chrome trace-event JSON), and the string
// and number writers those exporters share. Header-only so tests and tools
// can use it without linking anything beyond sora_obs.
//
// Intentional simplifications: numbers parse via strtod, \uXXXX escapes are
// passed through verbatim, and inputs are trusted to be small (files we
// wrote ourselves). Throws util::CheckError with byte offset on malformed
// input.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace sora::obs::json {

/// `s` escaped for the inside of a JSON string literal.
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A finite double as %.17g: round-trips exactly, and integers stay short.
inline std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const {
    SORA_CHECK_MSG(type_ == Type::kBool, "json: not a bool");
    return bool_;
  }
  double as_number() const {
    SORA_CHECK_MSG(type_ == Type::kNumber, "json: not a number");
    return number_;
  }
  const std::string& as_string() const {
    SORA_CHECK_MSG(type_ == Type::kString, "json: not a string");
    return string_;
  }
  const Array& as_array() const {
    SORA_CHECK_MSG(type_ == Type::kArray, "json: not an array");
    return *array_;
  }
  const Object& as_object() const {
    SORA_CHECK_MSG(type_ == Type::kObject, "json: not an object");
    return *object_;
  }

  /// Object member access; `has` returns nullptr when absent, `at` throws.
  const Value* find(const std::string& key) const {
    const Object& obj = as_object();
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    SORA_CHECK_MSG(v != nullptr, "json: missing key '" + key + "'");
    return *v;
  }

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    SORA_CHECK_MSG(pos_ == text_.size(),
                   "json: trailing garbage at byte " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    SORA_CHECK_MSG(false,
                   "json: " + what + " at byte " + std::to_string(pos_));
    std::abort();  // unreachable; SORA_CHECK_MSG(false, ...) throws
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value();
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            // Pass through verbatim; exported names are ASCII.
            out += "\\u";
            break;
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parse a complete JSON document; throws util::CheckError on malformed
/// input.
inline Value parse(const std::string& text) {
  return detail::Parser(text).parse();
}

}  // namespace sora::obs::json
