// Minimal JSON reader for the metrics snapshot schema (obs/export.hpp).
//
// This is deliberately a small, strict subset-of-JSON parser: objects,
// arrays, strings (with the escapes our writer emits plus \uXXXX for BMP
// code points), numbers, booleans, null. It exists so tools/morph-stat and
// the bench smoke checker can read snapshots without an external
// dependency; it is not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace morph::obs {

class JsonError : public Error {
 public:
  explicit JsonError(const std::string& what) : Error("json error: " + what) {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors; throw JsonError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  uint64_t as_u64() const;  // number, rounded; throws when negative or >= 2^64
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent (throws when not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws when absent.
  const JsonValue& at(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }

 private:
  friend JsonValue json_parse(const std::string&);
  friend class Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Parse a complete document; trailing non-whitespace is an error.
JsonValue json_parse(const std::string& text);

}  // namespace morph::obs
