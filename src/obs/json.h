// Minimal JSON document model with a parser and a serializer.
//
// Used by the observability layer for machine-readable bench output
// (BENCH_*.json), Chrome trace_event export, and the bench_gate wall-clock
// report. Numbers are stored as doubles (every counter this project emits
// fits losslessly below 2^53); objects preserve insertion order so emitted
// files diff cleanly between runs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sgk::obs {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double v) : value_(v) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(std::int64_t v) : value_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : value_(static_cast<double>(v)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(const char* s) : value_(std::string(s)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const { return get<double>("number"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  Array& as_array() { return get<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }
  Object& as_object() { return get<Object>("object"); }

  /// Array append. Returns the appended element (for in-place building).
  Json& push(Json v);
  /// Object insert-or-replace. Returns the stored element.
  Json& set(std::string name, Json v);

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view name) const;
  /// Object lookup; throws JsonError when absent.
  const Json& at(std::string_view name) const;
  /// Array element; throws JsonError when out of range.
  const Json& at(std::size_t i) const;
  /// Array / object element count; 0 for scalars.
  std::size_t size() const;

  /// Serializes. indent < 0 gives one compact line; indent >= 0 pretty-prints
  /// with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws JsonError on malformed input or
  /// trailing garbage.
  static Json parse(std::string_view text);

 private:
  explicit Json(Array a) : value_(std::move(a)) {}
  explicit Json(Object o) : value_(std::move(o)) {}

  template <typename T>
  const T& get(const char* what) const {
    const T* p = std::get_if<T>(&value_);
    if (p == nullptr) throw JsonError(std::string("json: not a ") + what);
    return *p;
  }
  template <typename T>
  T& get(const char* what) {
    T* p = std::get_if<T>(&value_);
    if (p == nullptr) throw JsonError(std::string("json: not a ") + what);
    return *p;
  }

  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace sgk::obs
