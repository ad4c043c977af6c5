// Minimal JSON reader for the perf-trajectory tooling.
//
// The repository's BENCH_*.json files are written by bench/bench_json.h and
// compared by tools/benchdiff; both sides need an actual parser (the old CI
// gate shelled out to python). This is a strict, self-contained subset
// parser: objects, arrays, strings (with the common escapes), numbers
// (doubles), booleans, null. It preserves object key order — delta tables
// print in the order the bench emitted — and reports the byte offset of the
// first syntax error.

#ifndef CEDAR_UTIL_JSON_H_
#define CEDAR_UTIL_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace cedar::util {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object member by key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Convenience typed lookups with fallbacks (objects only).
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;

  void Append(JsonValue v) { items_.push_back(std::move(v)); }
  // Sets (replacing, so Find sees one value per key) or appends a member.
  void Set(std::string key, JsonValue v) {
    for (auto& [existing_key, existing_value] : members_) {
      if (existing_key == key) {
        existing_value = std::move(v);
        return;
      }
    }
    members_.emplace_back(std::move(key), std::move(v));
  }

  // Serializes back to JSON text (2-space indent, object key order
  // preserved, integers printed without a decimal point). Dump followed by
  // ParseJson round-trips.
  std::string Dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Deepest nesting of arrays and objects ParseJson accepts. The parser
// recurses once per level; BENCH files nest three deep.
inline constexpr std::size_t kMaxJsonDepth = 64;

// Parses one JSON document (trailing whitespace allowed, nothing else).
// Errors name the byte offset: "json error at offset 17: ...", also for a
// document nested deeper than kMaxJsonDepth.
Result<JsonValue> ParseJson(std::string_view text);

// Reads and parses a JSON file.
Result<JsonValue> LoadJsonFile(const std::string& path);

}  // namespace cedar::util

#endif  // CEDAR_UTIL_JSON_H_
