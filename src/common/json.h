#ifndef RASA_COMMON_JSON_H_
#define RASA_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"

namespace rasa {

// Strict JSON reader, the counterpart of common/json_writer.h: `rasa_cli
// tail` reads telemetry journals with it, bench_compare reads BENCH_*.json
// result files, and the schema tests parse every writer's output back.

/// Parsed JSON value tree. Numbers are doubles (the only number form the
/// writers emit); object keys keep insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with `key`; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;
};

/// Strict parse of exactly one JSON document: trailing non-whitespace,
/// unterminated strings, bad escapes, and malformed numbers are all
/// kInvalidArgument with a byte offset. Never crashes on hostile input.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace rasa

#endif  // RASA_COMMON_JSON_H_
