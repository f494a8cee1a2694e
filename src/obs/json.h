#ifndef MONSOON_OBS_JSON_H_
#define MONSOON_OBS_JSON_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace monsoon::obs {

/// Minimal JSON support shared by the trace writer, the run-report writer,
/// their tests, and tools/obs/monsoon-trace-check. Deliberately small: the
/// subsystem only needs (a) a streaming writer with correct escaping and
/// (b) a parser good enough to validate its own output and round-trip it.

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(const std::string& s);

/// A parsed JSON document. Objects preserve member order, so a
/// parse -> Serialize round trip reproduces the structural layout of the
/// input — the trace determinism test leans on this to compare two traces
/// after zeroing the wall-clock fields.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0;
  /// Original spelling of a number token; Serialize() emits it verbatim so
  /// integers survive without a double round trip.
  std::string number_text;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  JsonValue* FindMutable(const std::string& key);

  /// Compact serialization (no whitespace), UTF-8 passthrough.
  std::string Serialize() const;
};

/// Parses a complete JSON document; trailing non-whitespace is an error.
StatusOr<JsonValue> JsonParse(const std::string& text);

/// Streaming writer for hand-built documents (trace files, run reports).
/// The caller drives nesting explicitly; the writer inserts commas and
/// escapes strings. Keys and values must alternate inside objects.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const std::string& key);

  void String(const std::string& value);
  /// Emits pre-serialized JSON text verbatim as the next value (the bench
  /// writers splice in rows they formatted earlier).
  void Raw(const std::string& json_text);
  void Int(int64_t value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Key + scalar in one call.
  void KV(const std::string& key, const std::string& value);
  void KV(const std::string& key, const char* value);
  void KV(const std::string& key, int64_t value);
  void KV(const std::string& key, uint64_t value);
  void KV(const std::string& key, int value);
  void KV(const std::string& key, double value);
  void KV(const std::string& key, bool value);

 private:
  void BeforeValue();

  std::ostream& out_;
  /// One entry per open object/array: true until the first element lands.
  std::vector<bool> first_;
  bool pending_key_ = false;
};

}  // namespace monsoon::obs

#endif  // MONSOON_OBS_JSON_H_
