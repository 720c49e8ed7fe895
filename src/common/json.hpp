// Minimal JSON support shared by the observability exporters, the bench
// harness (--json) and the tests (trace round-trip validation).
//
//  * JsonWriter — streaming emitter with automatic comma/nesting state.
//    Doubles are rendered with std::to_chars (shortest round-trip form),
//    so identical values always serialize to identical bytes — the
//    property the byte-identical-trace determinism guarantee rests on.
//  * JsonValue / json_parse — a small recursive-descent parser used to
//    round-trip-validate emitted documents. Not a general-purpose
//    library: no \uXXXX surrogate pairs, numbers parsed as double.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gsj::json {

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string escape(std::string_view s);

/// Shortest-round-trip decimal rendering of a double (std::to_chars).
/// Non-finite values render as null per RFC 8259.
[[nodiscard]] std::string format_double(double v);

/// Streaming JSON emitter. Usage:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("pairs").value(std::uint64_t{42});
///   w.key("rows").begin_array();
///   w.value(1.5);
///   w.end_array();
///   w.end_object();
///
/// The writer inserts commas and separators; it does not pretty-print
/// (one optional newline granularity via `newline()` for diffability).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& null();
  /// Emits a raw newline between elements (cosmetic only; emitted
  /// before the next element's comma handling, so call it after a
  /// completed value).
  JsonWriter& newline();

 private:
  void pre_value();

  std::ostream& os_;
  // Nesting stack: for each open container, whether a value was already
  // emitted (comma needed) and whether we are waiting for a key's value.
  std::vector<bool> comma_stack_;
  bool expecting_value_ = false;  ///< a key was just written
};

/// Parsed JSON document node.
struct JsonValue {
  using Array = std::vector<JsonValue>;
  /// Object keys keep source order (determinism checks compare order).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v =
      nullptr;

  [[nodiscard]] bool is_null() const { return v.index() == 0; }
  [[nodiscard]] bool is_array() const { return v.index() == 4; }
  [[nodiscard]] bool is_object() const { return v.index() == 5; }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v); }
  [[nodiscard]] double as_number() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(v); }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view k) const;
};

/// Parses a complete JSON document. Throws CheckError on malformed
/// input or trailing garbage.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace gsj::json
