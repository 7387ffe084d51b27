// Minimal JSON value model + recursive-descent parser, and the streaming
// writer every JSON document in the tree is rendered with.
//
// The observability layer emits several JSON artifacts (Chrome trace_event
// files, flight-recorder bundles, bench rows). This parser exists so the
// layer can *validate its own output* — exporter tests and `vfpga_cli trace
// --validate` parse what was rendered instead of trusting it — without
// pulling a third-party dependency into the tree. It accepts strict JSON
// (RFC 8259): no comments, no trailing commas.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vfpga::obs {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isNumber() const { return std::holds_alternative<double>(v_); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isArray() const { return std::holds_alternative<Array>(v_); }
  bool isObject() const { return std::holds_alternative<Object>(v_); }

  bool asBool() const { return get<bool>("bool"); }
  double asNumber() const { return get<double>("number"); }
  const std::string& asString() const { return get<std::string>("string"); }
  const Array& asArray() const { return get<Array>("array"); }
  const Object& asObject() const { return get<Object>("object"); }

  /// Object member access; throws JsonError when absent or not an object.
  const JsonValue& at(const std::string& key) const;
  /// True when this is an object holding `key`.
  bool has(const std::string& key) const;

  /// Parses a complete JSON document (throws JsonError on any syntax
  /// error or trailing garbage).
  static JsonValue parse(std::string_view text);

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw JsonError(std::string("JSON value is not a ") + what);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Shortest round-trip decimal form of `v` (std::to_chars); infinities and
/// NaN as Prometheus spells them (`+Inf`, `-Inf`, `NaN`). The one double
/// formatter: Prometheus, CSV, the monitor panels and JsonWriter use it.
std::string formatDouble(double v);

/// Streaming JSON emitter appending to a caller-owned string; the only
/// code that escapes strings or writes JSON punctuation. Commas and the
/// key/value colon follow from the nesting state. Layout is the caller's
/// one choice: `newline(indent)` puts the next element (after its comma) or
/// the closing bracket on a new line, and breaks requested before the same
/// element accumulate.
class JsonWriter {
 public:
  /// kSpaced writes `": "` after keys and `", "` between elements that
  /// share a line; kCompact writes neither space.
  enum class Style { kCompact, kSpaced };

  explicit JsonWriter(std::string& out, Style style = Style::kCompact)
      : out_(out), style_(style) {}

  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close(']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return token(b ? "true" : "false"); }
  /// Shortest round-trip form; JSON has no infinity or NaN, so non-finite
  /// values are written as null.
  JsonWriter& value(double d);
  /// Integers are written exactly, up to the full uint64_t range.
  JsonWriter& value(std::integral auto n) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, n).ptr;
    return token(std::string_view(buf, end));
  }
  JsonWriter& null() { return token("null"); }
  /// A pre-rendered number or a complete nested JSON document, copied
  /// verbatim as the next element.
  JsonWriter& token(std::string_view raw);
  JsonWriter& newline(std::string_view indent = {});

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Separator and pending line break owed before the next element.
  void element();

  std::string& out_;
  Style style_;
  std::vector<bool> nonEmpty_;  ///< per open container: holds an element
  bool afterKey_ = false;
  std::string pendingBreak_;
};

}  // namespace vfpga::obs
