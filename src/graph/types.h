// Core property-graph model types shared by every engine: ids, property
// values (attributed graph model, paper §3), element records, directions.

#ifndef GDBMICRO_GRAPH_TYPES_H_
#define GDBMICRO_GRAPH_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/json.h"

namespace gdbmicro {

using VertexId = uint64_t;
using EdgeId = uint64_t;
inline constexpr uint64_t kInvalidId = ~0ULL;

/// Edge orientation selector used by traversal operators (v.in / v.out /
/// v.both in the paper's Table 2 queries).
enum class Direction : uint8_t { kIn, kOut, kBoth };

std::string_view DirectionToString(Direction d);

/// A property value: null, bool, int64, double, or string.
class PropertyValue {
 public:
  PropertyValue() : v_(std::monostate{}) {}
  PropertyValue(bool b) : v_(b) {}                         // NOLINT
  PropertyValue(int64_t i) : v_(i) {}                      // NOLINT
  PropertyValue(int i) : v_(static_cast<int64_t>(i)) {}    // NOLINT
  PropertyValue(double d) : v_(d) {}                       // NOLINT
  PropertyValue(std::string s) : v_(std::move(s)) {}       // NOLINT
  PropertyValue(const char* s) : v_(std::string(s)) {}     // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }

  /// Deterministic ordering across types (type tag first, then value);
  /// used as B+Tree key component.
  bool operator<(const PropertyValue& other) const { return v_ < other.v_; }
  bool operator==(const PropertyValue& other) const { return v_ == other.v_; }
  bool operator!=(const PropertyValue& other) const { return !(*this == other); }

  /// Value rendered for reports and debugging.
  std::string ToString() const;

  /// Stores the string `s`. A value that already holds a string keeps its
  /// buffer, so one value reused across a scan allocates only when a
  /// string outgrows every earlier one.
  void AssignString(std::string_view s);

  /// Encodes into a compact binary representation (type tag + payload).
  void EncodeTo(std::string* out) const;
  static Result<PropertyValue> DecodeFrom(std::string_view in, size_t* pos);
  /// DecodeFrom into a caller's value (see AssignString). On an error
  /// *out is unchanged.
  static Status DecodeInto(std::string_view in, size_t* pos,
                           PropertyValue* out);
  /// Skip mode of DecodeFrom: the same tag and truncation checks, and
  /// *pos ends where DecodeFrom's would, but nothing is materialized.
  static Status SkipEncoded(std::string_view in, size_t* pos);

  Json ToJson() const;
  /// Arrays and objects become null. The JsonReader form stores into a
  /// caller's value (see AssignString).
  static PropertyValue FromJson(const Json& j);
  static void FromJson(const JsonReader::Value& v, PropertyValue* out);

  /// Appends this value's compact JSON rendering to *out — byte-identical
  /// to ToJson().Dump(), but strings stream straight into the buffer
  /// instead of being copied into a Json node first.
  void AppendJsonTo(std::string* out) const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

/// An ordered list of name/value pairs. Kept as a small vector: benchmark
/// elements have few properties, and order preservation makes round trips
/// deterministic.
using PropertyMap = std::vector<std::pair<std::string, PropertyValue>>;

/// Returns the value for `name` or nullptr.
const PropertyValue* FindProperty(const PropertyMap& props,
                                  std::string_view name);

/// Copies the value FindProperty finds into *out (a string reuses the
/// buffer *out holds); false when `props` has no `name`.
bool CopyProperty(const PropertyMap& props, std::string_view name,
                  PropertyValue* out);

/// Sets (insert-or-overwrite) `name` in `props`. Returns true if inserted.
bool SetProperty(PropertyMap* props, std::string_view name,
                 PropertyValue value);

/// Removes `name`; returns true if it was present.
bool EraseProperty(PropertyMap* props, std::string_view name);

/// Binary-encodes a property map (count + key/value pairs) into `out`.
void EncodePropertyMap(const PropertyMap& props, std::string* out);

/// Inverse of EncodePropertyMap; advances *pos.
Result<PropertyMap> DecodePropertyMap(std::string_view in, size_t* pos);

/// Skip mode of DecodePropertyMap: the same truncation and tag checks,
/// and *pos ends where DecodePropertyMap's would, with no map built.
Status SkipPropertyMap(std::string_view in, size_t* pos);

/// Probe mode of DecodePropertyMap: walks the encoded map to the first
/// pair named `key` (the one FindProperty would return), decodes only
/// its value into *out (see PropertyValue::DecodeInto) and returns true;
/// false when no pair has that name. The pairs walked are checked as
/// DecodePropertyMap checks them; the pairs after a match are not read.
Result<bool> ReadEncodedProperty(std::string_view in, size_t* pos,
                                 std::string_view key, PropertyValue* out);

/// Fully materialized vertex (what a search-by-id query returns).
struct VertexRecord {
  VertexId id = kInvalidId;
  std::string label;
  PropertyMap properties;
};

/// Fully materialized edge.
struct EdgeRecord {
  EdgeId id = kInvalidId;
  VertexId src = kInvalidId;
  VertexId dst = kInvalidId;
  std::string label;
  PropertyMap properties;
};

/// Edge endpoints + label without property materialization; what the
/// traversal machine streams over.
struct EdgeEnds {
  EdgeId id = kInvalidId;
  VertexId src = kInvalidId;
  VertexId dst = kInvalidId;
  std::string label;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_TYPES_H_
