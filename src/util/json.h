// Minimal self-contained JSON document model, parser, and writer.
//
// Used by the GraphSON reader/writer (the paper's common data interchange
// format) and by the document-store engine, which serializes every vertex
// and edge as a JSON blob (ArangoDB architecture, paper §3.2).

#ifndef GDBMICRO_UTIL_JSON_H_
#define GDBMICRO_UTIL_JSON_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/result.h"

namespace gdbmicro {

/// Truncates a JSON double toward zero, as Json::int_value() does. NaN
/// and values outside int64's range map to INT64_MIN, the value x86-64's
/// truncating conversion produces, instead of undefined behaviour.
inline int64_t JsonDoubleToInt64(double d) {
  if (d >= -0x1p63 && d < 0x1p63) return static_cast<int64_t>(d);
  return std::numeric_limits<int64_t>::min();
}

/// In-place pull reader over one JSON document: member keys, strings and
/// numbers are read straight from the text, and what the caller does not
/// need is skipped, without building a Json tree (Mison's idea of decoding
/// only the fields a query uses; Li et al., PVLDB 2017). Json::Parse is
/// built on this reader, so both accept one grammar, apply one nesting
/// limit and fail with the same kCorruption errors. Every call validates
/// what it consumes: a caller that reads or skips every value and then
/// calls Finish() has checked the whole document.
class JsonReader {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// A value as ReadValue reports it: a scalar's payload, or only the kind
  /// of an array or object it skipped.
  struct Value {
    Kind kind = Kind::kNull;
    bool boolean = false;
    bool is_double = false;  // kNumber: `real` holds it, else `integer`
    int64_t integer = 0;
    double real = 0;
    std::string_view string;  // the text itself, or the caller's scratch
  };

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The kind of the value at the cursor, judged from its first byte.
  /// Fails past the nesting limit or at the end of the input.
  Result<Kind> Peek();

  /// Enter the object (array) at the cursor, which Peek() reported.
  /// Return false, having left it again, when it is empty.
  bool EnterObject();
  bool EnterArray();

  /// Reads the next member name and its ':'. `*key` views the text, or
  /// `*scratch` when the name has escapes.
  Status ReadKey(std::string* scratch, std::string_view* key);

  /// After a member (element): true at ',', false at the closing '}'
  /// (']'), which leaves the object (array).
  Result<bool> NextMember();
  Result<bool> NextElement();

  /// Reads the value at the cursor. A string views the text, or `*scratch`
  /// when it has escapes (with no scratch it is only validated). An array
  /// or object is validated and skipped.
  Status ReadValue(std::string* scratch, Value* out);

  /// Validates and skips the value at the cursor.
  Status SkipValue();

  /// Fails unless only whitespace is left.
  Status Finish();

 private:
  static constexpr int kMaxDepth = 256;

  // Out of line, so the inlined hot path carries no message strings.
  static Status Corrupt(const char* what);
  Status ReadString(std::string* scratch, std::string_view* out);
  // ReadString's slow path, from the first backslash at pos_.
  Status ReadEscapedString(size_t start, std::string* scratch,
                           std::string_view* out);
  // ReadNumber's fast path takes short integers; the rest go through
  // ScanNumber (validation) and ReadNumberToken (conversion).
  Status ReadNumber(Value* out);
  Status ReadNumberToken(Value* out);
  Status ScanNumber(std::string_view* token, bool* is_double);
  // Skips the object or array at the cursor, which Peek() reported.
  Status SkipContainer();
  Status MatchLiteral(std::string_view literal);
  void SkipWhitespace();

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers entered and not yet left
};

// The per-member steps are inline: a document decode runs a handful of
// them per member, each over only a few bytes.

inline void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

inline Result<JsonReader::Kind> JsonReader::Peek() {
  if (depth_ > kMaxDepth) return Corrupt("JSON nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Corrupt("unexpected end of JSON");
  switch (text_[pos_]) {
    case '{':
      return Kind::kObject;
    case '[':
      return Kind::kArray;
    case '"':
      return Kind::kString;
    case 't':
    case 'f':
      return Kind::kBool;
    case 'n':
      return Kind::kNull;
    default:
      return Kind::kNumber;
  }
}

inline bool JsonReader::EnterObject() {
  ++pos_;  // '{'
  SkipWhitespace();
  if (pos_ < text_.size() && text_[pos_] == '}') {
    ++pos_;
    return false;
  }
  ++depth_;
  return true;
}

inline bool JsonReader::EnterArray() {
  ++pos_;  // '['
  SkipWhitespace();
  if (pos_ < text_.size() && text_[pos_] == ']') {
    ++pos_;
    return false;
  }
  ++depth_;
  return true;
}

inline Status JsonReader::ReadString(std::string* scratch,
                                     std::string_view* out) {
  const size_t start = ++pos_;  // past the opening quote
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '"') {
    // No escapes: the string is a view of the text.
    if (out != nullptr) *out = text_.substr(start, pos_ - start);
    ++pos_;
    return Status::OK();
  }
  return ReadEscapedString(start, scratch, out);
}

inline Status JsonReader::ReadKey(std::string* scratch, std::string_view* key) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Corrupt("expected object key");
  }
  GDB_RETURN_IF_ERROR(ReadString(scratch, key));
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_++] != ':') {
    return Corrupt("expected ':' in object");
  }
  return Status::OK();
}

inline Result<bool> JsonReader::NextMember() {
  SkipWhitespace();
  if (pos_ >= text_.size()) return Corrupt("unterminated object");
  char c = text_[pos_++];
  if (c == '}') {
    --depth_;
    return false;
  }
  if (c != ',') return Corrupt("expected ',' in object");
  return true;
}

inline Result<bool> JsonReader::NextElement() {
  SkipWhitespace();
  if (pos_ >= text_.size()) return Corrupt("unterminated array");
  char c = text_[pos_++];
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') return Corrupt("expected ',' in array");
  return true;
}

inline Status JsonReader::ReadNumber(Value* out) {
  // An optional '-' and 1 to 18 digits that end the token: an int64 no
  // check can reject, converted in the same pass. Anything else takes
  // the general path from the token's start.
  size_t p = pos_;
  const bool negative = p < text_.size() && text_[p] == '-';
  if (negative) ++p;
  const size_t digits = p;
  uint64_t v = 0;
  while (p < text_.size() && p - digits < 18 && text_[p] >= '0' &&
         text_[p] <= '9') {
    v = v * 10 + static_cast<uint64_t>(text_[p] - '0');
    ++p;
  }
  if (p == digits || (p < text_.size() &&
                      ((text_[p] >= '0' && text_[p] <= '9') ||
                       text_[p] == '.' || text_[p] == 'e' ||
                       text_[p] == 'E' || text_[p] == '+' ||
                       text_[p] == '-'))) {
    return ReadNumberToken(out);
  }
  out->is_double = false;
  out->integer = negative ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  pos_ = p;
  return Status::OK();
}

inline Status JsonReader::ReadValue(std::string* scratch, Value* out) {
  GDB_ASSIGN_OR_RETURN(out->kind, Peek());
  switch (out->kind) {
    case Kind::kObject:
    case Kind::kArray:
      return SkipContainer();
    case Kind::kString:
      return ReadString(scratch, &out->string);
    case Kind::kNumber:
      return ReadNumber(out);
    case Kind::kBool:
      out->boolean = text_[pos_] == 't';
      return MatchLiteral(out->boolean ? "true" : "false");
    case Kind::kNull:
      break;
  }
  return MatchLiteral("null");
}

inline Status JsonReader::SkipValue() {
  Value scalar;
  return ReadValue(nullptr, &scalar);
}

inline Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Corrupt("trailing characters after JSON document");
  }
  return Status::OK();
}

/// A JSON value: null, bool, number (int64 or double), string, array, or
/// object. Object member order is preserved (vector of pairs) so that
/// serialization is deterministic.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}            // NOLINT
  Json(bool b) : value_(b) {}                          // NOLINT
  Json(int64_t i) : value_(i) {}                       // NOLINT
  Json(int i) : value_(static_cast<int64_t>(i)) {}     // NOLINT
  Json(uint64_t u) : value_(static_cast<int64_t>(u)) {}  // NOLINT
  Json(double d) : value_(d) {}                        // NOLINT
  Json(std::string s) : value_(std::move(s)) {}        // NOLINT
  Json(const char* s) : value_(std::string(s)) {}      // NOLINT
  Json(Array a) : value_(std::move(a)) {}              // NOLINT
  Json(Object o) : value_(std::move(o)) {}             // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool bool_value() const { return std::get<bool>(value_); }
  int64_t int_value() const {
    return is_double() ? JsonDoubleToInt64(std::get<double>(value_))
                       : std::get<int64_t>(value_);
  }
  double double_value() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(value_))
                    : std::get<double>(value_);
  }
  const std::string& string_value() const { return std::get<std::string>(value_); }

  const Array& array() const { return std::get<Array>(value_); }
  Array& array() { return std::get<Array>(value_); }
  const Object& object() const { return std::get<Object>(value_); }
  Object& object() { return std::get<Object>(value_); }

  /// Object member lookup; returns nullptr if absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Sets (or replaces) an object member. Value must be an object.
  void Set(std::string key, Json value);

  /// Appends to an array. Value must be an array.
  void Append(Json value) { array().push_back(std::move(value)); }

  /// Serializes compactly (no whitespace).
  std::string Dump() const;

  /// Appends the compact serialization to *out without an intermediate
  /// string (streaming writers, e.g. the document engine's bulk loader).
  void DumpAppend(std::string* out) const;

  /// Serializes with 2-space indentation.
  std::string Pretty() const;

  /// Parses a complete JSON document. Trailing garbage is an error.
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Appends `s` as a JSON string literal (quotes + escaping) to *out —
/// byte-identical to how Json::Dump renders the same string. Lets
/// streaming writers emit documents without building a Json tree.
void AppendEscapedJsonString(std::string_view s, std::string* out);

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_JSON_H_
