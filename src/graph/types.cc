#include "src/graph/types.h"

#include <algorithm>

#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace gdbmicro {

std::string_view DirectionToString(Direction d) {
  switch (d) {
    case Direction::kIn:
      return "in";
    case Direction::kOut:
      return "out";
    case Direction::kBoth:
      return "both";
  }
  return "?";
}

std::string PropertyValue::ToString() const {
  if (is_null()) return "null";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int()) return StrFormat("%lld", static_cast<long long>(int_value()));
  if (is_double()) return StrFormat("%g", double_value());
  return string_value();
}

void PropertyValue::EncodeTo(std::string* out) const {
  if (is_null()) {
    out->push_back(0);
  } else if (is_bool()) {
    out->push_back(1);
    out->push_back(bool_value() ? 1 : 0);
  } else if (is_int()) {
    out->push_back(2);
    PutVarint64(out, ZigZagEncode(int_value()));
  } else if (is_double()) {
    out->push_back(3);
    double d = double_value();
    out->append(reinterpret_cast<const char*>(&d), sizeof(d));
  } else {
    out->push_back(4);
    PutVarint64(out, string_value().size());
    out->append(string_value());
  }
}

namespace {

// The one value decoder behind DecodeFrom and SkipEncoded: a null `out`
// runs every check and advances *pos without materializing the value.
Status DecodeValue(std::string_view in, size_t* pos, PropertyValue* out) {
  if (*pos >= in.size()) return Status::Corruption("truncated property value");
  uint8_t tag = static_cast<uint8_t>(in[(*pos)++]);
  switch (tag) {
    case 0:
      if (out != nullptr) *out = PropertyValue();
      return Status::OK();
    case 1: {
      if (*pos >= in.size()) return Status::Corruption("truncated bool");
      bool b = in[(*pos)++] != 0;
      if (out != nullptr) *out = PropertyValue(b);
      return Status::OK();
    }
    case 2: {
      GDB_ASSIGN_OR_RETURN(uint64_t z, GetVarint64(in, pos));
      if (out != nullptr) *out = PropertyValue(ZigZagDecode(z));
      return Status::OK();
    }
    case 3: {
      if (sizeof(double) > in.size() - *pos) {
        return Status::Corruption("truncated double");
      }
      if (out != nullptr) {
        double d;
        __builtin_memcpy(&d, in.data() + *pos, sizeof(d));
        *out = PropertyValue(d);
      }
      *pos += sizeof(double);
      return Status::OK();
    }
    case 4: {
      GDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(in, pos));
      if (len > in.size() - *pos) return Status::Corruption("truncated string");
      if (out != nullptr) out->AssignString(in.substr(*pos, len));
      *pos += len;
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown property value tag");
  }
}

// The one map decoder behind DecodePropertyMap and SkipPropertyMap.
Status DecodeMap(std::string_view in, size_t* pos, PropertyMap* out) {
  GDB_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(in, pos));
  // Every pair takes at least two bytes, so a corrupt count cannot make
  // the reservation outgrow the input.
  if (out != nullptr) out->reserve(std::min<uint64_t>(n, in.size() - *pos));
  for (uint64_t i = 0; i < n; ++i) {
    GDB_ASSIGN_OR_RETURN(uint64_t klen, GetVarint64(in, pos));
    if (klen > in.size() - *pos) return Status::Corruption("truncated key");
    PropertyValue* value = nullptr;
    if (out != nullptr) {
      out->emplace_back(std::string(in.substr(*pos, klen)), PropertyValue());
      value = &out->back().second;
    }
    *pos += klen;
    GDB_RETURN_IF_ERROR(DecodeValue(in, pos, value));
  }
  return Status::OK();
}

}  // namespace

void PropertyValue::AssignString(std::string_view s) {
  if (std::string* held = std::get_if<std::string>(&v_)) {
    held->assign(s);
  } else {
    v_.emplace<std::string>(s);
  }
}

Result<PropertyValue> PropertyValue::DecodeFrom(std::string_view in,
                                                size_t* pos) {
  PropertyValue v;
  GDB_RETURN_IF_ERROR(DecodeValue(in, pos, &v));
  return v;
}

Status PropertyValue::DecodeInto(std::string_view in, size_t* pos,
                                 PropertyValue* out) {
  return DecodeValue(in, pos, out);
}

Status PropertyValue::SkipEncoded(std::string_view in, size_t* pos) {
  return DecodeValue(in, pos, nullptr);
}

Json PropertyValue::ToJson() const {
  if (is_null()) return Json(nullptr);
  if (is_bool()) return Json(bool_value());
  if (is_int()) return Json(int_value());
  if (is_double()) return Json(double_value());
  return Json(string_value());
}

void PropertyValue::AppendJsonTo(std::string* out) const {
  if (is_string()) {
    AppendEscapedJsonString(string_value(), out);
  } else {
    ToJson().DumpAppend(out);
  }
}

PropertyValue PropertyValue::FromJson(const Json& j) {
  if (j.is_bool()) return PropertyValue(j.bool_value());
  if (j.is_int()) return PropertyValue(j.int_value());
  if (j.is_double()) return PropertyValue(j.double_value());
  if (j.is_string()) return PropertyValue(j.string_value());
  return PropertyValue();
}

void PropertyValue::FromJson(const JsonReader::Value& v, PropertyValue* out) {
  switch (v.kind) {
    case JsonReader::Kind::kBool:
      out->v_ = v.boolean;
      return;
    case JsonReader::Kind::kNumber:
      if (v.is_double) {
        out->v_ = v.real;
      } else {
        out->v_ = v.integer;
      }
      return;
    case JsonReader::Kind::kString:
      out->AssignString(v.string);
      return;
    default:
      out->v_ = std::monostate{};
  }
}

const PropertyValue* FindProperty(const PropertyMap& props,
                                  std::string_view name) {
  for (const auto& [k, v] : props) {
    if (k == name) return &v;
  }
  return nullptr;
}

bool CopyProperty(const PropertyMap& props, std::string_view name,
                  PropertyValue* out) {
  const PropertyValue* p = FindProperty(props, name);
  if (p == nullptr) return false;
  *out = *p;
  return true;
}

bool SetProperty(PropertyMap* props, std::string_view name,
                 PropertyValue value) {
  for (auto& [k, v] : *props) {
    if (k == name) {
      v = std::move(value);
      return false;
    }
  }
  props->emplace_back(std::string(name), std::move(value));
  return true;
}

void EncodePropertyMap(const PropertyMap& props, std::string* out) {
  PutVarint64(out, props.size());
  for (const auto& [k, v] : props) {
    PutVarint64(out, k.size());
    out->append(k);
    v.EncodeTo(out);
  }
}

Result<PropertyMap> DecodePropertyMap(std::string_view in, size_t* pos) {
  PropertyMap props;
  GDB_RETURN_IF_ERROR(DecodeMap(in, pos, &props));
  return props;
}

Status SkipPropertyMap(std::string_view in, size_t* pos) {
  return DecodeMap(in, pos, nullptr);
}

Result<bool> ReadEncodedProperty(std::string_view in, size_t* pos,
                                 std::string_view key, PropertyValue* out) {
  GDB_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(in, pos));
  for (uint64_t i = 0; i < n; ++i) {
    GDB_ASSIGN_OR_RETURN(uint64_t klen, GetVarint64(in, pos));
    if (klen > in.size() - *pos) return Status::Corruption("truncated key");
    const bool match = in.substr(*pos, klen) == key;
    *pos += klen;
    GDB_RETURN_IF_ERROR(DecodeValue(in, pos, match ? out : nullptr));
    if (match) return true;
  }
  return false;
}

bool EraseProperty(PropertyMap* props, std::string_view name) {
  for (auto it = props->begin(); it != props->end(); ++it) {
    if (it->first == name) {
      props->erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace gdbmicro
