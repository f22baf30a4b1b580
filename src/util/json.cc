#include "src/util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gdbmicro {

namespace {

void EscapeString(std::string_view s, std::string* out) {
  out->push_back('"');
  // Runs of clean bytes append in bulk; only the characters that actually
  // need escaping take the switch.
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out->append(s.substr(start, i - start));
    start = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.substr(start));
  out->push_back('"');
}

/// Builds the Json tree for the value at the reader's cursor.
Result<Json> ReadTree(JsonReader& reader, std::string* scratch) {
  GDB_ASSIGN_OR_RETURN(JsonReader::Kind kind, reader.Peek());
  if (kind == JsonReader::Kind::kObject) {
    Json::Object obj;
    bool more = reader.EnterObject();
    while (more) {
      std::string_view key;
      GDB_RETURN_IF_ERROR(reader.ReadKey(scratch, &key));
      std::string name(key);
      GDB_ASSIGN_OR_RETURN(Json v, ReadTree(reader, scratch));
      obj.emplace_back(std::move(name), std::move(v));
      GDB_ASSIGN_OR_RETURN(more, reader.NextMember());
    }
    return Json(std::move(obj));
  }
  if (kind == JsonReader::Kind::kArray) {
    Json::Array arr;
    bool more = reader.EnterArray();
    while (more) {
      GDB_ASSIGN_OR_RETURN(Json v, ReadTree(reader, scratch));
      arr.push_back(std::move(v));
      GDB_ASSIGN_OR_RETURN(more, reader.NextElement());
    }
    return Json(std::move(arr));
  }
  JsonReader::Value v;
  GDB_RETURN_IF_ERROR(reader.ReadValue(scratch, &v));
  switch (v.kind) {
    case JsonReader::Kind::kBool:
      return Json(v.boolean);
    case JsonReader::Kind::kNumber:
      return v.is_double ? Json(v.real) : Json(v.integer);
    case JsonReader::Kind::kString:
      return Json(std::string(v.string));
    default:
      return Json(nullptr);
  }
}

}  // namespace

// --- JsonReader ------------------------------------------------------------

Status JsonReader::Corrupt(const char* what) {
  return Status::Corruption(what);
}

Status JsonReader::SkipContainer() {
  if (text_[pos_] == '{') {
    bool more = EnterObject();
    while (more) {
      GDB_RETURN_IF_ERROR(ReadKey(nullptr, nullptr));
      GDB_RETURN_IF_ERROR(SkipValue());
      GDB_ASSIGN_OR_RETURN(more, NextMember());
    }
    return Status::OK();
  }
  bool more = EnterArray();
  while (more) {
    GDB_RETURN_IF_ERROR(SkipValue());
    GDB_ASSIGN_OR_RETURN(more, NextElement());
  }
  return Status::OK();
}

Status JsonReader::MatchLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Status::Corruption("invalid JSON literal");
  }
  pos_ += literal.size();
  return Status::OK();
}

// The token is the run of [0-9.eE+-] after an optional '-'. Tokens with
// no '.', 'e', 'E', '+' or '-' past that sign are integers; the rest are
// doubles and must be whole strtod numbers: an optional sign, digits with
// at most one '.' (at least one digit in all), and an optional exponent
// with at least one digit.
Status JsonReader::ScanNumber(std::string_view* token, bool* is_double) {
  const size_t start = pos_;
  *is_double = false;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      *is_double = true;
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return Status::Corruption("invalid JSON number");
  *token = text_.substr(start, pos_ - start);
  const std::string_view t = *token;
  size_t i = 0;
  auto digits = [&] {
    size_t from = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i - from;
  };
  if (t[i] == '-' || (*is_double && t[i] == '+')) ++i;
  size_t mantissa = digits();
  if (*is_double && i < t.size() && t[i] == '.') {
    ++i;
    mantissa += digits();
  }
  bool valid = mantissa > 0;
  if (valid && *is_double && i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    valid = digits() > 0;
  }
  if (!valid || i != t.size()) {
    return Status::Corruption("invalid JSON number: " + std::string(t));
  }
  return Status::OK();
}

Status JsonReader::ReadNumberToken(Value* out) {
  std::string_view token;
  GDB_RETURN_IF_ERROR(ScanNumber(&token, &out->is_double));
  if (!out->is_double) {
    long long i = 0;
    auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
    if (ec == std::errc()) {
      out->integer = static_cast<int64_t>(i);
      return Status::OK();
    }
    out->is_double = true;  // out of int64's range: keep it as a double
  }
  // strtod wants a terminated string; number tokens are short.
  char buf[64];
  std::string long_token;
  const char* text = buf;
  if (token.size() < sizeof(buf)) {
    token.copy(buf, token.size());
    buf[token.size()] = '\0';
  } else {
    long_token.assign(token);
    text = long_token.c_str();
  }
  out->real = std::strtod(text, nullptr);
  return Status::OK();
}

Status JsonReader::ReadEscapedString(size_t start, std::string* scratch,
                                     std::string_view* out) {
  if (scratch != nullptr) scratch->assign(text_.substr(start, pos_ - start));
  auto put = [scratch](char c) {
    if (scratch != nullptr) scratch->push_back(c);
  };
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') {
      if (out != nullptr) {
        *out = scratch != nullptr ? std::string_view(*scratch)
                                  : std::string_view();
      }
      return Status::OK();
    }
    if (c != '\\') {
      put(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    char esc = text_[pos_++];
    switch (esc) {
      case '"': put('"'); break;
      case '\\': put('\\'); break;
      case '/': put('/'); break;
      case 'n': put('\n'); break;
      case 'r': put('\r'); break;
      case 't': put('\t'); break;
      case 'b': put('\b'); break;
      case 'f': put('\f'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) {
          return Status::Corruption("truncated \\u escape");
        }
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Status::Corruption("invalid \\u escape");
        }
        // Encode as UTF-8 (basic multilingual plane only; surrogate pairs
        // are passed through as two 3-byte sequences, sufficient for the
        // benchmark payloads).
        if (code < 0x80) {
          put(static_cast<char>(code));
        } else if (code < 0x800) {
          put(static_cast<char>(0xC0 | (code >> 6)));
          put(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          put(static_cast<char>(0xE0 | (code >> 12)));
          put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          put(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Status::Corruption("invalid escape character");
    }
  }
  return Status::Corruption("unterminated JSON string");
}

// --- Json --------------------------------------------------------------------

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::Set(std::string key, Json value) {
  for (auto& [k, v] : object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object().emplace_back(std::move(key), std::move(value));
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * (depth + 1)), ' ');
    }
  };
  auto closing_newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  if (is_null()) {
    out->append("null");
  } else if (is_bool()) {
    out->append(bool_value() ? "true" : "false");
  } else if (is_int()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<int64_t>(value_)));
    out->append(buf);
  } else if (is_double()) {
    double d = std::get<double>(value_);
    if (std::isfinite(d)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      // Keep the double/integer distinction across a round trip: an
      // integral double must not re-parse as an int64.
      if (std::strpbrk(buf, ".eEnN") == nullptr) {
        std::strcat(buf, ".0");
      }
      out->append(buf);
    } else {
      out->append("null");  // JSON has no Inf/NaN
    }
  } else if (is_string()) {
    EscapeString(string_value(), out);
  } else if (is_array()) {
    const Array& arr = array();
    if (arr.empty()) {
      out->append("[]");
      return;
    }
    out->push_back('[');
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i) out->push_back(',');
      newline();
      arr[i].DumpTo(out, indent, depth + 1);
    }
    closing_newline();
    out->push_back(']');
  } else {
    const Object& obj = object();
    if (obj.empty()) {
      out->append("{}");
      return;
    }
    out->push_back('{');
    for (size_t i = 0; i < obj.size(); ++i) {
      if (i) out->push_back(',');
      newline();
      EscapeString(obj[i].first, out);
      out->push_back(':');
      if (indent > 0) out->push_back(' ');
      obj[i].second.DumpTo(out, indent, depth + 1);
    }
    closing_newline();
    out->push_back('}');
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

void Json::DumpAppend(std::string* out) const { DumpTo(out, 0, 0); }

void AppendEscapedJsonString(std::string_view s, std::string* out) {
  EscapeString(s, out);
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  JsonReader reader(text);
  std::string scratch;
  GDB_ASSIGN_OR_RETURN(Json v, ReadTree(reader, &scratch));
  GDB_RETURN_IF_ERROR(reader.Finish());
  return v;
}

}  // namespace gdbmicro
