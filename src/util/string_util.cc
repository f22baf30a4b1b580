#include "src/util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace gdbmicro {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.1f %s", v, kUnits[unit]);
}

std::string HumanMillis(double ms) {
  if (ms < 0.001) return StrFormat("%.0f ns", ms * 1e6);
  if (ms < 1.0) return StrFormat("%.0f us", ms * 1000.0);
  if (ms < 1000.0) return StrFormat("%.2f ms", ms);
  double s = ms / 1000.0;
  if (s < 120.0) return StrFormat("%.2f s", s);
  return StrFormat("%.1f min", s / 60.0);
}

}  // namespace gdbmicro
