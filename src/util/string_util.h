// Small string helpers shared across the library.

#ifndef GDBMICRO_UTIL_STRING_UTIL_H_
#define GDBMICRO_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gdbmicro {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
inline bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a byte count with binary units ("1.5 MiB").
std::string HumanBytes(uint64_t bytes);

/// Formats a duration given in milliseconds with adaptive units
/// ("420 ns", "850 us", "12.3 ms", "4.5 s", "2.1 min").
std::string HumanMillis(double ms);

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_STRING_UTIL_H_
