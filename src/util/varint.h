// Variable-length integer and delta coding. The columnar adjacency engine
// (Titan-like) compresses the neighbor ids in each adjacency row with
// delta+varint coding, which is what gives it the paper's best-in-class
// space footprint on hub-heavy graphs (Fig. 1).

#ifndef GDBMICRO_UTIL_VARINT_H_
#define GDBMICRO_UTIL_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace gdbmicro {

/// Appends `v` to `out` in LEB128 (base-128 varint) encoding.
void PutVarint64(std::string* out, uint64_t v);

/// The kCorruption status GetVarint64 fails with, out of line so the
/// inlined decoder carries no message string.
Status TruncatedVarint();

/// Decodes a varint starting at in[*pos]; advances *pos. Fails with
/// kCorruption on truncated input. Takes a view so raw record payloads
/// can be decoded without copying into a std::string first. Inline: the
/// record decoders run it once per stored id.
inline Result<uint64_t> GetVarint64(std::string_view in, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return TruncatedVarint();
}

/// ZigZag mapping so small negative deltas stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Delta+varint encodes a *sorted* id list: the count, then each id's
/// gap to the previous one (the first id's gap to 0). Unsorted input is
/// rejected by assertion in debug builds; callers sort first.
void EncodeDeltaList(const std::vector<uint64_t>& sorted_ids,
                     std::string* out);

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_VARINT_H_
