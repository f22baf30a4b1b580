#include "src/util/varint.h"

#include <cassert>

namespace gdbmicro {

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status TruncatedVarint() { return Status::Corruption("truncated varint"); }

void EncodeDeltaList(const std::vector<uint64_t>& sorted_ids,
                     std::string* out) {
  PutVarint64(out, sorted_ids.size());
  uint64_t prev = 0;
  for (uint64_t id : sorted_ids) {
    assert(id >= prev);
    PutVarint64(out, id - prev);
    prev = id;
  }
}

}  // namespace gdbmicro
