// String dictionary: interns strings to dense uint32 ids. Several engines
// keep labels/types in a dedicated file (paper §3.2: Neo4j has "one file
// for labels and types"); this is that file's in-memory form plus its
// serialization. blaze interns its RDF terms in one.

#ifndef GDBMICRO_ENGINES_COMMON_DICTIONARY_H_
#define GDBMICRO_ENGINES_COMMON_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/hash_index.h"
#include "src/util/varint.h"

namespace gdbmicro {

class Dictionary {
 public:
  static constexpr uint32_t kNoId = ~0u;

  /// Returns the id for `s`, interning it if new. The probe is
  /// heterogeneous (no std::string materialized); only a genuinely new
  /// string is copied, once, into the backing store.
  uint32_t Intern(std::string_view s) {
    if (const uint32_t* id = ids_.Get(s)) return *id;
    uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.Put(strings_.back(), id);
    return id;
  }

  /// Returns the id for `s` or kNoId if absent (does not intern, does not
  /// allocate).
  uint32_t Lookup(std::string_view s) const {
    const uint32_t* id = ids_.Get(s);
    return id != nullptr ? *id : kNoId;
  }

  /// Presizes the id index for `n` distinct strings (bulk-load fast path).
  void Reserve(uint32_t n) {
    strings_.reserve(n);
    ids_.Reserve(n);
  }

  const std::string& Get(uint32_t id) const { return strings_[id]; }

  uint32_t size() const { return static_cast<uint32_t>(strings_.size()); }

  uint64_t MemoryBytes() const {
    uint64_t n = ids_.MemoryBytes();
    for (const auto& s : strings_) n += s.size() + sizeof(std::string);
    return n;
  }

  void Serialize(std::string* out) const {
    PutVarint64(out, strings_.size());
    for (const auto& s : strings_) {
      PutVarint64(out, s.size());
      out->append(s);
    }
  }

 private:
  std::vector<std::string> strings_;
  HashIndex<std::string, uint32_t> ids_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_COMMON_DICTIONARY_H_
