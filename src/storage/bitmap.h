// Compressed bitmap over 64-bit ids, hybrid array/bitset containers per
// 65536-id chunk (the classic roaring layout). This is the storage core of
// the Sparksee-like engine: one bitmap per attribute value / label /
// adjacency set, so that selections become bitwise operations (paper §3.2).

#ifndef GDBMICRO_STORAGE_BITMAP_H_
#define GDBMICRO_STORAGE_BITMAP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gdbmicro {

/// A dynamic set of uint64 ids with compressed storage.
///
/// Containers switch representation at 4096 entries: below that a sorted
/// uint16 array, above a 8 KiB fixed bitset. Membership, insertion and
/// removal are O(log k) / O(1).
class Bitmap {
 public:
  Bitmap() = default;

  /// Inserts `id`; returns true if it was not already present.
  bool Add(uint64_t id);

  /// Removes `id`; returns true if it was present.
  bool Remove(uint64_t id);

  bool Contains(uint64_t id) const;

  uint64_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }

  /// Iterates ids in ascending order. Return false from `fn` to stop early.
  void ForEach(const std::function<bool(uint64_t)>& fn) const;

  /// Collects all ids in ascending order.
  std::vector<uint64_t> ToVector() const;

  /// In-place union.
  void UnionWith(const Bitmap& other);

  /// Approximate heap bytes used (for the engine memory budget).
  uint64_t MemoryBytes() const;

  /// Appends the bitmap's checkpoint image to `out`: per container its
  /// chunk id, then the array entries or the raw bitset words.
  void Serialize(std::string* out) const;

 private:
  static constexpr size_t kArrayLimit = 4096;
  static constexpr size_t kBitsetWords = 1024;  // 65536 bits

  struct Container {
    // Exactly one representation is active: array if !dense, bitset if dense.
    bool dense = false;
    std::vector<uint16_t> array;  // sorted
    std::vector<uint64_t> bits;   // kBitsetWords words when dense

    bool Add(uint16_t low);
    bool Remove(uint16_t low);
    bool Contains(uint16_t low) const;
    uint32_t Cardinality() const;
    void ToDense();
    void MaybeToArray();
    uint64_t MemoryBytes() const;
  };

  // chunk id (id >> 16) -> container.
  std::map<uint32_t, Container> containers_;
  uint64_t cardinality_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_BITMAP_H_
