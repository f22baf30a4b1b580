// Fixed-size record file with a free list.
//
// This is the Neo4j storage primitive the paper describes in §3.2: records
// of fixed size whose id *is* the offset of their position in the file, so
// that a lookup is a multiplication plus a read, and deleted slots are
// recycled through an embedded free list.

#ifndef GDBMICRO_STORAGE_RECORD_FILE_H_
#define GDBMICRO_STORAGE_RECORD_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace gdbmicro {

/// A growable array of fixed-size records backed by one contiguous buffer.
/// Record ids are slot indexes (i.e. byte offset / record size). Slot 0 is
/// valid. Freed slots are chained in a free list stored inside the slots
/// themselves and reused by Allocate().
class RecordFile {
 public:
  static constexpr uint64_t kNoRecord = ~0ULL;

  /// `record_size` must be at least 9 bytes (1 flag + 8 free-list link).
  explicit RecordFile(uint32_t record_size);

  /// Allocates a slot (reusing a free one if available) and zero-fills it.
  uint64_t Allocate();

  /// Presizes the backing buffer for `slots` additional records so a bulk
  /// load's Allocate calls never reallocate. Capacity only; SlotCount()
  /// and the free list are unaffected.
  void Reserve(uint64_t slots) {
    buffer_.reserve(buffer_.size() + slots * record_size_);
  }

  /// Releases a slot back to the free list. Double-free is an error.
  Status Free(uint64_t id);

  /// True if the slot is currently allocated.
  bool IsLive(uint64_t id) const;

  /// Writes `data` (at most record_size - 1 bytes of payload) into the slot.
  Status Write(uint64_t id, std::string_view data);

  /// Returns a view of the slot payload. The view is invalidated by any
  /// subsequent Allocate/Write.
  Result<std::string_view> Read(uint64_t id) const;

  /// Number of live records.
  uint64_t LiveCount() const { return live_count_; }

  /// Total slots ever allocated (file length in records).
  uint64_t SlotCount() const { return slot_count_; }

  uint32_t record_size() const { return record_size_; }

  /// File footprint in bytes (includes free slots: the file does not shrink,
  /// exactly like the production systems it models).
  uint64_t FileBytes() const { return buffer_.size(); }

  /// Serializes the whole file (header + buffer).
  void Serialize(std::string* out) const;

 private:
  // Slot layout: [0] = flags (1 = live), [1..8] = free-list next when free,
  // payload when live.
  char* SlotPtr(uint64_t id) { return buffer_.data() + id * record_size_; }
  const char* SlotPtr(uint64_t id) const {
    return buffer_.data() + id * record_size_;
  }

  uint32_t record_size_;
  std::string buffer_;
  uint64_t slot_count_ = 0;
  uint64_t live_count_ = 0;
  uint64_t free_head_ = kNoRecord;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_RECORD_FILE_H_
