// Append-only record store with a logical-id indirection map.
//
// This is the OrientDB storage primitive from paper §3.2: "record IDs are
// not linked directly to a physical position, but point to an append-only
// data structure, where the logical identifier is mapped to a physical
// position. This allows for changing the physical position of an object
// without changing its identifier."

#ifndef GDBMICRO_STORAGE_APPEND_STORE_H_
#define GDBMICRO_STORAGE_APPEND_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace gdbmicro {

/// Variable-length records in an append-only log. Updating a record appends
/// a new version and repoints the logical map; the old bytes remain in the
/// log for the store's lifetime, so LogBytes() includes dead versions.
/// SerializeCompacted() writes the live versions only, as a checkpoint
/// reclaims the space of superseded ones.
class AppendStore {
 public:
  static constexpr uint64_t kTombstone = ~0ULL;

  /// Appends a new record, returns its logical id.
  uint64_t Append(std::string_view data);

  /// Presizes for `records` additional appends totalling ~`bytes` of
  /// payload (bulk-load fast path). Capacity only.
  void Reserve(uint64_t records, uint64_t bytes) {
    positions_.reserve(positions_.size() + records);
    log_.reserve(log_.size() + bytes + records * 2);  // + varint headers
  }

  /// Replaces the record's content (appends a new version).
  Status Update(uint64_t id, std::string_view data);

  /// Marks the record deleted. Its log bytes stay in the log.
  Status Delete(uint64_t id);

  bool IsLive(uint64_t id) const {
    return id < positions_.size() && positions_[id] != kTombstone;
  }

  Result<std::string_view> Read(uint64_t id) const;

  uint64_t LiveCount() const { return live_count_; }
  uint64_t LogicalCount() const { return positions_.size(); }

  /// Log footprint in bytes, including dead versions.
  uint64_t LogBytes() const { return log_.size(); }

  void Serialize(std::string* out) const;

  /// Serializes a compacted image (live versions only) without mutating
  /// the store — what a checkpoint writes to disk after space reclaim.
  void SerializeCompacted(std::string* out) const;

 private:
  // Physical record layout in log: varint length, then payload.
  uint64_t AppendPhysical(std::string_view data);

  std::string log_;
  std::vector<uint64_t> positions_;  // logical id -> log offset or kTombstone
  uint64_t live_count_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_APPEND_STORE_H_
