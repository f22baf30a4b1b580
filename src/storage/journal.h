// Fixed-extent append-only journal, grown into a write-ahead-log substrate.
//
// Models BlazeGraph's journal file (paper §6.2/Fig. 1): storage is
// preallocated in large fixed-size extents, so the on-disk footprint is the
// number of extents touched, not the bytes written — which is why the
// paper measures BlazeGraph at ~3x the size of every other system.
//
// On top of the raw byte API the journal speaks a framed record format —
// the unit of crash-safe logging used by the WAL layer (src/storage/wal.h):
//
//   frame := varint(payload_len) | type (1 byte) | crc32c (4 bytes, LE)
//            | payload
//
// The checksum covers type+payload, so any torn tail, short write, or bit
// flip inside a frame is detected. A kCommit frame seals every kMutation
// frame since the previous commit into one atomic batch, and a frame of
// any other type is corruption; Recover() replays complete committed
// batches only, truncates the journal to the last valid commit, and
// reports what it cut in a typed RecoveryStats.
//
// Durability faults are injected below the frame layer: AppendDurable()
// routes bytes through an optional FaultInjector that can fail, shorten,
// tear, or bit-flip the Nth physical append — deterministically by seed —
// which is how the recovery test matrix produces every crash shape the
// paper's failure taxonomy (timeouts, OOMs, dirty shutdowns) implies.

#ifndef GDBMICRO_STORAGE_JOURNAL_H_
#define GDBMICRO_STORAGE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace gdbmicro {

/// CRC32C (Castagnoli) over `data`, chained via `seed` (pass a previous
/// return value to extend). Software slice-by-one; deterministic across
/// platforms.
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

/// Frame types understood by the journal's record layer. Payload contents
/// are opaque here; the WAL layer defines the mutation encoding.
enum class WalRecordType : uint8_t {
  /// One staged mutation of a batch (opaque payload, see wal.h).
  kMutation = 1,
  /// Seals every record since the previous commit into an atomic batch.
  kCommit = 2,
};

/// What Recover() found and did. `tail` is OK when the log ended exactly
/// at a commit boundary and typed kCorruption otherwise (torn frame,
/// checksum mismatch, uncommitted trailing records, or a batch whose
/// payload failed to decode) — the failure class, not a crash.
struct RecoveryStats {
  uint64_t scanned_bytes = 0;    // journal bytes before recovery
  uint64_t valid_bytes = 0;      // longest valid committed prefix
  uint64_t truncated_bytes = 0;  // scanned_bytes - valid_bytes
  uint64_t records_applied = 0;  // frames delivered (mutations + commits)
  uint64_t commits_applied = 0;  // complete batches delivered
  Status tail;                   // OK, or typed kCorruption for the tail
};

/// Deterministic storage-fault injection for the Nth physical append (the
/// crash shapes a real disk can produce). After a kFailAppend, kShortWrite
/// or kTornWrite fires the journal is marked dead — the device failed
/// mid-write and nothing later reaches it. kBitFlip is silent media
/// corruption: the write "succeeds", later appends too, and only recovery
/// notices.
enum class FaultMode : uint8_t {
  kNone = 0,
  kFailAppend,  // Nth append returns IOError, nothing written
  kShortWrite,  // Nth append persists only a seeded prefix
  kTornWrite,   // Nth append persists a prefix with a zeroed gash inside
  kBitFlip,     // Nth append lands fully but with one seeded bit flipped
};

std::string_view FaultModeToString(FaultMode m);

class FaultInjector {
 public:
  /// Fires on the `trigger_append`-th call (1-based) to AppendDurable.
  /// `seed` fixes the mangled byte/bit positions.
  FaultInjector(FaultMode mode, uint64_t trigger_append, uint64_t seed = 42)
      : mode_(mode), trigger_append_(trigger_append), seed_(seed) {}

  /// How the journal must treat this append.
  struct Verdict {
    bool fail = false;        // report IOError, write nothing
    bool device_dead = false; // mark the journal dead after this append
    std::string bytes;        // what actually reaches the journal
  };
  Verdict Intercept(std::string_view data);

  FaultMode mode() const { return mode_; }
  uint64_t appends_seen() const { return appends_seen_; }
  bool fired() const { return fired_; }

 private:
  FaultMode mode_;
  uint64_t trigger_append_;
  uint64_t seed_;
  uint64_t appends_seen_ = 0;
  bool fired_ = false;
};

class Journal {
 public:
  /// `extent_bytes`: allocation granularity; `initial_extents`: extents
  /// preallocated at creation (the fixed-size initial journal).
  explicit Journal(uint64_t extent_bytes = 1 << 20,
                   uint64_t initial_extents = 8);

  /// Appends a blob; returns its offset. Infallible in-memory path (no
  /// fault injection) — the bulk-ingest API.
  uint64_t Append(std::string_view data);

  /// The durable-write path: routes the bytes through the installed
  /// FaultInjector (if any) and fails once the device has died. The WAL
  /// calls it once per commit — one AppendDurable models one disk write.
  Result<uint64_t> AppendDurable(std::string_view data);

  /// Appends one framed record (see the format at the top of this file)
  /// to `out` without touching the journal: the WAL encodes a batch's
  /// frames into one buffer and appends them in one write.
  static void EncodeRecord(WalRecordType type, std::string_view payload,
                           std::string* out);

  /// Scans the journal's framed records, replays complete committed
  /// batches into `visit`, and truncates the journal to the last valid
  /// commit. Records of an uncommitted or corrupt tail are never
  /// delivered (batch atomicity); `visit` receives each buffered record
  /// of a batch followed by its kCommit frame. A visit returning
  /// kCorruption invalidates that whole batch (the prefix keeps the
  /// previous commit); any other visit error aborts recovery as a hard
  /// failure. A frame that is neither kMutation nor kCommit is a
  /// kCorruption tail.
  using RecordVisitor =
      std::function<Status(WalRecordType, std::string_view payload)>;
  Result<RecoveryStats> Recover(const RecordVisitor& visit);

  /// Drops every byte at offset >= `used`. Recovery's truncation
  /// primitive; no-op when `used` >= UsedBytes().
  void Truncate(uint64_t used);

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// AppendDurable. Not owned; must outlive the journal or be cleared.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// True once a fault killed the device; AppendDurable fails from then on.
  bool dead() const { return dead_; }

  /// Bytes actually written.
  uint64_t UsedBytes() const { return used_; }

  /// Bytes occupied on disk (extent-granular, >= UsedBytes()).
  uint64_t AllocatedBytes() const { return allocated_; }

  /// The raw journal bytes (what a crash leaves behind; tests copy a
  /// prefix of this into a fresh journal to simulate recovery after
  /// power loss).
  std::string_view Bytes() const { return data_; }

  /// Appends the journal's on-disk image to `out`: a header, the used
  /// bytes, then zeros up to the allocated extent boundary.
  void Serialize(std::string* out) const;

 private:
  uint64_t extent_bytes_;
  uint64_t used_ = 0;
  uint64_t allocated_ = 0;
  std::string data_;
  FaultInjector* injector_ = nullptr;
  bool dead_ = false;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_JOURNAL_H_
