// GraphWriter: the single-writer commit path of the concurrent-write
// contract (see src/graph/engine.h).
//
// A commit takes a WriteBatch through two phases:
//
//   1. Log — the batch is encoded into the WAL (framed, checksummed,
//      appended in one durable write; see src/storage/wal.h). This runs
//      concurrently with reader sessions: the store is untouched, so
//      nothing needs to drain. An IOError here (injected device failure)
//      aborts the commit with the store unchanged.
//   2. Apply — EpochManager::BeginApply() closes the pin gate and drains
//      current readers; the ops are applied to the engine in place with
//      exclusive access, binding the batch's pending handles to real ids;
//      EndApply() publishes the next epoch. Sessions created before the
//      commit saw the old snapshot for their whole lifetime; sessions
//      created after see the new one.
//
// Commit() serializes callers internally, so any number of threads may
// share one GraphWriter — they contend on the commit mutex, which is the
// single-writer discipline, not a data race.
//
// Replay() is the recovery half: it drives Wal::Recover over a crashed
// log and re-applies every complete committed batch to a freshly loaded
// engine, giving back the typed RecoveryStats describing what the crash
// cut off.

#ifndef GDBMICRO_GRAPH_WRITER_H_
#define GDBMICRO_GRAPH_WRITER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/graph/engine.h"
#include "src/storage/wal.h"
#include "src/util/result.h"

namespace gdbmicro {

/// What a committed batch resolved to.
struct CommitReceipt {
  /// Epoch published by this commit; sessions created from now on see it.
  uint64_t epoch = 0;
  /// WAL sequence number of the batch.
  uint64_t sequence = 0;
  /// Engine ids bound to the batch's PendingVertex/PendingEdge handles,
  /// indexed by handle.
  std::vector<VertexId> vertex_ids;
  std::vector<EdgeId> edge_ids;
};

/// Applies `batch` directly to the engine — no WAL, no epoch gate. This
/// is the single-threaded path (tests, the sequential runner): legal only
/// when no concurrent read session exists. Remove ops are idempotent,
/// matching GraphWriter::Commit, so the two paths have identical
/// semantics. Out-vectors (optional) receive the ids bound to the batch's
/// pending handles.
Status ApplyWriteBatch(GraphEngine& engine, const WriteBatch& batch,
                       std::vector<VertexId>* vertex_ids = nullptr,
                       std::vector<EdgeId>* edge_ids = nullptr);

class GraphWriter {
 public:
  explicit GraphWriter(GraphEngine* engine);

  /// Logs and applies `batch` atomically (see the phases above). Remove
  /// ops are idempotent: removing an element that no longer exists is a
  /// no-op, so replaying a log or racing victim selections cannot fail a
  /// batch. Thread-safe.
  Result<CommitReceipt> Commit(const WriteBatch& batch);

  /// Arms transient-fault injection on the commit path. An injected fault
  /// fires before the batch is logged, so an aborted commit leaves the
  /// WAL, the store, and the epoch gate untouched — the kUnavailable it
  /// returns is safely retryable. Not owned; nullptr disarms.
  void set_fault_injector(const QueryFaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Re-applies every complete committed batch in `log` to `engine`.
  /// The engine is mutated directly (recovery precedes serving; no epoch
  /// gate).
  static Result<RecoveryStats> Replay(Journal& log, GraphEngine& engine);

  GraphEngine* engine() const { return engine_; }
  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }

 private:
  GraphEngine* engine_;  // not owned; must outlive the writer
  Wal wal_;
  std::mutex commit_mu_;
  std::atomic<uint64_t> commits_{0};
  const QueryFaultInjector* fault_injector_ = nullptr;  // not owned
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_WRITER_H_
