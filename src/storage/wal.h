// Write-ahead log for graph mutations: framed, checksummed, one durable
// write per commit.
//
// The Wal turns a WriteBatch (a staged sequence of graph mutations, with
// forward references to elements created earlier in the same batch) into
// framed kMutation records sealed by one kCommit record — the atomic unit
// recovery replays. Property values and maps inside a record use the
// store's own codec (PropertyValue::EncodeTo / EncodePropertyMap, see
// src/graph/types.h). A batch's frames reach the log journal in one
// AppendDurable, so every commit is durable when LogBatch returns.
//
// Recovery (`Wal::Recover`) drives Journal::Recover over a crashed log:
// complete committed batches are decoded and handed to the applier in
// order; a torn tail, checksum mismatch, op-count mismatch, or a record
// that fails to decode truncates the log to the last valid commit and
// surfaces a typed kCorruption tail in RecoveryStats — never a crash,
// never a partially applied batch.

#ifndef GDBMICRO_STORAGE_WAL_H_
#define GDBMICRO_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/types.h"
#include "src/storage/journal.h"
#include "src/util/result.h"

namespace gdbmicro {

/// Handle to a vertex created earlier in the same WriteBatch.
struct PendingVertex {
  uint64_t index;
};
/// Handle to an edge created earlier in the same WriteBatch.
struct PendingEdge {
  uint64_t index;
};

/// A vertex named either by an existing engine id or by a forward
/// reference into the batch ("the 3rd vertex this batch creates").
struct VertexRef {
  VertexRef(VertexId id = 0) : value(id) {}          // NOLINT
  VertexRef(PendingVertex p) : value(p.index), pending(true) {}  // NOLINT
  uint64_t value = 0;
  bool pending = false;
};

struct EdgeRef {
  EdgeRef(EdgeId id = 0) : value(id) {}              // NOLINT
  EdgeRef(PendingEdge p) : value(p.index), pending(true) {}  // NOLINT
  uint64_t value = 0;
  bool pending = false;
};

/// One staged mutation. The fields used depend on `kind`; `name` holds
/// the element label for the Add ops and the property name for the
/// property ops.
struct WriteOp {
  enum class Kind : uint8_t {
    kAddVertex = 1,
    kAddEdge = 2,
    kSetVertexProperty = 3,
    kSetEdgeProperty = 4,
    kRemoveVertex = 5,
    kRemoveEdge = 6,
    kRemoveVertexProperty = 7,
    kRemoveEdgeProperty = 8,
  };
  Kind kind = Kind::kAddVertex;
  VertexRef src;        // target vertex (vertex ops), source (kAddEdge)
  VertexRef dst;        // kAddEdge only
  EdgeRef edge;         // target edge (edge ops)
  std::string name;     // label or property name
  PropertyMap props;    // kAddVertex / kAddEdge
  PropertyValue value;  // kSet*Property
};

std::string_view WriteOpKindToString(WriteOp::Kind k);

/// A staged batch of mutations, applied atomically through
/// GraphWriter::Commit. AddVertex/AddEdge return handles usable as refs
/// by later ops of the same batch (a vertex plus its fan-out edges is one
/// atomic unit, the paper's Q.7 shape).
class WriteBatch {
 public:
  PendingVertex AddVertex(std::string_view label, PropertyMap props);
  PendingEdge AddEdge(VertexRef src, VertexRef dst, std::string_view label,
                      PropertyMap props);
  void SetVertexProperty(VertexRef v, std::string_view name,
                         PropertyValue value);
  void SetEdgeProperty(EdgeRef e, std::string_view name, PropertyValue value);
  void RemoveVertex(VertexRef v);
  void RemoveEdge(EdgeRef e);
  void RemoveVertexProperty(VertexRef v, std::string_view name);
  void RemoveEdgeProperty(EdgeRef e, std::string_view name);

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const std::vector<WriteOp>& ops() const { return ops_; }
  uint64_t pending_vertices() const { return pending_vertices_; }
  uint64_t pending_edges() const { return pending_edges_; }

  /// Forward references must point at elements created *earlier* in this
  /// batch; returns the first violation, or OK.
  Status Validate() const;

 private:
  std::vector<WriteOp> ops_;
  uint64_t pending_vertices_ = 0;
  uint64_t pending_edges_ = 0;
};

/// The write-ahead log. Single-writer (GraphWriter serializes callers);
/// not thread-safe by itself.
class Wal {
 public:
  Wal();

  /// Encodes `batch` as kMutation records sealed by a kCommit record and
  /// appends them to the log in one durable write. Returns the batch's
  /// sequence number. An IOError (injected device failure) loses the
  /// batch; the caller must treat the log as dead.
  Result<uint64_t> LogBatch(const WriteBatch& batch);

  /// A batch decoded back out of the log by Recover.
  struct RecoveredBatch {
    uint64_t sequence = 0;
    std::vector<WriteOp> ops;
  };
  using BatchApplier = std::function<Status(const RecoveredBatch&)>;

  /// Replays `log` (as left behind by a crash) in commit order into
  /// `apply`, truncating `log` to the longest valid committed prefix. See
  /// the contract at the top of this file.
  static Result<RecoveryStats> Recover(Journal& log,
                                       const BatchApplier& apply);

  /// Convenience: recover this Wal's own log.
  Result<RecoveryStats> Recover(const BatchApplier& apply) {
    return Recover(log_, apply);
  }

  Journal& log() { return log_; }
  const Journal& log() const { return log_; }

  // --- stats -------------------------------------------------------------
  uint64_t commits_logged() const { return commits_logged_; }
  /// Durable writes to the log: one per commit whose write did not fail.
  uint64_t flushes() const { return flushes_; }
  uint64_t bytes_logged() const { return log_.UsedBytes(); }

 private:
  Journal log_;
  std::string frames_;   // the batch's frames; capacity reused
  std::string payload_;  // one record's payload; capacity reused
  uint64_t next_sequence_ = 1;
  uint64_t commits_logged_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_WAL_H_
