#include "src/graph/writer.h"

namespace gdbmicro {

namespace {

/// Applies one decoded batch to the engine, binding pending handles to
/// engine ids as the Add ops execute. Remove ops tolerate NotFound
/// (idempotence: see GraphWriter::Commit contract).
Status ApplyBatchOps(GraphEngine& engine, const std::vector<WriteOp>& ops,
                     std::vector<VertexId>* vertex_ids,
                     std::vector<EdgeId>* edge_ids) {
  auto vertex = [&](const VertexRef& r) {
    return r.pending ? (*vertex_ids)[r.value] : r.value;
  };
  auto edge = [&](const EdgeRef& r) {
    return r.pending ? (*edge_ids)[r.value] : r.value;
  };
  auto tolerate_missing = [](Status s) {
    if (s.code() == StatusCode::kNotFound) return Status::OK();
    return s;
  };
  for (const WriteOp& op : ops) {
    switch (op.kind) {
      case WriteOp::Kind::kAddVertex: {
        GDB_ASSIGN_OR_RETURN(VertexId id, engine.AddVertex(op.name, op.props));
        vertex_ids->push_back(id);
        break;
      }
      case WriteOp::Kind::kAddEdge: {
        GDB_ASSIGN_OR_RETURN(
            EdgeId id,
            engine.AddEdge(vertex(op.src), vertex(op.dst), op.name, op.props));
        edge_ids->push_back(id);
        break;
      }
      case WriteOp::Kind::kSetVertexProperty:
        GDB_RETURN_IF_ERROR(
            engine.SetVertexProperty(vertex(op.src), op.name, op.value));
        break;
      case WriteOp::Kind::kSetEdgeProperty:
        GDB_RETURN_IF_ERROR(
            engine.SetEdgeProperty(edge(op.edge), op.name, op.value));
        break;
      case WriteOp::Kind::kRemoveVertex:
        GDB_RETURN_IF_ERROR(
            tolerate_missing(engine.RemoveVertex(vertex(op.src))));
        break;
      case WriteOp::Kind::kRemoveEdge:
        GDB_RETURN_IF_ERROR(tolerate_missing(engine.RemoveEdge(edge(op.edge))));
        break;
      case WriteOp::Kind::kRemoveVertexProperty:
        GDB_RETURN_IF_ERROR(tolerate_missing(
            engine.RemoveVertexProperty(vertex(op.src), op.name)));
        break;
      case WriteOp::Kind::kRemoveEdgeProperty:
        GDB_RETURN_IF_ERROR(tolerate_missing(
            engine.RemoveEdgeProperty(edge(op.edge), op.name)));
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Status ApplyWriteBatch(GraphEngine& engine, const WriteBatch& batch,
                       std::vector<VertexId>* vertex_ids,
                       std::vector<EdgeId>* edge_ids) {
  GDB_RETURN_IF_ERROR(batch.Validate());
  engine.InvalidatePathIndex();
  std::vector<VertexId> local_vertices;
  std::vector<EdgeId> local_edges;
  return ApplyBatchOps(engine, batch.ops(),
                       vertex_ids != nullptr ? vertex_ids : &local_vertices,
                       edge_ids != nullptr ? edge_ids : &local_edges);
}

GraphWriter::GraphWriter(GraphEngine* engine) : engine_(engine) {}

Result<CommitReceipt> GraphWriter::Commit(const WriteBatch& batch) {
  std::lock_guard<std::mutex> lock(commit_mu_);

  // Transient-fault window: fires before anything is logged, so the abort
  // leaves WAL, store, and epoch gate untouched and the caller may retry.
  if (fault_injector_ != nullptr) {
    GDB_RETURN_IF_ERROR(fault_injector_->Intercept("GraphWriter::Commit"));
  }

  // Phase 1: log. Readers keep running — the store is untouched, and a
  // device failure here aborts with the snapshot intact.
  GDB_ASSIGN_OR_RETURN(uint64_t sequence, wal_.LogBatch(batch));

  // Phase 2: apply under the epoch gate.
  CommitReceipt receipt;
  receipt.sequence = sequence;
  receipt.vertex_ids.reserve(batch.pending_vertices());
  receipt.edge_ids.reserve(batch.pending_edges());
  EpochManager& epochs = engine_->epochs();
  epochs.BeginApply();
  // Inside the drained apply window (no pinned sessions), so no reader
  // can observe the index swap: the graph is about to change and any
  // PathIndex describes the retiring snapshot.
  engine_->InvalidatePathIndex();
  Status applied = ApplyBatchOps(*engine_, batch.ops(), &receipt.vertex_ids,
                                 &receipt.edge_ids);
  // Publish even on failure: the gate must reopen, and recovery replay is
  // the authority on what a half-applied batch means (an engine-level
  // apply error is a hard fault of this in-memory emulation, not a state
  // we can roll back).
  receipt.epoch = epochs.EndApply();
  GDB_RETURN_IF_ERROR(applied);
  commits_.fetch_add(1, std::memory_order_relaxed);
  return receipt;
}

Result<RecoveryStats> GraphWriter::Replay(Journal& log, GraphEngine& engine) {
  return Wal::Recover(log, [&engine](const Wal::RecoveredBatch& batch) {
    std::vector<VertexId> vertex_ids;
    std::vector<EdgeId> edge_ids;
    return ApplyBatchOps(engine, batch.ops, &vertex_ids, &edge_ids);
  });
}

}  // namespace gdbmicro
