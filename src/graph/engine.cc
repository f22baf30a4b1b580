#include "src/graph/engine.h"

#include <algorithm>
#include <set>

#include "src/graph/path_index.h"
#include "src/util/timer.h"

namespace gdbmicro {

QuerySession::QuerySession(const GraphEngine* engine) : engine_(engine) {
  epoch_ = engine_->epochs().Pin();
}

QuerySession::~QuerySession() { engine_->epochs().Unpin(); }

std::string_view QueryExecutionToString(QueryExecution q) {
  switch (q) {
    case QueryExecution::kStepWise:
      return "step-wise";
    case QueryExecution::kConflated:
      return "conflated";
  }
  return "?";
}

Status GraphEngine::BuildPathIndex(const CancelToken& cancel) {
  // Drop any stale index first: a failed rebuild must not leave a live
  // index describing an older snapshot.
  path_index_.reset();
  GDB_ASSIGN_OR_RETURN(path_index_, PathIndex::Build(*this, cancel));
  return Status::OK();
}

void GraphEngine::InvalidatePathIndex() { path_index_.reset(); }

Result<LoadMapping> GraphEngine::BulkLoad(const GraphData& data) {
  GDB_RETURN_IF_ERROR(data.Validate());
  load_stats_ = BulkLoadStats{};
  load_stats_.vertices = data.VertexCount();
  load_stats_.edges = data.EdgeCount();
  load_stats_.native = options_.bulk_load_mode == BulkLoadMode::kNative;
  Timer timer;
  Result<LoadMapping> mapping = load_stats_.native
                                    ? BulkLoadNative(data)
                                    : BulkLoadPerElement(data);
  GDB_RETURN_IF_ERROR(mapping.status());
  // Loaders fill index_build_millis themselves; everything else in the
  // wall time is the element pass.
  load_stats_.element_millis =
      std::max(0.0, timer.ElapsedMillis() - load_stats_.index_build_millis);
  load_stats_.bytes = MemoryBytes();
  // Planner statistics come from the validated dataset, not the engine:
  // one collector serves every variant, and collection cost is reported
  // separately so the Fig. 3 load numbers stay comparable.
  statistics_.reset();
  if (options_.collect_statistics) {
    Timer stats_timer;
    statistics_ =
        std::make_unique<GraphStatistics>(GraphStatistics::Collect(data));
    load_stats_.stats_build_millis = stats_timer.ElapsedMillis();
  }
  return mapping;
}

Result<LoadMapping> GraphEngine::BulkLoadPerElement(const GraphData& data) {
  // A native loader that falls back here (e.g. tripleish on a non-empty
  // instance) must not report the load as native.
  load_stats_.native = false;
  LoadMapping mapping;
  mapping.vertex_ids.reserve(data.vertices.size());
  mapping.edge_ids.reserve(data.edges.size());
  for (const auto& v : data.vertices) {
    GDB_ASSIGN_OR_RETURN(VertexId id, AddVertex(v.label, v.properties));
    mapping.vertex_ids.push_back(id);
  }
  for (const auto& e : data.edges) {
    GDB_ASSIGN_OR_RETURN(
        EdgeId id, AddEdge(mapping.vertex_ids[e.src], mapping.vertex_ids[e.dst],
                           e.label, e.properties));
    mapping.edge_ids.push_back(id);
  }
  return mapping;
}

Result<uint64_t> GraphEngine::CountVertices(QuerySession& session,
                                            const CancelToken& cancel) const {
  uint64_t n = 0;
  GDB_RETURN_IF_ERROR(ScanVertices(session, cancel, [&](VertexId) {
    ++n;
    return true;
  }));
  return n;
}

Result<uint64_t> GraphEngine::CountEdges(QuerySession& session,
                                         const CancelToken& cancel) const {
  uint64_t n = 0;
  GDB_RETURN_IF_ERROR(ScanEdges(session, cancel, [&](const EdgeEnds&) {
    ++n;
    return true;
  }));
  return n;
}

Result<std::vector<std::string>> GraphEngine::DistinctEdgeLabels(
    QuerySession& session, const CancelToken& cancel) const {
  std::set<std::string> labels;
  GDB_RETURN_IF_ERROR(ScanEdges(session, cancel, [&](const EdgeEnds& e) {
    labels.insert(e.label);
    return true;
  }));
  return std::vector<std::string>(labels.begin(), labels.end());
}

Result<bool> GraphEngine::ReadVertexProperty(QuerySession& session,
                                             VertexId id, std::string_view key,
                                             PropertyValue* out) const {
  GDB_ASSIGN_OR_RETURN(VertexRecord rec, GetVertex(session, id));
  return CopyProperty(rec.properties, key, out);
}

Result<bool> GraphEngine::ReadEdgeProperty(QuerySession& session, EdgeId id,
                                           std::string_view key,
                                           PropertyValue* out) const {
  GDB_ASSIGN_OR_RETURN(EdgeRecord rec, GetEdge(session, id));
  return CopyProperty(rec.properties, key, out);
}

Result<std::vector<VertexId>> GraphEngine::FindVerticesByProperty(
    QuerySession& session, std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  std::vector<VertexId> out;
  PropertyValue probe;
  Status scan_status = Status::OK();
  GDB_RETURN_IF_ERROR(ScanVertices(session, cancel, [&](VertexId id) {
    Result<bool> found = ReadVertexProperty(session, id, prop, &probe);
    if (!found.ok()) {
      scan_status = found.status();
      return false;
    }
    if (*found && probe == value) out.push_back(id);
    return true;
  }));
  GDB_RETURN_IF_ERROR(scan_status);
  return out;
}

Result<std::vector<EdgeId>> GraphEngine::FindEdgesByProperty(
    QuerySession& session, std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  std::vector<EdgeId> out;
  PropertyValue probe;
  Status scan_status = Status::OK();
  GDB_RETURN_IF_ERROR(ScanEdges(session, cancel, [&](const EdgeEnds& e) {
    Result<bool> found = ReadEdgeProperty(session, e.id, prop, &probe);
    if (!found.ok()) {
      scan_status = found.status();
      return false;
    }
    if (*found && probe == value) out.push_back(e.id);
    return true;
  }));
  GDB_RETURN_IF_ERROR(scan_status);
  return out;
}

Result<std::vector<EdgeId>> GraphEngine::FindEdgesByLabel(
    QuerySession& session, std::string_view label,
    const CancelToken& cancel) const {
  std::vector<EdgeId> out;
  GDB_RETURN_IF_ERROR(ScanEdges(session, cancel, [&](const EdgeEnds& e) {
    if (e.label == label) out.push_back(e.id);
    return true;
  }));
  return out;
}

Result<std::vector<EdgeId>> GraphEngine::EdgesOf(
    QuerySession& session, VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel) const {
  std::vector<EdgeId> out;
  GDB_RETURN_IF_ERROR(
      ForEachEdgeOf(session, v, dir, label, cancel, [&](EdgeId e) {
    out.push_back(e);
    return true;
  }));
  return out;
}

Result<std::vector<VertexId>> GraphEngine::NeighborsOf(
    QuerySession& session, VertexId v, Direction dir,
    const std::string* label, const CancelToken& cancel) const {
  std::vector<VertexId> out;
  GDB_RETURN_IF_ERROR(
      ForEachNeighbor(session, v, dir, label, cancel, [&](VertexId n) {
    out.push_back(n);
    return true;
  }));
  return out;
}

Result<uint64_t> GraphEngine::CountEdgesOf(QuerySession& session, VertexId v,
                                           Direction dir,
                                           const CancelToken& cancel) const {
  uint64_t n = 0;
  GDB_RETURN_IF_ERROR(
      ForEachEdgeOf(session, v, dir, nullptr, cancel, [&](EdgeId) {
    ++n;
    return true;
  }));
  return n;
}

Status GraphEngine::CreateVertexPropertyIndex(std::string_view prop) {
  (void)prop;
  return Status::Unimplemented(std::string(name()) +
                               " does not support user attribute indexes");
}

}  // namespace gdbmicro
