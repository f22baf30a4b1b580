#include "src/engines/orientish/orient_engine.h"

#include <algorithm>
#include <utility>

#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {

EngineInfo OrientEngine::info() const {
  EngineInfo info;
  info.name = "orient";
  info.emulates = "OrientDB 2.2";
  info.type = "Native";
  info.storage = "Linked records in per-label clusters (logical id map)";
  info.edge_traversal = "2-hop pointer";
  // Binary contract: orient's adapter does conflate the patterns the
  // planner rewrites (it matched the legacy substring fast paths too).
  info.query_execution = QueryExecution::kConflated;
  info.query_execution_display = "Mixed (partially conflated)";
  info.supports_property_index = true;
  return info;
}

Status OrientEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  // Cluster bookkeeping overhead per new edge label, charged on cluster
  // creation (the paper: OrientDB "was performing a lot of bookkeeping
  // tasks for each edge-label it was loading").
  cost_.per_write_us = 200;
  cost_.enabled = options.enable_cost_model;
  return Status::OK();
}

// --- encoding ---------------------------------------------------------------

void OrientEngine::EncodeVertex(const VertexData& v, std::string* out) {
  PutVarint64(out, v.label);
  EncodePropertyMap(v.props, out);
  out->push_back(v.external_adj ? 1 : 0);
  if (!v.external_adj) {
    PutVarint64(out, v.out_edges.size());
    for (EdgeId e : v.out_edges) PutVarint64(out, e);
    PutVarint64(out, v.in_edges.size());
    for (EdgeId e : v.in_edges) PutVarint64(out, e);
  }
}

Status OrientEngine::SplitVertex(std::string_view blob, VertexView* out,
                                PropertyMap* props) {
  size_t pos = 0;
  GDB_ASSIGN_OR_RETURN(uint64_t label, GetVarint64(blob, &pos));
  out->label = static_cast<uint32_t>(label);
  if (props != nullptr) {
    GDB_ASSIGN_OR_RETURN(*props, DecodePropertyMap(blob, &pos));
  } else {
    GDB_RETURN_IF_ERROR(SkipPropertyMap(blob, &pos));
  }
  if (pos >= blob.size()) return Status::Corruption("truncated vertex record");
  out->external_adj = blob[pos++] != 0;
  out->out_edges = RidRun();
  out->in_edges = RidRun();
  if (!out->external_adj) {
    for (RidRun* run : {&out->out_edges, &out->in_edges}) {
      GDB_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(blob, &pos));
      const size_t start = pos;
      for (uint64_t i = 0; i < n; ++i) {
        GDB_RETURN_IF_ERROR(GetVarint64(blob, &pos).status());
      }
      *run = RidRun(blob.substr(start, pos - start), n);
    }
  }
  return Status::OK();
}

Result<OrientEngine::VertexData> OrientEngine::DecodeVertex(
    std::string_view blob) {
  VertexView view;
  VertexData v;
  GDB_RETURN_IF_ERROR(SplitVertex(blob, &view, &v.props));
  v.label = view.label;
  v.external_adj = view.external_adj;
  v.out_edges.reserve(view.out_edges.size());
  for (EdgeId e : view.out_edges) v.out_edges.push_back(e);
  v.in_edges.reserve(view.in_edges.size());
  for (EdgeId e : view.in_edges) v.in_edges.push_back(e);
  return v;
}

void OrientEngine::EncodeEdge(const EdgeData& e, std::string* out) {
  PutVarint64(out, e.src);
  PutVarint64(out, e.dst);
  EncodePropertyMap(e.props, out);
}

Status OrientEngine::SplitEdge(std::string_view blob, VertexId* src,
                              VertexId* dst, PropertyMap* props) {
  size_t pos = 0;
  GDB_ASSIGN_OR_RETURN(*src, GetVarint64(blob, &pos));
  GDB_ASSIGN_OR_RETURN(*dst, GetVarint64(blob, &pos));
  if (props == nullptr) return SkipPropertyMap(blob, &pos);
  GDB_ASSIGN_OR_RETURN(*props, DecodePropertyMap(blob, &pos));
  return Status::OK();
}

Result<OrientEngine::VertexData> OrientEngine::LoadVertex(VertexId id) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, vertex_store_.Read(id));
  return DecodeVertex(blob);
}

Status OrientEngine::StoreVertex(VertexId id, const VertexData& v) {
  std::string blob;
  EncodeVertex(v, &blob);
  return vertex_store_.Update(id, blob);
}

Result<std::string_view> OrientEngine::ReadEdgeRecord(EdgeId id) const {
  uint64_t cluster = ClusterOf(id);
  if (cluster >= clusters_.size()) return Status::NotFound("edge not found");
  return clusters_[cluster].store.Read(LocalOf(id));
}

Result<OrientEngine::EdgeData> OrientEngine::LoadEdge(EdgeId id) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, ReadEdgeRecord(id));
  EdgeData e;
  GDB_RETURN_IF_ERROR(SplitEdge(blob, &e.src, &e.dst, &e.props));
  return e;
}

Status OrientEngine::StoreEdge(EdgeId id, const EdgeData& e) {
  uint64_t cluster = ClusterOf(id);
  if (cluster >= clusters_.size()) return Status::NotFound("edge not found");
  std::string blob;
  EncodeEdge(e, &blob);
  return clusters_[cluster].store.Update(LocalOf(id), blob);
}

uint64_t OrientEngine::ClusterForLabel(std::string_view label) {
  auto it = cluster_by_label_.find(label);
  if (it != cluster_by_label_.end()) return it->second;
  uint64_t idx = clusters_.size();
  clusters_.push_back(Cluster{std::string(label), AppendStore{}});
  cluster_by_label_.emplace(std::string(label), idx);
  cost_.ChargeWrite();  // cluster bookkeeping
  return idx;
}

// --- adjacency --------------------------------------------------------------

Status OrientEngine::AppendAdjacency(VertexId v, EdgeId e, bool outgoing) {
  auto bag_it = bags_.find(v);
  if (bag_it != bags_.end()) {
    (outgoing ? bag_it->second.out_edges : bag_it->second.in_edges).push_back(e);
    return Status::OK();
  }
  GDB_ASSIGN_OR_RETURN(VertexData data, LoadVertex(v));
  std::vector<EdgeId>& list = outgoing ? data.out_edges : data.in_edges;
  list.push_back(e);
  if (list.size() > kEmbeddedAdjLimit) {
    // Switch to external bag (ridbag tree).
    ExternalBag bag;
    bag.out_edges = std::move(data.out_edges);
    bag.in_edges = std::move(data.in_edges);
    bags_.emplace(v, std::move(bag));
    data.out_edges.clear();
    data.in_edges.clear();
    data.external_adj = true;
  }
  return StoreVertex(v, data);
}

Status OrientEngine::EraseAdjacency(VertexId v, EdgeId e, bool outgoing) {
  auto bag_it = bags_.find(v);
  if (bag_it != bags_.end()) {
    std::vector<EdgeId>& list =
        outgoing ? bag_it->second.out_edges : bag_it->second.in_edges;
    auto it = std::find(list.begin(), list.end(), e);
    if (it != list.end()) list.erase(it);
    return Status::OK();
  }
  GDB_ASSIGN_OR_RETURN(VertexData data, LoadVertex(v));
  std::vector<EdgeId>& list = outgoing ? data.out_edges : data.in_edges;
  auto it = std::find(list.begin(), list.end(), e);
  if (it != list.end()) {
    list.erase(it);
    return StoreVertex(v, data);
  }
  return Status::OK();
}

template <typename Fn>
Status OrientEngine::WithRidbag(VertexId v, Fn&& fn) const {
  auto bag_it = bags_.find(v);
  if (bag_it != bags_.end()) {
    return fn(bag_it->second.out_edges, bag_it->second.in_edges);
  }
  GDB_ASSIGN_OR_RETURN(std::string_view blob, vertex_store_.Read(v));
  VertexView view;
  GDB_RETURN_IF_ERROR(SplitVertex(blob, &view, /*props=*/nullptr));
  return fn(view.out_edges, view.in_edges);
}

Status OrientEngine::CollectAdjacency(VertexId v, Direction dir,
                                      std::vector<EdgeId>* out) const {
  return WithRidbag(v, [&](const auto& out_list, const auto& in_list) {
    if (dir == Direction::kOut || dir == Direction::kBoth) {
      for (EdgeId e : out_list) out->push_back(e);
    }
    if (dir == Direction::kIn || dir == Direction::kBoth) {
      for (EdgeId e : in_list) out->push_back(e);
    }
    return Status::OK();
  });
}

// --- CRUD -------------------------------------------------------------------

Result<VertexId> OrientEngine::AddVertex(std::string_view label,
                                         const PropertyMap& props) {
  VertexData v;
  v.label = vertex_labels_.Intern(label);
  v.props = props;
  std::string blob;
  EncodeVertex(v, &blob);
  VertexId id = vertex_store_.Append(blob);
  attribute_index_.InsertAll(props, id);
  return id;
}

Result<EdgeId> OrientEngine::AddEdge(VertexId src, VertexId dst,
                                     std::string_view label,
                                     const PropertyMap& props) {
  if (!vertex_store_.IsLive(src) || !vertex_store_.IsLive(dst)) {
    return Status::NotFound("edge endpoint not found");
  }
  uint64_t cluster = ClusterForLabel(label);
  EdgeData e;
  e.src = src;
  e.dst = dst;
  e.props = props;
  std::string blob;
  EncodeEdge(e, &blob);
  EdgeId id = PackEdgeId(cluster, clusters_[cluster].store.Append(blob));
  GDB_RETURN_IF_ERROR(AppendAdjacency(src, id, /*outgoing=*/true));
  if (dst != src) {
    GDB_RETURN_IF_ERROR(AppendAdjacency(dst, id, /*outgoing=*/false));
  } else {
    GDB_RETURN_IF_ERROR(AppendAdjacency(src, id, /*outgoing=*/false));
  }
  return id;
}

Result<LoadMapping> OrientEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);

  // Schema + deferred adjacency assembly: clusters (one bookkeeping
  // charge per new edge label), precomputed edge ids, and full ridbags
  // built in memory before any vertex record is encoded.
  Timer timer;
  std::vector<EdgeId> edge_ids(ne);
  std::vector<uint64_t> cluster_of(ne);
  for (size_t i = 0; i < ne; ++i) {
    cluster_of[i] = ClusterForLabel(data.edges[i].label);
  }
  std::vector<uint64_t> next_local(clusters_.size());
  for (size_t c = 0; c < clusters_.size(); ++c) {
    next_local[c] = clusters_[c].store.LogicalCount();
  }
  std::vector<uint32_t> out_deg(nv, 0), in_deg(nv, 0);
  for (size_t i = 0; i < ne; ++i) {
    edge_ids[i] = PackEdgeId(cluster_of[i], next_local[cluster_of[i]]++);
    ++out_deg[data.edges[i].src];
    ++in_deg[data.edges[i].dst];
  }
  std::vector<std::vector<EdgeId>> out(nv), in(nv);
  for (size_t i = 0; i < nv; ++i) {
    out[i].reserve(out_deg[i]);
    in[i].reserve(in_deg[i]);
  }
  for (size_t i = 0; i < ne; ++i) {
    out[data.edges[i].src].push_back(edge_ids[i]);
    in[data.edges[i].dst].push_back(edge_ids[i]);
  }
  double adjacency_millis = timer.ElapsedMillis();

  // Vertex pass: each record encoded and appended exactly once, already
  // holding its final adjacency (or spilled to an external bag).
  vertex_store_.Reserve(nv, nv * 16);
  std::string blob;
  for (size_t i = 0; i < nv; ++i) {
    VertexData v;
    v.label = vertex_labels_.Intern(data.vertices[i].label);
    v.props = data.vertices[i].properties;
    bool external =
        out[i].size() > kEmbeddedAdjLimit || in[i].size() > kEmbeddedAdjLimit;
    if (!external) {
      v.out_edges = std::move(out[i]);
      v.in_edges = std::move(in[i]);
    }
    v.external_adj = external;
    blob.clear();
    EncodeVertex(v, &blob);
    VertexId id = vertex_store_.Append(blob);
    if (external) {
      bags_.emplace(id, ExternalBag{std::move(out[i]), std::move(in[i])});
    }
    mapping.vertex_ids.push_back(id);
    attribute_index_.InsertAll(data.vertices[i].properties, id);
  }
  // Edge pass: per-cluster append order matches the precomputed locals.
  for (size_t i = 0; i < ne; ++i) {
    EdgeData e;
    e.src = mapping.vertex_ids[data.edges[i].src];
    e.dst = mapping.vertex_ids[data.edges[i].dst];
    e.props = data.edges[i].properties;
    blob.clear();
    EncodeEdge(e, &blob);
    clusters_[cluster_of[i]].store.Append(blob);
    mapping.edge_ids.push_back(edge_ids[i]);
  }
  mutable_load_stats()->index_build_millis = adjacency_millis;
  return mapping;
}

Status OrientEngine::SetVertexProperty(VertexId v, std::string_view name,
                                       const PropertyValue& value) {
  GDB_ASSIGN_OR_RETURN(VertexData data, LoadVertex(v));
  if (const PropertyValue* prev = FindProperty(data.props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  SetProperty(&data.props, name, value);
  GDB_RETURN_IF_ERROR(StoreVertex(v, data));
  attribute_index_.Insert(name, value, v);
  return Status::OK();
}

Status OrientEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                     const PropertyValue& value) {
  GDB_ASSIGN_OR_RETURN(EdgeData data, LoadEdge(e));
  SetProperty(&data.props, name, value);
  return StoreEdge(e, data);
}

Result<VertexRecord> OrientEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, vertex_store_.Read(id));
  VertexView view;
  VertexRecord rec;
  GDB_RETURN_IF_ERROR(SplitVertex(blob, &view, &rec.properties));
  rec.id = id;
  rec.label = vertex_labels_.Get(view.label);
  return rec;
}

Result<EdgeRecord> OrientEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  GDB_ASSIGN_OR_RETURN(EdgeData data, LoadEdge(id));
  EdgeRecord rec;
  rec.id = id;
  rec.src = data.src;
  rec.dst = data.dst;
  rec.label = clusters_[ClusterOf(id)].label;
  rec.properties = std::move(data.props);
  return rec;
}

Result<bool> OrientEngine::ReadVertexProperty(QuerySession& /*session*/,
                                              VertexId id, std::string_view key,
                                              PropertyValue* out) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, vertex_store_.Read(id));
  size_t pos = 0;
  GDB_RETURN_IF_ERROR(GetVarint64(blob, &pos).status());  // label
  return ReadEncodedProperty(blob, &pos, key, out);
}

Result<bool> OrientEngine::ReadEdgeProperty(QuerySession& /*session*/,
                                            EdgeId id, std::string_view key,
                                            PropertyValue* out) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, ReadEdgeRecord(id));
  size_t pos = 0;
  GDB_RETURN_IF_ERROR(GetVarint64(blob, &pos).status());  // src
  GDB_RETURN_IF_ERROR(GetVarint64(blob, &pos).status());  // dst
  return ReadEncodedProperty(blob, &pos, key, out);
}

Result<std::vector<std::string>> OrientEngine::DistinctEdgeLabels(QuerySession& /*session*/, 
    const CancelToken& cancel) const {
  // Edge classes are schema objects: one per cluster. Still cooperative —
  // datasets with many labels make even the catalog walk interruptible.
  std::vector<std::string> labels;
  labels.reserve(clusters_.size());
  for (const Cluster& c : clusters_) {
    GDB_CHECK_CANCEL(cancel);
    if (c.store.LiveCount() > 0) labels.push_back(c.label);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

Result<std::vector<EdgeId>> OrientEngine::FindEdgesByLabel(QuerySession& /*session*/, 
    std::string_view label, const CancelToken& cancel) const {
  auto it = cluster_by_label_.find(label);
  if (it == cluster_by_label_.end()) return std::vector<EdgeId>{};
  const AppendStore& store = clusters_[it->second].store;
  std::vector<EdgeId> out;
  out.reserve(store.LiveCount());
  for (uint64_t local = 0; local < store.LogicalCount(); ++local) {
    GDB_CHECK_CANCEL(cancel);
    if (store.IsLive(local)) out.push_back(PackEdgeId(it->second, local));
  }
  return out;
}

Result<std::vector<VertexId>> OrientEngine::FindVerticesByProperty(QuerySession& session, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  if (attribute_index_.Covers(prop)) {
    return attribute_index_.Lookup(prop, value, cancel);
  }
  return GraphEngine::FindVerticesByProperty(session, prop, value, cancel);
}

Status OrientEngine::RemoveEdgeInternal(EdgeId e, VertexId skip_endpoint) {
  GDB_ASSIGN_OR_RETURN(EdgeData data, LoadEdge(e));
  if (data.src != skip_endpoint) {
    GDB_RETURN_IF_ERROR(EraseAdjacency(data.src, e, /*outgoing=*/true));
  }
  VertexId in_endpoint = data.dst == data.src ? data.src : data.dst;
  if (in_endpoint != skip_endpoint) {
    GDB_RETURN_IF_ERROR(EraseAdjacency(in_endpoint, e, /*outgoing=*/false));
  }
  return clusters_[ClusterOf(e)].store.Delete(LocalOf(e));
}

Status OrientEngine::RemoveVertex(VertexId v) {
  std::vector<EdgeId> incident;
  GDB_RETURN_IF_ERROR(CollectAdjacency(v, Direction::kBoth, &incident));
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  for (EdgeId e : incident) {
    GDB_RETURN_IF_ERROR(RemoveEdgeInternal(e, v));
  }
  GDB_ASSIGN_OR_RETURN(VertexData data, LoadVertex(v));
  attribute_index_.EraseAll(data.props, v);
  bags_.erase(v);
  return vertex_store_.Delete(v);
}

Status OrientEngine::RemoveEdge(EdgeId e) {
  return RemoveEdgeInternal(e, kInvalidId);
}

Status OrientEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  GDB_ASSIGN_OR_RETURN(VertexData data, LoadVertex(v));
  if (const PropertyValue* prev = FindProperty(data.props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  if (!EraseProperty(&data.props, name)) {
    return Status::NotFound("no such property");
  }
  return StoreVertex(v, data);
}

Status OrientEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  GDB_ASSIGN_OR_RETURN(EdgeData data, LoadEdge(e));
  if (!EraseProperty(&data.props, name)) {
    return Status::NotFound("no such property");
  }
  return StoreEdge(e, data);
}

// --- scans / traversal -------------------------------------------------------

Status OrientEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  for (uint64_t id = 0; id < vertex_store_.LogicalCount(); ++id) {
    GDB_CHECK_CANCEL(cancel);
    if (vertex_store_.IsLive(id)) {
      if (!fn(id)) return Status::OK();
    }
  }
  return Status::OK();
}

Status OrientEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  for (uint64_t c = 0; c < clusters_.size(); ++c) {
    const Cluster& cluster = clusters_[c];
    for (uint64_t local = 0; local < cluster.store.LogicalCount(); ++local) {
      GDB_CHECK_CANCEL(cancel);
      if (!cluster.store.IsLive(local)) continue;
      auto blob = cluster.store.Read(local);
      if (!blob.ok()) continue;
      EdgeEnds ends;
      GDB_RETURN_IF_ERROR(SplitEdge(*blob, &ends.src, &ends.dst, nullptr));
      ends.id = PackEdgeId(c, local);
      ends.label = cluster.label;
      if (!fn(ends)) return Status::OK();
    }
  }
  return Status::OK();
}

Result<std::pair<VertexId, VertexId>> OrientEngine::ReadEdgeEndpoints(
    EdgeId e) const {
  uint64_t cluster = ClusterOf(e);
  if (cluster >= clusters_.size()) return Status::NotFound("edge not found");
  GDB_ASSIGN_OR_RETURN(std::string_view blob,
                       clusters_[cluster].store.Read(LocalOf(e)));
  size_t pos = 0;
  GDB_ASSIGN_OR_RETURN(uint64_t src, GetVarint64(blob, &pos));
  GDB_ASSIGN_OR_RETURN(uint64_t dst, GetVarint64(blob, &pos));
  return std::make_pair(src, dst);
}

Status OrientEngine::WalkIncident(
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, bool want_other,
    const std::function<bool(EdgeId, VertexId)>& fn) const {
  uint64_t cluster = kInvalidId;
  if (label != nullptr) {
    // Label filtering needs no edge-record read: the cluster id *is* the
    // label (OrientDB's per-class clusters).
    auto it = cluster_by_label_.find(*label);
    if (it == cluster_by_label_.end()) return Status::OK();
    cluster = it->second;
  }
  if (!vertex_store_.IsLive(v)) return Status::NotFound("vertex not found");
  return WithRidbag(v, [&](const auto& out_list,
                           const auto& in_list) -> Status {
    if (dir == Direction::kOut || dir == Direction::kBoth) {
      for (EdgeId e : out_list) {
        GDB_CHECK_CANCEL(cancel);
        if (label != nullptr && ClusterOf(e) != cluster) continue;
        VertexId other = kInvalidId;
        if (want_other) {
          GDB_ASSIGN_OR_RETURN(auto ends, ReadEdgeEndpoints(e));
          other = ends.first == v ? ends.second : ends.first;
        }
        if (!fn(e, other)) return Status::OK();
      }
    }
    if (dir == Direction::kIn || dir == Direction::kBoth) {
      for (EdgeId e : in_list) {
        GDB_CHECK_CANCEL(cancel);
        if (label != nullptr && ClusterOf(e) != cluster) continue;
        VertexId other = kInvalidId;
        if (want_other || dir == Direction::kBoth) {
          GDB_ASSIGN_OR_RETURN(auto ends, ReadEdgeEndpoints(e));
          // A self-loop sits in both ridbags; both() must report it once
          // (already visited via the out side).
          if (dir == Direction::kBoth && ends.first == ends.second) continue;
          other = ends.first == v ? ends.second : ends.first;
        }
        if (!fn(e, other)) return Status::OK();
      }
    }
    return Status::OK();
  });
}

Status OrientEngine::ForEachEdgeOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                   const std::string* label,
                                   const CancelToken& cancel,
                                   const std::function<bool(EdgeId)>& fn) const {
  return WalkIncident(v, dir, label, cancel, /*want_other=*/false,
                      [&](EdgeId e, VertexId) { return fn(e); });
}

Status OrientEngine::ForEachNeighbor(QuerySession& /*session*/, 
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  return WalkIncident(v, dir, label, cancel, /*want_other=*/true,
                      [&](EdgeId, VertexId other) { return fn(other); });
}

Result<EdgeEnds> OrientEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  GDB_ASSIGN_OR_RETURN(std::string_view blob, ReadEdgeRecord(e));
  EdgeEnds ends;
  GDB_RETURN_IF_ERROR(SplitEdge(blob, &ends.src, &ends.dst, nullptr));
  ends.id = e;
  ends.label = clusters_[ClusterOf(e)].label;
  return ends;
}

// --- index / persistence ------------------------------------------------------

Status OrientEngine::CreateVertexPropertyIndex(std::string_view prop) {
  AttributeIndex::Tree* index = attribute_index_.Create(prop);
  if (index == nullptr) return Status::OK();
  CancelToken never;
  std::unique_ptr<QuerySession> session = CreateSession();
  return ScanVertices(*session, never, [&](VertexId id) {
    auto data = LoadVertex(id);
    if (data.ok()) {
      if (const PropertyValue* v = FindProperty(data->props, prop)) {
        index->Insert(*v, id);
      }
    }
    return true;
  });
}

uint64_t OrientEngine::CheckpointBytes() const {
  // Per-cluster page preallocation: every cluster file starts with a
  // 16 KiB header, so label-heavy datasets (Frb-S) pay a fixed per-cluster
  // space overhead — the effect the paper measures in Fig. 1. The headers
  // are counted, not built.
  static constexpr uint64_t kClusterHeaderBytes = 16384;

  std::string buf;
  // Checkpoints write compacted cluster images: OrientDB reclaims the
  // space of superseded record versions on flush.
  vertex_store_.SerializeCompacted(&buf);
  // External bags ride with the vertex cluster.
  PutVarint64(&buf, bags_.size());
  for (const auto& [v, bag] : bags_) {
    PutVarint64(&buf, v);
    PutVarint64(&buf, bag.out_edges.size());
    for (EdgeId e : bag.out_edges) PutVarint64(&buf, e);
    PutVarint64(&buf, bag.in_edges.size());
    for (EdgeId e : bag.in_edges) PutVarint64(&buf, e);
  }
  for (const Cluster& c : clusters_) c.store.SerializeCompacted(&buf);
  vertex_labels_.Serialize(&buf);
  PutVarint64(&buf, clusters_.size());
  for (const Cluster& c : clusters_) {
    PutVarint64(&buf, c.label.size());
    buf.append(c.label);
  }
  attribute_index_.Serialize(&buf);
  return (1 + clusters_.size()) * kClusterHeaderBytes + buf.size();
}

uint64_t OrientEngine::MemoryBytes() const {
  uint64_t total = vertex_store_.LogBytes() + vertex_labels_.MemoryBytes();
  for (const Cluster& c : clusters_) total += c.store.LogBytes() + 128;
  for (const auto& [v, bag] : bags_) {
    (void)v;
    total += (bag.out_edges.capacity() + bag.in_edges.capacity()) * 8 + 64;
  }
  return total + attribute_index_.MemoryBytes();
}

std::unique_ptr<GraphEngine> MakeOrientEngine() {
  return std::make_unique<OrientEngine>();
}

}  // namespace gdbmicro
