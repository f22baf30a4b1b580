#include "src/engines/bitmapish/bitmap_engine.h"

#include <utility>
#include <vector>

#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {

EngineInfo BitmapEngine::info() const {
  EngineInfo info;
  info.name = "sparksee";
  info.emulates = "Sparksee 5.1";
  info.type = "Native";
  info.storage = "Indexed bitmaps (maps + bitmap per value)";
  info.edge_traversal = "B+Tree/Bitmap";
  info.query_execution = QueryExecution::kStepWise;
  info.query_execution_display = "Step-wise (non-optimized)";
  info.supports_property_index = false;  // no *user-controllable* gain
  return info;
}

Status BitmapEngine::ChargeArena(QuerySession& session,
                                 const CancelToken& cancel,
                                 uint64_t bytes) const {
  BitmapSession& s = static_cast<BitmapSession&>(session);
  s.arena_bytes_ += bytes;
  // Arena growth is double-accounted on purpose: against the engine-level
  // budget (the emulated system's own working-memory cap) and against the
  // per-query governor token (the harness-level budget, with typed
  // diagnostics). Either trip stops the query.
  if (!cancel.Charge(bytes)) return cancel.ToStatus();
  if (options_.memory_budget_bytes != 0 &&
      s.arena_bytes_ > options_.memory_budget_bytes) {
    return Status::ResourceExhausted(
        StrFormat("sparksee session arena exceeded budget (%llu bytes)",
                  static_cast<unsigned long long>(s.arena_bytes_)));
  }
  return Status::OK();
}

void BitmapEngine::SetAttr(uint64_t oid, std::string_view name,
                           const PropertyValue& v) {
  AttrColumn& col = columns_[std::string(name)];
  if (PropertyValue* old = col.values.Get(oid)) {
    auto it = col.by_value.find(*old);
    if (it != col.by_value.end()) {
      it->second.Remove(oid);
      if (it->second.Empty()) col.by_value.erase(it);
    }
  }
  col.values.Put(oid, v);
  col.by_value[v].Add(oid);
}

bool BitmapEngine::EraseAttr(uint64_t oid, std::string_view name) {
  auto col_it = columns_.find(name);
  if (col_it == columns_.end()) return false;
  AttrColumn& col = col_it->second;
  PropertyValue* old = col.values.Get(oid);
  if (old == nullptr) return false;
  auto it = col.by_value.find(*old);
  if (it != col.by_value.end()) {
    it->second.Remove(oid);
    if (it->second.Empty()) col.by_value.erase(it);
  }
  col.values.Erase(oid);
  return true;
}

PropertyMap BitmapEngine::MaterializeAttrs(uint64_t oid) const {
  // Attribute storage is columnar: materializing a whole object probes
  // every attribute structure (the architectural cost of this layout for
  // GetVertex/GetEdge). A one-key read probes one column (ReadAttr).
  PropertyMap props;
  for (const auto& [name, col] : columns_) {
    if (const PropertyValue* v = col.values.Get(oid)) {
      props.emplace_back(name, *v);
    }
  }
  return props;
}

bool BitmapEngine::ReadAttr(uint64_t oid, std::string_view name,
                            PropertyValue* out) const {
  auto col = columns_.find(name);
  if (col == columns_.end()) return false;
  const PropertyValue* v = col->second.values.Get(oid);
  if (v == nullptr) return false;
  *out = *v;
  return true;
}

// --- CRUD ---------------------------------------------------------------------

Result<VertexId> BitmapEngine::AddVertex(std::string_view label,
                                         const PropertyMap& props) {
  uint64_t oid = next_oid_++;
  max_vertex_oid_ = oid;
  vertices_.Add(oid);
  uint32_t label_id = labels_.Intern(label);
  vertex_label_.Put(oid, label_id);
  if (label_id >= vertices_by_label_.size()) {
    vertices_by_label_.resize(label_id + 1);
  }
  vertices_by_label_[label_id].Add(oid);
  for (const auto& [k, v] : props) SetAttr(oid, k, v);
  return oid;
}

Result<EdgeId> BitmapEngine::AddEdge(VertexId src, VertexId dst,
                                     std::string_view label,
                                     const PropertyMap& props) {
  if (!vertices_.Contains(src) || !vertices_.Contains(dst)) {
    return Status::NotFound("edge endpoint not found");
  }
  uint64_t oid = next_oid_++;
  edges_.Add(oid);
  edge_src_.Put(oid, src);
  edge_dst_.Put(oid, dst);
  uint32_t label_id = labels_.Intern(label);
  edge_label_.Put(oid, label_id);
  if (label_id >= edges_by_label_.size()) edges_by_label_.resize(label_id + 1);
  edges_by_label_[label_id].Add(oid);

  Bitmap* out = out_edges_.Get(src);
  if (out == nullptr) {
    out_edges_.Put(src, Bitmap{});
    out = out_edges_.Get(src);
  }
  out->Add(oid);
  Bitmap* in = in_edges_.Get(dst);
  if (in == nullptr) {
    in_edges_.Put(dst, Bitmap{});
    in = in_edges_.Get(dst);
  }
  in->Add(oid);
  for (const auto& [k, v] : props) SetAttr(oid, k, v);
  return oid;
}

Result<LoadMapping> BitmapEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);

  vertex_label_.Reserve(vertex_label_.size() + nv);
  edge_src_.Reserve(edge_src_.size() + ne);
  edge_dst_.Reserve(edge_dst_.size() + ne);
  edge_label_.Reserve(edge_label_.size() + ne);

  for (const auto& v : data.vertices) {
    uint64_t oid = next_oid_++;
    max_vertex_oid_ = oid;
    vertices_.Add(oid);
    uint32_t label_id = labels_.Intern(v.label);
    vertex_label_.Put(oid, label_id);
    if (label_id >= vertices_by_label_.size()) {
      vertices_by_label_.resize(label_id + 1);
    }
    vertices_by_label_[label_id].Add(oid);
    for (const auto& [k, val] : v.properties) SetAttr(oid, k, val);
    mapping.vertex_ids.push_back(oid);
  }

  // Incidence bitmaps assembled locally: edge oids are issued in
  // ascending order, so every Add is an append into the last container.
  std::vector<Bitmap> out(nv), in(nv);
  for (const auto& e : data.edges) {
    uint64_t oid = next_oid_++;
    edges_.Add(oid);
    edge_src_.Put(oid, mapping.vertex_ids[e.src]);
    edge_dst_.Put(oid, mapping.vertex_ids[e.dst]);
    uint32_t label_id = labels_.Intern(e.label);
    edge_label_.Put(oid, label_id);
    if (label_id >= edges_by_label_.size()) {
      edges_by_label_.resize(label_id + 1);
    }
    edges_by_label_[label_id].Add(oid);
    out[e.src].Add(oid);
    in[e.dst].Add(oid);
    for (const auto& [k, val] : e.properties) SetAttr(oid, k, val);
    mapping.edge_ids.push_back(oid);
  }
  Timer timer;
  out_edges_.Reserve(out_edges_.size() + nv);
  in_edges_.Reserve(in_edges_.size() + nv);
  auto attach = [](HashIndex<uint64_t, Bitmap>* index, uint64_t oid,
                   Bitmap bits) {
    if (bits.Empty()) return;
    if (Bitmap* existing = index->Get(oid)) {
      existing->UnionWith(bits);
    } else {
      index->Put(oid, std::move(bits));
    }
  };
  for (size_t i = 0; i < nv; ++i) {
    attach(&out_edges_, mapping.vertex_ids[i], std::move(out[i]));
    attach(&in_edges_, mapping.vertex_ids[i], std::move(in[i]));
  }
  mutable_load_stats()->index_build_millis = timer.ElapsedMillis();
  return mapping;
}

Status BitmapEngine::SetVertexProperty(VertexId v, std::string_view name,
                                       const PropertyValue& value) {
  if (!vertices_.Contains(v)) return Status::NotFound("vertex not found");
  SetAttr(v, name, value);
  return Status::OK();
}

Status BitmapEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                     const PropertyValue& value) {
  if (!edges_.Contains(e)) return Status::NotFound("edge not found");
  SetAttr(e, name, value);
  return Status::OK();
}

Result<VertexRecord> BitmapEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  if (!vertices_.Contains(id)) return Status::NotFound("vertex not found");
  VertexRecord rec;
  rec.id = id;
  if (const uint32_t* label = vertex_label_.Get(id)) {
    rec.label = labels_.Get(*label);
  }
  rec.properties = MaterializeAttrs(id);
  return rec;
}

Result<EdgeRecord> BitmapEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  if (!edges_.Contains(id)) return Status::NotFound("edge not found");
  EdgeRecord rec;
  rec.id = id;
  rec.src = *edge_src_.Get(id);
  rec.dst = *edge_dst_.Get(id);
  rec.label = labels_.Get(*edge_label_.Get(id));
  rec.properties = MaterializeAttrs(id);
  return rec;
}

Result<bool> BitmapEngine::ReadVertexProperty(QuerySession& /*session*/,
                                              VertexId id, std::string_view key,
                                              PropertyValue* out) const {
  if (!vertices_.Contains(id)) return Status::NotFound("vertex not found");
  return ReadAttr(id, key, out);
}

Result<bool> BitmapEngine::ReadEdgeProperty(QuerySession& /*session*/,
                                            EdgeId id, std::string_view key,
                                            PropertyValue* out) const {
  if (!edges_.Contains(id)) return Status::NotFound("edge not found");
  return ReadAttr(id, key, out);
}

Result<uint64_t> BitmapEngine::CountVertices(QuerySession& /*session*/, const CancelToken&) const {
  return vertices_.Cardinality();  // O(1): bitmap cardinality counter
}

Result<uint64_t> BitmapEngine::CountEdges(QuerySession& /*session*/, const CancelToken&) const {
  return edges_.Cardinality();
}

Status BitmapEngine::RemoveEdgeInternal(EdgeId e) {
  if (!edges_.Contains(e)) return Status::NotFound("edge not found");
  uint64_t src = *edge_src_.Get(e);
  uint64_t dst = *edge_dst_.Get(e);
  uint32_t label = *edge_label_.Get(e);
  if (Bitmap* out = out_edges_.Get(src)) out->Remove(e);
  if (Bitmap* in = in_edges_.Get(dst)) in->Remove(e);
  edges_by_label_[label].Remove(e);
  edge_src_.Erase(e);
  edge_dst_.Erase(e);
  edge_label_.Erase(e);
  // Drop edge attributes.
  for (auto& [name, col] : columns_) {
    (void)name;
    if (PropertyValue* v = col.values.Get(e)) {
      auto it = col.by_value.find(*v);
      if (it != col.by_value.end()) {
        it->second.Remove(e);
        if (it->second.Empty()) col.by_value.erase(it);
      }
      col.values.Erase(e);
    }
  }
  edges_.Remove(e);
  return Status::OK();
}

Status BitmapEngine::RemoveVertex(VertexId v) {
  if (!vertices_.Contains(v)) return Status::NotFound("vertex not found");
  std::vector<uint64_t> incident;
  if (const Bitmap* out = out_edges_.Get(v)) {
    auto ids = out->ToVector();
    incident.insert(incident.end(), ids.begin(), ids.end());
  }
  if (const Bitmap* in = in_edges_.Get(v)) {
    auto ids = in->ToVector();
    incident.insert(incident.end(), ids.begin(), ids.end());
  }
  for (uint64_t e : incident) {
    if (edges_.Contains(e)) {
      GDB_RETURN_IF_ERROR(RemoveEdgeInternal(e));
    }
  }
  out_edges_.Erase(v);
  in_edges_.Erase(v);
  if (const uint32_t* label = vertex_label_.Get(v)) {
    vertices_by_label_[*label].Remove(v);
  }
  vertex_label_.Erase(v);
  for (auto& [name, col] : columns_) {
    (void)name;
    if (PropertyValue* val = col.values.Get(v)) {
      auto it = col.by_value.find(*val);
      if (it != col.by_value.end()) {
        it->second.Remove(v);
        if (it->second.Empty()) col.by_value.erase(it);
      }
      col.values.Erase(v);
    }
  }
  vertices_.Remove(v);
  return Status::OK();
}

Status BitmapEngine::RemoveEdge(EdgeId e) { return RemoveEdgeInternal(e); }

Status BitmapEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  if (!vertices_.Contains(v)) return Status::NotFound("vertex not found");
  if (!EraseAttr(v, name)) return Status::NotFound("no such property");
  return Status::OK();
}

Status BitmapEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  if (!edges_.Contains(e)) return Status::NotFound("edge not found");
  if (!EraseAttr(e, name)) return Status::NotFound("no such property");
  return Status::OK();
}

// --- scans / traversal ----------------------------------------------------------

Status BitmapEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  Status status = Status::OK();
  vertices_.ForEach([&](uint64_t oid) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    return fn(oid);
  });
  return status;
}

Status BitmapEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  Status status = Status::OK();
  edges_.ForEach([&](uint64_t oid) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    EdgeEnds ends;
    ends.id = oid;
    ends.src = *edge_src_.Get(oid);
    ends.dst = *edge_dst_.Get(oid);
    ends.label = labels_.Get(*edge_label_.Get(oid));
    return fn(ends);
  });
  return status;
}

Status BitmapEngine::WalkIncident(VertexId v, Direction dir,
                                  const std::string* label,
                                  const CancelToken& cancel,
                                  const std::function<bool(EdgeId)>& fn) const {
  const Bitmap* label_bm = nullptr;
  if (label != nullptr) {
    uint32_t label_id = labels_.Lookup(*label);
    if (label_id == Dictionary::kNoId || label_id >= edges_by_label_.size()) {
      return Status::OK();  // unknown label: no edges
    }
    label_bm = &edges_by_label_[label_id];
  }
  if (!vertices_.Contains(v)) return Status::NotFound("vertex not found");
  // Everything the bitmap callback touches sits behind one reference, so
  // the closure fits std::function's inline buffer and a walk allocates
  // nothing.
  struct Walk {
    const BitmapEngine& engine;
    const CancelToken& cancel;
    const std::function<bool(EdgeId)>& fn;
    const Bitmap* label_bm;
    VertexId v;
    Direction dir;
    bool in_side = false;
    Status status = Status::OK();
    bool stop = false;
  } walk{*this, cancel, fn, label_bm, v, dir};
  const std::function<bool(uint64_t)> visit = [&walk](uint64_t oid) {
    if (walk.cancel.Expired()) {
      walk.status = walk.cancel.ToStatus();
      return false;
    }
    // Label filter first: a bitmap probe is cheaper than the hash lookup
    // the self-loop check below needs.
    if (walk.label_bm != nullptr && !walk.label_bm->Contains(oid)) {
      return true;
    }
    // A self-loop sits in both incidence bitmaps; both() reports it once,
    // via the out side.
    if (walk.in_side && walk.dir == Direction::kBoth &&
        *walk.engine.edge_src_.Get(oid) == walk.v) {
      return true;
    }
    if (!walk.fn(oid)) {
      walk.stop = true;
      return false;
    }
    return true;
  };
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    if (const Bitmap* bm = out_edges_.Get(v)) bm->ForEach(visit);
    GDB_RETURN_IF_ERROR(walk.status);
    if (walk.stop) return Status::OK();
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    walk.in_side = true;
    if (const Bitmap* bm = in_edges_.Get(v)) bm->ForEach(visit);
    GDB_RETURN_IF_ERROR(walk.status);
  }
  return Status::OK();
}

Status BitmapEngine::ForEachEdgeOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                   const std::string* label,
                                   const CancelToken& cancel,
                                   const std::function<bool(EdgeId)>& fn) const {
  return WalkIncident(v, dir, label, cancel, fn);
}

Status BitmapEngine::ForEachNeighbor(QuerySession& /*session*/, 
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  // One reference: the closure fits std::function's inline buffer.
  struct Hop {
    const BitmapEngine& engine;
    VertexId v;
    const std::function<bool(VertexId)>& fn;
  } hop{*this, v, fn};
  return WalkIncident(v, dir, label, cancel, [&hop](EdgeId e) {
    uint64_t src = *hop.engine.edge_src_.Get(e);
    return hop.fn(src == hop.v ? *hop.engine.edge_dst_.Get(e) : src);
  });
}

Result<uint64_t> BitmapEngine::CountEdgesOf(QuerySession& session,
                                            VertexId v, Direction dir,
                                            const CancelToken& cancel) const {
  // The Gremlin adapter's inner `it.xE.count()` materializes the incident
  // edge list into session buffers that are not released until the query
  // ends (the defect the paper links to the Q.28-Q.31 memory exhaustion).
  GDB_ASSIGN_OR_RETURN(std::vector<EdgeId> edges,
                       EdgesOf(session, v, dir, nullptr, cancel));
  GDB_RETURN_IF_ERROR(
      ChargeArena(session, cancel, kArenaPerCall + edges.size() * 8));
  return static_cast<uint64_t>(edges.size());
}

Result<EdgeEnds> BitmapEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  if (!edges_.Contains(e)) return Status::NotFound("edge not found");
  EdgeEnds ends;
  ends.id = e;
  ends.src = *edge_src_.Get(e);
  ends.dst = *edge_dst_.Get(e);
  ends.label = labels_.Get(*edge_label_.Get(e));
  return ends;
}

// --- index / persistence ---------------------------------------------------------

Status BitmapEngine::CreateVertexPropertyIndex(std::string_view) {
  // Accepted, but the Gremlin-level search path does not exploit it
  // (paper §6.4: "Sparksee and Neo4J (v.3.0) are not able to take
  // advantage of such indexes").
  return Status::OK();
}

uint64_t BitmapEngine::CheckpointBytes() const {
  std::string buf;
  vertices_.Serialize(&buf);
  edges_.Serialize(&buf);
  PutVarint64(&buf, next_oid_);

  auto serialize_map = [&buf](const HashIndex<uint64_t, uint64_t>& m) {
    PutVarint64(&buf, m.size());
    m.ForEach([&buf](const uint64_t& k, const uint64_t& v) {
      PutVarint64(&buf, k);
      PutVarint64(&buf, v);
      return true;
    });
  };
  serialize_map(edge_src_);
  serialize_map(edge_dst_);
  PutVarint64(&buf, edge_label_.size());
  edge_label_.ForEach([&buf](const uint64_t& k, const uint32_t& v) {
    PutVarint64(&buf, k);
    PutVarint64(&buf, v);
    return true;
  });

  PutVarint64(&buf, out_edges_.size());
  out_edges_.ForEach([&buf](const uint64_t& v, const Bitmap& bm) {
    PutVarint64(&buf, v);
    bm.Serialize(&buf);
    return true;
  });
  PutVarint64(&buf, in_edges_.size());
  in_edges_.ForEach([&buf](const uint64_t& v, const Bitmap& bm) {
    PutVarint64(&buf, v);
    bm.Serialize(&buf);
    return true;
  });

  labels_.Serialize(&buf);
  PutVarint64(&buf, edges_by_label_.size());
  for (const Bitmap& bm : edges_by_label_) bm.Serialize(&buf);
  PutVarint64(&buf, vertices_by_label_.size());
  for (const Bitmap& bm : vertices_by_label_) bm.Serialize(&buf);

  // One image per attribute: value dictionary + bitmap per value. Values
  // are stored once (deduplicated), which is why this layout wins on
  // text-heavy datasets (paper Fig. 1, ldbc).
  for (const auto& [name, col] : columns_) {
    PutVarint64(&buf, name.size());
    buf.append(name);
    PutVarint64(&buf, col.by_value.size());
    for (const auto& [value, bm] : col.by_value) {
      value.EncodeTo(&buf);
      bm.Serialize(&buf);
    }
  }
  return buf.size();
}

uint64_t BitmapEngine::MemoryBytes() const {
  uint64_t total = vertices_.MemoryBytes() + edges_.MemoryBytes() +
                   edge_src_.MemoryBytes() + edge_dst_.MemoryBytes() +
                   edge_label_.MemoryBytes() + vertex_label_.MemoryBytes() +
                   out_edges_.MemoryBytes() + in_edges_.MemoryBytes() +
                   labels_.MemoryBytes();
  for (const Bitmap& bm : edges_by_label_) total += bm.MemoryBytes();
  for (const Bitmap& bm : vertices_by_label_) total += bm.MemoryBytes();
  for (const auto& [name, col] : columns_) {
    total += name.size() + col.values.MemoryBytes();
    for (const auto& [value, bm] : col.by_value) {
      (void)value;
      total += bm.MemoryBytes() + 32;
    }
  }
  return total;
}

std::unique_ptr<GraphEngine> MakeBitmapEngine() {
  return std::make_unique<BitmapEngine>();
}

}  // namespace gdbmicro
