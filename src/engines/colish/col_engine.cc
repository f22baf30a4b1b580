#include "src/engines/colish/col_engine.h"

#include <algorithm>
#include <map>

#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace gdbmicro {

ColEngine::ColEngine(bool v10) : v10_(v10) {}

EngineInfo ColEngine::info() const {
  EngineInfo info;
  info.name = std::string(name());
  info.emulates = v10_ ? "Titan 1.0" : "Titan 0.5";
  info.type = "Hybrid (Columnar)";
  info.storage = "Vertex-indexed adjacency lists (delta-encoded)";
  info.edge_traversal = "Row-key index";
  info.query_execution = QueryExecution::kConflated;
  info.query_execution_display = "Optimized (step conflation)";
  info.supports_property_index = true;
  return info;
}

Status ColEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  // Cassandra write path: consistency-check reads + commit-log flush per
  // mutation. v1.0 is the production-tuned release (lower charges) and
  // fronts row reads with a cache.
  backend_.per_write_us = v10_ ? 2500 : 3500;
  backend_.per_read_us = v10_ ? 250 : 400;
  backend_.enabled = options.enable_cost_model;
  tombstone_write_us_ = backend_.per_write_us / 10;
  return Status::OK();
}

const ColEngine::Row* ColEngine::FetchRow(QuerySession& session,
                                          VertexId v) const {
  const Row* row = rows_.Get(v);
  if (row == nullptr) return nullptr;
  ColSession& s = static_cast<ColSession&>(session);
  if (s.row_cache != nullptr) {
    if (s.row_cache->Get(v) == nullptr) {
      backend_.ChargeRead();  // cache miss: backend row fetch
      s.row_cache->Put(v, 1);
    }
  } else {
    backend_.ChargeRead();
  }
  return row;
}

const ColEngine::Row* ColEngine::FetchRowBatched(QuerySession& session,
                                                 VertexId v) const {
  const Row* row = rows_.Get(v);
  if (row == nullptr) return nullptr;
  ColSession& s = static_cast<ColSession&>(session);
  if (s.row_cache != nullptr && s.row_cache->Get(v) != nullptr) return row;
  if (s.batched_reads++ % kReadBatch == 0) backend_.ChargeRead();
  if (s.row_cache != nullptr) s.row_cache->Put(v, 1);
  return row;
}

ColEngine::AdjEntry* ColEngine::FindOutEntry(EdgeId e) {
  Row* row = rows_.Get(SrcOf(e));
  if (row == nullptr || LocalOf(e) >= row->edges.size()) return nullptr;
  AdjEntry& entry = row->adj[row->edges[LocalOf(e)].out];
  return entry.tombstone ? nullptr : &entry;
}

const ColEngine::AdjEntry* ColEngine::FindOutEntry(EdgeId e) const {
  return const_cast<ColEngine*>(this)->FindOutEntry(e);
}

EdgeId ColEngine::AppendEdge(Row& src_row, VertexId src, Row& dst_row,
                             VertexId dst, uint32_t label,
                             const PropertyMap& props) {
  EdgeId id = PackEdgeId(src, src_row.edges.size());
  EdgeSlot slot;
  slot.out = static_cast<uint32_t>(src_row.adj.size());
  AdjEntry& out = src_row.adj.emplace_back();
  out.label = label;
  out.other = dst;
  out.edge = id;
  out.eprops = props;
  // On a self-loop this append may reallocate and invalidate `out`.
  slot.in = static_cast<uint32_t>(dst_row.adj.size());
  AdjEntry& in = dst_row.adj.emplace_back();
  in.label = label;
  in.out = false;
  in.other = src;
  in.edge = id;
  src_row.edges.push_back(slot);
  ++edge_count_;
  return id;
}

// --- CRUD -----------------------------------------------------------------------

Result<VertexId> ColEngine::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  backend_.ChargeWrite();
  VertexId id = next_vertex_++;
  Row row;
  row.label = labels_.Intern(label);
  row.props = props;
  rows_.Put(id, std::move(row));
  attribute_index_.InsertAll(props, id);
  return id;
}

Result<EdgeId> ColEngine::AddEdge(VertexId src, VertexId dst,
                                  std::string_view label,
                                  const PropertyMap& props) {
  // Consistency checks: both endpoint rows are read before the mutation.
  backend_.ChargeRead();
  backend_.ChargeRead();
  backend_.ChargeWrite();
  Row* src_row = rows_.Get(src);
  Row* dst_row = rows_.Get(dst);
  if (src_row == nullptr || dst_row == nullptr) {
    return Status::NotFound("edge endpoint not found");
  }
  return AppendEdge(*src_row, src, *dst_row, dst, labels_.Intern(label),
                    props);
}

Result<LoadMapping> ColEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);
  const VertexId base = next_vertex_;

  // Rows are assembled in a flat array first: edges index it directly by
  // dataset position, so the element pass does zero hash probes.
  std::vector<Row> rows(nv);
  std::vector<uint32_t> degree(nv, 0);
  std::vector<uint32_t> out_degree(nv, 0);
  for (const auto& e : data.edges) {
    ++degree[e.src];
    ++degree[e.dst];
    ++out_degree[e.src];
  }
  for (size_t i = 0; i < nv; ++i) {
    rows[i].label = labels_.Intern(data.vertices[i].label);
    rows[i].props = data.vertices[i].properties;
    rows[i].adj.reserve(degree[i]);
    rows[i].edges.reserve(out_degree[i]);
    mapping.vertex_ids.push_back(base + i);
    attribute_index_.InsertAll(data.vertices[i].properties, base + i);
  }
  for (const auto& e : data.edges) {
    mapping.edge_ids.push_back(AppendEdge(rows[e.src], base + e.src,
                                          rows[e.dst], base + e.dst,
                                          labels_.Intern(e.label),
                                          e.properties));
  }
  rows_.Reserve(rows_.size() + nv);
  for (size_t i = 0; i < nv; ++i) {
    rows_.Put(base + i, std::move(rows[i]));
  }
  next_vertex_ += nv;

  if (backend_.enabled) {
    // Batched mutations, schema predefined: a reduced per-item charge in
    // place of per-op commits.
    int64_t per_item_us = v10_ ? 2 : 3;
    SpinFor(per_item_us * static_cast<int64_t>(nv + ne));
  }
  return mapping;
}

Status ColEngine::SetVertexProperty(VertexId v, std::string_view name,
                                    const PropertyValue& value) {
  backend_.ChargeWrite();
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (const PropertyValue* prev = FindProperty(row->props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  SetProperty(&row->props, name, value);
  attribute_index_.Insert(name, value, v);
  return Status::OK();
}

Status ColEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                  const PropertyValue& value) {
  backend_.ChargeWrite();
  AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  SetProperty(&entry->eprops, name, value);
  return Status::OK();
}

Result<VertexRecord> ColEngine::GetVertex(QuerySession& session,
                                          VertexId id) const {
  const Row* row = FetchRow(session, id);
  if (row == nullptr) return Status::NotFound("vertex not found");
  VertexRecord rec;
  rec.id = id;
  rec.label = labels_.Get(row->label);
  rec.properties = row->props;
  return rec;
}

Result<EdgeRecord> ColEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  backend_.ChargeRead();
  const AdjEntry* entry = FindOutEntry(id);
  if (entry == nullptr) return Status::NotFound("edge not found");
  EdgeRecord rec;
  rec.id = id;
  rec.src = SrcOf(id);
  rec.dst = entry->other;
  rec.label = labels_.Get(entry->label);
  rec.properties = entry->eprops;
  return rec;
}

Result<std::vector<VertexId>> ColEngine::FindVerticesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  if (attribute_index_.Covers(prop)) {
    return attribute_index_.Lookup(prop, value, cancel);
  }
  // Unindexed: a full sliced scan of the row store (batched backend
  // reads), not a point fetch per vertex.
  std::vector<VertexId> out;
  uint64_t visited = 0;
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    if (backend_.enabled && visited++ % kReadBatch == 0) backend_.ChargeRead();
    const PropertyValue* p = FindProperty(row.props, prop);
    if (p != nullptr && *p == value) out.push_back(id);
    return true;
  });
  GDB_RETURN_IF_ERROR(status);
  return out;
}

Result<std::vector<EdgeId>> ColEngine::FindEdgesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  std::vector<EdgeId> out;
  uint64_t visited = 0;
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId&, const Row& row) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    if (backend_.enabled && visited++ % kReadBatch == 0) backend_.ChargeRead();
    for (const AdjEntry& entry : row.adj) {
      if (!entry.out || entry.tombstone) continue;
      const PropertyValue* p = FindProperty(entry.eprops, prop);
      if (p != nullptr && *p == value) out.push_back(entry.edge);
    }
    return true;
  });
  GDB_RETURN_IF_ERROR(status);
  return out;
}

Status ColEngine::RemoveEdgeInternal(EdgeId e, bool charge) {
  if (charge && backend_.enabled) SpinFor(tombstone_write_us_);
  Row* src_row = rows_.Get(SrcOf(e));
  if (src_row == nullptr || LocalOf(e) >= src_row->edges.size()) {
    return Status::NotFound("edge not found");
  }
  const EdgeSlot slot = src_row->edges[LocalOf(e)];
  AdjEntry& out_entry = src_row->adj[slot.out];
  if (out_entry.tombstone) return Status::NotFound("edge not found");
  out_entry.tombstone = true;
  out_entry.eprops.clear();
  if (Row* dst_row = rows_.Get(out_entry.other)) {
    dst_row->adj[slot.in].tombstone = true;
  }
  --edge_count_;
  return Status::OK();
}

Status ColEngine::RemoveVertex(VertexId v) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  // Tombstone every incident edge (mirrored entries included). A
  // self-loop's second entry is already tombstoned when the walk reaches it.
  for (const AdjEntry& entry : row->adj) {
    if (entry.tombstone) continue;
    RemoveEdgeInternal(entry.edge, /*charge=*/false).ok();
  }
  attribute_index_.EraseAll(row->props, v);
  rows_.Erase(v);
  return Status::OK();
}

Status ColEngine::RemoveEdge(EdgeId e) {
  return RemoveEdgeInternal(e, /*charge=*/true);
}

Status ColEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (const PropertyValue* prev = FindProperty(row->props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  if (!EraseProperty(&row->props, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

Status ColEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  if (backend_.enabled) SpinFor(tombstone_write_us_);
  AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  if (!EraseProperty(&entry->eprops, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

// --- scans / traversal ----------------------------------------------------------

Status ColEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row&) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    return fn(id);
  });
  return status;
}

Status ColEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  Status status = Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    for (const AdjEntry& entry : row.adj) {
      if (cancel.Expired()) {
        status = cancel.ToStatus();
        return false;
      }
      if (!entry.out || entry.tombstone) continue;
      EdgeEnds ends;
      ends.id = entry.edge;
      ends.src = id;
      ends.dst = entry.other;
      ends.label = labels_.Get(entry.label);
      if (!fn(ends)) return false;
    }
    return true;
  });
  return status;
}

Status ColEngine::WalkAdj(QuerySession& session, VertexId v, Direction dir,
                          const std::string* label, const CancelToken& cancel,
                          const std::function<bool(const AdjEntry&)>& fn) const {
  uint32_t label_id =
      label != nullptr ? labels_.Lookup(*label) : Dictionary::kNoId;
  if (label != nullptr && label_id == Dictionary::kNoId) {
    return Status::OK();  // unknown label: no edges
  }
  // Row-key index hop, sliced reads through the session window.
  const Row* row = FetchRowBatched(session, v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  for (const AdjEntry& entry : row->adj) {
    if (cancel.Expired()) return cancel.ToStatus();
    if (entry.tombstone) continue;
    if (label != nullptr && entry.label != label_id) continue;
    bool self_loop = entry.other == v;
    if (self_loop && !entry.out) continue;  // counted once via out entry
    bool matches = dir == Direction::kBoth ||
                   (dir == Direction::kOut && entry.out) ||
                   (dir == Direction::kIn && !entry.out) || self_loop;
    if (matches && !fn(entry)) return Status::OK();
  }
  return Status::OK();
}

Status ColEngine::ForEachEdgeOf(QuerySession& session, VertexId v,
                                Direction dir, const std::string* label,
                                const CancelToken& cancel,
                                const std::function<bool(EdgeId)>& fn) const {
  return WalkAdj(session, v, dir, label, cancel,
                 [&](const AdjEntry& entry) { return fn(entry.edge); });
}

Status ColEngine::ForEachNeighbor(QuerySession& session, VertexId v,
                                  Direction dir, const std::string* label,
                                  const CancelToken& cancel,
                                  const std::function<bool(VertexId)>& fn)
    const {
  return WalkAdj(session, v, dir, label, cancel,
                 [&](const AdjEntry& entry) { return fn(entry.other); });
}

Result<EdgeEnds> ColEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  const AdjEntry* entry = FindOutEntry(e);
  if (entry == nullptr) return Status::NotFound("edge not found");
  EdgeEnds ends;
  ends.id = e;
  ends.src = SrcOf(e);
  ends.dst = entry->other;
  ends.label = labels_.Get(entry->label);
  return ends;
}

Result<uint64_t> ColEngine::CountEdgesOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                         const CancelToken& cancel) const {
  (void)cancel;
  const Row* row = rows_.Get(v);
  if (row == nullptr) return Status::NotFound("vertex not found");
  if (!v10_) backend_.ChargeRead();  // v0.5: per-row backend fetch
  uint64_t n = 0;
  for (const AdjEntry& entry : row->adj) {
    if (entry.tombstone) continue;
    bool self_loop = entry.other == v;
    if (self_loop && !entry.out) continue;
    bool matches = dir == Direction::kBoth ||
                   (dir == Direction::kOut && entry.out) ||
                   (dir == Direction::kIn && !entry.out) || self_loop;
    if (matches) ++n;
  }
  return n;
}

// --- index / persistence ----------------------------------------------------------

Status ColEngine::CreateVertexPropertyIndex(std::string_view prop) {
  AttributeIndex::Tree* index = attribute_index_.Create(prop);
  if (index == nullptr) return Status::OK();
  rows_.ForEach([&](const VertexId& id, const Row& row) {
    if (const PropertyValue* v = FindProperty(row.props, prop)) {
      index->Insert(*v, id);
    }
    return true;
  });
  return Status::OK();
}

uint64_t ColEngine::CheckpointBytes() const {
  // SSTable-style dump: rows sorted by key, adjacency compacted
  // (tombstones dropped) and neighbor ids delta+varint encoded per
  // (label, direction) run — Titan's compact adjacency representation.
  std::vector<VertexId> keys;
  keys.reserve(rows_.size());
  rows_.ForEach([&](const VertexId& id, const Row&) {
    keys.push_back(id);
    return true;
  });
  std::sort(keys.begin(), keys.end());

  std::string buf;
  PutVarint64(&buf, keys.size());
  for (VertexId id : keys) {
    const Row* row = rows_.Get(id);
    PutVarint64(&buf, id);
    PutVarint64(&buf, row->label);
    EncodePropertyMap(row->props, &buf);
    // Group live adjacency entries by (label, dir); delta-encode ids.
    std::map<std::pair<uint32_t, bool>, std::vector<uint64_t>> groups;
    std::string eprops;
    uint64_t eprop_count = 0;
    for (const AdjEntry& entry : row->adj) {
      if (entry.tombstone) continue;
      groups[{entry.label, entry.out}].push_back(entry.other);
      if (entry.out && !entry.eprops.empty()) {
        PutVarint64(&eprops, entry.edge);
        EncodePropertyMap(entry.eprops, &eprops);
        ++eprop_count;
      }
    }
    PutVarint64(&buf, groups.size());
    for (auto& [key, ids] : groups) {
      PutVarint64(&buf, key.first);
      buf.push_back(key.second ? 1 : 0);
      std::sort(ids.begin(), ids.end());
      EncodeDeltaList(ids, &buf);
    }
    PutVarint64(&buf, eprop_count);
    buf.append(eprops);
  }
  labels_.Serialize(&buf);
  attribute_index_.Serialize(&buf);
  return buf.size();
}

uint64_t ColEngine::MemoryBytes() const {
  uint64_t total = rows_.MemoryBytes() + labels_.MemoryBytes();
  rows_.ForEach([&](const VertexId&, const Row& row) {
    total += row.adj.capacity() * sizeof(AdjEntry) +
             row.edges.capacity() * sizeof(EdgeSlot);
    return true;
  });
  return total + attribute_index_.MemoryBytes();
}

std::unique_ptr<GraphEngine> MakeColEngine(bool v10) {
  return std::make_unique<ColEngine>(v10);
}

}  // namespace gdbmicro
