#include "src/engines/relish/rel_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {

EngineInfo RelEngine::info() const {
  EngineInfo info;
  info.name = "sqlg";
  info.emulates = "Sqlg 1.2 / Postgres 9.6";
  info.type = "Hybrid (Relational)";
  info.storage = "Table per label, join tables for edges";
  info.edge_traversal = "Table join (FK indexes)";
  info.query_execution = QueryExecution::kConflated;
  info.query_execution_display = "SQL, conflated (optimized)";
  info.supports_property_index = true;
  return info;
}

Status RelEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  // DDL fee: CREATE TABLE / ALTER TABLE ADD COLUMN round trip + catalog
  // update, charged whenever the schema grows implicitly.
  ddl_cost_.per_write_us = 2000;
  ddl_cost_.enabled = options.enable_cost_model;
  return Status::OK();
}

uint64_t RelEngine::VTableForLabel(std::string_view label) {
  auto it = vtable_by_label_.find(label);
  if (it != vtable_by_label_.end()) return it->second;
  ddl_cost_.ChargeWrite();  // CREATE TABLE V_<label>
  uint64_t idx = vtables_.size();
  vtables_.push_back(VTable{std::string(label), {}, 0, {}});
  vtable_by_label_.emplace(std::string(label), idx);
  return idx;
}

uint64_t RelEngine::ETableForLabel(std::string_view label) {
  auto it = etable_by_label_.find(label);
  if (it != etable_by_label_.end()) return it->second;
  ddl_cost_.ChargeWrite();  // CREATE TABLE E_<label> + two FK indexes
  uint64_t idx = etables_.size();
  etables_.emplace_back();
  etables_.back().label = std::string(label);
  etable_by_label_.emplace(std::string(label), idx);
  return idx;
}

void RelEngine::EnsureColumn(ColumnSet* columns, std::string_view name) {
  if (columns->find(name) != columns->end()) return;
  columns->emplace(name);
  ddl_cost_.ChargeWrite();  // ALTER TABLE ADD COLUMN
}

void RelEngine::EnsureColumns(ColumnSet* columns, const PropertyMap& props) {
  for (const auto& [k, v] : props) {
    (void)v;
    EnsureColumn(columns, k);
  }
}

// --- CRUD -----------------------------------------------------------------------

Result<VertexId> RelEngine::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  uint64_t table = VTableForLabel(label);
  VTable& t = vtables_[table];
  EnsureColumns(&t.columns, props);
  uint64_t row = t.rows.size();
  t.rows.push_back(VRow{true, props});
  ++t.live_count;
  VertexId id = Pack(table, row);
  attribute_index_.InsertAll(props, id);
  return id;
}

Result<EdgeId> RelEngine::AddEdge(VertexId src, VertexId dst,
                                  std::string_view label,
                                  const PropertyMap& props) {
  if (TableOf(src) >= vtables_.size() ||
      RowOf(src) >= vtables_[TableOf(src)].rows.size() ||
      !vtables_[TableOf(src)].rows[RowOf(src)].live ||
      TableOf(dst) >= vtables_.size() ||
      RowOf(dst) >= vtables_[TableOf(dst)].rows.size() ||
      !vtables_[TableOf(dst)].rows[RowOf(dst)].live) {
    return Status::NotFound("edge endpoint not found");
  }
  uint64_t table = ETableForLabel(label);
  ETable& t = etables_[table];
  EnsureColumns(&t.columns, props);
  uint64_t row = t.rows.size();
  t.rows.push_back(ERow{true, src, dst, props});
  ++t.live_count;
  t.src_index.Insert(src, row);
  t.dst_index.Insert(dst, row);
  return Pack(table, row);
}

Result<LoadMapping> RelEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);

  // Counting pass: every table is created (one DDL charge per new label)
  // and presized exactly once; the resolved table id is kept per element
  // so the row pass does no catalog probe at all.
  std::vector<uint32_t> vtable_of(nv), etable_of(ne);
  {
    std::vector<uint64_t> vcount, ecount;  // indexed by table id
    for (size_t i = 0; i < nv; ++i) {
      uint64_t table = VTableForLabel(data.vertices[i].label);
      vtable_of[i] = static_cast<uint32_t>(table);
      if (table >= vcount.size()) vcount.resize(table + 1, 0);
      ++vcount[table];
    }
    for (size_t i = 0; i < ne; ++i) {
      uint64_t table = ETableForLabel(data.edges[i].label);
      etable_of[i] = static_cast<uint32_t>(table);
      if (table >= ecount.size()) ecount.resize(table + 1, 0);
      ++ecount[table];
    }
    for (uint64_t t = 0; t < vcount.size(); ++t) {
      auto& rows = vtables_[t].rows;
      rows.reserve(rows.size() + vcount[t]);
    }
    for (uint64_t t = 0; t < ecount.size(); ++t) {
      auto& rows = etables_[t].rows;
      rows.reserve(rows.size() + ecount[t]);
    }
  }

  // Raw element pass: rows batch-append; FK indexes untouched.
  for (size_t i = 0; i < nv; ++i) {
    const auto& v = data.vertices[i];
    VTable& t = vtables_[vtable_of[i]];
    EnsureColumns(&t.columns, v.properties);
    uint64_t row = t.rows.size();
    t.rows.push_back(VRow{true, v.properties});
    ++t.live_count;
    VertexId id = Pack(vtable_of[i], row);
    mapping.vertex_ids.push_back(id);
    attribute_index_.InsertAll(v.properties, id);
  }
  for (size_t i = 0; i < ne; ++i) {
    const auto& e = data.edges[i];
    ETable& t = etables_[etable_of[i]];
    EnsureColumns(&t.columns, e.properties);
    uint64_t row = t.rows.size();
    t.rows.push_back(ERow{true, mapping.vertex_ids[e.src],
                          mapping.vertex_ids[e.dst], e.properties});
    ++t.live_count;
    mapping.edge_ids.push_back(Pack(etable_of[i], row));
  }

  // Deferred FK index build: each endpoint index is sorted and built
  // bottom-up once per table, instead of two B+Tree descents per edge.
  // One staging buffer serves every table (frb datasets have hundreds).
  Timer timer;
  std::vector<std::pair<VertexId, uint64_t>> entries;
  for (ETable& t : etables_) {
    if (t.rows.empty()) continue;
    entries.clear();
    entries.reserve(t.rows.size());
    for (uint64_t row = 0; row < t.rows.size(); ++row) {
      if (t.rows[row].live) entries.push_back({t.rows[row].src, row});
    }
    std::sort(entries.begin(), entries.end());
    t.src_index.BuildFrom(entries);
    entries.clear();
    for (uint64_t row = 0; row < t.rows.size(); ++row) {
      if (t.rows[row].live) entries.push_back({t.rows[row].dst, row});
    }
    std::sort(entries.begin(), entries.end());
    t.dst_index.BuildFrom(entries);
  }
  mutable_load_stats()->index_build_millis = timer.ElapsedMillis();
  return mapping;
}

Status RelEngine::SetVertexProperty(VertexId v, std::string_view name,
                                    const PropertyValue& value) {
  if (TableOf(v) >= vtables_.size()) return Status::NotFound("vertex not found");
  VTable& t = vtables_[TableOf(v)];
  if (RowOf(v) >= t.rows.size() || !t.rows[RowOf(v)].live) {
    return Status::NotFound("vertex not found");
  }
  EnsureColumn(&t.columns, name);
  VRow& row = t.rows[RowOf(v)];
  if (const PropertyValue* prev = FindProperty(row.props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  SetProperty(&row.props, name, value);
  attribute_index_.Insert(name, value, v);
  return Status::OK();
}

Status RelEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                  const PropertyValue& value) {
  if (TableOf(e) >= etables_.size()) return Status::NotFound("edge not found");
  ETable& t = etables_[TableOf(e)];
  if (RowOf(e) >= t.rows.size() || !t.rows[RowOf(e)].live) {
    return Status::NotFound("edge not found");
  }
  EnsureColumn(&t.columns, name);
  SetProperty(&t.rows[RowOf(e)].props, name, value);
  return Status::OK();
}

Result<VertexRecord> RelEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  if (TableOf(id) >= vtables_.size()) {
    return Status::NotFound("vertex not found");
  }
  const VTable& t = vtables_[TableOf(id)];
  if (RowOf(id) >= t.rows.size() || !t.rows[RowOf(id)].live) {
    return Status::NotFound("vertex not found");
  }
  VertexRecord rec;
  rec.id = id;
  rec.label = t.label;
  rec.properties = t.rows[RowOf(id)].props;
  return rec;
}

Result<EdgeRecord> RelEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  if (TableOf(id) >= etables_.size()) return Status::NotFound("edge not found");
  const ETable& t = etables_[TableOf(id)];
  if (RowOf(id) >= t.rows.size() || !t.rows[RowOf(id)].live) {
    return Status::NotFound("edge not found");
  }
  const ERow& row = t.rows[RowOf(id)];
  EdgeRecord rec;
  rec.id = id;
  rec.src = row.src;
  rec.dst = row.dst;
  rec.label = t.label;
  rec.properties = row.props;
  return rec;
}

Result<bool> RelEngine::ReadEdgeProperty(QuerySession& /*session*/, EdgeId id,
                                         std::string_view key,
                                         PropertyValue* out) const {
  if (TableOf(id) >= etables_.size()) return Status::NotFound("edge not found");
  const ETable& t = etables_[TableOf(id)];
  if (RowOf(id) >= t.rows.size() || !t.rows[RowOf(id)].live) {
    return Status::NotFound("edge not found");
  }
  return CopyProperty(t.rows[RowOf(id)].props, key, out);
}

Result<std::vector<std::string>> RelEngine::DistinctEdgeLabels(QuerySession& /*session*/,
    const CancelToken& cancel) const {
  // Labels are schema: DISTINCT over table names, a catalog query. Still
  // cooperative — wide schemas make even catalog walks cancellable.
  std::vector<std::string> labels;
  for (const ETable& t : etables_) {
    GDB_CHECK_CANCEL(cancel);
    if (t.live_count > 0) labels.push_back(t.label);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

Result<std::vector<EdgeId>> RelEngine::FindEdgesByLabel(QuerySession& /*session*/, 
    std::string_view label, const CancelToken& cancel) const {
  // SELECT id FROM E_<label>: one sequential scan of one table.
  auto it = etable_by_label_.find(label);
  if (it == etable_by_label_.end()) return std::vector<EdgeId>{};
  const ETable& t = etables_[it->second];
  std::vector<EdgeId> out;
  out.reserve(t.live_count);
  for (uint64_t row = 0; row < t.rows.size(); ++row) {
    GDB_CHECK_CANCEL(cancel);
    if (t.rows[row].live) out.push_back(Pack(it->second, row));
  }
  return out;
}

Result<std::vector<VertexId>> RelEngine::FindVerticesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  if (attribute_index_.Covers(prop)) {
    return attribute_index_.Lookup(prop, value, cancel);
  }
  // UNION ALL of sequential scans; tight row loops, no per-row record
  // decode — the relational engine's strength on content filters.
  std::vector<VertexId> out;
  for (uint64_t table = 0; table < vtables_.size(); ++table) {
    const VTable& t = vtables_[table];
    if (t.columns.find(prop) == t.columns.end()) continue;
    for (uint64_t row = 0; row < t.rows.size(); ++row) {
      GDB_CHECK_CANCEL(cancel);
      const VRow& r = t.rows[row];
      if (!r.live) continue;
      const PropertyValue* p = FindProperty(r.props, prop);
      if (p != nullptr && *p == value) out.push_back(Pack(table, row));
    }
  }
  return out;
}

Status RelEngine::RemoveEdgeInternal(EdgeId e) {
  if (TableOf(e) >= etables_.size()) return Status::NotFound("edge not found");
  ETable& t = etables_[TableOf(e)];
  uint64_t row = RowOf(e);
  if (row >= t.rows.size() || !t.rows[row].live) {
    return Status::NotFound("edge not found");
  }
  t.src_index.Erase(t.rows[row].src, row);
  t.dst_index.Erase(t.rows[row].dst, row);
  t.rows[row].live = false;
  t.rows[row].props.clear();
  --t.live_count;
  return Status::OK();
}

Status RelEngine::RemoveVertex(VertexId v) {
  if (TableOf(v) >= vtables_.size()) {
    return Status::NotFound("vertex not found");
  }
  VTable& t = vtables_[TableOf(v)];
  uint64_t row = RowOf(v);
  if (row >= t.rows.size() || !t.rows[row].live) {
    return Status::NotFound("vertex not found");
  }
  // Cascade: probe every edge table's FK indexes (one DELETE per table).
  for (uint64_t table = 0; table < etables_.size(); ++table) {
    ETable& et = etables_[table];
    std::vector<uint64_t> rows;
    et.src_index.ScanKey(v, [&](const uint64_t& r) {
      rows.push_back(r);
      return true;
    });
    et.dst_index.ScanKey(v, [&](const uint64_t& r) {
      rows.push_back(r);
      return true;
    });
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (uint64_t r : rows) {
      GDB_RETURN_IF_ERROR(RemoveEdgeInternal(Pack(table, r)));
    }
  }
  attribute_index_.EraseAll(t.rows[row].props, v);
  t.rows[row].live = false;
  t.rows[row].props.clear();
  --t.live_count;
  return Status::OK();
}

Status RelEngine::RemoveEdge(EdgeId e) { return RemoveEdgeInternal(e); }

Status RelEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  if (TableOf(v) >= vtables_.size()) {
    return Status::NotFound("vertex not found");
  }
  VTable& t = vtables_[TableOf(v)];
  if (RowOf(v) >= t.rows.size() || !t.rows[RowOf(v)].live) {
    return Status::NotFound("vertex not found");
  }
  VRow& row = t.rows[RowOf(v)];
  if (const PropertyValue* prev = FindProperty(row.props, name)) {
    attribute_index_.Erase(name, *prev, v);
  }
  if (!EraseProperty(&row.props, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

Status RelEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  if (TableOf(e) >= etables_.size()) return Status::NotFound("edge not found");
  ETable& t = etables_[TableOf(e)];
  if (RowOf(e) >= t.rows.size() || !t.rows[RowOf(e)].live) {
    return Status::NotFound("edge not found");
  }
  if (!EraseProperty(&t.rows[RowOf(e)].props, name)) {
    return Status::NotFound("no such property");
  }
  return Status::OK();
}

// --- scans / traversal ----------------------------------------------------------

Status RelEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  for (uint64_t table = 0; table < vtables_.size(); ++table) {
    const VTable& t = vtables_[table];
    for (uint64_t row = 0; row < t.rows.size(); ++row) {
      GDB_CHECK_CANCEL(cancel);
      if (t.rows[row].live) {
        if (!fn(Pack(table, row))) return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status RelEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  for (uint64_t table = 0; table < etables_.size(); ++table) {
    const ETable& t = etables_[table];
    for (uint64_t row = 0; row < t.rows.size(); ++row) {
      GDB_CHECK_CANCEL(cancel);
      if (!t.rows[row].live) continue;
      EdgeEnds ends;
      ends.id = Pack(table, row);
      ends.src = t.rows[row].src;
      ends.dst = t.rows[row].dst;
      ends.label = t.label;
      if (!fn(ends)) return Status::OK();
    }
  }
  return Status::OK();
}

Status RelEngine::WalkIncident(
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel,
    const std::function<bool(uint64_t, uint64_t)>& fn) const {
  // The per-step backend round trip is where the emulated remote can
  // fail transiently.
  if (const QueryFaultInjector* f = options().query_fault_injector) {
    GDB_RETURN_IF_ERROR(f->Intercept("RelEngine::WalkIncident"));
  }
  // Restricted to one label: a single table's FK index probe (fast path).
  // Unrestricted: UNION ALL over every edge table (the slow path the
  // paper measures for BFS/SP/degree queries).
  uint64_t first = 0, last = etables_.size();
  if (label != nullptr) {
    auto it = etable_by_label_.find(*label);
    if (it == etable_by_label_.end()) return Status::OK();
    first = it->second;
    last = first + 1;
  }
  if (TableOf(v) >= vtables_.size() ||
      RowOf(v) >= vtables_[TableOf(v)].rows.size() ||
      !vtables_[TableOf(v)].rows[RowOf(v)].live) {
    return Status::NotFound("vertex not found");
  }
  // The scan callbacks are hoisted out of the table loop (constructing a
  // std::function per table would cost allocations per edge label on the
  // unrestricted UNION ALL path, hundreds on the Freebase shapes), and
  // everything they touch sits behind one reference, so each fits
  // std::function's inline buffer and a walk allocates nothing.
  struct Walk {
    const CancelToken& cancel;
    const std::function<bool(uint64_t, uint64_t)>& fn;
    Direction dir;
    uint64_t table = 0;
    const ETable* cur = nullptr;
    bool stop = false;       // fn asked to stop: a successful early-stop
    bool cancelled = false;  // the token expired mid-walk
  } walk{cancel, fn, dir};
  const std::function<bool(const uint64_t&)> on_src =
      [&walk](const uint64_t& row) {
        if (walk.cancel.Expired()) {
          walk.cancelled = true;
          return false;
        }
        if (!walk.fn(walk.table, row)) {
          walk.stop = true;
          return false;
        }
        return true;
      };
  const std::function<bool(const uint64_t&)> on_dst =
      [&walk](const uint64_t& row) {
        // Self-loops already reported through the src index when kBoth.
        if (walk.dir == Direction::kBoth &&
            walk.cur->rows[row].src == walk.cur->rows[row].dst) {
          return true;
        }
        if (walk.cancel.Expired()) {
          walk.cancelled = true;
          return false;
        }
        if (!walk.fn(walk.table, row)) {
          walk.stop = true;
          return false;
        }
        return true;
      };
  for (uint64_t table = first;
       table < last && !walk.stop && !walk.cancelled; ++table) {
    GDB_CHECK_CANCEL(cancel);
    walk.table = table;
    walk.cur = &etables_[table];
    if (dir == Direction::kOut || dir == Direction::kBoth) {
      walk.cur->src_index.ScanKey(v, on_src);
      if (walk.stop || walk.cancelled) break;
    }
    if (dir == Direction::kIn || dir == Direction::kBoth) {
      walk.cur->dst_index.ScanKey(v, on_dst);
    }
  }
  if (walk.cancelled) return cancel.ToStatus();
  return Status::OK();
}

Status RelEngine::ForEachEdgeOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                const std::string* label,
                                const CancelToken& cancel,
                                const std::function<bool(EdgeId)>& fn) const {
  return WalkIncident(v, dir, label, cancel,
                      [&](uint64_t table, uint64_t row) {
                        return fn(Pack(table, row));
                      });
}

Status RelEngine::ForEachNeighbor(QuerySession& /*session*/, 
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  // One reference: the closure fits std::function's inline buffer.
  struct Hop {
    const std::vector<ETable>& tables;
    VertexId v;
    const std::function<bool(VertexId)>& fn;
  } hop{etables_, v, fn};
  return WalkIncident(v, dir, label, cancel,
                      [&hop](uint64_t table, uint64_t row) {
                        const ERow& r = hop.tables[table].rows[row];
                        return hop.fn(r.src == hop.v ? r.dst : r.src);
                      });
}

Result<EdgeEnds> RelEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  if (TableOf(e) >= etables_.size()) return Status::NotFound("edge not found");
  const ETable& t = etables_[TableOf(e)];
  if (RowOf(e) >= t.rows.size() || !t.rows[RowOf(e)].live) {
    return Status::NotFound("edge not found");
  }
  EdgeEnds ends;
  ends.id = e;
  ends.src = t.rows[RowOf(e)].src;
  ends.dst = t.rows[RowOf(e)].dst;
  ends.label = t.label;
  return ends;
}

// --- index / persistence ----------------------------------------------------------

Status RelEngine::CreateVertexPropertyIndex(std::string_view prop) {
  AttributeIndex::Tree* index = attribute_index_.Create(prop);
  if (index == nullptr) return Status::OK();
  ddl_cost_.ChargeWrite();  // CREATE INDEX
  CancelToken never;
  std::unique_ptr<QuerySession> session = CreateSession();
  return ScanVertices(*session, never, [&](VertexId id) {
    const VTable& t = vtables_[TableOf(id)];
    const PropertyValue* v = FindProperty(t.rows[RowOf(id)].props, prop);
    if (v != nullptr) index->Insert(*v, id);
    return true;
  });
}

uint64_t RelEngine::CheckpointBytes() const {
  // Postgres-style storage: 8 KiB pages, 24-byte tuple headers. Each
  // table is page-padded, and an edge table carries its page-granular FK
  // indexes; the attribute index is page-padded too. Tuple headers, index
  // pages and padding are counted, not built.
  static constexpr uint64_t kPageBytes = 8192;
  static constexpr uint64_t kTupleHeader = 24;
  auto page_padded = [](uint64_t bytes) {
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
  };

  uint64_t total = 0;
  std::string buf;
  for (const VTable& t : vtables_) {
    buf.clear();
    PutVarint64(&buf, t.rows.size());
    for (const VRow& row : t.rows) {
      buf.push_back(row.live ? 1 : 0);
      EncodePropertyMap(row.props, &buf);
    }
    total += page_padded(buf.size() + t.rows.size() * kTupleHeader);
  }
  for (const ETable& t : etables_) {
    buf.clear();
    PutVarint64(&buf, t.rows.size());
    for (const ERow& row : t.rows) {
      buf.push_back(row.live ? 1 : 0);
      PutVarint64(&buf, row.src);
      PutVarint64(&buf, row.dst);
      EncodePropertyMap(row.props, &buf);
    }
    total += page_padded(buf.size() + t.rows.size() * kTupleHeader +
                         t.src_index.SerializedBytes(16) +
                         t.dst_index.SerializedBytes(16));
  }
  // The user attribute index, a relation of its own.
  if (!attribute_index_.empty()) {
    buf.clear();
    attribute_index_.Serialize(&buf);
    total += page_padded(buf.size());
  }
  // Catalog.
  buf.clear();
  PutVarint64(&buf, vtables_.size());
  for (const VTable& t : vtables_) {
    PutVarint64(&buf, t.label.size());
    buf.append(t.label);
  }
  PutVarint64(&buf, etables_.size());
  for (const ETable& t : etables_) {
    PutVarint64(&buf, t.label.size());
    buf.append(t.label);
  }
  return total + buf.size();
}

uint64_t RelEngine::MemoryBytes() const {
  uint64_t total = 0;
  for (const VTable& t : vtables_) {
    total += t.rows.capacity() * sizeof(VRow) + 256;
  }
  for (const ETable& t : etables_) {
    total += t.rows.capacity() * sizeof(ERow) + 256 +
             t.src_index.SerializedBytes(16) +
             t.dst_index.SerializedBytes(16);
  }
  return total + attribute_index_.MemoryBytes();
}

std::unique_ptr<GraphEngine> MakeRelEngine() {
  return std::make_unique<RelEngine>();
}

}  // namespace gdbmicro
