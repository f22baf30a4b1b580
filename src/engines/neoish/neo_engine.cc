#include "src/engines/neoish/neo_engine.h"

#include <algorithm>
#include <cstring>

#include "src/util/string_util.h"
#include "src/util/timer.h"

namespace gdbmicro {

namespace {

// Fixed-layout field helpers over record payloads.
inline void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Record sizes (bytes, including the 1-byte liveness flag managed by
// RecordFile). Fixed sizes are the essence of this layout: id -> offset.
constexpr uint32_t kNodeRecSize = 24;    // label(4) first(8) first_prop(8)
constexpr uint32_t kEdgeRecSize = 72;    // src dst label prev[2] next[2] prop
constexpr uint32_t kGroupRecSize = 32;   // label(4) dir(1) first(8) next(8)
constexpr uint32_t kPropRecSize = 64;    // key(4) next(8) kind(1) len(2) data
constexpr size_t kPropInlineCap = 48;

}  // namespace

NeoEngine::NeoEngine(bool v30)
    : v30_(v30),
      node_store_(kNodeRecSize),
      edge_store_(kEdgeRecSize),
      group_store_(kGroupRecSize),
      prop_store_(kPropRecSize) {}

EngineInfo NeoEngine::info() const {
  EngineInfo info;
  info.name = std::string(name());
  info.emulates = v30_ ? "Neo4j 3.0" : "Neo4j 1.9";
  info.type = "Native";
  info.storage = v30_ ? "Linked fixed-size records, chains split by type"
                      : "Linked fixed-size records";
  info.edge_traversal = "Direct pointer";
  info.query_execution = QueryExecution::kStepWise;
  info.query_execution_display = "Step-wise (non-optimized)";
  // Paper §6.4: Neo4j 3.0's search ignores a user attribute index.
  info.supports_property_index = !v30_;
  return info;
}

Status NeoEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  if (v30_) {
    // The 3.x TinkerPop wrapper: a fixed per-operation overhead on CUD and
    // point lookups (paper §6.4 "Progress across Versions").
    wrapper_cost_.per_call_us = 150;
    wrapper_cost_.per_write_us = 900;
    wrapper_cost_.enabled = options.enable_cost_model;
  }
  return Status::OK();
}

// --- record (de)serialization --------------------------------------------

NeoEngine::NodeRec NeoEngine::ReadNode(VertexId id) const {
  auto view = node_store_.Read(id);
  NodeRec n;
  const char* p = view->data();
  n.label = GetU32(p);
  n.first = GetU64(p + 4);
  n.first_prop = GetU64(p + 12);
  return n;
}

void NeoEngine::WriteNode(VertexId id, const NodeRec& n) {
  char buf[kNodeRecSize - 1];
  PutU32(buf, n.label);
  PutU64(buf + 4, n.first);
  PutU64(buf + 12, n.first_prop);
  node_store_.Write(id, std::string_view(buf, sizeof(buf)));
}

NeoEngine::EdgeRec NeoEngine::ReadEdge(EdgeId id) const {
  auto view = edge_store_.Read(id);
  EdgeRec e;
  const char* p = view->data();
  e.src = GetU64(p);
  e.dst = GetU64(p + 8);
  e.label = GetU32(p + 16);
  e.prev[0] = GetU64(p + 20);
  e.prev[1] = GetU64(p + 28);
  e.next[0] = GetU64(p + 36);
  e.next[1] = GetU64(p + 44);
  e.first_prop = GetU64(p + 52);
  return e;
}

void NeoEngine::WriteEdge(EdgeId id, const EdgeRec& e) {
  char buf[kEdgeRecSize - 1];
  std::memset(buf, 0, sizeof(buf));
  PutU64(buf, e.src);
  PutU64(buf + 8, e.dst);
  PutU32(buf + 16, e.label);
  PutU64(buf + 20, e.prev[0]);
  PutU64(buf + 28, e.prev[1]);
  PutU64(buf + 36, e.next[0]);
  PutU64(buf + 44, e.next[1]);
  PutU64(buf + 52, e.first_prop);
  edge_store_.Write(id, std::string_view(buf, sizeof(buf)));
}

NeoEngine::GroupRec NeoEngine::ReadGroup(uint64_t id) const {
  auto view = group_store_.Read(id);
  GroupRec g;
  const char* p = view->data();
  g.label = GetU32(p);
  g.dir = static_cast<uint8_t>(p[4]);
  g.first = GetU64(p + 5);
  g.next_group = GetU64(p + 13);
  return g;
}

void NeoEngine::WriteGroup(uint64_t id, const GroupRec& g) {
  char buf[kGroupRecSize - 1];
  std::memset(buf, 0, sizeof(buf));
  PutU32(buf, g.label);
  buf[4] = static_cast<char>(g.dir);
  PutU64(buf + 5, g.first);
  PutU64(buf + 13, g.next_group);
  group_store_.Write(id, std::string_view(buf, sizeof(buf)));
}

// --- chain maintenance ----------------------------------------------------

void NeoEngine::LinkAtHead(uint64_t* head, EdgeId edge, int role,
                           EdgeRec* rec) {
  uint64_t link = (edge << 1) | static_cast<uint64_t>(role);
  rec->prev[role] = kNilLink;
  rec->next[role] = *head;
  if (*head != kNilLink) {
    EdgeId next_edge = *head >> 1;
    int next_role = static_cast<int>(*head & 1);
    if (next_edge == edge) {
      // Head occurrence belongs to this same record (self-loop).
      rec->prev[next_role] = link;
    } else {
      EdgeRec next = ReadEdge(next_edge);
      next.prev[next_role] = link;
      WriteEdge(next_edge, next);
    }
  }
  *head = link;
}

void NeoEngine::Unlink(uint64_t* head, const EdgeRec& rec, EdgeId edge,
                       int role) {
  uint64_t link = (edge << 1) | static_cast<uint64_t>(role);
  uint64_t prev = rec.prev[role];
  uint64_t next = rec.next[role];
  if (prev == kNilLink) {
    if (*head == link) *head = next;
  } else {
    EdgeId prev_edge = prev >> 1;
    int prev_role = static_cast<int>(prev & 1);
    EdgeRec p = ReadEdge(prev_edge);
    p.next[prev_role] = next;
    WriteEdge(prev_edge, p);
  }
  if (next != kNilLink) {
    EdgeId next_edge = next >> 1;
    int next_role = static_cast<int>(next & 1);
    EdgeRec n = ReadEdge(next_edge);
    n.prev[next_role] = prev;
    WriteEdge(next_edge, n);
  }
}

uint64_t NeoEngine::FindGroup(const NodeRec& n, uint32_t label,
                              int role) const {
  uint64_t gid = n.first;
  while (gid != kNilLink) {
    GroupRec g = ReadGroup(gid);
    if (g.label == label && g.dir == role) return gid;
    gid = g.next_group;
  }
  return kNilLink;
}

uint64_t NeoEngine::FindOrCreateGroup(VertexId v, uint32_t label, int role) {
  NodeRec n = ReadNode(v);
  uint64_t gid = FindGroup(n, label, role);
  if (gid != kNilLink) return gid;
  gid = group_store_.Allocate();
  GroupRec g;
  g.label = label;
  g.dir = static_cast<uint8_t>(role);
  g.first = kNilLink;
  g.next_group = n.first;
  WriteGroup(gid, g);
  n.first = gid;
  WriteNode(v, n);
  return gid;
}

Status NeoEngine::WalkIncidence(
    VertexId v, const CancelToken& cancel,
    const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const {
  return WalkIncidenceFiltered(v, Dictionary::kNoId, cancel, fn);
}

Status NeoEngine::WalkIncidenceFiltered(
    VertexId v, uint32_t label_id, const CancelToken& cancel,
    const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const {
  if (!node_store_.IsLive(v)) return Status::NotFound("vertex not found");
  NodeRec n = ReadNode(v);
  auto walk_chain = [&](uint64_t head) -> Result<bool> {
    uint64_t link = head;
    while (link != kNilLink) {
      GDB_CHECK_CANCEL(cancel);
      EdgeId eid = link >> 1;
      int role = static_cast<int>(link & 1);
      EdgeRec rec = ReadEdge(eid);
      if (!fn(eid, role, rec)) return false;
      link = rec.next[role];
    }
    return true;
  };
  if (!v30_) {
    GDB_ASSIGN_OR_RETURN(bool keep_going, walk_chain(n.first));
    (void)keep_going;
    return Status::OK();
  }
  // v3.0 typed chains: when a label filter is given, only that label's
  // (out, in) groups are walked — the storage rewrite's fast path.
  uint64_t gid = n.first;
  while (gid != kNilLink) {
    GDB_CHECK_CANCEL(cancel);
    GroupRec g = ReadGroup(gid);
    if (label_id == Dictionary::kNoId || g.label == label_id) {
      GDB_ASSIGN_OR_RETURN(bool keep_going, walk_chain(g.first));
      if (!keep_going) return Status::OK();
    }
    gid = g.next_group;
  }
  return Status::OK();
}

// --- property chains ------------------------------------------------------

uint64_t NeoEngine::BuildPropChain(const PropertyMap& props) {
  uint64_t head = kNilLink;
  // Build in reverse so the chain preserves insertion order.
  for (auto it = props.rbegin(); it != props.rend(); ++it) {
    uint64_t rec_id = prop_store_.Allocate();
    uint32_t key = keys_.Intern(it->first);
    std::string encoded;
    it->second.EncodeTo(&encoded);
    char buf[kPropRecSize - 1];
    std::memset(buf, 0, sizeof(buf));
    PutU32(buf, key);
    PutU64(buf + 4, head);
    if (encoded.size() <= kPropInlineCap) {
      buf[12] = 0;  // inline
      uint16_t len = static_cast<uint16_t>(encoded.size());
      std::memcpy(buf + 13, &len, 2);
      std::memcpy(buf + 15, encoded.data(), encoded.size());
    } else {
      buf[12] = 1;  // overflow into the dynamic string store
      uint64_t overflow = string_store_.Append(encoded);
      PutU64(buf + 13, overflow);
    }
    prop_store_.Write(rec_id, std::string_view(buf, sizeof(buf)));
    head = rec_id;
  }
  return head;
}

namespace {
struct PropRecView {
  uint32_t key;
  uint64_t next;
  bool overflow;
  uint16_t len;
  uint64_t overflow_id;
  const char* inline_data;
};
}  // namespace

static PropRecView ParsePropRec(std::string_view payload) {
  PropRecView v{};
  const char* p = payload.data();
  std::memcpy(&v.key, p, 4);
  std::memcpy(&v.next, p + 4, 8);
  v.overflow = p[12] != 0;
  if (v.overflow) {
    std::memcpy(&v.overflow_id, p + 13, 8);
  } else {
    std::memcpy(&v.len, p + 13, 2);
    v.inline_data = p + 15;
  }
  return v;
}

Status NeoEngine::ChainSetProperty(uint64_t* head, std::string_view name,
                                   const PropertyValue& value) {
  uint32_t key = keys_.Intern(name);
  std::string encoded;
  value.EncodeTo(&encoded);
  // Look for an existing record with this key.
  uint64_t rec_id = *head;
  while (rec_id != kNilLink) {
    auto payload = prop_store_.Read(rec_id);
    PropRecView v = ParsePropRec(*payload);
    if (v.key == key) {
      // Rewrite value in place (freeing any overflow record).
      if (v.overflow) string_store_.Delete(v.overflow_id).ok();
      char buf[kPropRecSize - 1];
      std::memset(buf, 0, sizeof(buf));
      PutU32(buf, key);
      PutU64(buf + 4, v.next);
      if (encoded.size() <= kPropInlineCap) {
        buf[12] = 0;
        uint16_t len = static_cast<uint16_t>(encoded.size());
        std::memcpy(buf + 13, &len, 2);
        std::memcpy(buf + 15, encoded.data(), encoded.size());
      } else {
        buf[12] = 1;
        PutU64(buf + 13, string_store_.Append(encoded));
      }
      return prop_store_.Write(rec_id, std::string_view(buf, sizeof(buf)));
    }
    rec_id = v.next;
  }
  // Not found: insert at head.
  uint64_t new_id = prop_store_.Allocate();
  char buf[kPropRecSize - 1];
  std::memset(buf, 0, sizeof(buf));
  PutU32(buf, key);
  PutU64(buf + 4, *head);
  if (encoded.size() <= kPropInlineCap) {
    buf[12] = 0;
    uint16_t len = static_cast<uint16_t>(encoded.size());
    std::memcpy(buf + 13, &len, 2);
    std::memcpy(buf + 15, encoded.data(), encoded.size());
  } else {
    buf[12] = 1;
    PutU64(buf + 13, string_store_.Append(encoded));
  }
  GDB_RETURN_IF_ERROR(prop_store_.Write(new_id, std::string_view(buf, sizeof(buf))));
  *head = new_id;
  return Status::OK();
}

Status NeoEngine::ChainRemoveProperty(uint64_t* head, std::string_view name) {
  uint32_t key = keys_.Lookup(name);
  if (key == Dictionary::kNoId) return Status::NotFound("no such property");
  uint64_t prev = kNilLink;
  uint64_t rec_id = *head;
  while (rec_id != kNilLink) {
    auto payload = prop_store_.Read(rec_id);
    PropRecView v = ParsePropRec(*payload);
    if (v.key == key) {
      if (v.overflow) string_store_.Delete(v.overflow_id).ok();
      if (prev == kNilLink) {
        *head = v.next;
      } else {
        auto prev_payload = prop_store_.Read(prev);
        PropRecView pv = ParsePropRec(*prev_payload);
        char buf[kPropRecSize - 1];
        std::memcpy(buf, prev_payload->data(), sizeof(buf));
        PutU64(buf + 4, v.next);
        (void)pv;
        GDB_RETURN_IF_ERROR(
            prop_store_.Write(prev, std::string_view(buf, sizeof(buf))));
      }
      return prop_store_.Free(rec_id);
    }
    prev = rec_id;
    rec_id = v.next;
  }
  return Status::NotFound("no such property");
}

PropertyMap NeoEngine::MaterializeProps(uint64_t head) const {
  PropertyMap props;
  uint64_t rec_id = head;
  while (rec_id != kNilLink) {
    auto payload = prop_store_.Read(rec_id);
    if (!payload.ok()) break;
    PropRecView v = ParsePropRec(*payload);
    std::string encoded;
    if (v.overflow) {
      auto blob = string_store_.Read(v.overflow_id);
      if (blob.ok()) encoded.assign(blob->data(), blob->size());
    } else {
      encoded.assign(v.inline_data, v.len);
    }
    size_t pos = 0;
    auto decoded = PropertyValue::DecodeFrom(encoded, &pos);
    if (decoded.ok()) {
      props.emplace_back(keys_.Get(v.key), std::move(decoded).value());
    }
    rec_id = v.next;
  }
  return props;
}

bool NeoEngine::ChainProperty(uint64_t head, uint32_t key_id,
                              PropertyValue* out) const {
  if (key_id == Dictionary::kNoId) return false;
  uint64_t rec_id = head;
  while (rec_id != kNilLink) {
    auto payload = prop_store_.Read(rec_id);
    if (!payload.ok()) break;
    PropRecView v = ParsePropRec(*payload);
    if (v.key == key_id) {
      std::string_view encoded;
      if (!v.overflow) {
        encoded = std::string_view(v.inline_data, v.len);
      } else if (auto blob = string_store_.Read(v.overflow_id); blob.ok()) {
        encoded = *blob;
      }
      size_t pos = 0;
      if (PropertyValue::DecodeInto(encoded, &pos, out).ok()) return true;
    }
    rec_id = v.next;
  }
  return false;
}

void NeoEngine::FreePropChain(uint64_t head) {
  uint64_t rec_id = head;
  while (rec_id != kNilLink) {
    auto payload = prop_store_.Read(rec_id);
    if (!payload.ok()) break;
    PropRecView v = ParsePropRec(*payload);
    if (v.overflow) string_store_.Delete(v.overflow_id).ok();
    uint64_t next = v.next;
    prop_store_.Free(rec_id).ok();
    rec_id = next;
  }
}

// --- CRUD -------------------------------------------------------------------

Result<VertexId> NeoEngine::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  wrapper_cost_.ChargeWrite();
  VertexId id = node_store_.Allocate();
  NodeRec n;
  n.label = labels_.Intern(label);
  n.first = kNilLink;
  n.first_prop = BuildPropChain(props);
  WriteNode(id, n);
  attribute_index_.InsertAll(props, id);
  return id;
}

Result<EdgeId> NeoEngine::AddEdge(VertexId src, VertexId dst,
                                  std::string_view label,
                                  const PropertyMap& props) {
  wrapper_cost_.ChargeWrite();
  if (!node_store_.IsLive(src) || !node_store_.IsLive(dst)) {
    return Status::NotFound("edge endpoint not found");
  }
  EdgeId id = edge_store_.Allocate();
  EdgeRec e;
  e.src = src;
  e.dst = dst;
  e.label = labels_.Intern(label);
  e.first_prop = BuildPropChain(props);

  if (!v30_) {
    NodeRec s = ReadNode(src);
    LinkAtHead(&s.first, id, 0, &e);
    WriteNode(src, s);
    NodeRec d = ReadNode(dst);
    LinkAtHead(&d.first, id, 1, &e);
    WriteNode(dst, d);
  } else {
    uint64_t out_group = FindOrCreateGroup(src, e.label, 0);
    GroupRec og = ReadGroup(out_group);
    LinkAtHead(&og.first, id, 0, &e);
    WriteGroup(out_group, og);
    uint64_t in_group = FindOrCreateGroup(dst, e.label, 1);
    GroupRec ig = ReadGroup(in_group);
    LinkAtHead(&ig.first, id, 1, &e);
    WriteGroup(in_group, ig);
  }
  WriteEdge(id, e);
  ++edge_count_;
  return id;
}

Status NeoEngine::SetVertexProperty(VertexId v, std::string_view name,
                                    const PropertyValue& value) {
  wrapper_cost_.ChargeWrite();
  if (!node_store_.IsLive(v)) return Status::NotFound("vertex not found");
  NodeRec n = ReadNode(v);
  // Maintain any index on this property.
  PropertyValue prev;
  if (!attribute_index_.empty() &&
      ChainProperty(n.first_prop, keys_.Lookup(name), &prev)) {
    attribute_index_.Erase(name, prev, v);
  }
  GDB_RETURN_IF_ERROR(ChainSetProperty(&n.first_prop, name, value));
  WriteNode(v, n);
  attribute_index_.Insert(name, value, v);
  return Status::OK();
}

Status NeoEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                  const PropertyValue& value) {
  wrapper_cost_.ChargeWrite();
  if (!edge_store_.IsLive(e)) return Status::NotFound("edge not found");
  EdgeRec rec = ReadEdge(e);
  GDB_RETURN_IF_ERROR(ChainSetProperty(&rec.first_prop, name, value));
  WriteEdge(e, rec);
  return Status::OK();
}

Result<LoadMapping> NeoEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);

  size_t prop_records = 0;
  for (const auto& v : data.vertices) prop_records += v.properties.size();
  for (const auto& e : data.edges) prop_records += e.properties.size();
  node_store_.Reserve(nv);
  edge_store_.Reserve(ne);
  prop_store_.Reserve(prop_records);

  // Raw element pass: records are assembled in memory with nil chain
  // links; labels and property keys intern once per distinct string.
  std::vector<NodeRec> nodes(nv);
  for (size_t i = 0; i < nv; ++i) {
    VertexId id = node_store_.Allocate();
    nodes[i].label = labels_.Intern(data.vertices[i].label);
    nodes[i].first_prop = BuildPropChain(data.vertices[i].properties);
    mapping.vertex_ids.push_back(id);
    attribute_index_.InsertAll(data.vertices[i].properties, id);
  }
  std::vector<EdgeRec> recs(ne);
  for (size_t i = 0; i < ne; ++i) {
    const GraphData::Edge& e = data.edges[i];
    EdgeId id = edge_store_.Allocate();
    recs[i].src = mapping.vertex_ids[e.src];
    recs[i].dst = mapping.vertex_ids[e.dst];
    recs[i].label = labels_.Intern(e.label);
    recs[i].first_prop = BuildPropChain(e.properties);
    mapping.edge_ids.push_back(id);
  }

  // Deferred chain construction: a counted degree pass buckets every
  // (edge, role) occurrence per node, then each chain is stitched in one
  // sweep — no per-edge list splicing, each record written exactly once.
  Timer timer;
  struct Occ {
    uint64_t edge;  // index into recs/mapping.edge_ids
    uint32_t label;
    uint8_t role;  // 0 = src occurrence, 1 = dst occurrence
  };
  std::vector<size_t> offset(nv + 1, 0);
  for (const auto& e : data.edges) {
    ++offset[e.src + 1];
    ++offset[e.dst + 1];
  }
  for (size_t i = 0; i < nv; ++i) offset[i + 1] += offset[i];
  std::vector<Occ> occ(2 * ne);
  {
    std::vector<size_t> cursor(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < ne; ++i) {
      const GraphData::Edge& e = data.edges[i];
      occ[cursor[e.src]++] = Occ{i, recs[i].label, 0};
      occ[cursor[e.dst]++] = Occ{i, recs[i].label, 1};
    }
  }
  // Stitches occ[begin, end) into one doubly-linked chain and returns the
  // head link.
  auto stitch = [&](size_t begin, size_t end) -> uint64_t {
    for (size_t j = begin; j < end; ++j) {
      EdgeRec& r = recs[occ[j].edge];
      int role = occ[j].role;
      r.prev[role] =
          j > begin
              ? (mapping.edge_ids[occ[j - 1].edge] << 1) | occ[j - 1].role
              : kNilLink;
      r.next[role] =
          j + 1 < end
              ? (mapping.edge_ids[occ[j + 1].edge] << 1) | occ[j + 1].role
              : kNilLink;
    }
    return (mapping.edge_ids[occ[begin].edge] << 1) | occ[begin].role;
  };
  for (size_t i = 0; i < nv; ++i) {
    size_t begin = offset[i], end = offset[i + 1];
    if (begin == end) continue;
    if (!v30_) {
      nodes[i].first = stitch(begin, end);
      continue;
    }
    // v3.0: one relationship group record per (label, direction) run.
    std::stable_sort(occ.begin() + static_cast<long>(begin),
                     occ.begin() + static_cast<long>(end),
                     [](const Occ& a, const Occ& b) {
                       return a.label != b.label ? a.label < b.label
                                                 : a.role < b.role;
                     });
    for (size_t run = begin; run < end;) {
      size_t run_end = run;
      while (run_end < end && occ[run_end].label == occ[run].label &&
             occ[run_end].role == occ[run].role) {
        ++run_end;
      }
      uint64_t gid = group_store_.Allocate();
      GroupRec g;
      g.label = occ[run].label;
      g.dir = occ[run].role;
      g.first = stitch(run, run_end);
      g.next_group = nodes[i].first;
      WriteGroup(gid, g);
      nodes[i].first = gid;
      run = run_end;
    }
  }
  for (size_t i = 0; i < ne; ++i) WriteEdge(mapping.edge_ids[i], recs[i]);
  for (size_t i = 0; i < nv; ++i) WriteNode(mapping.vertex_ids[i], nodes[i]);
  mutable_load_stats()->index_build_millis = timer.ElapsedMillis();
  edge_count_ += ne;
  return mapping;
}

Result<VertexRecord> NeoEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  wrapper_cost_.ChargeCall();
  if (!node_store_.IsLive(id)) return Status::NotFound("vertex not found");
  NodeRec n = ReadNode(id);
  VertexRecord rec;
  rec.id = id;
  rec.label = labels_.Get(n.label);
  rec.properties = MaterializeProps(n.first_prop);
  return rec;
}

Result<EdgeRecord> NeoEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  wrapper_cost_.ChargeCall();
  if (!edge_store_.IsLive(id)) return Status::NotFound("edge not found");
  EdgeRec e = ReadEdge(id);
  EdgeRecord rec;
  rec.id = id;
  rec.src = e.src;
  rec.dst = e.dst;
  rec.label = labels_.Get(e.label);
  rec.properties = MaterializeProps(e.first_prop);
  return rec;
}

Result<bool> NeoEngine::ReadVertexProperty(QuerySession& /*session*/,
                                           VertexId id, std::string_view key,
                                           PropertyValue* out) const {
  wrapper_cost_.ChargeCall();
  if (!node_store_.IsLive(id)) return Status::NotFound("vertex not found");
  return ChainProperty(ReadNode(id).first_prop, keys_.Lookup(key), out);
}

Result<bool> NeoEngine::ReadEdgeProperty(QuerySession& /*session*/, EdgeId id,
                                         std::string_view key,
                                         PropertyValue* out) const {
  wrapper_cost_.ChargeCall();
  if (!edge_store_.IsLive(id)) return Status::NotFound("edge not found");
  return ChainProperty(ReadEdge(id).first_prop, keys_.Lookup(key), out);
}

Result<uint64_t> NeoEngine::CountVertices(QuerySession& session, const CancelToken& cancel) const {
  if (v30_) return node_store_.LiveCount();  // 3.x count store
  return GraphEngine::CountVertices(session, cancel);
}

Result<uint64_t> NeoEngine::CountEdges(QuerySession& session, const CancelToken& cancel) const {
  if (v30_) return edge_count_;
  return GraphEngine::CountEdges(session, cancel);
}

Result<std::vector<VertexId>> NeoEngine::FindVerticesByProperty(QuerySession& session, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  // neo30 maintains the index but its search never consults it (paper
  // §6.4: Neo4j 3.0 cannot use a user attribute index).
  if (!v30_ && attribute_index_.Covers(prop)) {
    return attribute_index_.Lookup(prop, value, cancel);
  }
  // Unindexed: one scan over the node store, each node's property chain
  // walked to the key (the wrapper charge applies once per query, not per
  // record — the scan runs inside the server).
  wrapper_cost_.ChargeCall();
  const uint32_t key_id = keys_.Lookup(prop);
  std::vector<VertexId> out;
  PropertyValue probe;
  GDB_RETURN_IF_ERROR(ScanVertices(session, cancel, [&](VertexId id) {
    if (ChainProperty(ReadNode(id).first_prop, key_id, &probe) &&
        probe == value) {
      out.push_back(id);
    }
    return true;
  }));
  return out;
}

Result<std::vector<EdgeId>> NeoEngine::FindEdgesByProperty(QuerySession& /*session*/, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  wrapper_cost_.ChargeCall();
  const uint32_t key_id = keys_.Lookup(prop);
  std::vector<EdgeId> out;
  PropertyValue probe;
  for (uint64_t id = 0; id < edge_store_.SlotCount(); ++id) {
    GDB_CHECK_CANCEL(cancel);
    if (!edge_store_.IsLive(id)) continue;
    if (ChainProperty(ReadEdge(id).first_prop, key_id, &probe) &&
        probe == value) {
      out.push_back(id);
    }
  }
  return out;
}

Status NeoEngine::RemoveVertex(VertexId v) {
  wrapper_cost_.ChargeWrite();
  if (!node_store_.IsLive(v)) return Status::NotFound("vertex not found");
  // Remove all incident edges first (paper Q.18 semantics).
  std::vector<EdgeId> incident;
  CancelToken never;
  GDB_RETURN_IF_ERROR(
      WalkIncidence(v, never, [&](EdgeId e, int role, const EdgeRec&) {
        if (role == 0) incident.push_back(e);  // dedup: collect via src role
        else
          incident.push_back(e);
        return true;
      }));
  // Self-loops appear twice; dedup.
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  for (EdgeId e : incident) {
    GDB_RETURN_IF_ERROR(RemoveEdgeInternal_(e));
  }
  NodeRec n = ReadNode(v);
  if (!attribute_index_.empty()) {
    attribute_index_.EraseAll(MaterializeProps(n.first_prop), v);
  }
  FreePropChain(n.first_prop);
  if (v30_) {
    uint64_t gid = n.first;
    while (gid != kNilLink) {
      GroupRec g = ReadGroup(gid);
      uint64_t next = g.next_group;
      group_store_.Free(gid).ok();
      gid = next;
    }
  }
  return node_store_.Free(v);
}

Status NeoEngine::RemoveEdge(EdgeId e) {
  wrapper_cost_.ChargeWrite();
  return RemoveEdgeInternal_(e);
}

Status NeoEngine::RemoveEdgeInternal_(EdgeId e) {
  if (!edge_store_.IsLive(e)) return Status::NotFound("edge not found");
  EdgeRec rec = ReadEdge(e);
  if (!v30_) {
    NodeRec s = ReadNode(rec.src);
    Unlink(&s.first, rec, e, 0);
    WriteNode(rec.src, s);
    // Re-read: src update may have touched this record's dst links if the
    // chain neighbors coincide; safest to reload before the second unlink.
    rec = ReadEdge(e);
    NodeRec d = ReadNode(rec.dst);
    Unlink(&d.first, rec, e, 1);
    WriteNode(rec.dst, d);
    rec = ReadEdge(e);
  } else {
    NodeRec s = ReadNode(rec.src);
    uint64_t og = FindGroup(s, rec.label, 0);
    if (og != kNilLink) {
      GroupRec g = ReadGroup(og);
      Unlink(&g.first, rec, e, 0);
      WriteGroup(og, g);
    }
    rec = ReadEdge(e);
    NodeRec d = ReadNode(rec.dst);
    uint64_t ig = FindGroup(d, rec.label, 1);
    if (ig != kNilLink) {
      GroupRec g = ReadGroup(ig);
      Unlink(&g.first, rec, e, 1);
      WriteGroup(ig, g);
    }
    rec = ReadEdge(e);
  }
  FreePropChain(rec.first_prop);
  --edge_count_;
  return edge_store_.Free(e);
}

Status NeoEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  wrapper_cost_.ChargeWrite();
  if (!node_store_.IsLive(v)) return Status::NotFound("vertex not found");
  NodeRec n = ReadNode(v);
  PropertyValue prev;
  if (!attribute_index_.empty() &&
      ChainProperty(n.first_prop, keys_.Lookup(name), &prev)) {
    attribute_index_.Erase(name, prev, v);
  }
  GDB_RETURN_IF_ERROR(ChainRemoveProperty(&n.first_prop, name));
  WriteNode(v, n);
  return Status::OK();
}

Status NeoEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  wrapper_cost_.ChargeWrite();
  if (!edge_store_.IsLive(e)) return Status::NotFound("edge not found");
  EdgeRec rec = ReadEdge(e);
  GDB_RETURN_IF_ERROR(ChainRemoveProperty(&rec.first_prop, name));
  WriteEdge(e, rec);
  return Status::OK();
}

// --- scans / traversal ------------------------------------------------------

Status NeoEngine::ScanVertices(QuerySession& /*session*/, const CancelToken& cancel,
                               const std::function<bool(VertexId)>& fn) const {
  for (uint64_t id = 0; id < node_store_.SlotCount(); ++id) {
    GDB_CHECK_CANCEL(cancel);
    if (node_store_.IsLive(id)) {
      if (!fn(id)) return Status::OK();
    }
  }
  return Status::OK();
}

Status NeoEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  for (uint64_t id = 0; id < edge_store_.SlotCount(); ++id) {
    GDB_CHECK_CANCEL(cancel);
    if (!edge_store_.IsLive(id)) continue;
    EdgeRec e = ReadEdge(id);
    EdgeEnds ends;
    ends.id = id;
    ends.src = e.src;
    ends.dst = e.dst;
    ends.label = labels_.Get(e.label);
    if (!fn(ends)) return Status::OK();
  }
  return Status::OK();
}

Status NeoEngine::WalkMatching(
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel,
    const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const {
  uint32_t label_id =
      label != nullptr ? labels_.Lookup(*label) : Dictionary::kNoId;
  if (label != nullptr && label_id == Dictionary::kNoId) {
    return Status::OK();  // unknown label: no edges
  }
  uint32_t group_hint = v30_ && label != nullptr ? label_id : Dictionary::kNoId;
  // Single-pointer capture: a multi-reference [&] closure exceeds
  // std::function's small-buffer size and would heap-allocate per call —
  // visible as one allocation per hop on degree-1 vertices.
  struct MatchCtx {
    const std::string* label;
    uint32_t label_id;
    Direction dir;
    const std::function<bool(EdgeId, int, const EdgeRec&)>& fn;
  } match{label, label_id, dir, fn};
  return WalkIncidenceFiltered(
      v, group_hint, cancel, [&match](EdgeId e, int role, const EdgeRec& rec) {
        if (match.label != nullptr && rec.label != match.label_id) return true;
        bool is_self_loop = rec.src == rec.dst;
        if (is_self_loop && role == 1) return true;  // emitted via src role
        bool matches = match.dir == Direction::kBoth ||
                       (match.dir == Direction::kOut && role == 0) ||
                       (match.dir == Direction::kIn && role == 1) ||
                       is_self_loop;
        if (matches) return match.fn(e, role, rec);
        return true;
      });
}

Status NeoEngine::ForEachEdgeOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                const std::string* label,
                                const CancelToken& cancel,
                                const std::function<bool(EdgeId)>& fn) const {
  return WalkMatching(v, dir, label, cancel,
                      [&](EdgeId e, int, const EdgeRec&) { return fn(e); });
}

Status NeoEngine::ForEachNeighbor(QuerySession& /*session*/, 
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  return WalkMatching(v, dir, label, cancel,
                      [&](EdgeId, int role, const EdgeRec& rec) {
                        return fn(role == 0 ? rec.dst : rec.src);
                      });
}

Result<EdgeEnds> NeoEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  if (!edge_store_.IsLive(e)) return Status::NotFound("edge not found");
  EdgeRec rec = ReadEdge(e);
  EdgeEnds ends;
  ends.id = e;
  ends.src = rec.src;
  ends.dst = rec.dst;
  ends.label = labels_.Get(rec.label);
  return ends;
}

// --- index / persistence -----------------------------------------------------

Status NeoEngine::CreateVertexPropertyIndex(std::string_view prop) {
  AttributeIndex::Tree* index = attribute_index_.Create(prop);
  if (index == nullptr) return Status::OK();
  CancelToken never;
  std::unique_ptr<QuerySession> session = CreateSession();
  const uint32_t key_id = keys_.Lookup(prop);
  PropertyValue value;
  return ScanVertices(*session, never, [&](VertexId id) {
    if (ChainProperty(ReadNode(id).first_prop, key_id, &value)) {
      index->Insert(value, id);
    }
    return true;
  });
}

uint64_t NeoEngine::CheckpointBytes() const {
  std::string buf;
  node_store_.Serialize(&buf);
  edge_store_.Serialize(&buf);
  if (v30_) group_store_.Serialize(&buf);
  prop_store_.Serialize(&buf);
  string_store_.Serialize(&buf);
  labels_.Serialize(&buf);
  keys_.Serialize(&buf);
  attribute_index_.Serialize(&buf);
  return buf.size();
}

uint64_t NeoEngine::MemoryBytes() const {
  return node_store_.FileBytes() + edge_store_.FileBytes() +
         group_store_.FileBytes() + prop_store_.FileBytes() +
         string_store_.LogBytes() + labels_.MemoryBytes() +
         keys_.MemoryBytes() + attribute_index_.MemoryBytes();
}

std::unique_ptr<GraphEngine> MakeNeoEngine(bool v30) {
  return std::make_unique<NeoEngine>(v30);
}

}  // namespace gdbmicro
