#include "src/engines/tripleish/triple_engine.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <utility>

#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {

namespace {
constexpr uint64_t kMaxTerm = ~0ULL;

uint64_t DecodeIdFromTerm(const std::string& term) {
  // term = "<kind>:<decimal id>"
  return std::strtoull(term.c_str() + 2, nullptr, 10);
}
}  // namespace

EngineInfo TripleEngine::info() const {
  EngineInfo info;
  info.name = "blaze";
  info.emulates = "BlazeGraph 2.1.4";
  info.type = "Hybrid (RDF)";
  info.storage = "SPO/POS/OSP B+Trees over a fixed-extent journal";
  info.edge_traversal = "B+Tree range scans (reified edges)";
  info.query_execution = QueryExecution::kStepWise;
  info.query_execution_display = "Per-step graph API (non-optimized)";
  info.supports_property_index = false;
  return info;
}

Status TripleEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  to_pred_ = terms_.Intern("g:to");
  type_pred_ = terms_.Intern("g:type");
  // Out-of-process charges: commit + triple-index maintenance per mutating
  // call, journal/index access layers per point read and per traversal
  // step (each Gremlin step runs against the generic graph API).
  cost_.per_write_us = 10000;
  cost_.per_read_us = 500;
  cost_.per_call_us = 2500;
  cost_.enabled = options.enable_cost_model;
  return Status::OK();
}

std::string TripleEngine::VertexTerm(VertexId v) {
  return StrFormat("v:%llu", static_cast<unsigned long long>(v));
}

std::string TripleEngine::EdgeTerm(EdgeId e) {
  return StrFormat("e:%llu", static_cast<unsigned long long>(e));
}

void TripleEngine::JournalStatement(const Triple& t) {
  std::string blob;
  blob.reserve(24);
  PutVarint64(&blob, t[0]);
  PutVarint64(&blob, t[1]);
  PutVarint64(&blob, t[2]);
  journal_.Append(blob);
}

void TripleEngine::InsertStatement(Triple t) {
  spo_.Insert({t[0], t[1], t[2]}, 1);
  pos_.Insert({t[1], t[2], t[0]}, 1);
  osp_.Insert({t[2], t[0], t[1]}, 1);
  JournalStatement(t);
}

void TripleEngine::EraseStatement(Triple t) {
  spo_.Erase({t[0], t[1], t[2]}, 1);
  pos_.Erase({t[1], t[2], t[0]}, 1);
  osp_.Erase({t[2], t[0], t[1]}, 1);
  // Retraction marker: journals only grow.
  std::string blob;
  blob.reserve(25);
  blob.push_back('\xFF');
  PutVarint64(&blob, t[0]);
  PutVarint64(&blob, t[1]);
  PutVarint64(&blob, t[2]);
  journal_.Append(blob);
}

std::vector<TripleEngine::Triple> TripleEngine::StatementsWithSubject(
    uint64_t s) const {
  std::vector<Triple> out;
  spo_.ScanRange({s, 0, 0}, {s, kMaxTerm, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   out.push_back(key);
                   return true;
                 });
  return out;
}

std::vector<TripleEngine::Triple> TripleEngine::StatementsWithObject(
    uint64_t o) const {
  std::vector<Triple> out;
  osp_.ScanRange({o, 0, 0}, {o, kMaxTerm, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   // key layout is (o, s, p); normalize to (s, p, o).
                   out.push_back({key[1], key[2], key[0]});
                   return true;
                 });
  return out;
}

// --- CRUD -----------------------------------------------------------------------

Result<VertexId> TripleEngine::AddVertex(std::string_view label,
                                         const PropertyMap& props) {
  cost_.ChargeWrite();
  VertexId id = next_vertex_++;
  ++live_vertices_;
  uint32_t v = terms_.Intern(VertexTerm(id));
  uint32_t l = terms_.Intern("l:" + std::string(label));
  InsertStatement({v, type_pred_, l});
  for (const auto& [k, value] : props) {
    std::string encoded = "x:";
    value.EncodeTo(&encoded);
    InsertStatement({v, terms_.Intern("k:" + k), terms_.Intern(encoded)});
  }
  return id;
}

Result<EdgeId> TripleEngine::AddEdge(VertexId src, VertexId dst,
                                     std::string_view label,
                                     const PropertyMap& props) {
  cost_.ChargeWrite();
  uint32_t sv = terms_.Lookup(VertexTerm(src));
  uint32_t dv = terms_.Lookup(VertexTerm(dst));
  if (sv == Dictionary::kNoId || dv == Dictionary::kNoId) {
    return Status::NotFound("edge endpoint not found");
  }
  EdgeId id = edge_stmts_.size();
  uint32_t label_term = terms_.Intern("l:" + std::string(label));
  edge_stmts_.push_back(EdgeStmt{src, dst, label_term, true});
  uint32_t e = terms_.Intern(EdgeTerm(id));
  InsertStatement({sv, label_term, e});
  InsertStatement({e, to_pred_, dv});
  for (const auto& [k, value] : props) {
    std::string encoded = "x:";
    value.EncodeTo(&encoded);
    InsertStatement({e, terms_.Intern("k:" + k), terms_.Intern(encoded)});
  }
  return id;
}

Result<LoadMapping> TripleEngine::BulkLoadNative(const GraphData& data) {
  if (!spo_.empty()) {
    // The bottom-up index build replaces the trees wholesale; on a
    // non-empty instance fall back to per-statement insertion.
    return BulkLoadPerElement(data);
  }
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);
  size_t nprops = 0;
  for (const auto& v : data.vertices) nprops += v.properties.size();
  for (const auto& e : data.edges) nprops += e.properties.size();

  std::vector<Triple> stmts;
  stmts.reserve(nv + 2 * ne + nprops);
  edge_stmts_.reserve(edge_stmts_.size() + ne);
  terms_.Reserve(static_cast<uint32_t>(terms_.size() + nv + ne + nprops / 2));

  // Raw statement pass: every statement is interned and journaled, but
  // index maintenance is deferred. Scratch buffers are reused and vertex
  // term ids are cached by dataset index, so an edge statement costs two
  // array reads — not two rebuilt "v:<id>" strings and hash probes.
  std::string scratch;
  std::string journal_blob;
  auto term = [&](const char* prefix, std::string_view body) {
    scratch.assign(prefix);
    scratch.append(body);
    return terms_.Intern(scratch);
  };
  // "v:<id>" / "e:<id>" terms via to_chars into the scratch buffer — the
  // StrFormat-based VertexTerm/EdgeTerm pay an snprintf per element.
  char numbuf[24];
  auto id_term = [&](const char* prefix, uint64_t id) {
    scratch.assign(prefix);
    char* end = std::to_chars(numbuf, numbuf + sizeof(numbuf), id).ptr;
    scratch.append(numbuf, end);
    return terms_.Intern(scratch);
  };
  auto value_term = [&](const PropertyValue& value) {
    scratch.assign("x:");
    value.EncodeTo(&scratch);
    return terms_.Intern(scratch);
  };
  auto add = [&](Triple t) {
    stmts.push_back(t);
    journal_blob.clear();
    PutVarint64(&journal_blob, t[0]);
    PutVarint64(&journal_blob, t[1]);
    PutVarint64(&journal_blob, t[2]);
    journal_.Append(journal_blob);
  };
  std::vector<uint64_t> vterm(nv);
  for (size_t i = 0; i < nv; ++i) {
    VertexId id = next_vertex_++;
    ++live_vertices_;
    uint64_t vt = id_term("v:", id);
    vterm[i] = vt;
    add({vt, type_pred_, term("l:", data.vertices[i].label)});
    for (const auto& [k, value] : data.vertices[i].properties) {
      add({vt, term("k:", k), value_term(value)});
    }
    mapping.vertex_ids.push_back(id);
  }
  for (size_t i = 0; i < ne; ++i) {
    const GraphData::Edge& e = data.edges[i];
    EdgeId id = edge_stmts_.size();
    uint32_t label_term = term("l:", e.label);
    edge_stmts_.push_back(
        EdgeStmt{mapping.vertex_ids[e.src], mapping.vertex_ids[e.dst],
                 label_term, true});
    uint64_t et = id_term("e:", id);
    add({vterm[e.src], label_term, et});
    add({et, to_pred_, vterm[e.dst]});
    for (const auto& [k, value] : e.properties) {
      add({et, term("k:", k), value_term(value)});
    }
    mapping.edge_ids.push_back(id);
  }

  // Deferred index build: each statement index is sorted and constructed
  // bottom-up exactly once, instead of three rebalancing inserts per
  // statement. The statement list is rotated in place between builds
  // ((s,p,o) -> (p,o,s) -> (o,s,p)) and one staging buffer is reused.
  Timer timer;
  std::vector<std::pair<Triple, uint8_t>> entries;
  entries.reserve(stmts.size());
  auto build = [&](BTree<Triple, uint8_t>* index) {
    std::sort(stmts.begin(), stmts.end());
    entries.clear();
    for (const Triple& t : stmts) {
      if (entries.empty() || entries.back().first != t) {
        entries.push_back({t, 1});
      }
    }
    index->BuildFrom(entries);
  };
  auto rotate_left = [&] {
    for (Triple& t : stmts) t = {t[1], t[2], t[0]};
  };
  build(&spo_);
  rotate_left();  // (s,p,o) -> (p,o,s)
  build(&pos_);
  rotate_left();  // (p,o,s) -> (o,s,p)
  build(&osp_);
  mutable_load_stats()->index_build_millis = timer.ElapsedMillis();

  if (cost_.enabled) {
    // Even in bulk mode every statement goes through the journal write
    // path and B+Tree group commit — the paper measures loading "up to 3
    // orders of magnitude slower than the other engines".
    SpinFor(20 * static_cast<int64_t>(nv + 2 * ne));
  }
  return mapping;
}

Status TripleEngine::SetVertexProperty(VertexId v, std::string_view name,
                                       const PropertyValue& value) {
  cost_.ChargeWrite();
  uint32_t vt = terms_.Lookup(VertexTerm(v));
  if (vt == Dictionary::kNoId) return Status::NotFound("vertex not found");
  uint32_t kt = terms_.Intern("k:" + std::string(name));
  // Remove any existing statement for this key.
  spo_.ScanRange({vt, kt, 0}, {vt, kt, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   EraseStatement(key);
                   return false;  // single-valued properties
                 });
  std::string encoded = "x:";
  value.EncodeTo(&encoded);
  InsertStatement({vt, kt, terms_.Intern(encoded)});
  return Status::OK();
}

Status TripleEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                     const PropertyValue& value) {
  cost_.ChargeWrite();
  if (e >= edge_stmts_.size() || !edge_stmts_[e].live) {
    return Status::NotFound("edge not found");
  }
  uint32_t et = terms_.Lookup(EdgeTerm(e));
  uint32_t kt = terms_.Intern("k:" + std::string(name));
  spo_.ScanRange({et, kt, 0}, {et, kt, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   EraseStatement(key);
                   return false;
                 });
  std::string encoded = "x:";
  value.EncodeTo(&encoded);
  InsertStatement({et, kt, terms_.Intern(encoded)});
  return Status::OK();
}

Result<VertexRecord> TripleEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  cost_.ChargeRead();
  uint32_t vt = terms_.Lookup(VertexTerm(id));
  if (vt == Dictionary::kNoId) return Status::NotFound("vertex not found");
  VertexRecord rec;
  rec.id = id;
  bool found = false;
  for (const Triple& t : StatementsWithSubject(vt)) {
    const std::string& pred = terms_.Get(t[1]);
    if (t[1] == type_pred_) {
      rec.label = terms_.Get(t[2]).substr(2);
      found = true;
    } else if (StartsWith(pred, "k:")) {
      const std::string& obj = terms_.Get(t[2]);
      size_t pos = 2;
      auto value = PropertyValue::DecodeFrom(obj, &pos);
      if (value.ok()) {
        rec.properties.emplace_back(pred.substr(2), std::move(value).value());
      }
    }
  }
  if (!found) return Status::NotFound("vertex not found");
  return rec;
}

Result<EdgeRecord> TripleEngine::GetEdge(QuerySession& /*session*/, EdgeId id) const {
  cost_.ChargeRead();
  if (id >= edge_stmts_.size() || !edge_stmts_[id].live) {
    return Status::NotFound("edge not found");
  }
  const EdgeStmt& stmt = edge_stmts_[id];
  EdgeRecord rec;
  rec.id = id;
  rec.src = stmt.src;
  rec.dst = stmt.dst;
  rec.label = terms_.Get(stmt.label_term).substr(2);
  uint32_t et = terms_.Lookup(EdgeTerm(id));
  for (const Triple& t : StatementsWithSubject(et)) {
    const std::string& pred = terms_.Get(t[1]);
    if (StartsWith(pred, "k:")) {
      const std::string& obj = terms_.Get(t[2]);
      size_t pos = 2;
      auto value = PropertyValue::DecodeFrom(obj, &pos);
      if (value.ok()) {
        rec.properties.emplace_back(pred.substr(2), std::move(value).value());
      }
    }
  }
  return rec;
}

Result<std::vector<VertexId>> TripleEngine::FindVerticesByProperty(QuerySession& session, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  // The Gremlin graph API cannot push the predicate into the SPARQL
  // engine (paper §6.5: "this graph API implementation does not allow it
  // to exploit any of the optimization implemented by the SPARQL query
  // engine"), so the adapter iterates every vertex and probes its one
  // (vertex, key, value) statement, paying the journal access layers per
  // batch.
  std::string wanted = "x:";
  value.EncodeTo(&wanted);
  uint32_t kt = terms_.Lookup("k:" + std::string(prop));
  uint32_t xt = terms_.Lookup(wanted);
  std::vector<VertexId> out;
  uint64_t visited = 0;
  GDB_RETURN_IF_ERROR(ScanVertices(session, cancel, [&](VertexId id) {
    if (cost_.enabled && visited++ % 64 == 0) cost_.ChargeRead();
    // Still scans.
    if (kt == Dictionary::kNoId || xt == Dictionary::kNoId) return true;
    uint32_t vt = terms_.Lookup(VertexTerm(id));
    if (spo_.Contains({vt, kt, xt}, 1)) out.push_back(id);
    return true;
  }));
  return out;
}

Result<std::vector<EdgeId>> TripleEngine::FindEdgesByProperty(QuerySession& session, 
    std::string_view prop, const PropertyValue& value,
    const CancelToken& cancel) const {
  std::string wanted = "x:";
  value.EncodeTo(&wanted);
  uint32_t kt = terms_.Lookup("k:" + std::string(prop));
  uint32_t xt = terms_.Lookup(wanted);
  std::vector<EdgeId> out;
  uint64_t visited = 0;
  Status status = Status::OK();
  GDB_RETURN_IF_ERROR(ScanEdges(session, cancel, [&](const EdgeEnds& ends) {
    if (cost_.enabled && visited++ % 64 == 0) cost_.ChargeRead();
    if (kt == Dictionary::kNoId || xt == Dictionary::kNoId) return true;
    uint32_t et = terms_.Lookup(EdgeTerm(ends.id));
    if (spo_.Contains({et, kt, xt}, 1)) out.push_back(ends.id);
    return true;
  }));
  GDB_RETURN_IF_ERROR(status);
  return out;
}

Status TripleEngine::RemoveVertex(VertexId v) {
  cost_.ChargeWrite();
  uint32_t vt = terms_.Lookup(VertexTerm(v));
  if (vt == Dictionary::kNoId) return Status::NotFound("vertex not found");
  bool exists = false;
  // Outgoing edges + label + properties: statements with subject v.
  for (const Triple& t : StatementsWithSubject(vt)) {
    const std::string& pred = terms_.Get(t[1]);
    if (t[1] == type_pred_) {
      exists = true;
      EraseStatement(t);
    } else if (StartsWith(pred, "l:")) {
      // Connectivity statement: object is a reified edge term.
      GDB_RETURN_IF_ERROR(RemoveEdge(DecodeIdFromTerm(terms_.Get(t[2]))));
    } else {
      EraseStatement(t);  // property
    }
  }
  if (!exists) return Status::NotFound("vertex not found");
  // Incoming edges: statements (e, g:to, v).
  for (const Triple& t : StatementsWithObject(vt)) {
    if (t[1] == to_pred_) {
      GDB_RETURN_IF_ERROR(RemoveEdge(DecodeIdFromTerm(terms_.Get(t[0]))));
    }
  }
  --live_vertices_;
  return Status::OK();
}

Status TripleEngine::RemoveEdge(EdgeId e) {
  if (e >= edge_stmts_.size() || !edge_stmts_[e].live) {
    return Status::NotFound("edge not found");
  }
  cost_.ChargeWrite();
  EdgeStmt& stmt = edge_stmts_[e];
  uint32_t et = terms_.Lookup(EdgeTerm(e));
  uint32_t sv = terms_.Lookup(VertexTerm(stmt.src));
  uint32_t dv = terms_.Lookup(VertexTerm(stmt.dst));
  EraseStatement({sv, stmt.label_term, et});
  EraseStatement({et, to_pred_, dv});
  for (const Triple& t : StatementsWithSubject(et)) {
    EraseStatement(t);  // edge properties
  }
  stmt.live = false;
  return Status::OK();
}

Status TripleEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  cost_.ChargeWrite();
  uint32_t vt = terms_.Lookup(VertexTerm(v));
  if (vt == Dictionary::kNoId) return Status::NotFound("vertex not found");
  uint32_t kt = terms_.Lookup("k:" + std::string(name));
  if (kt == Dictionary::kNoId) return Status::NotFound("no such property");
  std::vector<Triple> to_erase;
  spo_.ScanRange({vt, kt, 0}, {vt, kt, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   to_erase.push_back(key);
                   return true;
                 });
  if (to_erase.empty()) return Status::NotFound("no such property");
  for (const Triple& t : to_erase) EraseStatement(t);
  return Status::OK();
}

Status TripleEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  cost_.ChargeWrite();
  if (e >= edge_stmts_.size() || !edge_stmts_[e].live) {
    return Status::NotFound("edge not found");
  }
  uint32_t et = terms_.Lookup(EdgeTerm(e));
  uint32_t kt = terms_.Lookup("k:" + std::string(name));
  if (kt == Dictionary::kNoId) return Status::NotFound("no such property");
  std::vector<Triple> to_erase;
  spo_.ScanRange({et, kt, 0}, {et, kt, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   to_erase.push_back(key);
                   return true;
                 });
  if (to_erase.empty()) return Status::NotFound("no such property");
  for (const Triple& t : to_erase) EraseStatement(t);
  return Status::OK();
}

// --- scans / traversal ----------------------------------------------------------

Status TripleEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  cost_.ChargeRead();
  Status status = Status::OK();
  pos_.ScanRange({type_pred_, 0, 0}, {type_pred_, kMaxTerm, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   if (cancel.Expired()) {
                     status = cancel.ToStatus();
                     return false;
                   }
                   // key layout (p, o, s): s is the vertex term.
                   return fn(DecodeIdFromTerm(terms_.Get(key[2])));
                 });
  return status;
}

Status TripleEngine::ScanEdges(QuerySession& /*session*/, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  cost_.ChargeRead();
  Status status = Status::OK();
  pos_.ScanRange({to_pred_, 0, 0}, {to_pred_, kMaxTerm, kMaxTerm},
                 [&](const Triple& key, const uint8_t&) {
                   if (cancel.Expired()) {
                     status = cancel.ToStatus();
                     return false;
                   }
                   EdgeId id = DecodeIdFromTerm(terms_.Get(key[2]));
                   const EdgeStmt& stmt = edge_stmts_[id];
                   EdgeEnds ends;
                   ends.id = id;
                   ends.src = stmt.src;
                   ends.dst = stmt.dst;
                   ends.label = terms_.Get(stmt.label_term).substr(2);
                   return fn(ends);
                 });
  return status;
}

Status TripleEngine::WalkIncident(VertexId v, Direction dir,
                                  const std::string* label,
                                  const CancelToken& cancel,
                                  const std::function<bool(EdgeId)>& fn) const {
  cost_.ChargeCall();  // per-step graph API access
  uint32_t label_term = Dictionary::kNoId;
  if (label != nullptr) {
    label_term = terms_.Lookup("l:" + *label);
    if (label_term == Dictionary::kNoId) return Status::OK();
  }
  uint32_t vt = terms_.Lookup(VertexTerm(v));
  if (vt == Dictionary::kNoId) return Status::NotFound("vertex not found");
  // Everything the scan callbacks touch sits behind one reference, so
  // each closure fits std::function's inline buffer and a walk allocates
  // nothing.
  struct Walk {
    const TripleEngine& engine;
    const CancelToken& cancel;
    const std::function<bool(EdgeId)>& fn;
    Direction dir;
    uint32_t label_term;
    Status status = Status::OK();
    bool stop = false;
  } walk{*this, cancel, fn, dir, label_term};
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    // Connectivity statements (v, l:<label>, e): SPO prefix scan. When a
    // label is given the scan range narrows to that one predicate.
    uint64_t p_lo = label_term != Dictionary::kNoId ? label_term : 0;
    uint64_t p_hi = label_term != Dictionary::kNoId ? label_term : kMaxTerm;
    spo_.ScanRange({vt, p_lo, 0}, {vt, p_hi, kMaxTerm},
                   [&walk](const Triple& t, const uint8_t&) {
                     if (walk.cancel.Expired()) {
                       walk.status = walk.cancel.ToStatus();
                       return false;
                     }
                     const Dictionary& terms = walk.engine.terms_;
                     if (walk.label_term == Dictionary::kNoId &&
                         !StartsWith(terms.Get(t[1]), "l:")) {
                       return true;
                     }
                     if (!walk.fn(DecodeIdFromTerm(terms.Get(t[2])))) {
                       walk.stop = true;
                       return false;
                     }
                     return true;
                   });
    GDB_RETURN_IF_ERROR(walk.status);
    if (walk.stop) return Status::OK();
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    // Connectivity statements (e, g:to, v): OSP prefix scan, key layout
    // (o, s, p) with o = v, s = the reified edge term.
    osp_.ScanRange({vt, 0, 0}, {vt, kMaxTerm, kMaxTerm},
                   [&walk](const Triple& t, const uint8_t&) {
                     if (walk.cancel.Expired()) {
                       walk.status = walk.cancel.ToStatus();
                       return false;
                     }
                     const TripleEngine& engine = walk.engine;
                     if (t[2] != engine.to_pred_) return true;
                     EdgeId id = DecodeIdFromTerm(engine.terms_.Get(t[1]));
                     const EdgeStmt& stmt = engine.edge_stmts_[id];
                     // Self-loops already visited via the outgoing scan.
                     if (walk.dir == Direction::kBoth && stmt.src == stmt.dst) {
                       return true;
                     }
                     if (walk.label_term != Dictionary::kNoId &&
                         stmt.label_term != walk.label_term) {
                       return true;
                     }
                     return walk.fn(id);
                   });
    GDB_RETURN_IF_ERROR(walk.status);
  }
  return Status::OK();
}

Status TripleEngine::ForEachEdgeOf(QuerySession& /*session*/, VertexId v, Direction dir,
                                   const std::string* label,
                                   const CancelToken& cancel,
                                   const std::function<bool(EdgeId)>& fn) const {
  return WalkIncident(v, dir, label, cancel, fn);
}

Status TripleEngine::ForEachNeighbor(QuerySession& /*session*/, 
    VertexId v, Direction dir, const std::string* label,
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  // One reference: the closure fits std::function's inline buffer.
  struct Hop {
    const std::vector<EdgeStmt>& stmts;
    VertexId v;
    const std::function<bool(VertexId)>& fn;
  } hop{edge_stmts_, v, fn};
  return WalkIncident(v, dir, label, cancel, [&hop](EdgeId e) {
    const EdgeStmt& stmt = hop.stmts[e];
    return hop.fn(stmt.src == hop.v ? stmt.dst : stmt.src);
  });
}

Result<EdgeEnds> TripleEngine::GetEdgeEnds(QuerySession& /*session*/, EdgeId e) const {
  if (e >= edge_stmts_.size() || !edge_stmts_[e].live) {
    return Status::NotFound("edge not found");
  }
  const EdgeStmt& stmt = edge_stmts_[e];
  EdgeEnds ends;
  ends.id = e;
  ends.src = stmt.src;
  ends.dst = stmt.dst;
  ends.label = terms_.Get(stmt.label_term).substr(2);
  return ends;
}

// --- space (paper Fig. 1) --------------------------------------------------------

uint64_t TripleEngine::CheckpointBytes() const {
  // Journal file, extent-granular (this is the 3x space story of Fig. 1).
  std::string buf;
  journal_.Serialize(&buf);
  uint64_t total = buf.size();

  // The three statement indexes, page-granular: an index occupies its
  // pages even where its statements fill less.
  auto index_bytes = [&buf](const BTree<Triple, uint8_t>& index) {
    buf.clear();
    index.ScanAll([&buf](const Triple& t, const uint8_t&) {
      PutVarint64(&buf, t[0]);
      PutVarint64(&buf, t[1]);
      PutVarint64(&buf, t[2]);
      return true;
    });
    return std::max<uint64_t>(buf.size(), index.SerializedBytes(25));
  };
  total += index_bytes(spo_) + index_bytes(pos_) + index_bytes(osp_);

  // Term dictionary.
  buf.clear();
  terms_.Serialize(&buf);
  return total + buf.size();
}

uint64_t TripleEngine::MemoryBytes() const {
  return journal_.UsedBytes() + terms_.MemoryBytes() +
         spo_.SerializedBytes(25) + pos_.SerializedBytes(25) +
         osp_.SerializedBytes(25) + edge_stmts_.capacity() * sizeof(EdgeStmt);
}

std::unique_ptr<GraphEngine> MakeTripleEngine() {
  return std::make_unique<TripleEngine>();
}

}  // namespace gdbmicro
