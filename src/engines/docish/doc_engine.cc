#include "src/engines/docish/doc_engine.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "src/util/json.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {

EngineInfo DocEngine::info() const {
  EngineInfo info;
  info.name = "arango";
  info.emulates = "ArangoDB 2.8";
  info.type = "Hybrid (Document)";
  info.storage = "Serialized JSON documents";
  info.edge_traversal = "Hash index on endpoints";
  info.query_execution = QueryExecution::kStepWise;
  info.query_execution_display = "Per-step AQL (non-optimized)";
  info.supports_property_index = false;  // accepted but ineffective
  return info;
}

Status DocEngine::Open(const EngineOptions& options) {
  GDB_RETURN_IF_ERROR(GraphEngine::Open(options));
  // REST round trip per client call; writes themselves are async (no
  // additional write charge), reproducing the client-observed CUD numbers
  // the paper flags as biased in ArangoDB's favor.
  rest_.per_call_us = 40;
  rest_.enabled = options.enable_cost_model;
  return Status::OK();
}

namespace {

// Members whose names start with '_' (_label, _from, _to) are the document
// layout's system members, so a property of that name would overwrite or
// remove one. Every write path rejects such names before it touches a
// document; GetVertex/GetEdge already hide them from reads.
Status CheckPropertyName(std::string_view name) {
  if (!name.empty() && name[0] == '_') {
    return Status::InvalidArgument("property name \"" + std::string(name) +
                                   "\" is reserved: names starting with "
                                   "'_' are document system members");
  }
  return Status::OK();
}

Status CheckPropertyNames(const PropertyMap& props) {
  for (const auto& [name, value] : props) {
    GDB_RETURN_IF_ERROR(CheckPropertyName(name));
  }
  return Status::OK();
}

// A one-key read for the member walk: the first property member named
// `key` (the one FindProperty finds in the decoded map) is read into
// *out and sets `found`.
struct PropertyProbe {
  std::string_view key;
  PropertyValue* out;
  bool found = false;
};

// The member walk behind every document decoder. A system member (name
// starting with '_') is handed to `system`, which reads or skips its
// value. The other members go to `sink`: a PropertyMap collects every
// property in document order (a null one skips them all), and a
// PropertyProbe reads its one key and skips the rest. The sink type is
// fixed at compile time, so the full decoders' walk has no probe branch
// (a runtime one made the skip decode of an edge document about 12%
// slower at -O2). Either way every value is validated, and so is the
// rest of the document.
template <typename Sink, typename SystemFn>
Status ReadDocMembers(std::string_view doc, std::string* scratch, Sink* sink,
                      SystemFn&& system) {
  JsonReader reader(doc);
  GDB_ASSIGN_OR_RETURN(JsonReader::Kind kind, reader.Peek());
  if (kind != JsonReader::Kind::kObject) {
    return Status::Corruption("document is not a JSON object");
  }
  bool more = reader.EnterObject();
  while (more) {
    std::string_view key;
    GDB_RETURN_IF_ERROR(reader.ReadKey(scratch, &key));
    if (!key.empty() && key[0] == '_') {
      GDB_RETURN_IF_ERROR(system(key, reader));
    } else if constexpr (std::is_same_v<Sink, PropertyProbe>) {
      if (!sink->found && key == sink->key) {
        JsonReader::Value value;
        GDB_RETURN_IF_ERROR(reader.ReadValue(scratch, &value));
        PropertyValue::FromJson(value, sink->out);
        sink->found = true;
      } else {
        GDB_RETURN_IF_ERROR(reader.SkipValue());
      }
    } else if (sink != nullptr) {
      sink->emplace_back(std::string(key), PropertyValue());
      JsonReader::Value value;
      GDB_RETURN_IF_ERROR(reader.ReadValue(scratch, &value));
      PropertyValue::FromJson(value, &sink->back().second);
    } else {
      GDB_RETURN_IF_ERROR(reader.SkipValue());
    }
    GDB_ASSIGN_OR_RETURN(more, reader.NextMember());
  }
  return reader.Finish();
}

// DecodeEdgeDoc, with the properties going to `sink` (see
// ReadDocMembers).
template <typename Sink>
Status DecodeEdge(std::string_view doc, EdgeDocFields* out, Sink* sink) {
  JsonReader::Value from, to, label;
  bool has_from = false, has_to = false, has_label = false;
  GDB_RETURN_IF_ERROR(ReadDocMembers(
      doc, &out->scratch, sink,
      [&](std::string_view key, JsonReader& reader) {
        if (key == "_from" && !has_from) {
          has_from = true;
          return reader.ReadValue(nullptr, &from);
        }
        if (key == "_to" && !has_to) {
          has_to = true;
          return reader.ReadValue(nullptr, &to);
        }
        if (key == "_label" && !has_label) {
          has_label = true;
          return reader.ReadValue(&out->label_buf, &label);
        }
        return reader.SkipValue();
      }));
  if (!has_from || !has_to || !has_label ||
      from.kind != JsonReader::Kind::kNumber ||
      to.kind != JsonReader::Kind::kNumber ||
      label.kind != JsonReader::Kind::kString) {
    return Status::Corruption("malformed edge document");
  }
  auto id = [](const JsonReader::Value& v) {
    return static_cast<VertexId>(v.is_double ? JsonDoubleToInt64(v.real)
                                             : v.integer);
  };
  out->src = id(from);
  out->dst = id(to);
  out->label = label.string;
  return Status::OK();
}

// DecodeVertexDoc, with the label read into a non-null `label` and the
// properties going to `sink` (see ReadDocMembers).
template <typename Sink>
Status DecodeVertex(std::string_view doc, std::string* scratch,
                    std::string* label, Sink* sink) {
  bool has_label = false;
  return ReadDocMembers(
      doc, scratch, sink, [&](std::string_view key, JsonReader& reader) {
        if (label == nullptr || key != "_label" || has_label) {
          return reader.SkipValue();
        }
        has_label = true;
        JsonReader::Value value;
        GDB_RETURN_IF_ERROR(reader.ReadValue(scratch, &value));
        if (value.kind == JsonReader::Kind::kString) label->assign(value.string);
        return Status::OK();
      });
}

// Reads property `key` of an edge document in place: the document is
// validated as DecodeEdgeDoc validates it, and only the key's value is
// decoded.
Result<bool> ProbeEdgeDoc(std::string_view doc, std::string_view key,
                          EdgeDocFields* fields, PropertyValue* out) {
  PropertyProbe probe{key, out};
  GDB_RETURN_IF_ERROR(DecodeEdge(doc, fields, &probe));
  return probe.found;
}

// The same for a vertex document, validated as DecodeVertexDoc
// validates it.
Result<bool> ProbeVertexDoc(std::string_view doc, std::string_view key,
                            std::string* scratch, PropertyValue* out) {
  PropertyProbe probe{key, out};
  GDB_RETURN_IF_ERROR(DecodeVertex(doc, scratch, /*label=*/nullptr, &probe));
  return probe.found;
}

// Appends the label member and the property members, then closes the
// document. Each key is written at its first occurrence with the value
// of its last, as Json::Set would have left the member.
void AppendLabelAndProps(std::string_view label, const PropertyMap& props,
                         std::string* out) {
  out->append("\"_label\":");
  AppendEscapedJsonString(label, out);
  for (size_t i = 0; i < props.size(); ++i) {
    const std::string& key = props[i].first;
    size_t first = 0;
    while (props[first].first != key) ++first;
    if (first < i) continue;  // already written
    size_t last = i;
    for (size_t j = i + 1; j < props.size(); ++j) {
      if (props[j].first == key) last = j;
    }
    out->push_back(',');
    AppendEscapedJsonString(key, out);
    out->push_back(':');
    props[last].second.AppendJsonTo(out);
  }
  out->push_back('}');
}

// A vertex id as Json::Dump writes an integer.
void AppendId(VertexId id, std::string* out) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(id))
                  .ptr;
  out->append(buf, end);
}

// The document writer: appends the vertex or edge document to *out.
void AppendVertexDoc(std::string_view label, const PropertyMap& props,
                     std::string* out) {
  out->push_back('{');
  AppendLabelAndProps(label, props, out);
}

void AppendEdgeDoc(VertexId src, VertexId dst, std::string_view label,
                   const PropertyMap& props, std::string* out) {
  out->append("{\"_from\":");
  AppendId(src, out);
  out->append(",\"_to\":");
  AppendId(dst, out);
  out->push_back(',');
  AppendLabelAndProps(label, props, out);
}

}  // namespace

std::string EncodeVertexDoc(std::string_view label, const PropertyMap& props) {
  std::string out;
  AppendVertexDoc(label, props, &out);
  return out;
}

std::string EncodeEdgeDoc(VertexId src, VertexId dst, std::string_view label,
                          const PropertyMap& props) {
  std::string out;
  AppendEdgeDoc(src, dst, label, props, &out);
  return out;
}

Status EditDocProperty(std::string* doc, bool is_edge, std::string_view name,
                       const PropertyValue* value) {
  PropertyMap props;
  std::string edited;
  auto edit = [&]() {
    if (value != nullptr) {
      SetProperty(&props, name, *value);
      return true;
    }
    return EraseProperty(&props, name);
  };
  if (is_edge) {
    EdgeDocFields fields;
    GDB_RETURN_IF_ERROR(DecodeEdgeDoc(*doc, &fields, &props));
    if (!edit()) return Status::NotFound("no such property");
    AppendEdgeDoc(fields.src, fields.dst, fields.label, props, &edited);
  } else {
    std::string label;
    GDB_RETURN_IF_ERROR(DecodeVertexDoc(*doc, &label, &props));
    if (!edit()) return Status::NotFound("no such property");
    AppendVertexDoc(label, props, &edited);
  }
  *doc = std::move(edited);
  return Status::OK();
}

Status DecodeEdgeDoc(std::string_view doc, EdgeDocFields* out,
                     PropertyMap* props) {
  if (props != nullptr) props->clear();
  return DecodeEdge(doc, out, props);
}

Status DecodeVertexDoc(std::string_view doc, std::string* label,
                       PropertyMap* props) {
  label->clear();
  props->clear();
  std::string scratch;
  return DecodeVertex(doc, &scratch, label, props);
}

Status DocEngine::ReadEdgeDoc(EdgeId id, EdgeDocFields* out,
                              PropertyMap* props) const {
  const std::string* doc = edge_docs_.Get(id);
  if (doc == nullptr) return Status::NotFound("edge not found");
  return DecodeEdgeDoc(*doc, out, props);
}

// --- CRUD -----------------------------------------------------------------------

Result<VertexId> DocEngine::AddVertex(std::string_view label,
                                      const PropertyMap& props) {
  rest_.ChargeCall();
  GDB_RETURN_IF_ERROR(CheckPropertyNames(props));
  uint64_t id = next_vertex_++;
  vertex_docs_.Put(id, EncodeVertexDoc(label, props));
  return id;
}

Result<EdgeId> DocEngine::AddEdge(VertexId src, VertexId dst,
                                  std::string_view label,
                                  const PropertyMap& props) {
  rest_.ChargeCall();
  if (!vertex_docs_.Contains(src) || !vertex_docs_.Contains(dst)) {
    return Status::NotFound("edge endpoint not found");
  }
  GDB_RETURN_IF_ERROR(CheckPropertyNames(props));
  uint64_t id = next_edge_++;
  edge_docs_.Put(id, EncodeEdgeDoc(src, dst, label, props));
  std::vector<EdgeId>* out = out_index_.Get(src);
  if (out == nullptr) {
    out_index_.Put(src, {});
    out = out_index_.Get(src);
  }
  out->push_back(id);
  std::vector<EdgeId>* in = in_index_.Get(dst);
  if (in == nullptr) {
    in_index_.Put(dst, {});
    in = in_index_.Get(dst);
  }
  in->push_back(id);
  return id;
}

Result<LoadMapping> DocEngine::BulkLoadNative(const GraphData& data) {
  const size_t nv = data.vertices.size();
  const size_t ne = data.edges.size();
  // Rejected before the first document is stored.
  for (const auto& v : data.vertices) {
    GDB_RETURN_IF_ERROR(CheckPropertyNames(v.properties));
  }
  for (const auto& e : data.edges) {
    GDB_RETURN_IF_ERROR(CheckPropertyNames(e.properties));
  }
  LoadMapping mapping;
  mapping.vertex_ids.reserve(nv);
  mapping.edge_ids.reserve(ne);

  vertex_docs_.Reserve(vertex_docs_.size() + nv);
  edge_docs_.Reserve(edge_docs_.size() + ne);

  // Documents are written into one reused text buffer and stored as
  // exact-size copies.
  std::string buf;
  for (const auto& v : data.vertices) {
    uint64_t id = next_vertex_++;
    buf.clear();
    AppendVertexDoc(v.label, v.properties, &buf);
    vertex_docs_.Put(id, buf);
    mapping.vertex_ids.push_back(id);
  }

  // Endpoint hash index assembled from a degree pass: per-vertex edge-id
  // lists are built locally (presized) and moved into the index once.
  std::vector<uint32_t> out_deg(nv, 0), in_deg(nv, 0);
  for (const auto& e : data.edges) {
    ++out_deg[e.src];
    ++in_deg[e.dst];
  }
  std::vector<std::vector<EdgeId>> out(nv), in(nv);
  for (size_t i = 0; i < nv; ++i) {
    out[i].reserve(out_deg[i]);
    in[i].reserve(in_deg[i]);
  }
  for (const auto& e : data.edges) {
    uint64_t id = next_edge_++;
    buf.clear();
    AppendEdgeDoc(mapping.vertex_ids[e.src], mapping.vertex_ids[e.dst],
                  e.label, e.properties, &buf);
    edge_docs_.Put(id, buf);
    out[e.src].push_back(id);
    in[e.dst].push_back(id);
    mapping.edge_ids.push_back(id);
  }
  Timer timer;
  out_index_.Reserve(out_index_.size() + nv);
  in_index_.Reserve(in_index_.size() + nv);
  auto attach = [](HashIndex<uint64_t, std::vector<EdgeId>>* index,
                   VertexId v, std::vector<EdgeId> ids) {
    if (ids.empty()) return;
    if (std::vector<EdgeId>* existing = index->Get(v)) {
      existing->insert(existing->end(), ids.begin(), ids.end());
    } else {
      index->Put(v, std::move(ids));
    }
  };
  for (size_t i = 0; i < nv; ++i) {
    attach(&out_index_, mapping.vertex_ids[i], std::move(out[i]));
    attach(&in_index_, mapping.vertex_ids[i], std::move(in[i]));
  }
  mutable_load_stats()->index_build_millis = timer.ElapsedMillis();
  return mapping;
}

Status DocEngine::SetVertexProperty(VertexId v, std::string_view name,
                                    const PropertyValue& value) {
  rest_.ChargeCall();
  GDB_RETURN_IF_ERROR(CheckPropertyName(name));
  std::string* doc = vertex_docs_.Get(v);
  if (doc == nullptr) return Status::NotFound("vertex not found");
  return EditDocProperty(doc, /*is_edge=*/false, name, &value);
}

Status DocEngine::SetEdgeProperty(EdgeId e, std::string_view name,
                                  const PropertyValue& value) {
  rest_.ChargeCall();
  GDB_RETURN_IF_ERROR(CheckPropertyName(name));
  std::string* doc = edge_docs_.Get(e);
  if (doc == nullptr) return Status::NotFound("edge not found");
  return EditDocProperty(doc, /*is_edge=*/true, name, &value);
}

Status DocEngine::GetVertexCall() const {
  rest_.ChargeCall();
  // The REST round trip is where the emulated remote can fail transiently.
  if (const QueryFaultInjector* f = options().query_fault_injector) {
    return f->Intercept("DocEngine::GetVertex");
  }
  return Status::OK();
}

Status DocEngine::GetEdgeCall() const {
  rest_.ChargeCall();
  if (const QueryFaultInjector* f = options().query_fault_injector) {
    return f->Intercept("DocEngine::GetEdge");
  }
  return Status::OK();
}

Result<VertexRecord> DocEngine::GetVertex(QuerySession& /*session*/, VertexId id) const {
  GDB_RETURN_IF_ERROR(GetVertexCall());
  const std::string* doc = vertex_docs_.Get(id);
  if (doc == nullptr) return Status::NotFound("vertex not found");
  VertexRecord rec;
  rec.id = id;
  GDB_RETURN_IF_ERROR(DecodeVertexDoc(*doc, &rec.label, &rec.properties));
  return rec;
}

Result<EdgeRecord> DocEngine::GetEdge(QuerySession& session, EdgeId id) const {
  GDB_RETURN_IF_ERROR(GetEdgeCall());
  EdgeDocFields& fields = static_cast<DocSession&>(session).edge_scratch_;
  EdgeRecord rec;
  GDB_RETURN_IF_ERROR(ReadEdgeDoc(id, &fields, &rec.properties));
  rec.id = id;
  rec.src = fields.src;
  rec.dst = fields.dst;
  rec.label.assign(fields.label);
  return rec;
}

Result<bool> DocEngine::ReadVertexProperty(QuerySession& session, VertexId id,
                                           std::string_view key,
                                           PropertyValue* out) const {
  GDB_RETURN_IF_ERROR(GetVertexCall());
  const std::string* doc = vertex_docs_.Get(id);
  if (doc == nullptr) return Status::NotFound("vertex not found");
  return ProbeVertexDoc(
      *doc, key, &static_cast<DocSession&>(session).edge_scratch_.scratch, out);
}

Result<bool> DocEngine::ReadEdgeProperty(QuerySession& session, EdgeId id,
                                         std::string_view key,
                                         PropertyValue* out) const {
  GDB_RETURN_IF_ERROR(GetEdgeCall());
  const std::string* doc = edge_docs_.Get(id);
  if (doc == nullptr) return Status::NotFound("edge not found");
  return ProbeEdgeDoc(*doc, key,
                      &static_cast<DocSession&>(session).edge_scratch_, out);
}

Result<uint64_t> DocEngine::CountVertices(QuerySession& /*session*/, const CancelToken&) const {
  rest_.ChargeCall();
  return vertex_docs_.size();  // collection count: O(1)
}

Status DocEngine::RemoveVertex(VertexId v) {
  rest_.ChargeCall();
  if (!vertex_docs_.Contains(v)) return Status::NotFound("vertex not found");
  std::vector<EdgeId> incident;
  if (const std::vector<EdgeId>* out = out_index_.Get(v)) {
    incident.insert(incident.end(), out->begin(), out->end());
  }
  if (const std::vector<EdgeId>* in = in_index_.Get(v)) {
    incident.insert(incident.end(), in->begin(), in->end());
  }
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  for (EdgeId e : incident) {
    if (edge_docs_.Contains(e)) {
      GDB_RETURN_IF_ERROR(RemoveEdgeNoCharge_(e));
    }
  }
  out_index_.Erase(v);
  in_index_.Erase(v);
  vertex_docs_.Erase(v);
  return Status::OK();
}

Status DocEngine::RemoveEdgeNoCharge_(EdgeId e) {
  EdgeDocFields parsed;
  GDB_RETURN_IF_ERROR(ReadEdgeDoc(e, &parsed, /*props=*/nullptr));
  if (std::vector<EdgeId>* out = out_index_.Get(parsed.src)) {
    out->erase(std::remove(out->begin(), out->end(), e), out->end());
  }
  if (std::vector<EdgeId>* in = in_index_.Get(parsed.dst)) {
    in->erase(std::remove(in->begin(), in->end(), e), in->end());
  }
  edge_docs_.Erase(e);
  return Status::OK();
}

Status DocEngine::RemoveEdge(EdgeId e) {
  rest_.ChargeCall();
  return RemoveEdgeNoCharge_(e);
}

Status DocEngine::RemoveVertexProperty(VertexId v, std::string_view name) {
  rest_.ChargeCall();
  GDB_RETURN_IF_ERROR(CheckPropertyName(name));
  std::string* doc = vertex_docs_.Get(v);
  if (doc == nullptr) return Status::NotFound("vertex not found");
  return EditDocProperty(doc, /*is_edge=*/false, name, /*value=*/nullptr);
}

Status DocEngine::RemoveEdgeProperty(EdgeId e, std::string_view name) {
  rest_.ChargeCall();
  GDB_RETURN_IF_ERROR(CheckPropertyName(name));
  std::string* doc = edge_docs_.Get(e);
  if (doc == nullptr) return Status::NotFound("edge not found");
  return EditDocProperty(doc, /*is_edge=*/true, name, /*value=*/nullptr);
}

// --- scans / traversal --------------------------------------------------------------

Status DocEngine::ScanVertices(QuerySession& /*session*/, 
    const CancelToken& cancel, const std::function<bool(VertexId)>& fn) const {
  rest_.ChargeCall();
  Status status = Status::OK();
  vertex_docs_.ForEach([&](const uint64_t& id, const std::string&) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    return fn(id);
  });
  return status;
}

Status DocEngine::ScanEdges(QuerySession& session, 
    const CancelToken& cancel,
    const std::function<bool(const EdgeEnds&)>& fn) const {
  rest_.ChargeCall();
  Status status = Status::OK();
  EdgeDocFields& fields = static_cast<DocSession&>(session).edge_scratch_;
  // Architectural cost: every document is materialized through the AQL
  // cursor (the paper: "it materializes all edges while counting them" —
  // the reason ArangoDB rarely finished Q.9/Q.10 on the Freebase samples).
  edge_docs_.ForEach([&](const uint64_t& id, const std::string& doc) {
    if (cancel.Expired()) {
      status = cancel.ToStatus();
      return false;
    }
    // Each materialized document is charged against the query's memory
    // budget — the cursor holds the whole result set, which is exactly
    // what exhausted RAM in the paper's Q.9/Q.10 runs.
    if (!cancel.Charge(doc.size())) {
      status = cancel.ToStatus();
      return false;
    }
    rest_.ChargeCall();  // per-item cursor materialization
    status = DecodeEdgeDoc(doc, &fields, /*props=*/nullptr);
    if (!status.ok()) return false;
    EdgeEnds ends;
    ends.id = id;
    ends.src = fields.src;
    ends.dst = fields.dst;
    ends.label.assign(fields.label);
    return fn(ends);
  });
  return status;
}

Status DocEngine::WalkIncident(
    QuerySession& session, VertexId v, Direction dir,
    const std::string* label, const CancelToken& cancel, bool want_other,
    const std::function<bool(EdgeId, VertexId)>& fn) const {
  rest_.ChargeCall();  // one AQL round trip per neighborhood step
  if (const QueryFaultInjector* f = options().query_fault_injector) {
    GDB_RETURN_IF_ERROR(f->Intercept("DocEngine::WalkIncident"));
  }
  if (!vertex_docs_.Contains(v)) return Status::NotFound("vertex not found");
  // Each edge document the walk opens is read whole and validated — the
  // layout's cost — and its envelope lands in the session scratch.
  EdgeDocFields& scratch = static_cast<DocSession&>(session).edge_scratch_;
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    if (const std::vector<EdgeId>* out = out_index_.Get(v)) {
      for (EdgeId e : *out) {
        GDB_CHECK_CANCEL(cancel);
        VertexId other = kInvalidId;
        if (want_other || label != nullptr) {
          GDB_RETURN_IF_ERROR(ReadEdgeDoc(e, &scratch, /*props=*/nullptr));
          if (label != nullptr && scratch.label != *label) continue;
          other = scratch.dst;
        }
        if (!fn(e, other)) return Status::OK();
      }
    }
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    if (const std::vector<EdgeId>* in = in_index_.Get(v)) {
      for (EdgeId e : *in) {
        GDB_CHECK_CANCEL(cancel);
        VertexId other = kInvalidId;
        if (want_other || label != nullptr || dir == Direction::kBoth) {
          GDB_RETURN_IF_ERROR(ReadEdgeDoc(e, &scratch, /*props=*/nullptr));
          // Self-loops are already visited via the out index.
          if (dir == Direction::kBoth && scratch.src == scratch.dst) continue;
          if (label != nullptr && scratch.label != *label) continue;
          other = scratch.src;
        }
        if (!fn(e, other)) return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status DocEngine::ForEachEdgeOf(QuerySession& session, VertexId v,
                                Direction dir, const std::string* label,
                                const CancelToken& cancel,
                                const std::function<bool(EdgeId)>& fn) const {
  return WalkIncident(session, v, dir, label, cancel, /*want_other=*/false,
                      [&](EdgeId e, VertexId) { return fn(e); });
}

Status DocEngine::ForEachNeighbor(QuerySession& session, VertexId v,
                                  Direction dir, const std::string* label,
                                  const CancelToken& cancel,
                                  const std::function<bool(VertexId)>& fn)
    const {
  return WalkIncident(session, v, dir, label, cancel, /*want_other=*/true,
                      [&](EdgeId, VertexId other) { return fn(other); });
}

Result<EdgeEnds> DocEngine::GetEdgeEnds(QuerySession& session,
                                        EdgeId e) const {
  EdgeDocFields& scratch = static_cast<DocSession&>(session).edge_scratch_;
  GDB_RETURN_IF_ERROR(ReadEdgeDoc(e, &scratch, /*props=*/nullptr));
  EdgeEnds ends;
  ends.id = e;
  ends.src = scratch.src;
  ends.dst = scratch.dst;
  ends.label.assign(scratch.label);
  return ends;
}

// --- index / persistence -------------------------------------------------------------

Status DocEngine::CreateVertexPropertyIndex(std::string_view) {
  // Accepted; search path unaffected (paper §6.4: "ArangoDB showed no
  // difference in running times").
  return Status::OK();
}

uint64_t DocEngine::CheckpointBytes() const {
  std::string buf;
  auto dump_collection = [&buf](const HashIndex<uint64_t, std::string>& c) {
    PutVarint64(&buf, c.size());
    c.ForEach([&buf](const uint64_t& id, const std::string& doc) {
      PutVarint64(&buf, id);
      PutVarint64(&buf, doc.size());
      buf.append(doc);
      return true;
    });
  };
  dump_collection(vertex_docs_);
  dump_collection(edge_docs_);
  auto dump_index = [&buf](const HashIndex<uint64_t, std::vector<EdgeId>>& idx) {
    PutVarint64(&buf, idx.size());
    idx.ForEach([&buf](const uint64_t& v, const std::vector<EdgeId>& ids) {
      PutVarint64(&buf, v);
      PutVarint64(&buf, ids.size());
      for (EdgeId e : ids) PutVarint64(&buf, e);
      return true;
    });
  };
  dump_index(out_index_);
  dump_index(in_index_);
  return buf.size();
}

uint64_t DocEngine::MemoryBytes() const {
  uint64_t total = vertex_docs_.MemoryBytes() + edge_docs_.MemoryBytes() +
                   out_index_.MemoryBytes() + in_index_.MemoryBytes();
  vertex_docs_.ForEach([&](const uint64_t&, const std::string& doc) {
    total += doc.size();
    return true;
  });
  edge_docs_.ForEach([&](const uint64_t&, const std::string& doc) {
    total += doc.size();
    return true;
  });
  return total;
}

std::unique_ptr<GraphEngine> MakeDocEngine() {
  return std::make_unique<DocEngine>();
}

}  // namespace gdbmicro
