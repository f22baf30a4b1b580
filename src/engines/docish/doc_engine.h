// ArangoDB-style hybrid document engine ("arango").
//
// Storage layout (paper §3.2): every vertex and edge is a self-contained
// serialized JSON document in a key-value collection; a hash index on edge
// endpoints accelerates traversals. Access is via REST: every client
// operation pays a round-trip charge (cost model). Writes are registered
// in RAM and flushed asynchronously, which — combined with client-side
// measurement — is why the paper ranks ArangoDB among the fastest for CUD
// while flagging that ranking as biased in its favor (§6.4).
//
// Architectural consequences the paper measures, reproduced here:
//  * id lookup is a hash get + parse: fast ("at the core it is a KV store");
//  * scanning edges must parse *every* document ("it materializes all
//    edges while counting them"): Q9/Q10 are its worst queries;
//  * CreateVertexPropertyIndex is accepted but the search path ignores it
//    ("ArangoDB showed no difference in running times, so we suspect some
//    defect in the Gremlin implementation").

#ifndef GDBMICRO_ENGINES_DOCISH_DOC_ENGINE_H_
#define GDBMICRO_ENGINES_DOCISH_DOC_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/engine.h"
#include "src/storage/hash_index.h"

namespace gdbmicro {

// --- Document layout -----------------------------------------------------
//
// A vertex is stored as {"_label":<label>,<properties>...} and an edge as
// {"_from":<src>,"_to":<dst>,"_label":<label>,<properties>...}. Members
// whose names start with '_' are the layout's system members; every other
// member is a property.
//
// One writer emits every stored document: AddVertex/AddEdge, the native
// bulk loader and the property updates, which decode the document, edit
// its PropertyMap and write it back. The text is streamed, with no Json
// tree, and equals Json::Dump of the tree built member by member with
// Json::Set: a key that repeats in `props` is written once, in its first
// position, with its last value.

std::string EncodeVertexDoc(std::string_view label, const PropertyMap& props);
std::string EncodeEdgeDoc(VertexId src, VertexId dst, std::string_view label,
                          const PropertyMap& props);

/// Rewrites the stored vertex (`is_edge` false) or edge document *doc
/// with property `name` set to *value, or removed when `value` is null
/// (kNotFound when it has no such property). A document that does not
/// decode is kCorruption and stays as it was.
Status EditDocProperty(std::string* doc, bool is_edge, std::string_view name,
                       const PropertyValue* value);

/// An edge document's envelope as DecodeEdgeDoc reads it. `label` views
/// the document, or `label_buf` when the stored label has escapes; the
/// buffers keep their capacity from one decode to the next.
struct EdgeDocFields {
  VertexId src = 0;
  VertexId dst = 0;
  std::string_view label;
  std::string label_buf;
  std::string scratch;  // escaped member names, decoded
};

/// Reads an edge document in place, without building a Json tree:
/// _from, _to and _label come from their first occurrence (the member
/// Json::Find returns) and, when `props` is non-null, every member not
/// starting with '_' becomes a property in document order, mapped as
/// PropertyValue::FromJson maps it. The whole document is validated;
/// malformed JSON, or a missing or mistyped _from, _to or _label, is
/// kCorruption, as Json::Parse followed by Find reported it.
Status DecodeEdgeDoc(std::string_view doc, EdgeDocFields* out,
                     PropertyMap* props);

/// Reads a vertex document in place: the first _label member when it is
/// a string (an empty label otherwise), and its properties as
/// DecodeEdgeDoc reads them. A document that is not an object is
/// kCorruption.
Status DecodeVertexDoc(std::string_view doc, std::string* label,
                       PropertyMap* props);

/// Per-connection scratch of the document engine: the decode buffers the
/// hop path fills for every incident edge it must open, reused across the
/// millions of decodes a traversal performs — and never shared between
/// concurrent clients.
class DocSession : public QuerySession {
 public:
  explicit DocSession(const GraphEngine* engine) : QuerySession(engine) {}

 private:
  friend class DocEngine;
  EdgeDocFields edge_scratch_;
};

class DocEngine : public GraphEngine {
 public:
  DocEngine() = default;

  std::string_view name() const override { return "arango"; }
  EngineInfo info() const override;
  Status Open(const EngineOptions& options) override;

  std::unique_ptr<QuerySession> CreateSession() const override {
    return std::make_unique<DocSession>(this);
  }

  Result<VertexId> AddVertex(std::string_view label,
                             const PropertyMap& props) override;
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, std::string_view label,
                         const PropertyMap& props) override;
  Status SetVertexProperty(VertexId v, std::string_view name,
                           const PropertyValue& value) override;
  Status SetEdgeProperty(EdgeId e, std::string_view name,
                         const PropertyValue& value) override;

  Result<VertexRecord> GetVertex(QuerySession& session, VertexId id) const override;
  Result<EdgeRecord> GetEdge(QuerySession& session, EdgeId id) const override;
  /// The REST round trip and fault intercept of GetVertex/GetEdge, then
  /// the document read in place and validated whole, with only the key's
  /// value decoded.
  Result<bool> ReadVertexProperty(QuerySession& session, VertexId id,
                                  std::string_view key,
                                  PropertyValue* out) const override;
  Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                std::string_view key,
                                PropertyValue* out) const override;
  Result<uint64_t> CountVertices(QuerySession& session, const CancelToken& cancel) const override;
  // CountEdges intentionally uses the default (scan + parse every
  // document): the paper's Gremlin adapter materialized all edges.

  Status RemoveVertex(VertexId v) override;
  Status RemoveEdge(EdgeId e) override;
  Status RemoveVertexProperty(VertexId v, std::string_view name) override;
  Status RemoveEdgeProperty(EdgeId e, std::string_view name) override;

  Status ScanVertices(QuerySession& session, const CancelToken& cancel,
                      const std::function<bool(VertexId)>& fn) const override;
  Status ScanEdges(QuerySession& session, 
      const CancelToken& cancel,
      const std::function<bool(const EdgeEnds&)>& fn) const override;
  /// The visitors stream over the endpoint hash index. The index stores
  /// only edge ids, so learning an edge's label or far endpoint means
  /// reading the whole edge document — the architectural cost of the
  /// self-contained-JSON layout, paid inside the visit.
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override { return next_vertex_; }

  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native bulk import (arangoimp, the "implementation-specific scripts"
  /// the paper had to load ArangoDB with): no per-call REST charge, no
  /// per-edge endpoint existence probes, presized collections, and the
  /// endpoint hash index assembled from a degree pass instead of a
  /// get-or-insert probe pair per edge. Documents are still serialized
  /// JSON, as the layout stores them.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  // Looks edge `id` up and decodes its document in place (see
  // DecodeEdgeDoc): every byte is read and validated, and the properties
  // are materialized only into a non-null `props`.
  Status ReadEdgeDoc(EdgeId id, EdgeDocFields* out, PropertyMap* props) const;

  // The REST round trip of one GetVertex/GetEdge call, which the probes
  // pay in its place: the call charge, then the call's fault intercept.
  Status GetVertexCall() const;
  Status GetEdgeCall() const;

  // Edge removal without the REST charge (shared by RemoveVertex).
  Status RemoveEdgeNoCharge_(EdgeId e);

  // The shared endpoint-index walk behind both visitors. Documents are
  // read only when something needs their contents (`want_other`, a
  // label filter, or kBoth self-loop dedup); `other` is the far endpoint
  // when `want_other` is set, kInvalidId otherwise.
  Status WalkIncident(QuerySession& session, VertexId v, Direction dir,
                      const std::string* label, const CancelToken& cancel,
                      bool want_other,
                      const std::function<bool(EdgeId, VertexId)>& fn) const;

  CostModel rest_;

  HashIndex<uint64_t, std::string> vertex_docs_;
  HashIndex<uint64_t, std::string> edge_docs_;
  HashIndex<uint64_t, std::vector<EdgeId>> out_index_;  // endpoint hash index
  HashIndex<uint64_t, std::vector<EdgeId>> in_index_;
  uint64_t next_vertex_ = 0;
  uint64_t next_edge_ = 0;
};

std::unique_ptr<GraphEngine> MakeDocEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_DOCISH_DOC_ENGINE_H_
