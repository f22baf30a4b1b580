// BlazeGraph-style RDF triple-store engine ("blaze").
//
// Storage layout (paper §3.2): all information is Subject-Predicate-Object
// statements, indexed three times — a B+Tree for each of SPO, POS, OSP —
// plus a fixed-extent journal file holding the raw statements. Edges are
// *reified*: an edge is a statement term that appears as the subject of a
// connectivity statement, so "traversing the structure of the graph may
// require more than one access to the corresponding B+Tree".
//
// Graph-to-RDF mapping used here (two statements per edge, one per
// property, one per vertex):
//   vertex v with label L       ->  (v, rdf:type, L)
//   vertex property k=x         ->  (v, k, x)
//   edge e: src -[label]-> dst  ->  (src, label, e) and (e, graph:to, dst)
//   edge property k=x           ->  (e, k, x)
//
// Costs the paper measures that follow from this design: every mutation
// maintains three B+Trees per statement (slowest load/insert by far);
// space is ~3x everyone else (three indexes + journal slack, Fig. 1);
// every traversal step is a B+Tree range scan through the generic graph
// API (no SPARQL optimizer involvement), making it the slowest reader.

#ifndef GDBMICRO_ENGINES_TRIPLEISH_TRIPLE_ENGINE_H_
#define GDBMICRO_ENGINES_TRIPLEISH_TRIPLE_ENGINE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/storage/btree.h"
#include "src/storage/journal.h"

namespace gdbmicro {

class TripleEngine : public GraphEngine {
 public:
  TripleEngine() = default;

  std::string_view name() const override { return "blaze"; }
  EngineInfo info() const override;
  Status Open(const EngineOptions& options) override;

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
  Result<std::vector<VertexId>> FindVerticesByProperty(QuerySession& session, 
      std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const override;
  Result<std::vector<EdgeId>> FindEdgesByProperty(QuerySession& session, 
      std::string_view prop, const PropertyValue& value,
      const CancelToken& cancel) const override;

  Status RemoveVertex(VertexId v) override;
  Status RemoveEdge(EdgeId e) override;
  Status RemoveVertexProperty(VertexId v, std::string_view name) override;
  Status RemoveEdgeProperty(EdgeId e, std::string_view name) override;

  Status ScanVertices(QuerySession& session, const CancelToken& cancel,
                      const std::function<bool(VertexId)>& fn) const override;
  Status ScanEdges(QuerySession& session, 
      const CancelToken& cancel,
      const std::function<bool(const EdgeEnds&)>& fn) const override;
  /// Streams B+Tree range scans directly (SPO prefix for outgoing
  /// connectivity statements, OSP prefix for incoming ones) instead of
  /// materializing statement vectors — the index walk is the traversal.
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override { return next_vertex_; }

  // CreateVertexPropertyIndex: inherited default (kUnimplemented) — the
  // paper: "BlazeGraph provides no such capability".

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader (the bulk-loading mode the paper had to activate
  /// explicitly): statements are collected and journaled in one pass,
  /// then SPO/POS/OSP are each bulk-sorted and built bottom-up once —
  /// instead of rebalancing all three B+Trees per statement, which is
  /// what kPerElement (AddVertex/AddEdge per element) still measures as
  /// the paper-faithful Fig. 3(a) pathology.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  using Triple = std::array<uint64_t, 3>;

  static std::string VertexTerm(VertexId v);
  static std::string EdgeTerm(EdgeId e);

  // Both take the triple BY VALUE on purpose: callers frequently pass a
  // reference into a B+Tree leaf that the first Erase below would shift,
  // leaving the remaining index updates reading a different statement.
  void InsertStatement(Triple t);
  void EraseStatement(Triple t);

  // Appends the statement's journal record (shared by InsertStatement and
  // the native bulk loader).
  void JournalStatement(const Triple& t);

  // Collects all statements with subject s (SPO prefix scan).
  std::vector<Triple> StatementsWithSubject(uint64_t s) const;
  // Collects all statements with object o (OSP prefix scan).
  std::vector<Triple> StatementsWithObject(uint64_t o) const;

  // The shared incidence walk behind the adjacency visitors: streams ids
  // of edges incident to v matching (dir, label) straight off the SPO/OSP
  // range scans. Self-loops are emitted once via the outgoing side.
  Status WalkIncident(VertexId v, Direction dir, const std::string* label,
                      const CancelToken& cancel,
                      const std::function<bool(EdgeId)>& fn) const;

  struct EdgeStmt {
    VertexId src = kInvalidId;
    VertexId dst = kInvalidId;
    uint64_t label_term = 0;
    bool live = false;
  };

  CostModel cost_;

  // The term dictionary. Terms are strings with a kind prefix:
  //   "v:<id>"  vertex terms       "l:<label>"  label predicates
  //   "k:<key>" property keys      "x:<bytes>"  encoded literal values
  //   "e:<id>"  reified edge terms "g:to"       the connectivity predicate
  Dictionary terms_;
  uint64_t to_pred_ = 0;    // term id of "g:to"
  uint64_t type_pred_ = 0;  // term id of "g:type"

  BTree<Triple, uint8_t> spo_;
  BTree<Triple, uint8_t> pos_;
  BTree<Triple, uint8_t> osp_;
  Journal journal_;

  std::vector<EdgeStmt> edge_stmts_;
  uint64_t next_vertex_ = 0;
  uint64_t live_vertices_ = 0;
};

std::unique_ptr<GraphEngine> MakeTripleEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_TRIPLEISH_TRIPLE_ENGINE_H_
