// Neo4j-style native graph engine ("neoish").
//
// Storage layout (paper §3.2): separate fixed-size record files for nodes,
// edges, and properties, plus a label/type dictionary and a dynamic string
// store for long values. Record ids are slot offsets, so id lookup is a
// multiply + read. Each node heads a doubly-linked list threading through
// its incident edge records; visiting a neighborhood costs O(degree),
// independent of graph size ("index-free adjacency").
//
// Two variants, matching the paper's two tested versions:
//  * neo19 — single per-node relationship chain, direct programming API.
//  * neo30 — relationship chains split by (label, direction) through
//    "relationship group" records (the 3.x storage rewrite the paper
//    describes), plus a per-call wrapper overhead (the TinkerPop licensing
//    wrapper the paper blames for the CUD slowdown) charged through the
//    cost model on CUD and point-lookup operations.

#ifndef GDBMICRO_ENGINES_NEOISH_NEO_ENGINE_H_
#define GDBMICRO_ENGINES_NEOISH_NEO_ENGINE_H_

#include <string>
#include <vector>

#include "src/engines/common/attribute_index.h"
#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/graph/registry.h"
#include "src/storage/append_store.h"
#include "src/storage/record_file.h"

namespace gdbmicro {

class NeoEngine : public GraphEngine {
 public:
  /// `v30` selects the neo30 variant (typed relationship groups + wrapper
  /// overhead); otherwise neo19.
  explicit NeoEngine(bool v30);

  std::string_view name() const override { return v30_ ? "neo30" : "neo19"; }
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
  /// Walks the element's property chain to the key: key ids are compared
  /// per record and only the matching record is decoded.
  Result<bool> ReadVertexProperty(QuerySession& session, VertexId id,
                                  std::string_view key,
                                  PropertyValue* out) const override;
  Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                std::string_view key,
                                PropertyValue* out) const override;
  Result<uint64_t> CountVertices(QuerySession& session, const CancelToken& cancel) const override;
  Result<uint64_t> CountEdges(QuerySession& session, const CancelToken& cancel) const override;
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
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override {
    return node_store_.SlotCount();
  }

  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader: presized record files, one raw element pass writing
  /// node/edge records with nil chain links, then relationship chains
  /// stitched from a counted degree pass (v30: grouped by (label, dir))
  /// — no per-edge read-modify-write splicing, every record written once.
  /// Bypasses the v3.0 per-operation wrapper (the paper loaded Neo4j
  /// through the Gremlin API "without issues").
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  // Chain links encode (edge_id << 1) | role, role 0 = the edge's source
  // slot, 1 = its destination slot. kNilLink terminates a chain.
  static constexpr uint64_t kNilLink = ~0ULL;

  struct NodeRec {
    uint32_t label = 0;
    uint64_t first = kNilLink;       // v19: first (edge,role) link;
                                     // v30: first group record id (or nil)
    uint64_t first_prop = kNilLink;  // property chain head
  };
  struct EdgeRec {
    uint64_t src = 0;
    uint64_t dst = 0;
    uint32_t label = 0;
    uint64_t prev[2] = {kNilLink, kNilLink};  // per-role chain links
    uint64_t next[2] = {kNilLink, kNilLink};
    uint64_t first_prop = kNilLink;
  };
  struct GroupRec {  // v30 relationship group
    uint32_t label = 0;
    uint8_t dir = 0;  // 0 = out (src role), 1 = in (dst role)
    uint64_t first = kNilLink;
    uint64_t next_group = kNilLink;
  };

  NodeRec ReadNode(VertexId id) const;
  void WriteNode(VertexId id, const NodeRec& n);
  EdgeRec ReadEdge(EdgeId id) const;
  void WriteEdge(EdgeId id, const EdgeRec& e);
  GroupRec ReadGroup(uint64_t id) const;
  void WriteGroup(uint64_t id, const GroupRec& g);

  // Links an (edge, role) occurrence at the head of the chain whose head
  // pointer is *head.
  void LinkAtHead(uint64_t* head, EdgeId edge, int role, EdgeRec* rec);
  // Unlinks an occurrence; `head` is updated if it pointed at it.
  void Unlink(uint64_t* head, const EdgeRec& rec, EdgeId edge, int role);

  // v30: finds (or creates) the group record for (node, label, dir-role).
  uint64_t FindOrCreateGroup(VertexId v, uint32_t label, int role);
  uint64_t FindGroup(const NodeRec& n, uint32_t label, int role) const;

  // Walks all (edge, role) occurrences of node v, invoking fn(edge_id,
  // role, rec). fn returns false to stop. Handles both variants.
  Status WalkIncidence(
      VertexId v, const CancelToken& cancel,
      const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const;

  // Same, but in v30 mode restricts the walk to the (label, out/in)
  // relationship groups when label_id != Dictionary::kNoId (the typed
  // chains of the 3.x storage rewrite). v19 mode ignores the hint and
  // filters in the caller.
  Status WalkIncidenceFiltered(
      VertexId v, uint32_t label_id, const CancelToken& cancel,
      const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const;

  // Streams the (edge, role, rec) occurrences matching (dir, label), with
  // self-loops emitted once via their src role — the single walk both
  // visitor overrides share.
  Status WalkMatching(
      VertexId v, Direction dir, const std::string* label,
      const CancelToken& cancel,
      const std::function<bool(EdgeId, int, const EdgeRec&)>& fn) const;

  // Property chains --------------------------------------------------
  uint64_t BuildPropChain(const PropertyMap& props);
  Status ChainSetProperty(uint64_t* head, std::string_view name,
                          const PropertyValue& value);
  Status ChainRemoveProperty(uint64_t* head, std::string_view name);
  PropertyMap MaterializeProps(uint64_t head) const;
  // Walks the chain at `head` to the first record of key `key_id` and
  // decodes only that record's value into *out; false when no record
  // carries the key (always for Dictionary::kNoId). A record whose value
  // does not decode is passed over, as MaterializeProps drops it.
  bool ChainProperty(uint64_t head, uint32_t key_id, PropertyValue* out) const;
  void FreePropChain(uint64_t head);

  // Edge removal without the wrapper charge (shared by RemoveVertex).
  Status RemoveEdgeInternal_(EdgeId e);

  bool v30_;
  CostModel wrapper_cost_;  // neo30 only

  RecordFile node_store_;
  RecordFile edge_store_;
  RecordFile group_store_;  // v30 only
  RecordFile prop_store_;
  AppendStore string_store_;  // overflow values
  Dictionary labels_;
  Dictionary keys_;
  uint64_t edge_count_ = 0;

  // Maintained by both variants; only neo19's searches consult it.
  AttributeIndex attribute_index_;
};

/// Factory used by RegisterBuiltinEngines().
std::unique_ptr<GraphEngine> MakeNeoEngine(bool v30);

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_NEOISH_NEO_ENGINE_H_
