// OrientDB-style native multi-model engine ("orientish").
//
// Storage layout (paper §3.2): records live in append-only *clusters*; a
// record id is a logical id mapped to a physical position through an
// indirection table, so updates append a new version and repoint. There is
// one cluster for vertices and one cluster *per edge label* (the paper
// repeatedly observes OrientDB's and Sqlg's load/space sensitivity to edge
// label cardinality because both "create and use different structures for
// different edge labels").
//
// Adjacency is embedded in the vertex record ("ridbag") while small; past
// kEmbeddedAdjLimit it moves to an external bag, mirroring OrientDB's
// embedded-to-tree ridbag switch. Edge traversal is the paper's "2-hop
// pointer": vertex record -> edge record -> other vertex.

#ifndef GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_
#define GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engines/common/attribute_index.h"
#include "src/engines/common/dictionary.h"
#include "src/graph/engine.h"
#include "src/storage/append_store.h"
#include "src/util/hash.h"

namespace gdbmicro {

class OrientEngine : public GraphEngine {
 public:
  OrientEngine() = default;

  std::string_view name() const override { return "orient"; }
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
  /// Reads the record in place and skip-walks its property map to the
  /// key; only the key's value is decoded.
  Result<bool> ReadVertexProperty(QuerySession& session, VertexId id,
                                  std::string_view key,
                                  PropertyValue* out) const override;
  Result<bool> ReadEdgeProperty(QuerySession& session, EdgeId id,
                                std::string_view key,
                                PropertyValue* out) const override;
  Result<std::vector<std::string>> DistinctEdgeLabels(QuerySession& session, 
      const CancelToken& cancel) const override;
  Result<std::vector<EdgeId>> FindEdgesByLabel(QuerySession& session, 
      std::string_view label, const CancelToken& cancel) const override;
  Result<std::vector<VertexId>> FindVerticesByProperty(QuerySession& session, 
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
  /// Streams the ridbag (embedded or external). Label filtering needs no
  /// edge-record read — the cluster id packed into the edge id *is* the
  /// label. Self-loop dedup and neighbor resolution decode only the two
  /// endpoint varints of the edge blob (no property materialization).
  Status ForEachEdgeOf(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                       const CancelToken& cancel,
                       const std::function<bool(EdgeId)>& fn) const override;
  Status ForEachNeighbor(QuerySession& session, VertexId v, Direction dir, const std::string* label,
                         const CancelToken& cancel,
                         const std::function<bool(VertexId)>& fn) const override;
  Result<EdgeEnds> GetEdgeEnds(QuerySession& session, EdgeId e) const override;
  uint64_t VertexIdUpperBound() const override {
    return vertex_store_.LogicalCount();
  }

  Status CreateVertexPropertyIndex(std::string_view prop) override;

  uint64_t CheckpointBytes() const override;
  uint64_t MemoryBytes() const override;

 protected:
  /// Native loader: clusters are created up front (one bookkeeping charge
  /// per new edge label), edge ids are precomputed, full ridbags are
  /// assembled in memory, and every vertex record is encoded and appended
  /// exactly once with its final adjacency — instead of a decode +
  /// re-append of the vertex blob per incident edge.
  Result<LoadMapping> BulkLoadNative(const GraphData& data) override;

 private:
  // Past this many incident edges (per direction) adjacency moves out of
  // the record into an external bag.
  static constexpr size_t kEmbeddedAdjLimit = 64;

  // Edge ids pack (cluster index, local id).
  static constexpr int kClusterShift = 44;
  static EdgeId PackEdgeId(uint64_t cluster, uint64_t local) {
    return (cluster << kClusterShift) | local;
  }
  static uint64_t ClusterOf(EdgeId id) { return id >> kClusterShift; }
  static uint64_t LocalOf(EdgeId id) {
    return id & ((1ULL << kClusterShift) - 1);
  }

  struct VertexData {
    uint32_t label = 0;
    PropertyMap props;
    bool external_adj = false;
    std::vector<EdgeId> out_edges;  // embedded only
    std::vector<EdgeId> in_edges;
  };
  struct EdgeData {
    VertexId src = 0;
    VertexId dst = 0;
    PropertyMap props;
  };
  struct ExternalBag {
    std::vector<EdgeId> out_edges;
    std::vector<EdgeId> in_edges;
  };
  struct Cluster {
    std::string label;
    AppendStore store;
  };

  // One direction of an embedded ridbag: `count` edge-id varints stored
  // back to back in the vertex record, validated when the record was
  // split and decoded in place as it is iterated.
  class RidRun {
   public:
    class Iterator {
     public:
      Iterator(const uint8_t* p, uint64_t left) : p_(p), left_(left) {
        Load();
      }
      EdgeId operator*() const { return value_; }
      Iterator& operator++() {
        --left_;
        Load();
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return left_ != other.left_;
      }

     private:
      void Load() {
        if (left_ == 0) return;
        uint64_t v = 0;
        int shift = 0;
        uint8_t byte;
        do {
          byte = *p_++;
          v |= static_cast<uint64_t>(byte & 0x7F) << shift;
          shift += 7;
        } while ((byte & 0x80) != 0);
        value_ = v;
      }
      const uint8_t* p_;
      uint64_t left_;
      EdgeId value_ = 0;
    };

    RidRun() = default;
    RidRun(std::string_view bytes, uint64_t count)
        : bytes_(bytes), count_(count) {}
    Iterator begin() const {
      return Iterator(reinterpret_cast<const uint8_t*>(bytes_.data()),
                      count_);
    }
    Iterator end() const { return Iterator(nullptr, 0); }
    uint64_t size() const { return count_; }

   private:
    std::string_view bytes_;
    uint64_t count_ = 0;
  };

  // A vertex record split in place: what the hop path reads of it.
  struct VertexView {
    uint32_t label = 0;
    bool external_adj = false;
    RidRun out_edges;  // embedded only
    RidRun in_edges;
  };

  static void EncodeVertex(const VertexData& v, std::string* out);
  // Splits a vertex record without copying it. The property map is
  // decoded into *props, or skip-walked (validated, not built) when
  // `props` is null; the embedded ridbag is validated whole.
  static Status SplitVertex(std::string_view blob, VertexView* out,
                            PropertyMap* props);
  static Result<VertexData> DecodeVertex(std::string_view blob);
  static void EncodeEdge(const EdgeData& e, std::string* out);
  // An edge record read in place: the two endpoint varints, then the
  // property map, decoded into *props or skip-walked when it is null.
  static Status SplitEdge(std::string_view blob, VertexId* src,
                          VertexId* dst, PropertyMap* props);

  Result<VertexData> LoadVertex(VertexId id) const;
  Status StoreVertex(VertexId id, const VertexData& v);
  Result<std::string_view> ReadEdgeRecord(EdgeId id) const;
  Result<EdgeData> LoadEdge(EdgeId id) const;
  Status StoreEdge(EdgeId id, const EdgeData& e);

  uint64_t ClusterForLabel(std::string_view label);

  // Adjacency access regardless of embedded/external representation.
  Status AppendAdjacency(VertexId v, EdgeId e, bool outgoing);
  Status EraseAdjacency(VertexId v, EdgeId e, bool outgoing);
  Status CollectAdjacency(VertexId v, Direction dir,
                          std::vector<EdgeId>* out) const;

  // Calls fn(out_list, in_list) with v's ridbag: the external bag's
  // vectors, or the embedded RidRuns of its record, read in place (the
  // record is read once and its property map skip-walked).
  template <typename Fn>
  Status WithRidbag(VertexId v, Fn&& fn) const;

  // Reads only the (src, dst) varint header of e's record — the 2-hop
  // pointer chase without property materialization.
  Result<std::pair<VertexId, VertexId>> ReadEdgeEndpoints(EdgeId e) const;

  // The shared ridbag walk: streams edges matching (dir, label) with
  // self-loops emitted once via the out side. `other` is the far endpoint
  // when `want_other` is set, kInvalidId otherwise (lets ForEachEdgeOf
  // skip the endpoint read unless kBoth dedup forces it).
  Status WalkIncident(
      VertexId v, Direction dir, const std::string* label,
      const CancelToken& cancel, bool want_other,
      const std::function<bool(EdgeId, VertexId other)>& fn) const;

  Status RemoveEdgeInternal(EdgeId e, VertexId skip_endpoint);

  AppendStore vertex_store_;
  std::vector<Cluster> clusters_;
  std::unordered_map<std::string, uint64_t, TransparentStringHash,
                     std::equal_to<>>
      cluster_by_label_;
  std::unordered_map<VertexId, ExternalBag> bags_;
  Dictionary vertex_labels_;
  CostModel cost_;

  AttributeIndex attribute_index_;  // SB-Tree indexes
};

std::unique_ptr<GraphEngine> MakeOrientEngine();

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_ORIENTISH_ORIENT_ENGINE_H_
