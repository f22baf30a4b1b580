// User attribute index (paper §6.4, Fig. 4(c)): one B+Tree per indexed
// vertex property key, mapping each value to the ids of the vertices that
// carry it. The engines that model an index they can use (neo, orient,
// sqlg, titan) keep one, fill a new key's tree from their own records and
// report every vertex write to it; this is the part they share.

#ifndef GDBMICRO_ENGINES_COMMON_ATTRIBUTE_INDEX_H_
#define GDBMICRO_ENGINES_COMMON_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/types.h"
#include "src/storage/btree.h"
#include "src/util/cancel.h"
#include "src/util/result.h"
#include "src/util/varint.h"

namespace gdbmicro {

class AttributeIndex {
 public:
  using Tree = BTree<PropertyValue, VertexId>;

  /// Starts indexing `key` and returns its empty tree for the engine's
  /// fill pass, or null when `key` is already indexed.
  Tree* Create(std::string_view key) {
    auto [it, created] = trees_.try_emplace(std::string(key));
    return created ? &it->second : nullptr;
  }

  /// True when no key is indexed: the one check an unindexed write or
  /// search pays.
  bool empty() const { return trees_.empty(); }

  /// True when `key` is indexed.
  bool Covers(std::string_view key) const {
    return !trees_.empty() && trees_.find(key) != trees_.end();
  }

  /// Records that vertex `id` carries `key` = `value` (no-op unless `key`
  /// is indexed).
  void Insert(std::string_view key, const PropertyValue& value, VertexId id) {
    if (Tree* tree = Find(key)) tree->Insert(value, id);
  }

  /// Records that vertex `id` no longer carries `key` = `value`.
  void Erase(std::string_view key, const PropertyValue& value, VertexId id) {
    if (Tree* tree = Find(key)) tree->Erase(value, id);
  }

  /// Insert / Erase for every property of a new / removed vertex.
  void InsertAll(const PropertyMap& props, VertexId id) {
    if (trees_.empty()) return;
    for (const auto& [key, value] : props) Insert(key, value, id);
  }
  void EraseAll(const PropertyMap& props, VertexId id) {
    if (trees_.empty()) return;
    for (const auto& [key, value] : props) Erase(key, value, id);
  }

  /// The vertices whose covered `key` equals `value`, in id order. The
  /// lookup stays cooperative: a hot key can match a large fraction of the
  /// store, and a tripped token must stop the result copy promptly.
  Result<std::vector<VertexId>> Lookup(std::string_view key,
                                       const PropertyValue& value,
                                       const CancelToken& cancel) const {
    std::vector<VertexId> out;
    bool cancelled = false;
    trees_.find(key)->second.ScanKey(value, [&](const VertexId& id) {
      if (cancel.Expired()) {
        cancelled = true;
        return false;
      }
      out.push_back(id);
      return true;
    });
    if (cancelled) return cancel.ToStatus();
    return out;
  }

  /// The checkpoint section: the key count, then per key (in key order)
  /// its name, entry count and (value, id) entries in tree order.
  void Serialize(std::string* out) const {
    PutVarint64(out, trees_.size());
    for (const auto& [key, tree] : trees_) {
      PutVarint64(out, key.size());
      out->append(key);
      PutVarint64(out, tree.size());
      tree.ScanAll([out](const PropertyValue& value, const VertexId& id) {
        value.EncodeTo(out);
        PutVarint64(out, id);
        return true;
      });
    }
  }

  /// Resident bytes: each tree's pages at 24 bytes per entry.
  uint64_t MemoryBytes() const {
    uint64_t total = 0;
    for (const auto& entry : trees_) total += entry.second.SerializedBytes(24);
    return total;
  }

 private:
  Tree* Find(std::string_view key) {
    if (trees_.empty()) return nullptr;
    auto it = trees_.find(key);
    return it != trees_.end() ? &it->second : nullptr;
  }

  std::map<std::string, Tree, std::less<>> trees_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_ENGINES_COMMON_ATTRIBUTE_INDEX_H_
