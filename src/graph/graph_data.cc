#include "src/graph/graph_data.h"

#include "src/util/string_util.h"

namespace gdbmicro {

Status GraphData::Validate() const {
  const uint64_t n = vertices.size();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].src >= n || edges[i].dst >= n) {
      return Status::InvalidArgument(
          StrFormat("edge %zu references missing vertex (src=%llu dst=%llu, "
                    "|V|=%llu)",
                    i, static_cast<unsigned long long>(edges[i].src),
                    static_cast<unsigned long long>(edges[i].dst),
                    static_cast<unsigned long long>(n)));
    }
  }
  return Status::OK();
}

}  // namespace gdbmicro
