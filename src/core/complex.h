// The complex query workload (paper §4.7 / Fig. 2): 13 queries derived
// from the LDBC Social Network benchmark, mimicking the activity of a new
// social-network user — from account creation and profile fill-up to
// friend-of-friend exploration and recommendation queries with multi-hop
// joins, sorting, top-k and max aggregation. Run on the ldbc dataset.

#ifndef GDBMICRO_CORE_COMPLEX_H_
#define GDBMICRO_CORE_COMPLEX_H_

#include <vector>

#include "src/core/queries.h"

namespace gdbmicro {
namespace core {

/// The 13 complex queries in Fig. 2 order: max-iid, max-oid, create, city,
/// company, university, friend1, friend2, friend-tags, add-tags,
/// friend-of-friend, triangle, places. Each is a QuerySpec named after its
/// Fig. 2 x-axis label (number 0, no Gremlin text) in category kRead, or
/// kCreate for create and add-tags, the two that mutate. They simulate one
/// user session, so they run in this order on one loaded engine (see
/// Runner::RunQuery): the later reads see what create and add-tags added.
const std::vector<QuerySpec>& ComplexQueryCatalog();

}  // namespace core
}  // namespace gdbmicro

#endif  // GDBMICRO_CORE_COMPLEX_H_
