#include "src/core/complex.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "src/query/algorithms.h"
#include "src/query/traversal.h"
#include "src/storage/wal.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace core {

namespace {

using datasets::Workload;

/// Deterministically samples a dataset index whose vertex has `label`,
/// scanning circularly from a seeded start.
uint64_t SampleIndexWithLabel(const Workload& w, const std::string& label,
                              int i) {
  const GraphData& d = w.data();
  uint64_t start = w.ReadVertexIndex(9000 + i);
  for (uint64_t off = 0; off < d.vertices.size(); ++off) {
    uint64_t idx = (start + off) % d.vertices.size();
    if (d.vertices[idx].label == label) return idx;
  }
  return start;
}

VertexId SampleWithLabel(const Workload& w, const std::string& label, int i) {
  return w.mapping().vertex_ids[SampleIndexWithLabel(w, label, i)];
}

/// All persons: g.V().hasLabel('person') through the traversal machine
/// (the planner picks the engine's execution policy).
Result<std::vector<VertexId>> AllPersons(QueryContext& ctx) {
  return query::Traversal::V().HasLabel("person").ExecuteIds(*ctx.engine, *ctx.session, ctx.cancel);
}

Result<QueryResult> MaxDegreePerson(QueryContext& ctx, Direction dir) {
  GDB_ASSIGN_OR_RETURN(std::vector<VertexId> persons, AllPersons(ctx));
  uint64_t best = 0;
  VertexId best_id = kInvalidId;
  for (VertexId p : persons) {
    GDB_CHECK_CANCEL(ctx.cancel);
    GDB_ASSIGN_OR_RETURN(std::vector<EdgeId> edges,
                         ctx.engine->EdgesOf(*ctx.session, p, dir, nullptr, ctx.cancel));
    if (edges.size() >= best) {
      best = edges.size();
      best_id = p;
    }
  }
  (void)best_id;
  return QueryResult{best};
}

Result<std::vector<VertexId>> Friends(QueryContext& ctx, VertexId person) {
  std::string knows = "knows";
  GDB_ASSIGN_OR_RETURN(
      std::vector<VertexId> friends,
      ctx.engine->NeighborsOf(*ctx.session, person, Direction::kBoth, &knows, ctx.cancel));
  std::sort(friends.begin(), friends.end());
  friends.erase(std::unique(friends.begin(), friends.end()), friends.end());
  friends.erase(std::remove(friends.begin(), friends.end(), person),
                friends.end());
  return friends;
}

/// A complex query as a QuerySpec: named after its Fig. 2 label, with no
/// Table 2 number or Gremlin text. The two that mutate are creates; like
/// every Table 2 write they stage a WriteBatch and apply it through
/// QueryContext::Commit.
QuerySpec Complex(std::string name, std::string description,
                  Category category,
                  std::function<Result<QueryResult>(QueryContext&)> run) {
  QuerySpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.category = category;
  spec.mutates = category == Category::kCreate;
  spec.run = std::move(run);
  return spec;
}

std::vector<QuerySpec> BuildComplexCatalog() {
  std::vector<QuerySpec> catalog;

  catalog.push_back(Complex("max-iid", "Person with maximum incoming degree",
                            Category::kRead, [](QueryContext& ctx) {
                              return MaxDegreePerson(ctx, Direction::kIn);
                            }));
  catalog.push_back(Complex("max-oid", "Person with maximum outgoing degree",
                            Category::kRead, [](QueryContext& ctx) {
                              return MaxDegreePerson(ctx, Direction::kOut);
                            }));

  catalog.push_back(Complex(
      "create",
      "Create an account and fill the profile (city, university, company, "
      "initial friends)",
      Category::kCreate, [](QueryContext& ctx) -> Result<QueryResult> {
         const Workload& w = *ctx.workload;
         PropertyMap props;
         props.emplace_back("firstName", PropertyValue(StrFormat(
                                             "newuser%d", ctx.iteration)));
         props.emplace_back("lastName", PropertyValue("benchmark"));
         PropertyMap since;
         since.emplace_back("since", PropertyValue(int64_t{20180101}));
         // One batch: the new person, then its profile and friendship
         // edges through the batch's pending-handle forward reference.
         WriteBatch batch;
         PendingVertex p = batch.AddVertex("person", std::move(props));
         batch.AddEdge(p, SampleWithLabel(w, "city", ctx.iteration),
                       "isLocatedIn", since);
         batch.AddEdge(p, SampleWithLabel(w, "university", ctx.iteration),
                       "studyAt", since);
         batch.AddEdge(p, SampleWithLabel(w, "company", ctx.iteration),
                       "workAt", since);
         for (int i = 0; i < 3; ++i) {
           batch.AddEdge(p,
                         SampleWithLabel(w, "person", 10 * ctx.iteration + i),
                         "knows", since);
         }
         GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
         return QueryResult{n};
       }));

  auto members_of = [](QueryContext& ctx, const std::string& target_label,
                       const std::string& edge_label) -> Result<QueryResult> {
    VertexId target =
        SampleWithLabel(*ctx.workload, target_label, ctx.iteration);
    GDB_ASSIGN_OR_RETURN(std::vector<VertexId> members,
                         ctx.engine->NeighborsOf(*ctx.session, target, Direction::kIn,
                                                 &edge_label, ctx.cancel));
    return QueryResult{members.size()};
  };
  catalog.push_back(Complex("city", "People located in a given city",
                            Category::kRead, [members_of](QueryContext& ctx) {
                              return members_of(ctx, "city", "isLocatedIn");
                            }));
  catalog.push_back(Complex("company", "People working at a given company",
                            Category::kRead, [members_of](QueryContext& ctx) {
                              return members_of(ctx, "company", "workAt");
                            }));
  catalog.push_back(Complex("university", "People who studied at a university",
                            Category::kRead, [members_of](QueryContext& ctx) {
                              return members_of(ctx, "university", "studyAt");
                            }));

  catalog.push_back(Complex(
      "friend1", "Direct friends of a person", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(std::vector<VertexId> friends, Friends(ctx, p));
         return QueryResult{friends.size()};
       }));

  catalog.push_back(Complex(
      "friend2", "Friends of friends (excluding directs)", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(std::vector<VertexId> friends, Friends(ctx, p));
         std::unordered_set<VertexId> exclude(friends.begin(), friends.end());
         exclude.insert(p);
         std::unordered_set<VertexId> fof;
         for (VertexId f : friends) {
           GDB_ASSIGN_OR_RETURN(std::vector<VertexId> ff, Friends(ctx, f));
           for (VertexId x : ff) {
             if (exclude.find(x) == exclude.end()) fof.insert(x);
           }
         }
         return QueryResult{fof.size()};
       }));

  catalog.push_back(Complex(
      "friend-tags", "Tags of content created by friends", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(std::vector<VertexId> friends, Friends(ctx, p));
         std::string has_creator = "hasCreator";
         std::string has_tag = "hasTag";
         std::unordered_set<VertexId> tags;
         for (VertexId f : friends) {
           GDB_ASSIGN_OR_RETURN(
               std::vector<VertexId> posts,
               ctx.engine->NeighborsOf(*ctx.session, f, Direction::kIn, &has_creator,
                                       ctx.cancel));
           for (VertexId post : posts) {
             GDB_ASSIGN_OR_RETURN(
                 std::vector<VertexId> post_tags,
                 ctx.engine->NeighborsOf(*ctx.session, post, Direction::kOut, &has_tag,
                                         ctx.cancel));
             tags.insert(post_tags.begin(), post_tags.end());
           }
         }
         return QueryResult{tags.size()};
       }));

  catalog.push_back(Complex(
      "add-tags", "Tag a person's post with new tags", Category::kCreate,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         std::string has_creator = "hasCreator";
         GDB_ASSIGN_OR_RETURN(
             std::vector<VertexId> posts,
             ctx.engine->NeighborsOf(*ctx.session, p, Direction::kIn, &has_creator,
                                     ctx.cancel));
         if (posts.empty()) return QueryResult{0};
         PropertyMap weight;
         weight.emplace_back("weight", PropertyValue(int64_t{1}));
         WriteBatch batch;
         for (int i = 0; i < 2; ++i) {
           VertexId tag = SampleWithLabel(*ctx.workload, "tag",
                                          10 * ctx.iteration + i);
           batch.AddEdge(posts.front(), tag, "hasTag", weight);
         }
         GDB_ASSIGN_OR_RETURN(uint64_t n, ctx.Commit(batch));
         return QueryResult{n};
       }));

  catalog.push_back(Complex(
      "friend-of-friend",
      "People up to 3 hops away, sorted by last name, top 10", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(
             query::BfsResult bfs,
             query::BreadthFirst(*ctx.engine, *ctx.session, p, 3, std::string("knows"),
                                 ctx.cancel));
         std::vector<std::pair<std::string, VertexId>> named;
         PropertyValue last;
         for (VertexId v : bfs.visited) {
           GDB_ASSIGN_OR_RETURN(
               bool has_last,
               ctx.engine->ReadVertexProperty(*ctx.session, v, "lastName",
                                              &last));
           named.emplace_back(has_last ? last.ToString() : "", v);
         }
         std::sort(named.begin(), named.end());
         uint64_t top = std::min<uint64_t>(10, named.size());
         return QueryResult{top};
       }));

  catalog.push_back(Complex(
      "triangle", "Triangles in a person's friendship neighborhood", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(std::vector<VertexId> friends, Friends(ctx, p));
         std::unordered_set<VertexId> friend_set(friends.begin(),
                                                 friends.end());
         uint64_t closed = 0;
         for (VertexId f : friends) {
           GDB_ASSIGN_OR_RETURN(std::vector<VertexId> ff, Friends(ctx, f));
           for (VertexId x : ff) {
             if (friend_set.find(x) != friend_set.end()) ++closed;
           }
         }
         return QueryResult{closed / 2};
       }));

  catalog.push_back(Complex(
      "places", "Top-3 places among friends' locations", Category::kRead,
       [](QueryContext& ctx) -> Result<QueryResult> {
         VertexId p = SampleWithLabel(*ctx.workload, "person", ctx.iteration);
         GDB_ASSIGN_OR_RETURN(std::vector<VertexId> friends, Friends(ctx, p));
         std::string located = "isLocatedIn";
         std::map<VertexId, uint64_t> counts;
         for (VertexId f : friends) {
           GDB_ASSIGN_OR_RETURN(
               std::vector<VertexId> places,
               ctx.engine->NeighborsOf(*ctx.session, f, Direction::kOut, &located,
                                       ctx.cancel));
           for (VertexId place : places) ++counts[place];
         }
         std::vector<std::pair<uint64_t, VertexId>> ranked;
         for (const auto& [place, n] : counts) ranked.emplace_back(n, place);
         std::sort(ranked.rbegin(), ranked.rend());
         return QueryResult{std::min<uint64_t>(3, ranked.size())};
       }));

  return catalog;
}

}  // namespace

const std::vector<QuerySpec>& ComplexQueryCatalog() {
  static const std::vector<QuerySpec>* catalog =
      new std::vector<QuerySpec>(BuildComplexCatalog());
  return *catalog;
}

}  // namespace core
}  // namespace gdbmicro
