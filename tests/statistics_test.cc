// GraphStatistics::Collect against the collector it replaced. The
// reference below copies every property value and sorts the copies;
// Collect sorts (type, 64-bit prefix) keys that point at the values and
// compares full values only among strings that share a prefix. The two must
// agree field for field on every generated dataset and on hand-made
// graphs built from the corners of the prefix encoding: one key mixing
// null, bool, int, double and string values, -0.0 beside +0.0, the int64
// and double extremes, and strings that share their first 8 bytes, are
// shorter than 8 bytes, hold '\0' or are empty, on vertices and edges.
// CI runs the suite under ASan and UBSan too, for the prefix encoding's
// shifts and sign flips and for the keys' pointers into the dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/datasets/generators.h"
#include "src/graph/statistics.h"

namespace gdbmicro {
namespace {

// --- Reference collector ---------------------------------------------------

int ReferenceDegreeBucket(uint64_t degree) {
  int idx = 0;
  while (degree > 0) {
    ++idx;
    degree >>= 1;
  }
  return std::min(idx, DegreeHistogram::kBuckets - 1);
}

void ReferenceAdd(DegreeHistogram* h, uint64_t degree) {
  ++h->buckets[static_cast<size_t>(ReferenceDegreeBucket(degree))];
  ++h->total;
  h->sum += degree;
  h->max = std::max(h->max, degree);
}

PropertyKeyStats ReferenceKeyStats(std::vector<PropertyValue>& values) {
  PropertyKeyStats stats;
  stats.count = values.size();
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());

  uint64_t depth = (stats.count + PropertyKeyStats::kMaxBuckets - 1) /
                   PropertyKeyStats::kMaxBuckets;
  if (depth == 0) depth = 1;

  HistogramBucket bucket;
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i]) ++j;
    bucket.count += j - i;
    ++bucket.distinct;
    ++stats.distinct;
    bucket.upper = values[j - 1];
    if (bucket.count >= depth) {
      stats.buckets.push_back(std::move(bucket));
      bucket = HistogramBucket{};
    }
    i = j;
  }
  if (bucket.count > 0) stats.buckets.push_back(std::move(bucket));
  return stats;
}

GraphStatistics ReferenceCollect(const GraphData& data) {
  GraphStatistics s;
  s.vertices = data.VertexCount();
  s.edges = data.EdgeCount();

  std::vector<uint32_t> out_deg(data.vertices.size(), 0);
  std::vector<uint32_t> in_deg(data.vertices.size(), 0);
  for (const auto& e : data.edges) {
    ++out_deg[e.src];
    ++in_deg[e.dst];
    ++s.edge_label_counts[e.label];
  }

  std::unordered_map<std::string, std::vector<PropertyValue>> vprops;
  std::unordered_map<std::string, std::vector<PropertyValue>> eprops;
  for (size_t i = 0; i < data.vertices.size(); ++i) {
    const auto& v = data.vertices[i];
    ++s.vertex_label_counts[v.label];
    uint64_t out = out_deg[i];
    uint64_t in = in_deg[i];
    ReferenceAdd(&s.degrees.out, out);
    ReferenceAdd(&s.degrees.in, in);
    ReferenceAdd(&s.degrees.both, out + in);
    ++s.degrees.vertices;
    for (const auto& [key, value] : v.properties) {
      vprops[key].push_back(value);
    }
  }
  for (const auto& e : data.edges) {
    for (const auto& [key, value] : e.properties) {
      eprops[key].push_back(value);
    }
  }
  for (auto& [key, values] : vprops) {
    s.vertex_properties.emplace(key, ReferenceKeyStats(values));
  }
  for (auto& [key, values] : eprops) {
    s.edge_properties.emplace(key, ReferenceKeyStats(values));
  }
  return s;
}

// --- Field-for-field comparison -------------------------------------------

void ExpectSameHistogram(const DegreeHistogram& got,
                         const DegreeHistogram& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.max, want.max);
}

void ExpectSameKeys(
    const std::unordered_map<std::string, PropertyKeyStats>& got,
    const std::unordered_map<std::string, PropertyKeyStats>& want,
    const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, w] : want) {
    SCOPED_TRACE("key " + key);
    auto it = got.find(key);
    ASSERT_NE(it, got.end());
    const PropertyKeyStats& g = it->second;
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.distinct, w.distinct);
    ASSERT_EQ(g.buckets.size(), w.buckets.size());
    for (size_t b = 0; b < w.buckets.size(); ++b) {
      SCOPED_TRACE(::testing::Message() << "bucket " << b);
      EXPECT_TRUE(g.buckets[b].upper == w.buckets[b].upper)
          << g.buckets[b].upper.ToString() << " vs "
          << w.buckets[b].upper.ToString();
      EXPECT_EQ(g.buckets[b].count, w.buckets[b].count);
      EXPECT_EQ(g.buckets[b].distinct, w.buckets[b].distinct);
    }
  }
}

void ExpectMatchesReference(const GraphData& data) {
  const GraphStatistics got = GraphStatistics::Collect(data);
  const GraphStatistics want = ReferenceCollect(data);
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.vertex_label_counts, want.vertex_label_counts);
  EXPECT_EQ(got.edge_label_counts, want.edge_label_counts);
  EXPECT_EQ(got.degrees.vertices, want.degrees.vertices);
  ExpectSameHistogram(got.degrees.out, want.degrees.out, "out degrees");
  ExpectSameHistogram(got.degrees.in, want.degrees.in, "in degrees");
  ExpectSameHistogram(got.degrees.both, want.degrees.both, "both degrees");
  ExpectSameKeys(got.vertex_properties, want.vertex_properties,
                 "vertex properties");
  ExpectSameKeys(got.edge_properties, want.edge_properties,
                 "edge properties");
}

// --- Hand-made values ------------------------------------------------------

/// Every corner of the prefix encoding, each type at both ends of its
/// range: strings equal in their first 8 bytes, shorter than 8, holding
/// '\0' (which the zero padding cannot tell from a shorter string) or
/// bytes above 0x7f (unsigned order), and both zeros of double.
std::vector<PropertyValue> CornerValues() {
  using L64 = std::numeric_limits<int64_t>;
  using LD = std::numeric_limits<double>;
  return {
      PropertyValue(),
      PropertyValue(false),
      PropertyValue(true),
      PropertyValue(L64::min()),
      PropertyValue(L64::min() + 1),
      PropertyValue(int64_t{-1}),
      PropertyValue(int64_t{0}),
      PropertyValue(int64_t{1}),
      PropertyValue(L64::max() - 1),
      PropertyValue(L64::max()),
      PropertyValue(-LD::infinity()),
      PropertyValue(LD::lowest()),
      PropertyValue(-1.5),
      PropertyValue(-LD::denorm_min()),
      PropertyValue(-0.0),
      PropertyValue(0.0),
      PropertyValue(LD::denorm_min()),
      PropertyValue(1.5),
      PropertyValue(LD::max()),
      PropertyValue(LD::infinity()),
      PropertyValue(std::string()),
      PropertyValue(std::string("\0", 1)),
      PropertyValue(std::string("\0\0", 2)),
      PropertyValue("a"),
      PropertyValue("ab"),
      PropertyValue(std::string("ab\0", 3)),
      PropertyValue(std::string("ab\0c", 4)),
      PropertyValue("abc"),
      PropertyValue("abcdefg"),
      PropertyValue(std::string("abcdefg\0", 8)),
      PropertyValue("abcdefgh"),
      PropertyValue(std::string("abcdefgh\0", 9)),
      PropertyValue("abcdefgha"),
      PropertyValue("abcdefghij"),
      PropertyValue("abcdefghz"),
      PropertyValue("abcdefgi"),
      PropertyValue("a\x80"),
      PropertyValue("b"),
      PropertyValue("\x7f"),
      PropertyValue("\x80"),
      PropertyValue("\xff\xff\xff\xff\xff\xff\xff\xff"),
      PropertyValue("\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
  };
}

/// `n` values drawn from CornerValues(), with repeats, in a seeded random
/// order (so equal values arrive far apart and -0.0 and +0.0 interleave).
std::vector<PropertyValue> MixedValues(size_t n, uint64_t seed) {
  const std::vector<PropertyValue> corners = CornerValues();
  std::mt19937_64 rng(seed);
  std::vector<PropertyValue> values;
  for (size_t i = 0; i < n; ++i) {
    if (i < corners.size()) {
      values.push_back(corners[i]);
      continue;
    }
    switch (rng() % 4) {
      case 0:
        values.push_back(corners[rng() % corners.size()]);
        break;
      case 1:
        values.push_back(PropertyValue(static_cast<int64_t>(rng() % 64) - 32));
        break;
      case 2:
        values.push_back(
            PropertyValue(static_cast<double>(static_cast<int>(rng() % 9)) -
                          4.0));
        break;
      default:
        values.push_back(
            PropertyValue("abcdefgh" + std::string(1, "xyz"[rng() % 3])));
        break;
    }
  }
  std::shuffle(values.begin(), values.end(), rng);
  return values;
}

/// A graph whose vertices and edges carry the key "mixed" with `n` values,
/// beside keys that only some elements carry, at shifting positions in
/// the property lists, and labels that repeat and alternate.
GraphData MixedGraph(size_t n, uint64_t seed) {
  GraphData data;
  data.name = "mixed";
  const std::vector<PropertyValue> vvalues = MixedValues(n, seed);
  const std::vector<PropertyValue> evalues = MixedValues(n, seed + 1);
  const char* const labels[] = {"a", "a", "b", "", "a", "b", "b"};
  for (size_t i = 0; i < n; ++i) {
    GraphData::Vertex v;
    v.label = labels[i % std::size(labels)];
    if (i % 3 == 1) v.properties.emplace_back("", PropertyValue(int64_t(i)));
    v.properties.emplace_back("mixed", vvalues[i]);
    if (i % 2 == 0) v.properties.emplace_back("even", PropertyValue("x"));
    data.vertices.push_back(std::move(v));
  }
  for (size_t i = 0; i < n; ++i) {
    GraphData::Edge e;
    e.src = i;
    e.dst = (i * 7 + 3) % n;
    e.label = labels[(i / 2) % std::size(labels)];
    if (i % 5 == 0) e.properties.emplace_back("w", PropertyValue(1.0));
    e.properties.emplace_back("mixed", evalues[i]);
    data.edges.push_back(std::move(e));
  }
  return data;
}

// --- Tests -----------------------------------------------------------------

TEST(StatisticsEquivalenceTest, GeneratedDatasets) {
  for (const std::string& name : datasets::AllDatasetNames()) {
    SCOPED_TRACE(name);
    datasets::GenOptions options;
    options.scale = 0.005;
    auto data = datasets::GenerateByName(name, options);
    ASSERT_TRUE(data.ok()) << data.status();
    ExpectMatchesReference(*data);
  }
}

TEST(StatisticsEquivalenceTest, EveryCornerValueOnce) {
  // Fewer values than buckets: each distinct value ends its own bucket,
  // so every upper is checked.
  const std::vector<PropertyValue> corners = CornerValues();
  ASSERT_LT(corners.size(), PropertyKeyStats::kMaxBuckets);
  GraphData data = MixedGraph(corners.size(), 1);
  ExpectMatchesReference(data);

  const GraphStatistics s = GraphStatistics::Collect(data);
  const PropertyKeyStats* mixed = s.VertexProperty("mixed");
  ASSERT_NE(mixed, nullptr);
  // -0.0 == +0.0, so the two zeros are one value.
  EXPECT_EQ(mixed->distinct, corners.size() - 1);
  EXPECT_EQ(mixed->buckets.size(), corners.size() - 1);
}

TEST(StatisticsEquivalenceTest, MixedKeysWithRepeats) {
  // Thousands of values: buckets hold many runs, and runs of strings
  // that share a prefix are long.
  for (uint64_t seed : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectMatchesReference(MixedGraph(5000, seed));
  }
}

TEST(StatisticsEquivalenceTest, SmallGraphs) {
  ExpectMatchesReference(GraphData{});
  for (size_t n : {1, 2, 3, 64, 65, 129}) {
    SCOPED_TRACE(::testing::Message() << n << " elements");
    ExpectMatchesReference(MixedGraph(n, n));
  }
}

TEST(StatisticsEquivalenceTest, DegreeBucketsAtPowersOfTwo) {
  // Vertex 0's out-degree and vertex 1's in-degree on both sides of the
  // log2 bucket boundaries.
  for (uint64_t degree : {0, 1, 2, 3, 4, 7, 8, 9, 255, 256, 257}) {
    SCOPED_TRACE(::testing::Message() << "degree " << degree);
    GraphData data;
    data.vertices.resize(2);
    for (uint64_t i = 0; i < degree; ++i) data.edges.push_back({0, 1, "e", {}});
    ExpectMatchesReference(data);
  }
}

}  // namespace
}  // namespace gdbmicro
