#include "src/graph/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace gdbmicro {

namespace {

/// Bucket index of a degree: 0 for degree 0, bit_width otherwise, capped
/// at the last bucket (degrees beyond 2^30 share it).
int DegreeBucket(uint64_t degree) {
  return std::min(static_cast<int>(std::bit_width(degree)),
                  DegreeHistogram::kBuckets - 1);
}

/// Inclusive [lo, hi] degree range of bucket i (see DegreeHistogram).
std::pair<uint64_t, uint64_t> BucketRange(int i) {
  if (i == 0) return {0, 0};
  uint64_t lo = 1ULL << (i - 1);
  uint64_t hi = (1ULL << i) - 1;
  return {lo, hi};
}

/// A property value keyed for sorting in place of a copy: the index of
/// its alternative in PropertyValue's variant (null, bool, int64, double,
/// string, the order PropertyValue::operator< ranks types in), a 64-bit
/// prefix whose unsigned order is the value order within the type, and
/// the value itself. The prefix is the whole value for bool, int64 and
/// double (with -0.0 folded into +0.0, which compare equal), and the
/// first 8 bytes of a string, big-endian and zero-padded (a string's
/// order is its unsigned byte order).
struct SortKey {
  uint64_t prefix;
  const PropertyValue* value;
  uint32_t tag;
};

constexpr uint32_t kNullTag = 0, kBoolTag = 1, kIntTag = 2, kDoubleTag = 3,
                   kStringTag = 4;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

SortKey KeyOf(const PropertyValue& v) {
  if (v.is_string()) {
    const std::string& s = v.string_value();
    unsigned char head[8] = {};
    std::memcpy(head, s.data(), std::min<size_t>(s.size(), sizeof(head)));
    uint64_t prefix = 0;
    for (unsigned char c : head) prefix = prefix << 8 | c;
    return {prefix, &v, kStringTag};
  }
  if (v.is_int()) {
    return {static_cast<uint64_t>(v.int_value()) ^ kSignBit, &v, kIntTag};
  }
  if (v.is_double()) {
    double d = v.double_value();
    if (d == 0.0) d = 0.0;
    const uint64_t bits = std::bit_cast<uint64_t>(d);
    return {bits & kSignBit ? ~bits : bits | kSignBit, &v, kDoubleTag};
  }
  if (v.is_bool()) return {v.bool_value() ? 1u : 0u, &v, kBoolTag};
  return {0, &v, kNullTag};
}

/// Orders keys by (tag, prefix), then strings that share a prefix by the
/// full string.
bool KeyLess(const SortKey& a, const SortKey& b) {
  if (a.tag != b.tag) return a.tag < b.tag;
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  return a.tag == kStringTag &&
         a.value->string_value() < b.value->string_value();
}

/// Builds the equi-depth histogram for one key from its gathered keys
/// (consumed: sorted in place). Runs of equal values never split across
/// buckets, so EstimateEq's count/distinct is well-defined per bucket.
PropertyKeyStats BuildKeyStats(std::vector<SortKey>& keys) {
  PropertyKeyStats stats;
  stats.count = keys.size();
  if (keys.empty()) return stats;
  std::sort(keys.begin(), keys.end(), KeyLess);

  uint64_t depth = (stats.count + PropertyKeyStats::kMaxBuckets - 1) /
                   PropertyKeyStats::kMaxBuckets;
  if (depth == 0) depth = 1;

  HistogramBucket bucket;
  size_t i = 0;
  while (i < keys.size()) {
    // One run of equal values at a time.
    size_t j = i + 1;
    while (j < keys.size() && !KeyLess(keys[i], keys[j])) ++j;
    bucket.count += j - i;
    ++bucket.distinct;
    ++stats.distinct;
    if (bucket.count >= depth || j == keys.size()) {
      bucket.upper = *keys[j - 1].value;
      stats.buckets.push_back(std::move(bucket));
      bucket = HistogramBucket{};
    }
    i = j;
  }
  return stats;
}

}  // namespace

double PropertyKeyStats::EstimateEq(const PropertyValue& v) const {
  if (count == 0 || buckets.empty()) return 0.0;
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), v,
      [](const HistogramBucket& b, const PropertyValue& probe) {
        return b.upper < probe;
      });
  if (it == buckets.end()) return 0.0;  // beyond the observed domain
  return static_cast<double>(it->count) /
         static_cast<double>(std::max<uint64_t>(it->distinct, 1));
}

void DegreeHistogram::Add(uint64_t degree) {
  ++buckets[static_cast<size_t>(DegreeBucket(degree))];
  ++total;
  sum += degree;
  max = std::max(max, degree);
}

double DegreeHistogram::Avg() const {
  if (total == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(total);
}

double DegreeHistogram::FractionAtLeast(uint64_t k) const {
  if (total == 0) return 0.0;
  if (k == 0) return 1.0;
  int kb = DegreeBucket(k);
  double matching = 0.0;
  for (int i = kb + 1; i < kBuckets; ++i) {
    matching += static_cast<double>(buckets[static_cast<size_t>(i)]);
  }
  // Uniform spread inside k's own bucket.
  auto [lo, hi] = BucketRange(kb);
  if (k <= hi) {
    double width = static_cast<double>(hi - lo + 1);
    double covered = static_cast<double>(hi - k + 1);
    matching += static_cast<double>(buckets[static_cast<size_t>(kb)]) *
                (covered / width);
  }
  return std::min(1.0, matching / static_cast<double>(total));
}

const DegreeHistogram& DegreeStats::For(Direction dir) const {
  switch (dir) {
    case Direction::kOut:
      return out;
    case Direction::kIn:
      return in;
    case Direction::kBoth:
      return both;
  }
  return both;
}

GraphStatistics GraphStatistics::Collect(const GraphData& data) {
  GraphStatistics s;
  s.vertices = data.VertexCount();
  s.edges = data.EdgeCount();

  std::vector<uint32_t> out_deg(data.vertices.size(), 0);
  std::vector<uint32_t> in_deg(data.vertices.size(), 0);
  std::unordered_map<std::string, std::vector<SortKey>> vprops, eprops;
  for (const auto& e : data.edges) {
    ++out_deg[e.src];
    ++in_deg[e.dst];
    ++s.edge_label_counts[e.label];
    for (const auto& [key, value] : e.properties) {
      eprops[key].push_back(KeyOf(value));
    }
  }

  for (size_t i = 0; i < data.vertices.size(); ++i) {
    const auto& v = data.vertices[i];
    ++s.vertex_label_counts[v.label];
    uint64_t out = out_deg[i];
    uint64_t in = in_deg[i];
    s.degrees.out.Add(out);
    s.degrees.in.Add(in);
    s.degrees.both.Add(out + in);
    ++s.degrees.vertices;
    for (const auto& [key, value] : v.properties) {
      vprops[key].push_back(KeyOf(value));
    }
  }

  for (auto& [key, keys] : vprops) {
    s.vertex_properties.emplace(key, BuildKeyStats(keys));
  }
  for (auto& [key, keys] : eprops) {
    s.edge_properties.emplace(key, BuildKeyStats(keys));
  }
  return s;
}

uint64_t GraphStatistics::VerticesWithLabel(std::string_view label) const {
  auto it = vertex_label_counts.find(std::string(label));
  return it == vertex_label_counts.end() ? 0 : it->second;
}

uint64_t GraphStatistics::EdgesWithLabel(std::string_view label) const {
  auto it = edge_label_counts.find(std::string(label));
  return it == edge_label_counts.end() ? 0 : it->second;
}

const PropertyKeyStats* GraphStatistics::VertexProperty(
    std::string_view key) const {
  auto it = vertex_properties.find(std::string(key));
  return it == vertex_properties.end() ? nullptr : &it->second;
}

const PropertyKeyStats* GraphStatistics::EdgeProperty(
    std::string_view key) const {
  auto it = edge_properties.find(std::string(key));
  return it == edge_properties.end() ? nullptr : &it->second;
}

double GraphStatistics::AvgDegree(Direction dir) const {
  return degrees.For(dir).Avg();
}

double GraphStatistics::AvgDegree(Direction dir,
                                  std::string_view edge_label) const {
  if (vertices == 0) return 0.0;
  double labeled = static_cast<double>(EdgesWithLabel(edge_label));
  if (dir == Direction::kBoth) labeled *= 2.0;
  return labeled / static_cast<double>(vertices);
}

double GraphStatistics::FractionDegreeAtLeast(Direction dir,
                                              uint64_t k) const {
  return degrees.For(dir).FractionAtLeast(k);
}

}  // namespace gdbmicro
