// Spans of the traced run.
//
// The traced run records one span around every call the driver makes
// into a layer: dataset generation, bulk load, path-index build, session
// open, governor construction, plan preparation, and one `op` span per
// operation. Spans of one operation share the operation's id and name
// their parent, so an op's self time is its span minus its children.
// Spans stay in memory and are written out as one tab-separated file
// when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kNone,  // a root span has no parent
  kGenerate,
  kBulkLoad,
  kBuildPathIndex,
  kSessionOpen,
  kGovernor,
  kPrepare,
  kOp,
};

inline const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kNone:
      return "-";
    case SpanName::kGenerate:
      return "datasets.generate";
    case SpanName::kBulkLoad:
      return "graph.bulk_load";
    case SpanName::kBuildPathIndex:
      return "graph.build_path_index";
    case SpanName::kSessionOpen:
      return "graph.session_open";
    case SpanName::kGovernor:
      return "query.governor";
    case SpanName::kPrepare:
      return "query.prepare";
    case SpanName::kOp:
      return "op";
  }
  return "?";
}

/// One span of the measured phase. Kept small: a traced pass records
/// two or three of these per operation.
struct Span {
  uint64_t id = 0;  // the operation id, shared by an op and its children
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  SpanName name = SpanName::kOp;
  SpanName parent = SpanName::kNone;
};

/// Accumulates the rendered spans of a run and writes them out at the
/// end. Rendering happens between measured phases, never inside one.
class TraceFile {
 public:
  void Add(uint64_t id, SpanName name, SpanName parent, int64_t start_ns,
           int64_t dur_ns, const std::string& attrs) {
    char head[128];
    std::snprintf(head, sizeof(head), "%llu\t%s\t%s\t%lld\t%lld\t",
                  static_cast<unsigned long long>(id), SpanNameString(name),
                  SpanNameString(parent), static_cast<long long>(start_ns),
                  static_cast<long long>(dur_ns));
    text_ += head;
    text_ += attrs;
    text_ += '\n';
  }

  /// Writes a header line plus every span to `path`; false on I/O error.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = std::fputs("id\tname\tparent\tstart_ns\tdur_ns\tattrs\n", f) >= 0 &&
              std::fwrite(text_.data(), 1, text_.size(), f) == text_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::string text_;
};

/// Result of checking one client's op spans: every op's children lie
/// inside it without overlapping, so children plus self time equal the
/// op span exactly.
struct SelfCheck {
  uint64_t ops = 0;
  uint64_t violations = 0;
};

/// Walks `spans` (only op spans and their children, each op's children
/// recorded before the op itself) and calls `on_op(op_span, self_ns)`
/// for every op span. Counts ops whose children leave the op's
/// interval, overlap each other, or belong to another op.
template <typename OnOp>
SelfCheck CheckOpSpans(const std::vector<Span>& spans, OnOp on_op) {
  SelfCheck check;
  size_t first_child = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& op = spans[i];
    if (op.name != SpanName::kOp) continue;
    ++check.ops;
    int64_t children_ns = 0;
    int64_t cursor = op.start_ns;
    bool ok = true;
    for (size_t c = first_child; c < i; ++c) {
      const Span& child = spans[c];
      ok = ok && child.id == op.id && child.parent == SpanName::kOp &&
           child.start_ns >= cursor &&
           child.start_ns + child.dur_ns <= op.start_ns + op.dur_ns;
      cursor = child.start_ns + child.dur_ns;
      children_ns += child.dur_ns;
    }
    int64_t self_ns = op.dur_ns - children_ns;
    if (!ok || self_ns < 0) ++check.violations;
    on_op(op, self_ns);
    first_child = i + 1;
  }
  return check;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
