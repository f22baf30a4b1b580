// WAL recovery under injected storage faults.
//
// The centerpiece is the crash matrix (satellite of the PR-6 tentpole):
// log K committed batches, then simulate a crash at *every byte offset*
// of the tail — plain truncation, truncation with a torn/zeroed gash,
// and a single flipped bit — and assert that recovery always lands on
// exactly the longest valid committed prefix, reports the cut in a typed
// kCorruption tail, and never crashes or applies a partial batch.
//
// Also covered: the FaultInjector end-to-end through Wal::LogBatch, and
// the record encoding (every op kind and value type round trips, and the
// log's bytes stay fixed).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/journal.h"
#include "src/storage/wal.h"

namespace gdbmicro {
namespace {

// One recognizable batch: a vertex, an edge hanging off it, and a
// property update — exercises pending refs and every payload shape.
WriteBatch MakeBatch(int i) {
  WriteBatch batch;
  PendingVertex v = batch.AddVertex(
      "node", {{"seq", PropertyValue(static_cast<int64_t>(i))}});
  batch.AddEdge(v, v, "self", {{"weight", PropertyValue(0.5 + i)}});
  batch.SetVertexProperty(v, "touched", PropertyValue(true));
  return batch;
}

// Logs `k` batches through a fresh Wal and returns the log bytes plus the
// end offset of each commit (the valid prefix boundaries a recovery may
// land on).
struct LoggedTail {
  std::string bytes;
  std::vector<uint64_t> commit_ends;
};

LoggedTail LogBatches(int k) {
  Wal wal;
  LoggedTail out;
  for (int i = 0; i < k; ++i) {
    auto seq = wal.LogBatch(MakeBatch(i));
    EXPECT_TRUE(seq.ok());
    out.commit_ends.push_back(wal.log().UsedBytes());
  }
  out.bytes = std::string(wal.log().Bytes());
  return out;
}

// Recovers a journal holding `bytes` and returns (stats, batches seen).
struct RecoveryOutcome {
  RecoveryStats stats;
  std::vector<Wal::RecoveredBatch> batches;
};

RecoveryOutcome RecoverBytes(std::string_view bytes) {
  Journal log(1 << 16, 1);
  if (!bytes.empty()) log.Append(bytes);
  RecoveryOutcome out;
  auto stats = Wal::Recover(log, [&](const Wal::RecoveredBatch& b) {
    out.batches.push_back(b);
    return Status::OK();
  });
  EXPECT_TRUE(stats.ok());
  out.stats = *stats;
  // Truncation invariant: the journal is cut to the valid prefix, and the
  // tail status is OK exactly when nothing was cut.
  EXPECT_EQ(log.UsedBytes(), out.stats.valid_bytes);
  EXPECT_EQ(out.stats.tail.ok(), out.stats.truncated_bytes == 0);
  if (!out.stats.tail.ok()) {
    EXPECT_EQ(out.stats.tail.code(), StatusCode::kCorruption);
  }
  return out;
}

// The longest commit boundary <= `cut`, and how many commits fit.
std::pair<uint64_t, size_t> LongestValidPrefix(
    const std::vector<uint64_t>& ends, uint64_t cut) {
  uint64_t prefix = 0;
  size_t commits = 0;
  for (size_t i = 0; i < ends.size(); ++i) {
    if (ends[i] <= cut) {
      prefix = ends[i];
      commits = i + 1;
    }
  }
  return {prefix, commits};
}

// Crash shape 1: plain truncation at every byte offset of the log.
// Recovery must yield exactly the commits whose boundary survived.
TEST(WalCrashMatrixTest, TruncationAtEveryByteOffset) {
  const int kBatches = 4;
  LoggedTail tail = LogBatches(kBatches);
  ASSERT_EQ(tail.commit_ends.size(), static_cast<size_t>(kBatches));
  ASSERT_EQ(tail.commit_ends.back(), tail.bytes.size());
  for (uint64_t cut = 0; cut <= tail.bytes.size(); ++cut) {
    RecoveryOutcome out = RecoverBytes(
        std::string_view(tail.bytes).substr(0, cut));
    auto [prefix, commits] = LongestValidPrefix(tail.commit_ends, cut);
    EXPECT_EQ(out.stats.valid_bytes, prefix) << "cut at " << cut;
    EXPECT_EQ(out.stats.commits_applied, commits) << "cut at " << cut;
    EXPECT_EQ(out.stats.truncated_bytes, cut - prefix) << "cut at " << cut;
    ASSERT_EQ(out.batches.size(), commits) << "cut at " << cut;
    // Batches replay whole and in order, never partially.
    for (size_t i = 0; i < commits; ++i) {
      EXPECT_EQ(out.batches[i].sequence, i + 1);
      EXPECT_EQ(out.batches[i].ops.size(), MakeBatch(0).size());
    }
  }
}

// Crash shape 2: one bit flipped at every byte offset of the *last*
// record group. The final batch must be invalidated (its checksum no
// longer matches) and recovery must keep the first K-1 commits.
TEST(WalCrashMatrixTest, BitFlipAtEveryTailByte) {
  const int kBatches = 3;
  LoggedTail tail = LogBatches(kBatches);
  uint64_t last_start = tail.commit_ends[kBatches - 2];
  for (uint64_t pos = last_start; pos < tail.bytes.size(); ++pos) {
    std::string mangled = tail.bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x10);
    RecoveryOutcome out = RecoverBytes(mangled);
    EXPECT_EQ(out.stats.commits_applied,
              static_cast<uint64_t>(kBatches - 1))
        << "flip at " << pos;
    EXPECT_EQ(out.stats.valid_bytes, last_start) << "flip at " << pos;
    EXPECT_GT(out.stats.truncated_bytes, 0u) << "flip at " << pos;
    EXPECT_EQ(out.stats.tail.code(), StatusCode::kCorruption)
        << "flip at " << pos;
  }
}

// Crash shape 3: torn write — a truncated tail with a zeroed gash before
// the cut (the shape kTornWrite produces). Sweep the gash position.
TEST(WalCrashMatrixTest, TornTailWithZeroedGash) {
  const int kBatches = 3;
  LoggedTail tail = LogBatches(kBatches);
  uint64_t last_start = tail.commit_ends[kBatches - 2];
  // Cut mid-way into the last group, zero a window before the cut.
  uint64_t cut = last_start + (tail.bytes.size() - last_start) / 2;
  for (uint64_t gash = last_start; gash + 2 <= cut; ++gash) {
    std::string torn = tail.bytes.substr(0, cut);
    torn[gash] = '\0';
    torn[gash + 1] = '\0';
    RecoveryOutcome out = RecoverBytes(torn);
    EXPECT_EQ(out.stats.commits_applied,
              static_cast<uint64_t>(kBatches - 1))
        << "gash at " << gash;
    EXPECT_EQ(out.stats.valid_bytes, last_start) << "gash at " << gash;
  }
}

// Garbage that never held a record recovers to the empty prefix.
TEST(WalCrashMatrixTest, PureGarbageRecoversToEmpty) {
  std::string garbage = "\xff\xfe\xfdnot a log at all\x01\x02";
  RecoveryOutcome out = RecoverBytes(garbage);
  EXPECT_EQ(out.stats.commits_applied, 0u);
  EXPECT_EQ(out.stats.valid_bytes, 0u);
  EXPECT_EQ(out.stats.truncated_bytes, garbage.size());
  EXPECT_EQ(out.batches.size(), 0u);
}

TEST(WalCrashMatrixTest, EmptyLogRecoversCleanly) {
  RecoveryOutcome out = RecoverBytes("");
  EXPECT_EQ(out.stats.commits_applied, 0u);
  EXPECT_TRUE(out.stats.tail.ok());
}

// --- FaultInjector end-to-end through the Wal ------------------------------

TEST(WalFaultTest, FailedAppendAbortsCommitAndKillsDevice) {
  Wal wal;
  FaultInjector fault(FaultMode::kFailAppend, 2);
  wal.log().set_fault_injector(&fault);
  ASSERT_TRUE(wal.LogBatch(MakeBatch(0)).ok());
  auto second = wal.LogBatch(MakeBatch(1));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(wal.log().dead());
  // A dead device rejects further commits outright.
  EXPECT_EQ(wal.LogBatch(MakeBatch(2)).status().code(), StatusCode::kIOError);
  // The surviving log replays exactly the first batch.
  RecoveryOutcome out = RecoverBytes(wal.log().Bytes());
  EXPECT_EQ(out.stats.commits_applied, 1u);
  EXPECT_TRUE(out.stats.tail.ok());
}

// Short and torn writes leave a mangled tail; recovery must land on the
// last durable commit. The mangled append itself reports success — the
// device persisted a prefix and died, which the caller only observes on
// the *next* write (exactly how a real disk loses a sector on power
// loss). The exact tail shape is seed-dependent, so the assertions are
// the invariants, not byte counts.
TEST(WalFaultTest, ShortAndTornWritesRecoverToLastDurableCommit) {
  for (FaultMode mode : {FaultMode::kShortWrite, FaultMode::kTornWrite}) {
    Wal wal;
    FaultInjector fault(mode, 3, /*seed=*/99);
    wal.log().set_fault_injector(&fault);
    ASSERT_TRUE(wal.LogBatch(MakeBatch(0)).ok());
    ASSERT_TRUE(wal.LogBatch(MakeBatch(1)).ok());
    uint64_t durable_end = wal.log().UsedBytes();
    EXPECT_TRUE(wal.LogBatch(MakeBatch(2)).ok());  // silently mangled
    EXPECT_TRUE(wal.log().dead()) << FaultModeToString(mode);
    EXPECT_EQ(wal.LogBatch(MakeBatch(3)).status().code(),
              StatusCode::kIOError)
        << FaultModeToString(mode);
    RecoveryOutcome out = RecoverBytes(wal.log().Bytes());
    EXPECT_EQ(out.stats.commits_applied, 2u) << FaultModeToString(mode);
    EXPECT_EQ(out.stats.valid_bytes, durable_end) << FaultModeToString(mode);
  }
}

TEST(WalFaultTest, BitFlipIsSilentUntilRecovery) {
  Wal wal;
  FaultInjector fault(FaultMode::kBitFlip, 2, /*seed=*/7);
  wal.log().set_fault_injector(&fault);
  uint64_t first_end = 0;
  ASSERT_TRUE(wal.LogBatch(MakeBatch(0)).ok());
  first_end = wal.log().UsedBytes();
  ASSERT_TRUE(wal.LogBatch(MakeBatch(1)).ok());  // "succeeds" — flipped bit
  ASSERT_TRUE(wal.LogBatch(MakeBatch(2)).ok());  // device still alive
  EXPECT_FALSE(wal.log().dead());
  // Recovery stops at the corrupt batch: prefix semantics, so the valid
  // third batch after the mangled second one is cut too.
  RecoveryOutcome out = RecoverBytes(wal.log().Bytes());
  EXPECT_EQ(out.stats.commits_applied, 1u);
  EXPECT_EQ(out.stats.valid_bytes, first_end);
  EXPECT_EQ(out.stats.tail.code(), StatusCode::kCorruption);
}

// --- Encoding fidelity -----------------------------------------------------

// Every op kind and every property value type survives a log round trip.
TEST(WalEncodingTest, AllOpKindsAndValueTypesRoundTrip) {
  Wal wal;
  std::string long_string(128, 's');
  WriteBatch batch;
  PendingVertex v = batch.AddVertex(
      "person", {{"null", PropertyValue()},
                 {"flag", PropertyValue(true)},
                 {"count", PropertyValue(static_cast<int64_t>(-42))},
                 {"score", PropertyValue(2.75)},
                 {"name", PropertyValue(std::string("inline"))},
                 {"bio", PropertyValue(long_string)}});
  PendingEdge e = batch.AddEdge(v, VertexRef(7), "knows", {});
  batch.SetVertexProperty(VertexRef(9), "age",
                          PropertyValue(static_cast<int64_t>(33)));
  batch.SetEdgeProperty(e, "weight", PropertyValue(0.125));
  batch.RemoveVertexProperty(v, "flag");
  batch.RemoveEdgeProperty(EdgeRef(5), "weight");
  batch.RemoveEdge(e);
  batch.RemoveVertex(v);
  ASSERT_TRUE(wal.LogBatch(batch).ok());

  std::vector<Wal::RecoveredBatch> batches;
  ASSERT_TRUE(wal.Recover([&](const Wal::RecoveredBatch& b) {
                   batches.push_back(b);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(batches.size(), 1u);
  const std::vector<WriteOp>& in = batch.ops();
  const std::vector<WriteOp>& out = batches[0].ops;
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind) << "op " << i;
    EXPECT_EQ(out[i].name, in[i].name) << "op " << i;
    EXPECT_EQ(out[i].src.value, in[i].src.value) << "op " << i;
    EXPECT_EQ(out[i].src.pending, in[i].src.pending) << "op " << i;
    EXPECT_EQ(out[i].dst.value, in[i].dst.value) << "op " << i;
    EXPECT_EQ(out[i].edge.value, in[i].edge.value) << "op " << i;
    EXPECT_EQ(out[i].edge.pending, in[i].edge.pending) << "op " << i;
    EXPECT_EQ(out[i].value, in[i].value) << "op " << i;
    ASSERT_EQ(out[i].props.size(), in[i].props.size()) << "op " << i;
    for (size_t p = 0; p < in[i].props.size(); ++p) {
      EXPECT_EQ(out[i].props[p].first, in[i].props[p].first);
      EXPECT_EQ(out[i].props[p].second, in[i].props[p].second);
    }
  }
}

// The log's bytes are its format: a change to the frame layout, the op
// encoding or the property codec fails here before any recovery test.
TEST(WalEncodingTest, LogBytesAreStable) {
  Wal wal;
  ASSERT_TRUE(wal.LogBatch(MakeBatch(0)).ok());
  std::string hex;
  for (char c : wal.log().Bytes()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned char>(c) & 0xF]);
  }
  EXPECT_EQ(hex,
            "0d01dd26fef301046e6f6465010373657102001b0150e18b5902010001000473"
            "656c66010677656967687403000000000000e03f0d01334037c503010007746f"
            "756368656401010202f49af92f0103");
}

TEST(WalEncodingTest, EmptyBatchIsRejected) {
  Wal wal;
  WriteBatch empty;
  EXPECT_EQ(wal.LogBatch(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalEncodingTest, ForwardReferenceValidation) {
  WriteBatch bad;
  bad.SetVertexProperty(PendingVertex{0}, "p", PropertyValue(1));
  EXPECT_FALSE(bad.Validate().ok());  // refers to a vertex never added
  WriteBatch good;
  PendingVertex v = good.AddVertex("n", {});
  good.SetVertexProperty(v, "p", PropertyValue(1));
  EXPECT_TRUE(good.Validate().ok());
}

TEST(WalEncodingTest, SequenceNumbersAreMonotonic) {
  Wal wal;
  EXPECT_EQ(wal.LogBatch(MakeBatch(0)).value(), 1u);
  EXPECT_EQ(wal.LogBatch(MakeBatch(1)).value(), 2u);
  EXPECT_EQ(wal.LogBatch(MakeBatch(2)).value(), 3u);
}

}  // namespace
}  // namespace gdbmicro
