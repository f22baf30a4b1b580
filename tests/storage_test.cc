// Unit tests for the storage primitives: bitmap, B+Tree, hash index,
// record file, append store, journal, LRU cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/storage/append_store.h"
#include "src/storage/bitmap.h"
#include "src/storage/btree.h"
#include "src/storage/hash_index.h"
#include "src/storage/journal.h"
#include "src/storage/lru_cache.h"
#include "src/storage/record_file.h"
#include "src/util/rng.h"

namespace gdbmicro {
namespace {

// --- Bitmap -----------------------------------------------------------------

TEST(BitmapTest, AddRemoveContains) {
  Bitmap bm;
  EXPECT_TRUE(bm.Add(5));
  EXPECT_FALSE(bm.Add(5));
  EXPECT_TRUE(bm.Contains(5));
  EXPECT_FALSE(bm.Contains(6));
  EXPECT_EQ(bm.Cardinality(), 1u);
  EXPECT_TRUE(bm.Remove(5));
  EXPECT_FALSE(bm.Remove(5));
  EXPECT_TRUE(bm.Empty());
}

TEST(BitmapTest, CrossChunkIds) {
  Bitmap bm;
  std::vector<uint64_t> ids = {0, 65535, 65536, 1 << 20, (1ULL << 33) + 7};
  for (uint64_t id : ids) bm.Add(id);
  EXPECT_EQ(bm.ToVector(), ids);
}

TEST(BitmapTest, DenseConversionRoundTrip) {
  Bitmap bm;
  // Force array -> bitset conversion (> 4096 in one chunk), then shrink.
  for (uint64_t i = 0; i < 5000; ++i) bm.Add(i);
  EXPECT_EQ(bm.Cardinality(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) EXPECT_TRUE(bm.Contains(i));
  for (uint64_t i = 0; i < 4500; ++i) bm.Remove(i);
  EXPECT_EQ(bm.Cardinality(), 500u);
  for (uint64_t i = 4500; i < 5000; ++i) EXPECT_TRUE(bm.Contains(i));
}

TEST(BitmapTest, UnionIntersection) {
  Bitmap a, b;
  for (uint64_t i = 0; i < 100; i += 2) a.Add(i);
  for (uint64_t i = 0; i < 100; i += 3) b.Add(i);
  Bitmap u = a;
  u.UnionWith(b);
  Bitmap x = a;
  x.IntersectWith(b);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(u.Contains(i), i % 2 == 0 || i % 3 == 0) << i;
    EXPECT_EQ(x.Contains(i), i % 6 == 0) << i;
  }
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm;
  Rng rng(99);
  for (int i = 0; i < 6000; ++i) bm.Add(rng.Uniform(1 << 22));
  std::string buf;
  bm.Serialize(&buf);
  size_t pos = 0;
  auto round = Bitmap::Deserialize(buf, &pos);
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(pos, buf.size());
  EXPECT_TRUE(*round == bm);
}

TEST(BitmapTest, ForEachEarlyStop) {
  Bitmap bm;
  for (uint64_t i = 0; i < 100; ++i) bm.Add(i);
  int visited = 0;
  bm.ForEach([&](uint64_t) { return ++visited < 10; });
  EXPECT_EQ(visited, 10);
}

// --- BTree ------------------------------------------------------------------

TEST(BTreeTest, InsertContainsErase) {
  BTree<uint64_t, uint64_t> tree;
  EXPECT_TRUE(tree.Insert(1, 10));
  EXPECT_FALSE(tree.Insert(1, 10));  // duplicate entry
  EXPECT_TRUE(tree.Insert(1, 11));   // multimap: same key, new value
  EXPECT_TRUE(tree.Contains(1, 10));
  EXPECT_TRUE(tree.Contains(1, 11));
  EXPECT_FALSE(tree.Contains(2, 10));
  EXPECT_EQ(tree.CountKey(1), 2u);
  EXPECT_TRUE(tree.Erase(1, 10));
  EXPECT_FALSE(tree.Erase(1, 10));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, LargeOrderedIteration) {
  BTree<uint64_t, uint64_t> tree;
  Rng rng(7);
  std::set<std::pair<uint64_t, uint64_t>> reference;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.Uniform(5000);
    uint64_t v = rng.Uniform(100);
    tree.Insert(k, v);
    reference.emplace(k, v);
  }
  EXPECT_EQ(tree.size(), reference.size());
  EXPECT_GT(tree.height(), 1);
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  tree.ScanAll([&](const uint64_t& k, const uint64_t& v) {
    scanned.emplace_back(k, v);
    return true;
  });
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  EXPECT_EQ(scanned.size(), reference.size());
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), reference.begin()));
}

TEST(BTreeTest, RangeScan) {
  BTree<uint64_t, uint64_t> tree;
  for (uint64_t k = 0; k < 1000; ++k) tree.Insert(k, k * 2);
  std::vector<uint64_t> keys;
  tree.ScanRange(100, 110, [&](const uint64_t& k, const uint64_t&) {
    keys.push_back(k);
    return true;
  });
  std::vector<uint64_t> expected;
  for (uint64_t k = 100; k <= 110; ++k) expected.push_back(k);
  EXPECT_EQ(keys, expected);
}

TEST(BTreeTest, RangeScanWithDuplicateKeysAcrossLeaves) {
  BTree<uint64_t, uint64_t> tree;
  // 300 values under one key forces the key to straddle leaves.
  for (uint64_t v = 0; v < 300; ++v) tree.Insert(42, v);
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, 0);
  EXPECT_EQ(tree.CountKey(42), 300u);
}

TEST(BTreeTest, EraseUnderRandomChurn) {
  BTree<uint64_t, uint64_t> tree;
  std::multimap<uint64_t, uint64_t> reference;
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    uint64_t k = rng.Uniform(200);
    uint64_t v = rng.Uniform(50);
    if (rng.Chance(0.6)) {
      bool inserted = tree.Insert(k, v);
      bool ref_has = false;
      auto range = reference.equal_range(k);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == v) ref_has = true;
      }
      EXPECT_EQ(inserted, !ref_has);
      if (!ref_has) reference.emplace(k, v);
    } else {
      bool erased = tree.Erase(k, v);
      bool ref_erased = false;
      auto range = reference.equal_range(k);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == v) {
          reference.erase(it);
          ref_erased = true;
          break;
        }
      }
      EXPECT_EQ(erased, ref_erased);
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
}

// --- HashIndex ----------------------------------------------------------------

TEST(HashIndexTest, PutGetErase) {
  HashIndex<uint64_t, std::string> idx;
  EXPECT_TRUE(idx.Put(1, "one"));
  EXPECT_FALSE(idx.Put(1, "uno"));  // overwrite
  ASSERT_NE(idx.Get(1), nullptr);
  EXPECT_EQ(*idx.Get(1), "uno");
  EXPECT_TRUE(idx.Erase(1));
  EXPECT_FALSE(idx.Erase(1));
  EXPECT_EQ(idx.Get(1), nullptr);
}

TEST(HashIndexTest, StringKeys) {
  HashIndex<std::string, uint64_t> idx;
  idx.Put("alpha", 1);
  idx.Put("beta", 2);
  ASSERT_NE(idx.Get("alpha"), nullptr);
  EXPECT_EQ(*idx.Get("alpha"), 1u);
  EXPECT_EQ(idx.Get("gamma"), nullptr);
}

TEST(HashIndexTest, GrowthAndTombstoneChurn) {
  HashIndex<uint64_t, uint64_t> idx;
  std::map<uint64_t, uint64_t> reference;
  Rng rng(21);
  for (int i = 0; i < 30000; ++i) {
    uint64_t k = rng.Uniform(3000);
    if (rng.Chance(0.7)) {
      idx.Put(k, k * 3);
      reference[k] = k * 3;
    } else {
      EXPECT_EQ(idx.Erase(k), reference.erase(k) > 0) << k;
    }
  }
  EXPECT_EQ(idx.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_NE(idx.Get(k), nullptr) << k;
    EXPECT_EQ(*idx.Get(k), v);
  }
  uint64_t visited = 0;
  idx.ForEach([&](const uint64_t& k, const uint64_t& v) {
    EXPECT_EQ(reference.at(k), v);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, reference.size());
}

// --- RecordFile -----------------------------------------------------------------

TEST(HashIndexTest, ResetKeepsCapacityClearShrinks) {
  HashIndex<uint64_t, uint64_t> idx;
  EXPECT_EQ(idx.MemoryBytes(), 0u);  // no slots before the first Put
  EXPECT_EQ(idx.Get(1), nullptr);
  EXPECT_FALSE(idx.Erase(1));
  for (uint64_t k = 0; k < 1000; ++k) idx.Put(k, k);
  const uint64_t grown = idx.MemoryBytes();
  idx.Reset();
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.Get(5), nullptr);
  EXPECT_EQ(idx.MemoryBytes(), grown);
  // Refilling to the same size reuses the slots instead of growing.
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(idx.Put(k + 7, k));
  EXPECT_EQ(idx.MemoryBytes(), grown);
  EXPECT_EQ(idx.size(), 1000u);
  ASSERT_NE(idx.Get(7), nullptr);
  EXPECT_EQ(*idx.Get(7), 0u);
  EXPECT_EQ(idx.Get(6), nullptr);
  idx.Clear();
  EXPECT_TRUE(idx.empty());
  EXPECT_LT(idx.MemoryBytes(), grown);
}

TEST(HashIndexTest, ResetShrinksAfterSmallFill) {
  // One large run, then a small one: the Reset after the small run gives
  // the large run's slots back instead of refilling all of them.
  HashIndex<uint64_t, uint64_t> idx;
  for (uint64_t k = 0; k < 1000; ++k) idx.Put(k, k);
  const uint64_t grown = idx.MemoryBytes();
  idx.Reset();  // the last fill used most of the slots: capacity kept
  EXPECT_EQ(idx.MemoryBytes(), grown);
  for (uint64_t k = 0; k < 10; ++k) EXPECT_TRUE(idx.Put(k, k));
  EXPECT_EQ(idx.MemoryBytes(), grown);
  idx.Reset();
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.Get(3), nullptr);
  EXPECT_LT(idx.MemoryBytes() * 8, grown);
  // The shrunk table still works, and a small table keeps its slots.
  for (uint64_t k = 0; k < 10; ++k) EXPECT_TRUE(idx.Put(k, k + 1));
  ASSERT_NE(idx.Get(9), nullptr);
  EXPECT_EQ(*idx.Get(9), 10u);
  const uint64_t small = idx.MemoryBytes();
  idx.Put(10, 11);
  idx.Reset();
  EXPECT_EQ(idx.MemoryBytes(), small);
  idx.Put(1, 1);
  idx.Reset();  // one entry in 16 slots: already at the floor
  EXPECT_EQ(idx.MemoryBytes(), small);
}

TEST(RecordFileTest, AllocateWriteRead) {
  RecordFile rf(32);
  uint64_t a = rf.Allocate();
  uint64_t b = rf.Allocate();
  EXPECT_NE(a, b);
  ASSERT_TRUE(rf.Write(a, "hello").ok());
  auto read = rf.Read(a);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->substr(0, 5), "hello");
  EXPECT_EQ(rf.LiveCount(), 2u);
}

TEST(RecordFileTest, FreeListReuse) {
  RecordFile rf(16);
  uint64_t a = rf.Allocate();
  uint64_t b = rf.Allocate();
  ASSERT_TRUE(rf.Free(a).ok());
  EXPECT_FALSE(rf.IsLive(a));
  EXPECT_FALSE(rf.Free(a).ok());  // double free
  uint64_t c = rf.Allocate();
  EXPECT_EQ(c, a);  // slot recycled
  EXPECT_EQ(rf.SlotCount(), 2u);
  (void)b;
}

TEST(RecordFileTest, PayloadTooLargeRejected) {
  RecordFile rf(16);
  uint64_t a = rf.Allocate();
  std::string big(20, 'x');
  EXPECT_FALSE(rf.Write(a, big).ok());
}

TEST(RecordFileTest, SerializeRoundTrip) {
  RecordFile rf(24);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(rf.Allocate());
  for (int i = 0; i < 100; i += 3) ASSERT_TRUE(rf.Free(ids[i]).ok());
  for (int i = 1; i < 100; i += 3) {
    ASSERT_TRUE(rf.Write(ids[i], "abc").ok());
  }
  std::string buf;
  rf.Serialize(&buf);
  size_t pos = 0;
  auto round = RecordFile::Deserialize(buf, &pos);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->LiveCount(), rf.LiveCount());
  EXPECT_EQ(round->SlotCount(), rf.SlotCount());
  for (int i = 1; i < 100; i += 3) {
    auto data = round->Read(ids[i]);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->substr(0, 3), "abc");
  }
  // Free list still works after deserialization.
  uint64_t reused = round->Allocate();
  EXPECT_LT(reused, round->SlotCount());
}

// --- AppendStore -----------------------------------------------------------------

TEST(AppendStoreTest, AppendUpdateDelete) {
  AppendStore store;
  uint64_t a = store.Append("v1");
  EXPECT_EQ(store.Read(a).value(), "v1");
  ASSERT_TRUE(store.Update(a, "version-two").ok());
  EXPECT_EQ(store.Read(a).value(), "version-two");
  uint64_t old_log = store.LogBytes();
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_FALSE(store.Read(a).ok());
  EXPECT_EQ(store.LogBytes(), old_log);  // log never shrinks on delete
  EXPECT_FALSE(store.Update(a, "zombie").ok());
}

TEST(AppendStoreTest, CompactDropsDeadVersions) {
  AppendStore store;
  uint64_t a = store.Append("aaaa");
  uint64_t b = store.Append("bbbb");
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(store.Update(a, "update").ok());
  ASSERT_TRUE(store.Delete(b).ok());
  uint64_t before = store.LogBytes();
  store.Compact();
  EXPECT_LT(store.LogBytes(), before);
  EXPECT_EQ(store.Read(a).value(), "update");
  EXPECT_FALSE(store.IsLive(b));
}

TEST(AppendStoreTest, SerializeRoundTrip) {
  AppendStore store;
  uint64_t a = store.Append("one");
  uint64_t b = store.Append("two");
  ASSERT_TRUE(store.Delete(a).ok());
  std::string buf;
  store.Serialize(&buf);
  size_t pos = 0;
  auto round = AppendStore::Deserialize(buf, &pos);
  ASSERT_TRUE(round.ok());
  EXPECT_FALSE(round->IsLive(a));
  EXPECT_EQ(round->Read(b).value(), "two");
  EXPECT_EQ(round->LiveCount(), 1u);
}

// --- Journal ---------------------------------------------------------------------

TEST(JournalTest, AppendAndRead) {
  Journal j(1024, 1);
  uint64_t off = j.Append("hello");
  EXPECT_EQ(j.Read(off, 5).value(), "hello");
  EXPECT_FALSE(j.Read(off, 100).ok());
}

TEST(JournalTest, ExtentGranularAllocation) {
  Journal j(1024, 2);
  EXPECT_EQ(j.AllocatedBytes(), 2048u);
  std::string blob(3000, 'x');
  j.Append(blob);
  EXPECT_EQ(j.UsedBytes(), 3000u);
  EXPECT_EQ(j.AllocatedBytes(), 3072u);  // grown to 3 extents
  std::string buf;
  j.Serialize(&buf);
  EXPECT_GE(buf.size(), j.AllocatedBytes());  // slack serialized too
}

// Regression: the bounds check used to be `offset + len > used_`, which
// wraps for huge len/offset and "succeeds" — reading past the extent. The
// rewritten check (`len > used_ || offset > used_ - len`) cannot overflow.
TEST(JournalTest, ReadBoundsCheckDoesNotOverflow) {
  Journal j(1024, 1);
  uint64_t off = j.Append("hello");
  uint64_t huge = std::numeric_limits<uint64_t>::max();
  EXPECT_FALSE(j.Read(off, huge).ok());            // off + huge wraps
  EXPECT_FALSE(j.Read(huge, 5).ok());              // huge + 5 wraps
  EXPECT_FALSE(j.Read(huge, huge).ok());           // both wrap
  EXPECT_FALSE(j.Read(1, j.UsedBytes()).ok());     // one past the end
  EXPECT_TRUE(j.Read(0, j.UsedBytes()).ok());      // exact extent is fine
  EXPECT_TRUE(j.Read(j.UsedBytes(), 0).ok());      // empty read at the end
}

TEST(JournalTest, Crc32cKnownVectorAndChaining) {
  // RFC 3720 test vector: crc32c of 32 zero bytes.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // Chaining a split input must equal the one-shot checksum.
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data);
  uint32_t chained = Crc32c(data.substr(9), Crc32c(data.substr(0, 9)));
  EXPECT_EQ(chained, whole);
  EXPECT_NE(Crc32c("a"), Crc32c("b"));
}

TEST(JournalTest, FramedRecordRoundTrip) {
  Journal j(1024, 1);
  j.AppendRecord(WalRecordType::kMutation, "payload-one");
  j.AppendRecord(WalRecordType::kNoop, "");
  j.AppendRecord(WalRecordType::kCommit, "seal");
  std::vector<std::pair<WalRecordType, std::string>> seen;
  auto stats = j.Recover([&](WalRecordType t, std::string_view p) {
    seen.emplace_back(t, std::string(p));
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->tail.ok());
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_EQ(stats->commits_applied, 1u);
  // kNoop frames are validated but never delivered.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, WalRecordType::kMutation);
  EXPECT_EQ(seen[0].second, "payload-one");
  EXPECT_EQ(seen[1].first, WalRecordType::kCommit);
  EXPECT_EQ(seen[1].second, "seal");
}

TEST(JournalTest, FaultInjectorIsDeterministicPerSeed) {
  std::string payload(64, 'q');
  auto run = [&](uint64_t seed) {
    FaultInjector f(FaultMode::kTornWrite, 1, seed);
    return f.Intercept(payload).bytes;
  };
  EXPECT_EQ(run(7), run(7));      // same seed, same mangling
  EXPECT_NE(run(7), run(1234));   // different seed, different mangling
}

TEST(JournalTest, FaultInjectorFiresOnceOnNthAppend) {
  FaultInjector f(FaultMode::kFailAppend, 2);
  Journal j(1024, 1);
  j.set_fault_injector(&f);
  EXPECT_TRUE(j.AppendDurable("first").ok());
  EXPECT_FALSE(f.fired());
  EXPECT_FALSE(j.AppendDurable("second").ok());  // trigger: Nth append fails
  EXPECT_TRUE(f.fired());
  EXPECT_TRUE(j.dead());
  EXPECT_FALSE(j.AppendDurable("third").ok());   // device stays dead
  EXPECT_EQ(j.UsedBytes(), 5u);                  // only "first" landed
}

TEST(JournalTest, BitFlipLeavesDeviceAliveButMangled) {
  FaultInjector f(FaultMode::kBitFlip, 1);
  Journal j(1024, 1);
  j.set_fault_injector(&f);
  std::string payload(16, 'a');
  ASSERT_TRUE(j.AppendDurable(payload).ok());
  EXPECT_FALSE(j.dead());                        // silent corruption
  EXPECT_TRUE(j.AppendDurable("more").ok());     // later writes still land
  EXPECT_NE(j.Read(0, 16).value(), payload);     // exactly one bit differs
}

TEST(JournalTest, SerializeRoundTrip) {
  Journal j(256, 1);
  uint64_t off = j.Append("data!");
  std::string buf;
  j.Serialize(&buf);
  size_t pos = 0;
  auto round = Journal::Deserialize(buf, &pos);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Read(off, 5).value(), "data!");
  EXPECT_EQ(round->AllocatedBytes(), j.AllocatedBytes());
}

// --- LruCache ---------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "a");
  cache.Put(2, "b");
  EXPECT_NE(cache.Get(1), nullptr);  // promotes 1
  cache.Put(3, "c");                 // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(LruCacheTest, StatsAndInvalidate) {
  LruCache<int, int> cache(4);
  cache.Put(1, 10);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(9), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Invalidate(1);
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(LruCacheTest, ZeroCapacityNeverStores) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_EQ(cache.Get(1), nullptr);
}

// The deployment shape the Titan-like engine uses since the QuerySession
// refactor: one LruCache per read session, concurrent sessions each
// churning their own instance (the engine shares NO cache state between
// clients). Each thread's hit/miss accounting must be exactly what a
// single-threaded client would see — and under the CI ThreadSanitizer
// build this test also proves the per-session arrangement is race-free.
TEST(LruCacheTest, PerSessionInstancesAreIndependentAcrossThreads) {
  constexpr int kClients = 4;
  constexpr int kOps = 20000;
  constexpr size_t kCapacity = 64;

  // Golden single-threaded pass over the same access pattern.
  auto churn = [](uint64_t seed, LruCache<uint64_t, uint64_t>* cache) {
    Rng rng(seed);
    for (int i = 0; i < kOps; ++i) {
      uint64_t key = rng.Uniform(256);
      if (cache->Get(key) == nullptr) cache->Put(key, key * 2);
    }
  };
  std::vector<std::pair<uint64_t, uint64_t>> golden(kClients);
  for (int c = 0; c < kClients; ++c) {
    LruCache<uint64_t, uint64_t> cache(kCapacity);
    churn(/*seed=*/c + 1, &cache);
    golden[c] = {cache.hits(), cache.misses()};
  }

  std::vector<std::unique_ptr<LruCache<uint64_t, uint64_t>>> caches;
  for (int c = 0; c < kClients; ++c) {
    caches.push_back(
        std::make_unique<LruCache<uint64_t, uint64_t>>(kCapacity));
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&churn, &caches, c] { churn(c + 1, caches[c].get()); });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(caches[c]->hits(), golden[c].first) << "client " << c;
    EXPECT_EQ(caches[c]->misses(), golden[c].second) << "client " << c;
  }
}

}  // namespace
}  // namespace gdbmicro
