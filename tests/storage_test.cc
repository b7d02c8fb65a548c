#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/env.h"

namespace gaea {
namespace {

using ::gaea::testing::PseudoRandomBytes;
using ::gaea::testing::TempDir;

// ---- buffer pool ----

TEST(BufferPoolTest, AllocateFetchPersist) {
  TempDir dir("pool");
  std::string path = dir.file("data.db");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                         BufferPool::Open(path, 4));
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->AllocatePage());
    EXPECT_EQ(guard.page_id(), 0u);
    guard.page()->WriteAt<uint64_t>(16, 0xCAFEBABEDEADBEEF);
    guard.MarkDirty();
    guard.Release();
    ASSERT_OK(pool->Flush());
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                         BufferPool::Open(path, 4));
    EXPECT_EQ(pool->PageCount(), 1u);
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->FetchPage(0));
    EXPECT_EQ(guard.page()->ReadAt<uint64_t>(16), 0xCAFEBABEDEADBEEF);
  }
}

TEST(BufferPoolTest, FetchBeyondEndFails) {
  TempDir dir("pool");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("d.db"), 4));
  EXPECT_EQ(pool->FetchPage(0).status().code(), StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  TempDir dir("pool");
  std::string path = dir.file("data.db");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(path, 2));  // tiny pool
  // Write distinct markers to 8 pages through a 2-frame pool. Guards are
  // released at the end of each iteration, so frames become evictable.
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->AllocatePage());
    EXPECT_EQ(guard.page_id(), i);
    guard.page()->WriteAt<uint32_t>(0, 1000 + i);
  }
  // Read them all back (forcing evictions + reloads).
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->FetchPage(i));
    EXPECT_EQ(guard.page()->ReadAt<uint32_t>(0), 1000 + i) << "page " << i;
  }
  EXPECT_GT(pool->misses(), 0u);
  EXPECT_GT(pool->evictions(), 0u);
}

TEST(BufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  TempDir dir("pool");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("d.db"), 2, 1));
  ASSERT_OK_AND_ASSIGN(PageGuard pinned, pool->AllocatePage());
  pinned.page()->WriteAt<uint32_t>(0, 42);
  // Churn many pages through the 2-frame shard while `pinned` stays live.
  for (int i = 0; i < 16; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->AllocatePage());
    guard.page()->WriteAt<uint32_t>(0, 7);
  }
  // The pinned frame was never recycled: its bytes are still in memory.
  EXPECT_EQ(pinned.page()->ReadAt<uint32_t>(0), 42u);
  std::vector<BufferPool::ShardStats> stats = pool->PerShardStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].pinned, 1u);
}

TEST(BufferPoolTest, GuardMoveTransfersPin) {
  TempDir dir("pool");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("d.db"), 4, 1));
  ASSERT_OK_AND_ASSIGN(PageGuard a, pool->AllocatePage());
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool->PerShardStats()[0].pinned, 1u);
  b.Release();
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(pool->PerShardStats()[0].pinned, 0u);
}

TEST(BufferPoolTest, ShardStatsPartitionTraffic) {
  TempDir dir("pool");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("d.db"), 8, 4));
  EXPECT_EQ(pool->shard_count(), 4u);
  for (int i = 0; i < 8; ++i) ASSERT_OK(pool->AllocatePage().status());
  for (uint32_t i = 0; i < 8; ++i) ASSERT_OK(pool->FetchPage(i).status());
  uint64_t hits = 0;
  for (const BufferPool::ShardStats& s : pool->PerShardStats()) hits += s.hits;
  EXPECT_EQ(hits, pool->hits());
  EXPECT_EQ(pool->hits(), 8u);  // every fetch hit its freshly allocated frame
}

TEST(BufferPoolTest, LruKeepsHotPageResident) {
  TempDir dir("pool");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("d.db"), 2));
  for (int i = 0; i < 3; ++i) ASSERT_OK(pool->AllocatePage().status());
  ASSERT_OK(pool->FetchPage(0).status());
  uint64_t hits_before = pool->hits();
  // Touch page 0 repeatedly with page 1 interleaved: 0 stays resident.
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(pool->FetchPage(0).status());
    ASSERT_OK(pool->FetchPage(1).status());
  }
  EXPECT_GE(pool->hits() - hits_before, 8u);
}

TEST(BufferPoolTest, TruncatesTrailingPartialPage) {
  // A crash mid-pwrite at EOF leaves a trailing partial page; Open drops it
  // (torn-tail rule) instead of refusing the whole file.
  TempDir dir("pool");
  std::string path = dir.file("torn.db");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                         BufferPool::Open(path));
    ASSERT_OK_AND_ASSIGN(PageGuard page, pool->AllocatePage());
    page.page()->WriteAt<uint64_t>(0, 0xfeedfacecafebeefULL);
    page.MarkDirty();
    page.Release();
    ASSERT_OK(pool->Flush());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn tail bytes";
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(path));
  EXPECT_EQ(pool->PageCount(), 1u);  // intact page kept, partial one dropped
  ASSERT_OK_AND_ASSIGN(PageGuard page, pool->FetchPage(0));
  EXPECT_EQ(page.page()->ReadAt<uint64_t>(0), 0xfeedfacecafebeefULL);
}

// ---- heap file ----

TEST(HeapFileTest, InsertReadDelete) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.db")));
  ASSERT_OK_AND_ASSIGN(Rid a, heap->Insert("alpha"));
  ASSERT_OK_AND_ASSIGN(Rid b, heap->Insert("beta"));
  EXPECT_EQ(heap->Read(a).value(), "alpha");
  EXPECT_EQ(heap->Read(b).value(), "beta");
  ASSERT_OK(heap->Delete(a));
  EXPECT_EQ(heap->Read(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(heap->Delete(a).code(), StatusCode::kNotFound);
  EXPECT_EQ(heap->Read(b).value(), "beta");
  EXPECT_EQ(heap->Count().value(), 1);
}

TEST(HeapFileTest, EmptyRecordAllowed) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.db")));
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(""));
  EXPECT_EQ(heap->Read(rid).value(), "");
}

TEST(HeapFileTest, ManySmallRecordsSpanPages) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.db")));
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid,
                         heap->Insert("record-" + std::to_string(i)));
    rids.push_back(rid);
  }
  // Multiple pages must have been used.
  std::set<uint32_t> pages;
  for (const Rid& rid : rids) pages.insert(rid.page_id);
  EXPECT_GT(pages.size(), 1u);
  for (int i = 0; i < 2000; i += 97) {
    EXPECT_EQ(heap->Read(rids[i]).value(), "record-" + std::to_string(i));
  }
  EXPECT_EQ(heap->Count().value(), 2000);
}

TEST(HeapFileTest, LargeRecordOverflowChain) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.db")));
  // ~3 pages of payload (raster-sized).
  std::string big(12000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(big));
  ASSERT_OK_AND_ASSIGN(std::string back, heap->Read(rid));
  EXPECT_EQ(back, big);
  // Interleave with small records and another big one.
  ASSERT_OK_AND_ASSIGN(Rid small, heap->Insert("tiny"));
  std::string big2(100000, 'y');
  ASSERT_OK_AND_ASSIGN(Rid rid2, heap->Insert(big2));
  EXPECT_EQ(heap->Read(small).value(), "tiny");
  EXPECT_EQ(heap->Read(rid2).value(), big2);
  EXPECT_EQ(heap->Read(rid).value(), big);
  ASSERT_OK(heap->Delete(rid));
  EXPECT_EQ(heap->Count().value(), 2);
}

TEST(HeapFileTest, ReadIntoSplitsHeaderFromBody) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.heap")));
  const size_t max_inline = HeapFile::kMaxInline;
  const size_t cap = HeapFile::kOvCapacity;
  // Inline records, then overflow chains of 1, 2 (cap ± 1 around the
  // boundary), 3 and many pages; the prefix ends inside the first chain
  // page, exactly at its end, or inside the second.
  for (size_t size : {size_t{8}, size_t{100}, max_inline, max_inline + 1,
                      cap - 1, cap, cap + 1, 2 * cap + 1,
                      size_t{3 * kPageSize + 5}, size_t{1} << 20,
                      size_t{3} << 20}) {
    std::string record = PseudoRandomBytes(size, size);
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(record));
    for (size_t prefix_len : {size_t{0}, size_t{8}, cap, cap + 5}) {
      if (prefix_len > size) continue;
      std::string prefix(prefix_len, '\0');
      std::string out = "kept";
      ASSERT_OK(heap->ReadInto(rid, prefix, &out));
      EXPECT_EQ(prefix, record.substr(0, prefix_len)) << size;
      EXPECT_EQ(out, "kept" + record.substr(prefix_len)) << size;
    }
  }
  ASSERT_OK_AND_ASSIGN(Rid tiny, heap->Insert("abc"));
  char head[8];
  std::string out;
  EXPECT_EQ(heap->ReadInto(tiny, head, &out).code(), StatusCode::kCorruption);
}

TEST(HeapFileTest, ForEachVisitsLiveRecordsInOrder) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.db")));
  ASSERT_OK(heap->Insert("a").status());
  ASSERT_OK_AND_ASSIGN(Rid b, heap->Insert("b"));
  ASSERT_OK(heap->Insert(std::string(9000, 'z')).status());
  ASSERT_OK(heap->Delete(b));
  std::vector<std::string> seen;
  ASSERT_OK(heap->ForEach([&seen](const Rid&, const std::string& rec) {
    seen.push_back(rec.size() > 10 ? "big" : rec);
    return Status::OK();
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "big"}));
}

TEST(HeapFileTest, PersistsAcrossReopen) {
  TempDir dir("heap");
  std::string path = dir.file("h.db");
  Rid rid;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
    ASSERT_OK_AND_ASSIGN(rid, heap->Insert("durable"));
    ASSERT_OK(heap->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
  EXPECT_EQ(heap->Read(rid).value(), "durable");
}

// ---- overflow chains ----

TEST(HeapFileTest, ChainPagesNeverEnterThePool) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.heap"), /*pool_capacity=*/4));
  ASSERT_OK_AND_ASSIGN(Rid small, heap->Insert("hot chip"));
  // Fill the small record's page, so the large record's head lands on
  // another data page and the reads below cannot pin the hot one.
  ASSERT_OK(heap->Insert(std::string(HeapFile::kMaxInline - 16, 'f')).status());
  ASSERT_OK_AND_ASSIGN(Rid big, heap->Insert(PseudoRandomBytes(1 << 20, 1)));
  ASSERT_NE(big.page_id, small.page_id);
  ASSERT_OK(heap->Flush());
  EXPECT_EQ(heap->Read(small).value(), "hot chip");
  ASSERT_OK(heap->Read(big).status());
  // 257 chain pages went past a 4-frame pool; the small record's page is
  // still resident.
  uint64_t misses = heap->pool()->misses();
  EXPECT_EQ(heap->Read(small).value(), "hot chip");
  EXPECT_EQ(heap->pool()->misses(), misses);
  size_t resident = 0;
  for (const BufferPool::ShardStats& shard : heap->pool()->PerShardStats()) {
    resident += shard.resident;
  }
  EXPECT_EQ(resident, 2u);  // the two data pages
  HeapFile::ChainStats chains = heap->chain_stats();
  EXPECT_EQ(chains.writes, 1u);
  EXPECT_EQ(chains.write_pages, 257u);
  EXPECT_EQ(chains.reads, 1u);
  EXPECT_EQ(chains.read_pages, 257u);
  // A full scan skips the chain's pages without caching them either.
  ASSERT_OK(heap->ForEach(
      [](const Rid&, const std::string&) { return Status::OK(); }));
  EXPECT_EQ(heap->pool()->misses(), misses);
}

// Writes `value` over the u32 at `offset` of the file at `path`.
void PatchU32(const std::string& path, uint64_t offset, uint32_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), 4);
}

TEST(HeapFileTest, ChainTruncatedByTheFileIsCorruption) {
  TempDir dir("heap");
  std::string path = dir.file("h.heap");
  Rid small;
  Rid big;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
    ASSERT_OK_AND_ASSIGN(small, heap->Insert("a"));
    ASSERT_OK_AND_ASSIGN(big, heap->Insert(std::string(10 * kPageSize, 'b')));
    ASSERT_OK(heap->Flush());
  }
  // Data page 0 holds both slots; the chain is pages 1..11. Cut it mid-way.
  ASSERT_OK(Env::Default()->Truncate(path, 6 * kPageSize));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
  EXPECT_EQ(heap->Read(big).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(heap->Read(small).value(), "a");
  int readable = 0;
  ASSERT_OK(heap->ForEachReadable([&readable](const Rid&, const std::string&) {
    ++readable;
    return Status::OK();
  }));
  EXPECT_EQ(readable, 1);
}

TEST(HeapFileTest, CorruptChainLengthRefusedBeforeAllocating) {
  TempDir dir("heap");
  std::string path = dir.file("h.heap");
  Rid big;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
    ASSERT_OK(heap->Insert("a").status());
    ASSERT_OK_AND_ASSIGN(big, heap->Insert(std::string(3 * kPageSize, 'b')));
    ASSERT_OK(heap->Flush());
  }
  ASSERT_EQ(big.page_id, 0u);
  // Slot 1's cell offset, then the head's total length 4 bytes into its cell.
  std::ifstream in(path, std::ios::binary);
  uint16_t cell = 0;
  in.seekg(HeapFile::kSlotArrayOff + big.slot * HeapFile::kSlotBytes);
  in.read(reinterpret_cast<char*>(&cell), 2);
  in.close();
  PatchU32(path, cell + 4, 0xFFFFFFF0u);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap, HeapFile::Open(path));
  std::string out;
  EXPECT_EQ(heap->ReadInto(big, {}, &out).code(), StatusCode::kCorruption);
  EXPECT_LT(out.capacity(), size_t{1} << 20);
  EXPECT_EQ(heap->chain_stats().reads, 0u);
}

TEST(HeapFileTest, ChainWriteOutOfSpaceFailsOnlyThatInsert) {
  TempDir dir("heap");
  std::string path = dir.file("h.heap");
  FaultInjectingEnv env(Env::Default());
  std::vector<std::pair<Rid, std::string>> stored;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                         HeapFile::Open(path, 16, &env));
    FaultInjectingEnv::FaultPlan plan;
    plan.byte_budget = 256 * 1024;
    env.set_plan(plan);
    ASSERT_OK_AND_ASSIGN(Rid a, heap->Insert("before"));
    stored.emplace_back(a, "before");
    StatusOr<Rid> big = heap->Insert(PseudoRandomBytes(1 << 20, 7));
    EXPECT_EQ(big.status().code(), StatusCode::kIOError);
    // The store goes on: smaller chains and inline records still fit.
    std::string mid = PseudoRandomBytes(20000, 8);
    ASSERT_OK_AND_ASSIGN(Rid m, heap->Insert(mid));
    stored.emplace_back(m, mid);
    ASSERT_OK_AND_ASSIGN(Rid b, heap->Insert("after"));
    stored.emplace_back(b, "after");
    ASSERT_OK(heap->Flush());
    for (const auto& [rid, record] : stored) {
      EXPECT_EQ(heap->Read(rid).value(), record);
    }
    EXPECT_EQ(heap->Count().value(), 3);
  }
  env.set_plan(FaultInjectingEnv::FaultPlan());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(path, 16, &env));
  EXPECT_EQ(heap->Count().value(), 3);
  for (const auto& [rid, record] : stored) {
    EXPECT_EQ(heap->Read(rid).value(), record);
  }
}

// Readers of large and small records race an inserter and a flusher; run
// under TSan (GAEA_SANITIZE=thread) this checks the chain I/O's locking.
TEST(HeapFileTest, ConcurrentChainReadsInsertsAndFlushes) {
  TempDir dir("heap");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.file("h.heap"), /*pool_capacity=*/8));
  std::vector<std::pair<Rid, std::string>> seeded;
  for (int i = 0; i < 8; ++i) {
    std::string record = PseudoRandomBytes(i % 2 == 0 ? 100 : 70000 + i, i);
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(record));
    seeded.emplace_back(rid, std::move(record));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      for (int n = 0; !stop.load(); ++n) {
        const auto& [rid, record] = seeded[(n + r) % seeded.size()];
        StatusOr<std::string> got = heap->Read(rid);
        if (!got.ok() || *got != record) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      if (!heap->Flush().ok()) failures.fetch_add(1);
    }
  });
  for (int i = 0; i < 40; ++i) {
    std::string record = PseudoRandomBytes(i % 3 == 0 ? 50 : 9000 * i, 100 + i);
    StatusOr<Rid> rid = heap->Insert(record);
    ASSERT_OK(rid.status());
    EXPECT_EQ(heap->Read(*rid).value(), record);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(heap->Count().value(), 48);
}

// ---- B+tree ----

TEST(BTreeTest, InsertLookupDelete) {
  TempDir dir("btree");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree,
                       BTree::Open(dir.file("t.idx")));
  ASSERT_OK(tree->Insert(10, 100));
  ASSERT_OK(tree->Insert(20, 200));
  ASSERT_OK(tree->Insert(10, 101));  // duplicate key, distinct value
  EXPECT_EQ(tree->Lookup(10).value(), (std::vector<uint64_t>{100, 101}));
  EXPECT_EQ(tree->LookupFirst(20).value(), 200u);
  EXPECT_EQ(tree->LookupFirst(30).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Insert(10, 100).code(), StatusCode::kAlreadyExists);
  ASSERT_OK(tree->Delete(10, 100));
  EXPECT_EQ(tree->Lookup(10).value(), (std::vector<uint64_t>{101}));
  EXPECT_EQ(tree->Delete(10, 100).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Count(), 2);
}

TEST(BTreeTest, ScanRange) {
  TempDir dir("btree");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree,
                       BTree::Open(dir.file("t.idx")));
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_OK(tree->Insert(k, static_cast<uint64_t>(k * 10)));
  }
  std::vector<int64_t> keys;
  ASSERT_OK(tree->Scan(25, 30, [&keys](int64_t k, uint64_t v) {
    EXPECT_EQ(v, static_cast<uint64_t>(k * 10));
    keys.push_back(k);
    return Status::OK();
  }));
  EXPECT_EQ(keys, (std::vector<int64_t>{25, 26, 27, 28, 29, 30}));
  // Empty and inverted ranges.
  keys.clear();
  ASSERT_OK(tree->Scan(200, 300, [&keys](int64_t k, uint64_t) {
    keys.push_back(k);
    return Status::OK();
  }));
  EXPECT_TRUE(keys.empty());
  ASSERT_OK(tree->Scan(30, 25, [&keys](int64_t k, uint64_t) {
    keys.push_back(k);
    return Status::OK();
  }));
  EXPECT_TRUE(keys.empty());
}

TEST(BTreeTest, NegativeKeys) {
  TempDir dir("btree");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree,
                       BTree::Open(dir.file("t.idx")));
  ASSERT_OK(tree->Insert(-5, 1));
  ASSERT_OK(tree->Insert(0, 2));
  ASSERT_OK(tree->Insert(5, 3));
  std::vector<int64_t> keys;
  ASSERT_OK(tree->Scan(-10, 10, [&keys](int64_t k, uint64_t) {
    keys.push_back(k);
    return Status::OK();
  }));
  EXPECT_EQ(keys, (std::vector<int64_t>{-5, 0, 5}));
}

class BTreeVolumeTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeVolumeTest, SplitsPreserveAllEntries) {
  int n = GetParam();
  TempDir dir("btree");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree,
                       BTree::Open(dir.file("t.idx"), 64));
  // Deterministic shuffled insert order.
  std::vector<int64_t> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = (static_cast<int64_t>(i) * 7919) % n;
  std::set<int64_t> unique(keys.begin(), keys.end());
  for (int64_t k : unique) {
    ASSERT_OK(tree->Insert(k, static_cast<uint64_t>(k + 1)));
  }
  EXPECT_EQ(tree->Count(), static_cast<int64_t>(unique.size()));
  // Full scan sees every key in order.
  int64_t prev = -1;
  int64_t seen = 0;
  ASSERT_OK(tree->Scan(INT64_MIN, INT64_MAX,
                       [&](int64_t k, uint64_t v) -> Status {
                         EXPECT_GT(k, prev);
                         EXPECT_EQ(v, static_cast<uint64_t>(k + 1));
                         prev = k;
                         ++seen;
                         return Status::OK();
                       }));
  EXPECT_EQ(seen, static_cast<int64_t>(unique.size()));
  // Point lookups.
  for (int64_t k = 0; k < n; k += std::max(1, n / 37)) {
    EXPECT_EQ(tree->LookupFirst(k).value(), static_cast<uint64_t>(k + 1));
  }
  if (n >= 2000) {
    EXPECT_GE(tree->Height().value(), 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Volumes, BTreeVolumeTest,
                         ::testing::Values(10, 255, 256, 1000, 5000));

class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzzTest, RandomOpsAgreeWithMultimap) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  TempDir dir("btreefuzz");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree,
                       BTree::Open(dir.file("t.idx"), 32));
  std::multimap<int64_t, uint64_t> reference;

  for (int op = 0; op < 3000; ++op) {
    uint64_t roll = next() % 100;
    int64_t key = static_cast<int64_t>(next() % 500) - 250;
    if (roll < 60 || reference.empty()) {
      uint64_t value = next() % 1000;
      Status s = tree->Insert(key, value);
      bool duplicate = false;
      auto [lo, hi] = reference.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == value) duplicate = true;
      }
      if (duplicate) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_OK(s);
        reference.emplace(key, value);
      }
    } else if (roll < 80) {
      // Delete a random existing entry (or a missing one).
      if (next() % 4 == 0) {
        uint64_t missing_value = 5000 + next() % 100;
        EXPECT_EQ(tree->Delete(key, missing_value).code(),
                  StatusCode::kNotFound);
      } else {
        size_t pick = next() % reference.size();
        auto it = reference.begin();
        std::advance(it, pick);
        ASSERT_OK(tree->Delete(it->first, it->second));
        reference.erase(it);
      }
    } else {
      // Range scan cross-check.
      int64_t lo = static_cast<int64_t>(next() % 600) - 300;
      int64_t hi = lo + static_cast<int64_t>(next() % 100);
      std::vector<std::pair<int64_t, uint64_t>> expected;
      for (auto it = reference.lower_bound(lo);
           it != reference.end() && it->first <= hi; ++it) {
        expected.emplace_back(it->first, it->second);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<std::pair<int64_t, uint64_t>> actual;
      ASSERT_OK(tree->Scan(lo, hi, [&actual](int64_t k, uint64_t v) {
        actual.emplace_back(k, v);
        return Status::OK();
      }));
      ASSERT_EQ(actual, expected) << "scan [" << lo << "," << hi << "]";
    }
    ASSERT_EQ(tree->Count(), static_cast<int64_t>(reference.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest, ::testing::Values(1, 2, 3));

TEST(BTreeTest, PersistsAcrossReopen) {
  TempDir dir("btree");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree, BTree::Open(path));
    for (int64_t k = 0; k < 600; ++k) ASSERT_OK(tree->Insert(k, k));
    ASSERT_OK(tree->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree, BTree::Open(path));
  EXPECT_EQ(tree->Count(), 600);
  EXPECT_EQ(tree->LookupFirst(599).value(), 599u);
}

// ---- object store ----

TEST(ObjectStoreTest, PutGetDelete) {
  TempDir dir("store");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(dir.file("obj")));
  ASSERT_OK_AND_ASSIGN(Oid a, store->Put("payload-a"));
  ASSERT_OK_AND_ASSIGN(Oid b, store->Put("payload-b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(store->Get(a).value(), "payload-a");
  EXPECT_TRUE(store->Contains(b).value());
  ASSERT_OK(store->Delete(a));
  EXPECT_FALSE(store->Contains(a).value());
  EXPECT_EQ(store->Get(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store->Count(), 1);
}

TEST(ObjectStoreTest, OidsNeverReused) {
  TempDir dir("store");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(dir.file("obj")));
  ASSERT_OK_AND_ASSIGN(Oid a, store->Put("x"));
  ASSERT_OK(store->Delete(a));
  ASSERT_OK_AND_ASSIGN(Oid b, store->Put("y"));
  EXPECT_GT(b, a);
}

TEST(ObjectStoreTest, PutWithOidValidation) {
  TempDir dir("store");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(dir.file("obj")));
  EXPECT_EQ(store->PutWithOid(kInvalidOid, "x").code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(store->PutWithOid(42, "x"));
  EXPECT_EQ(store->PutWithOid(42, "y").code(), StatusCode::kAlreadyExists);
  // Next auto OID skips past.
  ASSERT_OK_AND_ASSIGN(Oid next, store->Put("z"));
  EXPECT_EQ(next, 43u);
}

TEST(ObjectStoreTest, RecoversNextOidAfterReopen) {
  TempDir dir("store");
  std::string prefix = dir.file("obj");
  Oid last;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                         ObjectStore::Open(prefix));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK_AND_ASSIGN(last, store->Put("v" + std::to_string(i)));
    }
    ASSERT_OK(store->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(prefix));
  EXPECT_EQ(store->next_oid(), last + 1);
  EXPECT_EQ(store->Get(last).value(), "v9");
  ASSERT_OK_AND_ASSIGN(Oid fresh, store->Put("new"));
  EXPECT_EQ(fresh, last + 1);
}

TEST(ObjectStoreTest, ForEachInOidOrder) {
  TempDir dir("store");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(dir.file("obj")));
  ASSERT_OK(store->PutWithOid(5, "five"));
  ASSERT_OK(store->PutWithOid(2, "two"));
  ASSERT_OK(store->PutWithOid(9, "nine"));
  std::vector<Oid> order;
  ASSERT_OK(store->ForEach([&order](Oid oid, const std::string&) {
    order.push_back(oid);
    return Status::OK();
  }));
  EXPECT_EQ(order, (std::vector<Oid>{2, 5, 9}));
}

TEST(ObjectStoreTest, LargePayloadRoundTrip) {
  TempDir dir("store");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(dir.file("obj")));
  std::string raster(1 << 20, '\0');  // 1 MiB
  for (size_t i = 0; i < raster.size(); ++i) {
    raster[i] = static_cast<char>(i * 2654435761u % 256);
  }
  ASSERT_OK_AND_ASSIGN(Oid oid, store->Put(raster));
  EXPECT_EQ(store->Get(oid).value(), raster);
}

// ---- journal ----

TEST(JournalTest, AppendAndReplay) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("one"));
    ASSERT_OK(j->Append("two"));
    ASSERT_OK(j->Append(""));
    ASSERT_OK(j->Sync());
    EXPECT_EQ(j->appended(), 3);
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"one", "two", ""}));
}

TEST(JournalTest, ToleratesTornTail) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("intact"));
    ASSERT_OK(j->Append("will-be-torn"));
  }
  // Truncate the file mid-record (crash simulation).
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"intact"}));
}

TEST(JournalTest, DetectsMidFileCorruption) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("aaaaaaaaaa"));
    ASSERT_OK(j->Append("bbbbbbbbbb"));
  }
  // Flip a payload byte of the FIRST record.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('X');
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  Status replay = j->Replay([](const std::string&) { return Status::OK(); });
  EXPECT_EQ(replay.code(), StatusCode::kCorruption);
}

TEST(JournalTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32Portable("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Portable("", 0), 0u);
}

// The reference: the one-byte-per-step table loop every stored and
// in-flight checksum was once computed with.
uint32_t BytewiseCrc32(const void* data, size_t size) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Both paths: Crc32 as dispatched on this CPU (the carry-less-multiply
  // fold from 64 bytes on, where the CPU has it) and the portable
  // slicing-by-16 loop, which Crc32 alone would no longer reach above 63
  // bytes on such a CPU. Lengths 0..4099 cover every tail length of the
  // 16-byte main loops and the fold's 64-byte cutoff many times over;
  // offsets 0..7 cover every misalignment of the input.
  std::string buf = PseudoRandomBytes(4099 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4099; ++len) {
      const char* p = buf.data() + offset;
      const uint32_t want = BytewiseCrc32(p, len);
      ASSERT_EQ(Crc32(p, len), want)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32Portable(p, len), want)
          << "offset " << offset << " length " << len;
    }
  }
  std::string mib = PseudoRandomBytes(1 << 20, 2);
  const uint32_t mib_crc = BytewiseCrc32(mib.data(), mib.size());
  EXPECT_EQ(Crc32(mib.data(), mib.size()), mib_crc);
  EXPECT_EQ(Crc32Portable(mib.data(), mib.size()), mib_crc);
  // All-ones input exercises the high table rows that random data rarely
  // lines up, and the fold's carries with every bit set.
  std::string ones(4096, '\xFF');
  const uint32_t ones_crc = BytewiseCrc32(ones.data(), ones.size());
  EXPECT_EQ(Crc32(ones.data(), ones.size()), ones_crc);
  EXPECT_EQ(Crc32Portable(ones.data(), ones.size()), ones_crc);
}

// A 1 MiB record (a raster-sized payload, checksummed by the fold where the
// CPU has it) replays intact, and a one-bit flip inside it is caught.
TEST(JournalTest, MebibyteRecordReplaysAndDetectsABitFlip) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  const std::string big = PseudoRandomBytes(1 << 20, 3);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append(big));
    ASSERT_OK(j->Append("after"));
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    std::vector<std::string> records;
    ASSERT_OK(j->Replay([&records](const std::string& r) {
      records.push_back(r);
      return Status::OK();
    }));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0] == big);
    EXPECT_EQ(records[1], "after");
  }
  // Flip one bit in the middle of the big record's payload (past its 8-byte
  // frame header); the record after it makes this corruption, not a torn
  // tail.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at = 8 + (1 << 19);
    f.seekg(at);
    char c = 0;
    f.get(c);
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x10));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  Status replay = j->Replay([](const std::string&) { return Status::OK(); });
  EXPECT_EQ(replay.code(), StatusCode::kCorruption);
}

TEST(JournalTest, TornTailIsTruncatedSoAppendsStayReplayable) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("intact"));
    ASSERT_OK(j->Append("will-be-torn"));
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  {
    // Replay drops the partial tail *and* truncates it away...
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Replay([](const std::string&) { return Status::OK(); }));
    EXPECT_EQ(std::filesystem::file_size(path), 8 + std::string("intact").size());
    // ...so a record appended by the reopened handle lands on a clean log
    // instead of behind mid-file garbage.
    ASSERT_OK(j->Append("after-crash"));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"intact", "after-crash"}));
}

TEST(JournalTest, CorruptFinalRecordTreatedAsTornTail) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("keep-me"));
    ASSERT_OK(j->Append("flip-me"));
  }
  {
    // Flip a payload byte of the LAST record (crash mid-append of a frame
    // whose length header made it to disk but whose payload did not).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path)) - 1);
    f.put('X');
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"keep-me"}));
  EXPECT_EQ(std::filesystem::file_size(path),
            8 + std::string("keep-me").size());
}

TEST(JournalTest, MidFileCorruptionLeavesFileUntouched) {
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    ASSERT_OK(j->Append("aaaaaaaaaa"));
    ASSERT_OK(j->Append("bbbbbbbbbb"));
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('X');
  }
  auto size_before = std::filesystem::file_size(path);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  Status replay = j->Replay([](const std::string&) { return Status::OK(); });
  EXPECT_EQ(replay.code(), StatusCode::kCorruption);
  // Only torn *tails* are repaired; real corruption is preserved as
  // evidence and keeps failing loudly.
  EXPECT_EQ(std::filesystem::file_size(path), size_before);
}

TEST(JournalTest, StreamingReplayHandlesRecordsSpanningChunks) {
  // Records larger than the 64 KiB replay chunk must reassemble, and a
  // pile of small records must stream through without slurping the file.
  TempDir dir("journal");
  std::string path = dir.file("j.log");
  std::vector<std::string> expected;
  expected.push_back(std::string(300 * 1024, 'x'));
  for (int i = 0; i < 200; ++i) {
    expected.push_back("record-" + std::to_string(i) +
                       std::string(1000, static_cast<char>('a' + i % 26)));
  }
  expected.push_back(std::string(70 * 1024, 'y'));
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
    for (const std::string& r : expected) ASSERT_OK(j->Append(r));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, expected);
}

TEST(JournalTest, ReplayCallbackErrorPropagates) {
  TempDir dir("journal");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j,
                       Journal::Open(dir.file("j.log")));
  ASSERT_OK(j->Append("x"));
  Status replay = j->Replay(
      [](const std::string&) { return Status::Internal("boom"); });
  EXPECT_EQ(replay.code(), StatusCode::kInternal);
}

// ---- fault injection (docs/ROBUSTNESS.md) ----

TEST(FaultInjectionTest, JournalAppendLoopsOverShortWrites) {
  TempDir dir("fault");
  FaultInjectingEnv env(Env::Default());
  FaultInjectingEnv::FaultPlan plan;
  plan.short_write_every = 2;  // every other append op is cut in half
  env.set_plan(plan);
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path, &env));
    ASSERT_OK(j->Append(std::string(3000, 'a')));
    ASSERT_OK(j->Append(std::string(5000, 'b')));
  }
  // Fault-free reopen: both records replay whole.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path));
  std::vector<size_t> sizes;
  ASSERT_OK(j->Replay([&sizes](const std::string& r) {
    sizes.push_back(r.size());
    return Status::OK();
  }));
  EXPECT_EQ(sizes, (std::vector<size_t>{3000, 5000}));
}

TEST(FaultInjectionTest, JournalEnospcReportsOffsetAndHeals) {
  TempDir dir("fault");
  FaultInjectingEnv env(Env::Default());
  std::string path = dir.file("j.log");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path, &env));
  ASSERT_OK(j->Append("fits"));

  env.Reset();  // byte accounting starts fresh for the budget below
  FaultInjectingEnv::FaultPlan plan;
  plan.byte_budget = 10;  // smaller than any frame: the next append hits ENOSPC
  env.set_plan(plan);
  Status full = j->Append("does-not-fit");
  ASSERT_EQ(full.code(), StatusCode::kIOError);
  // The error names the byte offset reached and the injected ENOSPC.
  EXPECT_NE(full.message().find("after 0 of"), std::string::npos)
      << full.ToString();
  EXPECT_NE(full.message().find("No space left on device"), std::string::npos)
      << full.ToString();

  // Space freed: the healed journal accepts appends again, and replay sees
  // no torn frame between them.
  env.set_plan(FaultInjectingEnv::FaultPlan());
  ASSERT_OK(j->Append("after-heal"));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"fits", "after-heal"}));
}

TEST(FaultInjectionTest, JournalSyncFailureSurfaces) {
  TempDir dir("fault");
  FaultInjectingEnv env(Env::Default());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j,
                       Journal::Open(dir.file("j.log"), &env));
  ASSERT_OK(j->Append("record"));
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_sync = true;
  env.set_plan(plan);
  EXPECT_EQ(j->Sync().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, CrashTearsJournalTailAndReplayTruncatesIt) {
  TempDir dir("fault");
  FaultInjectingEnv env(Env::Default());
  std::string path = dir.file("j.log");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path, &env));
    ASSERT_OK(j->Append("one"));
    ASSERT_OK(j->Append("two"));
    FaultInjectingEnv::FaultPlan plan;
    plan.crash_after_writes = env.write_ops() + 1;
    plan.torn_tail = true;
    env.set_plan(plan);
    Status torn = j->Append("torn-by-the-crash");
    EXPECT_EQ(torn.code(), StatusCode::kIOError);
    EXPECT_TRUE(env.crashed());
    // The dead process cannot write — not even the in-place heal.
    EXPECT_EQ(j->Append("post-crash").code(), StatusCode::kFailedPrecondition);
  }
  env.Reset();
  env.set_plan(FaultInjectingEnv::FaultPlan());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> j, Journal::Open(path, &env));
  std::vector<std::string> records;
  ASSERT_OK(j->Replay([&records](const std::string& r) {
    records.push_back(r);
    return Status::OK();
  }));
  EXPECT_EQ(records, (std::vector<std::string>{"one", "two"}));
  // The torn frame was truncated away, so the log keeps growing cleanly.
  ASSERT_OK(j->Append("three"));
}

TEST(FaultInjectionTest, ObjectStoreScrubsIndexEntriesForLostHeapPages) {
  TempDir dir("fault");
  std::string prefix = dir.file("store");
  std::vector<Oid> oids;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                         ObjectStore::Open(prefix));
    // Enough records to span several heap pages.
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK_AND_ASSIGN(Oid oid, store->Put(std::string(400, 'a' + i % 26)));
      oids.push_back(oid);
    }
    ASSERT_OK(store->Flush());
  }
  // Crash simulation: the index reached disk, the heap's tail pages did not.
  ASSERT_OK_AND_ASSIGN(uint64_t heap_size,
                       Env::Default()->FileSize(prefix + ".heap"));
  ASSERT_GT(heap_size, kPageSize);
  ASSERT_OK(Env::Default()->Truncate(prefix + ".heap", kPageSize));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(prefix));
  EXPECT_GT(store->scrubbed_entries(), 0u);
  size_t stored = 0;
  for (Oid oid : oids) {
    if (!store->Contains(oid).value()) continue;
    ++stored;
    ASSERT_OK(store->Get(oid));  // surviving entries read clean
  }
  EXPECT_EQ(stored + store->scrubbed_entries(), oids.size());
  // The bare store only knows surviving OIDs; recovery (the kernel's task
  // log) raises the allocator floor so scrubbed OIDs are never reissued.
  store->EnsureNextOidAtLeast(oids.back() + 1);
  ASSERT_OK_AND_ASSIGN(Oid fresh, store->Put("fresh"));
  EXPECT_GT(fresh, oids.back());
}

TEST(FaultInjectionTest, ObjectStoreRebuildsTornOidIndexFromHeap) {
  TempDir dir("fault");
  std::string prefix = dir.file("store");
  std::vector<Oid> oids;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                         ObjectStore::Open(prefix));
    for (int i = 0; i < 25; ++i) {
      ASSERT_OK_AND_ASSIGN(Oid oid, store->Put("payload-" + std::to_string(i)));
      oids.push_back(oid);
    }
    ASSERT_OK(store->Flush());
  }
  // Crash simulation: the heap reached disk, the index's node pages did not
  // (the meta page references a root that no longer exists).
  ASSERT_OK(Env::Default()->Truncate(prefix + ".idx", kPageSize));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(prefix));
  EXPECT_EQ(store->restored_entries(), oids.size());
  for (size_t i = 0; i < oids.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(std::string payload, store->Get(oids[i]));
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }
}

// Forwards to the default Env; while `fail_reads` is set, every page read
// of a file whose name ends in `suffix` fails the way a bad sector would.
class FailingReadEnv : public FaultInjectingEnv {
 public:
  explicit FailingReadEnv(std::string suffix)
      : FaultInjectingEnv(Env::Default()), suffix_(std::move(suffix)) {}

  std::atomic<bool> fail_reads{false};

  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    GAEA_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> base,
                          FaultInjectingEnv::NewRandomAccessFile(path));
    bool failing = path.ends_with(suffix_);
    return std::unique_ptr<RandomAccessFile>(
        new File(failing ? this : nullptr, std::move(base)));
  }

 private:
  class File : public RandomAccessFile {
   public:
    File(FailingReadEnv* env, std::unique_ptr<RandomAccessFile> base)
        : env_(env), base_(std::move(base)) {}
    StatusOr<size_t> Read(uint64_t offset, size_t n,
                          char* scratch) const override {
      if (env_ != nullptr && env_->fail_reads.load()) {
        return Status::IOError("injected read failure");
      }
      return base_->Read(offset, n, scratch);
    }
    Status Write(uint64_t offset, std::string_view data) override {
      return base_->Write(offset, data);
    }
    Status Sync() override { return base_->Sync(); }

   private:
    FailingReadEnv* env_;
    std::unique_ptr<RandomAccessFile> base_;
  };

  std::string suffix_;
};

TEST(FaultInjectionTest, ChainReadErrorIsIOError) {
  TempDir dir("heap");
  std::string path = dir.file("h.heap");
  FailingReadEnv env(".heap");
  Rid small;
  Rid big;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                         HeapFile::Open(path, 16, &env));
    ASSERT_OK_AND_ASSIGN(small, heap->Insert("a"));
    ASSERT_OK_AND_ASSIGN(big, heap->Insert(std::string(5 * kPageSize, 'b')));
    ASSERT_OK(heap->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(path, 16, &env));
  // The head's data page is resident; only the chain read reaches the file.
  EXPECT_EQ(heap->Read(small).value(), "a");
  env.fail_reads = true;
  EXPECT_EQ(heap->Read(big).status().code(), StatusCode::kIOError);
  EXPECT_EQ(heap->ForEachReadable([](const Rid&, const std::string&) {
              return Status::OK();
            }).code(),
            StatusCode::kIOError);
  env.fail_reads = false;
  EXPECT_EQ(heap->Read(big).value(), std::string(5 * kPageSize, 'b'));
}

TEST(FaultInjectionTest, ObjectStoreIndexReadErrorsAreNotNotFound) {
  TempDir dir("store");
  std::string prefix = dir.file("obj");
  FailingReadEnv env(".idx");
  std::vector<Oid> oids;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                         ObjectStore::Open(prefix, /*pool_capacity=*/1, &env));
    for (int i = 0; i < 2000; ++i) {
      ASSERT_OK_AND_ASSIGN(Oid oid, store->Put("v" + std::to_string(i)));
      oids.push_back(oid);
    }
    ASSERT_OK(store->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ObjectStore> store,
                       ObjectStore::Open(prefix, /*pool_capacity=*/1, &env));
  // One frame per pool shard: most lookups below miss and must read an
  // index page from the failing file.
  env.fail_reads = true;
  int io_errors = 0;
  for (Oid oid : oids) {
    // A stored object either reads or fails loudly — never "not stored".
    StatusOr<std::string> got = store->Get(oid);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kIOError) << oid;
      ++io_errors;
    }
    StatusOr<bool> stored = store->Contains(oid);
    if (stored.ok()) {
      EXPECT_TRUE(*stored) << oid;
    } else {
      EXPECT_EQ(stored.status().code(), StatusCode::kIOError) << oid;
    }
  }
  EXPECT_GT(io_errors, 0);
  // An insert whose duplicate check cannot read the index must stop there,
  // not write a heap record that reopen would resurrect.
  Oid fresh = oids.back() + 1;
  EXPECT_EQ(store->PutWithOid(fresh, "late").code(), StatusCode::kIOError);
  env.fail_reads = false;
  ASSERT_OK(store->Flush());
  store.reset();
  ASSERT_OK_AND_ASSIGN(store, ObjectStore::Open(prefix, 1, &env));
  EXPECT_EQ(store->restored_entries(), 0u);
  EXPECT_FALSE(store->Contains(fresh).value());
  EXPECT_EQ(store->Get(oids.front()).value(), "v0");
}

TEST(FaultInjectionTest, BTreeResetsTornTreeOnOpen) {
  TempDir dir("fault");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree, BTree::Open(path));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(tree->Insert(i, i * 10));
    }
    ASSERT_OK(tree->Flush());
  }
  // Keep the meta page, drop every node page it references.
  ASSERT_OK(Env::Default()->Truncate(path, kPageSize));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BTree> tree, BTree::Open(path));
  EXPECT_TRUE(tree->repaired_on_open());
  EXPECT_EQ(tree->Count(), 0);
  // The reset tree is fully usable.
  ASSERT_OK(tree->Insert(7, 70));
  ASSERT_OK_AND_ASSIGN(uint64_t value, tree->LookupFirst(7));
  EXPECT_EQ(value, 70u);
}

TEST(FaultInjectionTest, CrashStopsAllWritesUntilReset) {
  TempDir dir("fault");
  FaultInjectingEnv env(Env::Default());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BufferPool> pool,
                       BufferPool::Open(dir.file("pool.db"), 4, 1, &env));
  {
    ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->AllocatePage());
    guard.page()->WriteAt<uint64_t>(100, 0xabcdefULL);
    guard.MarkDirty();
  }
  env.TriggerCrash();
  EXPECT_EQ(pool->Flush().code(), StatusCode::kIOError);
  env.Reset();
  ASSERT_OK(pool->Flush());
}

}  // namespace
}  // namespace gaea
