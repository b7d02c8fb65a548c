// Q5 — the storage substrate (Postgres substitute): object store put/get
// across payload sizes (tuples to rasters), B+tree insert/lookup/scan, and
// buffer-pool hit vs miss, validating that the substrate is not the
// bottleneck of the derivation benches above; plus the CRC-32 every journal
// record and wire frame is checksummed with, dispatched and portable.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "spatial/rtree.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "util/crc32.h"

namespace gaea {
namespace {

std::string Payload(size_t size) {
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>((i * 2654435761u) % 256);
  }
  return out;
}

void BM_ObjectStorePut(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  std::string dir = bench::FreshDir("q5_put");
  auto store = std::move(ObjectStore::Open(dir + "/obj")).value();
  std::string payload = Payload(size);
  for (auto _ : state) {
    auto oid = store->Put(payload);
    BENCH_CHECK_OK(oid.status());
    benchmark::DoNotOptimize(*oid);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ObjectStorePut)
    ->Arg(128)          // small tuple
    ->Arg(4096)         // page-sized
    ->Arg(64 * 1024)    // small raster
    ->Arg(1024 * 1024); // full scene

void BM_ObjectStoreGet(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  std::string dir = bench::FreshDir("q5_get");
  auto store = std::move(ObjectStore::Open(dir + "/obj")).value();
  std::string payload = Payload(size);
  std::vector<Oid> oids;
  for (int i = 0; i < 64; ++i) oids.push_back(store->Put(payload).value());
  int i = 0;
  for (auto _ : state) {
    auto data = store->Get(oids[i++ % oids.size()]);
    BENCH_CHECK_OK(data.status());
    benchmark::DoNotOptimize(data->size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ObjectStoreGet)->Arg(128)->Arg(4096)->Arg(64 * 1024)
    ->Arg(1024 * 1024);

void BM_BTreeInsert(benchmark::State& state) {
  std::string dir = bench::FreshDir("q5_btree_insert");
  auto tree = std::move(BTree::Open(dir + "/t.idx")).value();
  int64_t key = 0;
  for (auto _ : state) {
    BENCH_CHECK_OK(tree->Insert(key, static_cast<uint64_t>(key)));
    ++key;
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  int entries = static_cast<int>(state.range(0));
  std::string dir = bench::FreshDir("q5_btree_lookup");
  auto tree = std::move(BTree::Open(dir + "/t.idx")).value();
  for (int64_t k = 0; k < entries; ++k) {
    BENCH_CHECK_OK(tree->Insert(k, static_cast<uint64_t>(k)));
  }
  int64_t key = 0;
  for (auto _ : state) {
    auto v = tree->LookupFirst(key);
    BENCH_CHECK_OK(v.status());
    key = (key + 7919) % entries;
  }
  state.counters["entries"] = entries;
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_BTreeScan(benchmark::State& state) {
  int span = static_cast<int>(state.range(0));
  std::string dir = bench::FreshDir("q5_btree_scan");
  auto tree = std::move(BTree::Open(dir + "/t.idx")).value();
  for (int64_t k = 0; k < 100000; ++k) {
    BENCH_CHECK_OK(tree->Insert(k, static_cast<uint64_t>(k)));
  }
  for (auto _ : state) {
    int64_t count = 0;
    BENCH_CHECK_OK(tree->Scan(1000, 1000 + span,
                              [&count](int64_t, uint64_t) -> Status {
                                ++count;
                                return Status::OK();
                              }));
    benchmark::DoNotOptimize(count);
  }
  state.counters["entries_scanned"] = span + 1;
}
BENCHMARK(BM_BTreeScan)->Arg(10)->Arg(1000)->Arg(50000);

void BM_BufferPoolHit(benchmark::State& state) {
  std::string dir = bench::FreshDir("q5_pool_hit");
  auto pool = std::move(BufferPool::Open(dir + "/p.db", 64)).value();
  for (int i = 0; i < 16; ++i) BENCH_CHECK_OK(pool->AllocatePage().status());
  uint32_t page = 0;
  for (auto _ : state) {
    auto p = pool->FetchPage(page);
    BENCH_CHECK_OK(p.status());
    page = (page + 1) % 16;  // working set fits the pool: all hits
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMiss(benchmark::State& state) {
  std::string dir = bench::FreshDir("q5_pool_miss");
  auto pool = std::move(BufferPool::Open(dir + "/p.db", 8)).value();
  constexpr uint32_t kPages = 1024;
  for (uint32_t i = 0; i < kPages; ++i) {
    BENCH_CHECK_OK(pool->AllocatePage().status());
  }
  BENCH_CHECK_OK(pool->Flush());
  uint32_t page = 0;
  for (auto _ : state) {
    auto p = pool->FetchPage(page);
    BENCH_CHECK_OK(p.status());
    page = (page + 97) % kPages;  // stride defeats the 8-frame pool
  }
}
BENCHMARK(BM_BufferPoolMiss);

// Deterministic box placement on a jittered grid.
Box GridBox(uint64_t i, int grid) {
  double x = static_cast<double>(i % grid) * 10 +
             static_cast<double>((i * 2654435761u) % 7);
  double y = static_cast<double>(i / grid % grid) * 10 +
             static_cast<double>((i * 40503u) % 7);
  return Box(x, y, x + 8, y + 8);
}

void BM_RTreeInsert(benchmark::State& state) {
  RTree tree(8);
  uint64_t i = 0;
  for (auto _ : state) {
    BENCH_CHECK_OK(tree.Insert(GridBox(i, 128), i));
    ++i;
  }
}
BENCHMARK(BM_RTreeInsert);

void BM_RTreeSearchSelective(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int grid = 1;
  while (grid * grid < n) grid *= 2;
  RTree tree(8);
  for (int i = 0; i < n; ++i) {
    BENCH_CHECK_OK(tree.Insert(GridBox(i, grid), i));
  }
  uint64_t q = 0;
  for (auto _ : state) {
    Box query = GridBox(q++ % n, grid);  // hits a handful of neighbours
    std::vector<uint64_t> hits = tree.SearchValues(query);
    benchmark::DoNotOptimize(hits.size());
  }
  state.counters["entries"] = n;
}
BENCHMARK(BM_RTreeSearchSelective)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeSearchBroad(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int grid = 1;
  while (grid * grid < n) grid *= 2;
  RTree tree(8);
  for (int i = 0; i < n; ++i) {
    BENCH_CHECK_OK(tree.Insert(GridBox(i, grid), i));
  }
  Box everything(-1e9, -1e9, 1e9, 1e9);
  for (auto _ : state) {
    std::vector<uint64_t> hits = tree.SearchValues(everything);
    benchmark::DoNotOptimize(hits.size());
  }
  state.counters["entries"] = n;
}
BENCHMARK(BM_RTreeSearchBroad)->Arg(1000)->Arg(10000);

void BM_JournalAppendSync(benchmark::State& state) {
  std::string dir = bench::FreshDir("q5_journal");
  auto journal = std::move(Journal::Open(dir + "/j.log")).value();
  std::string record = Payload(256);
  for (auto _ : state) {
    BENCH_CHECK_OK(journal->Append(record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_JournalAppendSync);

// One checksum per iteration of a state.range(0)-byte buffer: a small wire
// frame, a 4 KiB object, a 1 MiB raster frame.
template <uint32_t (*kCrc)(const void*, size_t)>
void BM_Crc(benchmark::State& state) {
  const std::string data = Payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCrc(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// Crc32 as dispatched on this CPU (the PCLMUL fold where available).
void BM_Crc32(benchmark::State& state) { BM_Crc<Crc32>(state); }
// The slicing-by-16 loop alone: the CPU-independent fallback.
void BM_Crc32Portable(benchmark::State& state) {
  BM_Crc<Crc32Portable>(state);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);
BENCHMARK(BM_Crc32Portable)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace gaea

GAEA_BENCHMARK_MAIN(bench_storage);
