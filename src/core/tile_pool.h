// The process's one thread executor (docs/PERF.md "Two-level parallelism").
//
// A job is a run of numbered items that the calling thread and a small set
// of persistent helper threads claim in ascending order. An item may add
// items to its own job while it runs, so a job can grow. Two kinds of work
// use it: the TaskScheduler runs a plan's steps as items (one per ready
// step), and ParallelRows runs a raster operator's fixed-height row bands
// ("tiles") as items. The calling thread always takes part, so a job never
// blocks behind unrelated work, and a step item may fan its tiles out on
// the same pool.
//
// Determinism contract: tile geometry is a pure function of the row count —
// never of the thread count or of which thread runs a tile. Operators that
// reduce (sums, argmins, counts) compute per-tile partials and combine them
// in ascending tile order, so an N-thread run produces bytes identical to a
// 1-thread run. Rasters of at most kTileRows rows take a single-tile inline
// path that is exactly the pre-tiling serial loop.

#ifndef GAEA_CORE_TILE_POOL_H_
#define GAEA_CORE_TILE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace gaea {

class TilePool {
 public:
  // Rows per tile. Fixed: determinism requires geometry independent of the
  // thread count, and 64 rows of any realistic width is enough work to
  // amortize the queue handoff.
  static constexpr int64_t kTileRows = 64;

  // Process-wide pool; helper threads are shared by every concurrent
  // derivation so total thread count stays bounded by SetMaxParallel.
  static TilePool& Global();

  // Allows up to `n` threads (the caller plus n-1 persistent helpers) to
  // cooperate on one job. Set by GaeaKernel::SetDeriveThreads; n < 1 is
  // clamped to 1 (no helpers, every job runs inline).
  void SetMaxParallel(int n);
  int max_parallel() const;

  // One item of a job. `*more` starts at 0; an item that raises it adds
  // that many items to the end of its own job.
  using ItemFn = std::function<Status(int64_t item, int64_t* more)>;

  // Runs fn on items 0, 1, ... of a job that starts with `items` items and
  // grows by what they add; returns once every item has finished, with the
  // error of the lowest-numbered failing item. An item must never wait on
  // another. Runs inline (caller thread, ascending order) when the pool
  // has no helpers or the caller is itself inside a tile body.
  Status Run(int64_t items, const ItemFn& fn);

  // The row-range job: runs fn(row_begin, row_end) for every tile of
  // [0, nrows), with Run's error contract (deterministic across thread
  // counts). The callback must only touch rows in [row_begin, row_end) of
  // its output and may read any shared input. Also runs inline when the
  // raster is a single tile or enough jobs are already in flight to keep
  // every thread busy (admission control — see docs/PERF.md). Only these
  // jobs count in Stats.
  Status ParallelRows(const char* label, int64_t nrows,
                      const std::function<Status(int64_t, int64_t)>& fn);

  // Snapshot of lifetime counters, surfaced as gaea_tile_* gauges.
  struct Stats {
    uint64_t jobs = 0;          // ParallelRows calls
    uint64_t fanout_jobs = 0;   // ... that dispatched to the helper pool
    uint64_t inline_jobs = 0;   // ... that ran serially on the caller
    uint64_t tiles = 0;         // tiles executed, any path
    uint64_t helper_tiles = 0;  // tiles executed by helper threads
    int helpers = 0;            // current helper thread count
  };
  Stats stats() const;

  TilePool() = default;
  ~TilePool();
  TilePool(const TilePool&) = delete;
  TilePool& operator=(const TilePool&) = delete;

 private:
  struct Job;

  Status RunJob(const char* label, int64_t items, const ItemFn& fn);
  void HelperLoop(size_t index);
  Status RunItem(Job& job, int64_t item, int64_t* more, bool on_helper);
  void RunShared(Job& job, int64_t item, bool on_helper);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // helpers: a job gained claimable items
  std::condition_variable done_cv_;  // callers: a job grew or finished
  std::deque<std::shared_ptr<Job>> active_;
  std::vector<std::thread> helpers_;
  size_t target_helpers_ = 0;
  int max_parallel_ = 1;
  bool stop_ = false;

  // Lifetime counters (relaxed: stats are advisory).
  std::atomic<uint64_t> jobs_{0};
  std::atomic<uint64_t> fanout_jobs_{0};
  std::atomic<uint64_t> inline_jobs_{0};
  std::atomic<uint64_t> tiles_{0};
  std::atomic<uint64_t> helper_tiles_{0};
};

// Tile count for an `nrows`-row raster under the fixed geometry.
inline int64_t TileCount(int64_t nrows) {
  return nrows <= 0 ? 0 : (nrows + TilePool::kTileRows - 1) / TilePool::kTileRows;
}

}  // namespace gaea

#endif  // GAEA_CORE_TILE_POOL_H_
