#include "core/tile_pool.h"

#include <algorithm>
#include <optional>
#include <string>

#include "obs/trace.h"

namespace gaea {

namespace {
// Set while a thread is executing a tile body; a job started from inside an
// operator kernel runs inline instead of deadlocking the pool.
thread_local bool t_in_tile = false;
}  // namespace

// All counters are guarded by TilePool::mu_. Claiming an item is a handful
// of instructions under the lock; an item is a plan step or >=64 rows of
// pixel work, so the lock is never contended in any profile that matters.
struct TilePool::Job {
  const ItemFn* fn = nullptr;
  bool tiles = false;       // a ParallelRows job: tile bodies, in Stats
  int64_t items = 0;        // grows as items add more
  int64_t next = 0;         // next unclaimed item
  int64_t done = 0;         // items finished (either path)
  obs::TraceContext ctx{};  // caller's trace context, adopted by helpers
  Status error{};           // status of the lowest-numbered failing item
  int64_t error_item = -1;
};

TilePool& TilePool::Global() {
  static TilePool pool;
  return pool;
}

TilePool::~TilePool() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    workers.swap(helpers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

void TilePool::SetMaxParallel(int n) {
  if (n < 1) n = 1;
  std::vector<std::thread> excess;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    max_parallel_ = n;
    target_helpers_ = static_cast<size_t>(n - 1);
    while (helpers_.size() < target_helpers_) {
      helpers_.emplace_back(&TilePool::HelperLoop, this, helpers_.size());
    }
    while (helpers_.size() > target_helpers_) {
      excess.push_back(std::move(helpers_.back()));
      helpers_.pop_back();
    }
  }
  // Shrinking: woken helpers whose index is past the target exit on their
  // own; join them outside the lock.
  work_cv_.notify_all();
  for (std::thread& t : excess) t.join();
}

int TilePool::max_parallel() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_parallel_;
}

TilePool::Stats TilePool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.fanout_jobs = fanout_jobs_.load(std::memory_order_relaxed);
  s.inline_jobs = inline_jobs_.load(std::memory_order_relaxed);
  s.tiles = tiles_.load(std::memory_order_relaxed);
  s.helper_tiles = helper_tiles_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.helpers = static_cast<int>(helpers_.size());
  }
  return s;
}

Status TilePool::RunItem(Job& job, int64_t item, int64_t* more,
                         bool on_helper) {
  if (!job.tiles) return (*job.fn)(item, more);
  tiles_.fetch_add(1, std::memory_order_relaxed);
  if (on_helper) helper_tiles_.fetch_add(1, std::memory_order_relaxed);
  bool saved = t_in_tile;
  t_in_tile = true;
  Status s = (*job.fn)(item, more);
  t_in_tile = saved;
  return s;
}

// Runs a claimed item of a shared job and folds its result into the job.
void TilePool::RunShared(Job& job, int64_t item, bool on_helper) {
  std::optional<obs::SpanGuard> span;
  if (job.tiles) span.emplace("tile", "tile");
  int64_t more = 0;
  Status s = RunItem(job, item, &more, on_helper);
  std::lock_guard<std::mutex> lock(mu_);
  ++job.done;
  job.items += more;
  if (!s.ok() && (job.error_item < 0 || item < job.error_item)) {
    job.error = std::move(s);
    job.error_item = item;
  }
  if (more > 0) work_cv_.notify_all();
  if (more > 0 || job.done == job.items) done_cv_.notify_all();
}

void TilePool::HelperLoop(size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<Job> job;
    for (const auto& j : active_) {
      if (j->next < j->items) {
        job = j;
        break;
      }
    }
    if (!job) {
      if (stop_ || index >= target_helpers_) return;
      work_cv_.wait(lock);
      continue;
    }
    int64_t item = job->next++;
    lock.unlock();
    {
      obs::ScopedContext trace_scope(job->ctx);
      RunShared(*job, item, /*on_helper=*/true);
    }
    lock.lock();
  }
}

Status TilePool::Run(int64_t items, const ItemFn& fn) {
  return RunJob(nullptr, items, fn);
}

Status TilePool::ParallelRows(
    const char* label, int64_t nrows,
    const std::function<Status(int64_t, int64_t)>& fn) {
  if (nrows <= 0) return Status::OK();
  jobs_.fetch_add(1, std::memory_order_relaxed);
  ItemFn tile = [&](int64_t t, int64_t*) {
    int64_t begin = t * kTileRows;
    return fn(begin, std::min(nrows, begin + kTileRows));
  };
  return RunJob(label, TileCount(nrows), tile);
}

// `label` is null for a Run job and names the tiles of a ParallelRows job.
Status TilePool::RunJob(const char* label, int64_t items, const ItemFn& fn) {
  const bool tiles = label != nullptr;
  bool share = (items > 1 || !tiles) && !t_in_tile;
  if (share) {
    std::lock_guard<std::mutex> lock(mu_);
    // Admission: with no helpers there is nobody to share with, and once
    // max_parallel jobs are in flight every thread already has work —
    // further tile fan-outs would only add queueing overhead.
    share = !helpers_.empty() &&
            (!tiles || active_.size() < static_cast<size_t>(max_parallel_));
  }

  if (!share) {
    if (tiles) inline_jobs_.fetch_add(1, std::memory_order_relaxed);
    Job job{&fn, tiles};
    // Same contract as the shared path: every item runs even after an
    // error, and the lowest-numbered item's error is returned — so the
    // failure a caller observes is identical at every thread count.
    Status first_error;
    for (int64_t item = 0; item < items; ++item) {
      int64_t more = 0;
      Status s = RunItem(job, item, &more, /*on_helper=*/false);
      items += more;
      if (!s.ok() && first_error.ok()) first_error = std::move(s);
    }
    return first_error;
  }

  std::optional<obs::SpanGuard> span;
  if (tiles) {
    fanout_jobs_.fetch_add(1, std::memory_order_relaxed);
    span.emplace(std::string("tiles:") + label, "tile");
  }
  auto job = std::make_shared<Job>(Job{&fn, tiles, items});
  job->ctx = obs::Tracer::CurrentContext();
  std::unique_lock<std::mutex> lock(mu_);
  active_.push_back(job);
  work_cv_.notify_all();

  // The caller claims items alongside the helpers; it waits only while
  // every item is claimed and some are still running.
  for (;;) {
    if (job->next < job->items) {
      int64_t item = job->next++;
      lock.unlock();
      RunShared(*job, item, /*on_helper=*/false);
      lock.lock();
    } else if (job->done == job->items) {
      break;
    } else {
      done_cv_.wait(lock);
    }
  }
  active_.erase(std::find(active_.begin(), active_.end(), job));
  return std::move(job->error);
}

}  // namespace gaea
