// Sharded LRU buffer pool over one file. The heap file and B+tree allocate,
// fetch and release pages through this class; dirty pages are written back
// on eviction and on Flush().
//
// Thread-safe: frames are spread over shards (page_id % shard_count), each
// with its own latch, LRU list and counters, so fetches of different pages
// rarely contend. Callers hold pages through a pinning PageGuard (RAII):
// a pinned frame is never evicted, replacing the old single-threaded
// "pointer valid until the next pool call" contract. MarkDirty lives on the
// guard, so only a pinned page can be dirtied.
//
// When every frame of a shard is pinned at capacity, the shard temporarily
// overflows its frame budget instead of failing: a burst of guards must not
// deadlock against the eviction policy.

#ifndef GAEA_STORAGE_BUFFER_POOL_H_
#define GAEA_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "util/env.h"
#include "util/status.h"

namespace gaea {

class BufferPool {
 public:
  // Opens (creating if missing) the file at `path` with `capacity` frames
  // spread over `shards` latched shards. All I/O goes through `env`. A
  // trailing partial page (a write torn by a crash) is truncated away on
  // open, mirroring the journal's torn-tail rule; creating the file fsyncs
  // the parent directory.
  static StatusOr<std::unique_ptr<BufferPool>> Open(const std::string& path,
                                                    size_t capacity = 256,
                                                    size_t shards = 4,
                                                    Env* env = Env::Default());
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  struct Frame {
    uint32_t page_id = kInvalidPageId;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    Page page;
  };

  struct Shard {
    mutable std::mutex mu;
    // LRU list: front = most recently used. Frames never move in memory
    // (list nodes are stable), so guards can hold Frame* across reordering.
    std::list<Frame> frames;
    std::unordered_map<uint32_t, std::list<Frame>::iterator> index;
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

 public:
  // Pin handle for one page frame. While alive, the frame stays resident;
  // destruction (or Release) unpins it. Movable, not copyable.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
    PageGuard& operator=(PageGuard&& other) noexcept {
      if (this != &other) {
        Release();
        frame_ = other.frame_;
        other.frame_ = nullptr;
      }
      return *this;
    }
    ~PageGuard() { Release(); }

    bool valid() const { return frame_ != nullptr; }
    uint32_t page_id() const { return frame_->page_id; }
    Page* page() { return &frame_->page; }
    const Page* page() const { return &frame_->page; }

    // Marks the pinned page dirty; it reaches disk on eviction or Flush.
    void MarkDirty() { frame_->dirty.store(true, std::memory_order_release); }

    // Unpins early (the guard becomes invalid).
    void Release() {
      if (frame_ != nullptr) {
        frame_->pins.fetch_sub(1, std::memory_order_acq_rel);
        frame_ = nullptr;
      }
    }

   private:
    friend class BufferPool;
    explicit PageGuard(Frame* frame) : frame_(frame) {}
    Frame* frame_ = nullptr;
  };

  // Allocates a fresh zeroed page at the end of the file; returns it pinned
  // and already marked dirty (a new page must reach disk).
  StatusOr<PageGuard> AllocatePage();

  // Returns a pinned guard for `page_id`, reading the page from disk if it
  // is not resident.
  StatusOr<PageGuard> FetchPage(uint32_t page_id);

  // Writes all dirty frames back to the file.
  Status Flush();

  // ---- uncached page runs (the heap file's overflow chains) ----
  // Reserves `n` consecutive pages at the end of the file and returns the
  // first id. The pages never get a frame: the caller writes them with
  // WritePages and reads them back with ReadPages, straight through the
  // file, so the run cannot evict anything and nothing in the pool can
  // hold a stale copy of it.
  uint32_t ReservePages(uint32_t n) {
    return page_count_.fetch_add(n, std::memory_order_acq_rel);
  }
  // One positioned write of whole pages starting at page `first`.
  Status WritePages(uint32_t first, std::string_view pages);
  // One positioned read of `n` pages starting at page `first` into `buf`;
  // returns the bytes read, short only where the file ends early.
  StatusOr<size_t> ReadPages(uint32_t first, uint32_t n, char* buf) const;

  // Number of pages in the file.
  uint32_t PageCount() const {
    return page_count_.load(std::memory_order_acquire);
  }

  // ---- statistics (storage bench, kernel stats) ----
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t resident = 0;  // frames currently cached
    size_t pinned = 0;    // frames with at least one outstanding guard
  };
  std::vector<ShardStats> PerShardStats() const;
  size_t shard_count() const { return shards_.size(); }
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  BufferPool(std::unique_ptr<RandomAccessFile> file, uint32_t page_count,
             size_t capacity, size_t shards);

  Shard& ShardFor(uint32_t page_id) {
    return shards_[page_id % shards_.size()];
  }
  Status WriteFrame(const Frame& frame);
  // Evicts one unpinned frame from `shard` (latch held) if any; a fully
  // pinned shard is left to overflow.
  Status MaybeEvict(Shard* shard);
  // Inserts a fresh pinned frame for `page_id` at the shard's LRU front
  // (latch held). The caller fills the page bytes while holding the pin.
  StatusOr<Frame*> InsertFrame(Shard* shard, uint32_t page_id);

  std::unique_ptr<RandomAccessFile> file_;
  std::atomic<uint32_t> page_count_;
  std::vector<Shard> shards_;
};

using PageGuard = BufferPool::PageGuard;

}  // namespace gaea

#endif  // GAEA_STORAGE_BUFFER_POOL_H_
