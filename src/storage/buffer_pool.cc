#include "storage/buffer_pool.h"

#include <cstring>

namespace gaea {

StatusOr<std::unique_ptr<BufferPool>> BufferPool::Open(const std::string& path,
                                                       size_t capacity,
                                                       size_t shards,
                                                       Env* env) {
  if (capacity == 0) {
    return Status::InvalidArgument("buffer pool needs capacity >= 1");
  }
  if (shards == 0) {
    return Status::InvalidArgument("buffer pool needs shards >= 1");
  }
  if (shards > capacity) shards = capacity;
  bool existed = env->FileExists(path);
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        env->NewRandomAccessFile(path));
  if (!existed) {
    GAEA_RETURN_IF_ERROR(env->SyncParentDir(path));
  }
  uint64_t size = 0;
  if (existed) {
    GAEA_ASSIGN_OR_RETURN(size, env->FileSize(path));
  }
  if (size % kPageSize != 0) {
    // A crash mid-pwrite while extending the file leaves a trailing partial
    // page. That page was never acknowledged (the write errored or the
    // process died), so dropping it loses nothing committed; anything that
    // referenced it is caught by the kernel's recovery invariants.
    uint64_t good = size - (size % kPageSize);
    GAEA_RETURN_IF_ERROR(env->Truncate(path, good));
    size = good;
  }
  uint32_t page_count = static_cast<uint32_t>(size / kPageSize);
  return std::unique_ptr<BufferPool>(
      new BufferPool(std::move(file), page_count, capacity, shards));
}

BufferPool::BufferPool(std::unique_ptr<RandomAccessFile> file,
                       uint32_t page_count, size_t capacity, size_t shards)
    : file_(std::move(file)), page_count_(page_count), shards_(shards) {
  // Spread the frame budget over the shards; every shard gets at least one.
  size_t per_shard = capacity / shards;
  size_t remainder = capacity % shards;
  for (size_t i = 0; i < shards; ++i) {
    shards_[i].capacity = per_shard + (i < remainder ? 1 : 0);
    if (shards_[i].capacity == 0) shards_[i].capacity = 1;
  }
}

BufferPool::~BufferPool() { (void)Flush(); }

Status BufferPool::WriteFrame(const Frame& frame) {
  uint64_t offset = static_cast<uint64_t>(frame.page_id) * kPageSize;
  return file_->Write(
      offset, std::string_view(reinterpret_cast<const char*>(frame.page.data()),
                               kPageSize));
}

Status BufferPool::MaybeEvict(Shard* shard) {
  if (shard->frames.size() < shard->capacity) return Status::OK();
  // Least-recently-used unpinned frame (scanning from the back). New pins
  // take the shard latch, so a frame seen unpinned here cannot gain a pin
  // before it is erased.
  for (auto it = shard->frames.rbegin(); it != shard->frames.rend(); ++it) {
    if (it->pins.load(std::memory_order_acquire) != 0) continue;
    if (it->dirty.load(std::memory_order_acquire)) {
      GAEA_RETURN_IF_ERROR(WriteFrame(*it));
    }
    shard->index.erase(it->page_id);
    shard->frames.erase(std::next(it).base());
    shard->evictions++;
    return Status::OK();
  }
  // Every frame pinned: overflow the budget rather than fail or deadlock.
  return Status::OK();
}

StatusOr<BufferPool::Frame*> BufferPool::InsertFrame(Shard* shard,
                                                     uint32_t page_id) {
  GAEA_RETURN_IF_ERROR(MaybeEvict(shard));
  shard->frames.emplace_front();
  Frame& frame = shard->frames.front();
  frame.page_id = page_id;
  frame.pins.store(1, std::memory_order_release);
  shard->index[page_id] = shard->frames.begin();
  return &frame;
}

StatusOr<PageGuard> BufferPool::AllocatePage() {
  uint32_t page_id = page_count_.fetch_add(1, std::memory_order_acq_rel);
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  GAEA_ASSIGN_OR_RETURN(Frame * frame, InsertFrame(&shard, page_id));
  frame->dirty.store(true, std::memory_order_release);  // must reach disk
  return PageGuard(frame);
}

StatusOr<PageGuard> BufferPool::FetchPage(uint32_t page_id) {
  if (page_id >= page_count_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("page " + std::to_string(page_id) +
                              " beyond file end (" +
                              std::to_string(PageCount()) + " pages)");
  }
  Shard& shard = ShardFor(page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(page_id);
  if (it != shard.index.end()) {
    shard.hits++;
    // Move to front (most recently used); list nodes stay in place, so
    // outstanding guards are unaffected.
    shard.frames.splice(shard.frames.begin(), shard.frames, it->second);
    shard.index[page_id] = shard.frames.begin();
    Frame& frame = shard.frames.front();
    frame.pins.fetch_add(1, std::memory_order_acq_rel);
    return PageGuard(&frame);
  }
  shard.misses++;
  GAEA_ASSIGN_OR_RETURN(Frame * frame, InsertFrame(&shard, page_id));
  uint64_t offset = static_cast<uint64_t>(page_id) * kPageSize;
  auto read = file_->Read(offset, kPageSize,
                          reinterpret_cast<char*>(frame->page.data()));
  if (!read.ok()) {
    shard.index.erase(page_id);
    shard.frames.pop_front();
    return Status::IOError("read page " + std::to_string(page_id) + ": " +
                           read.status().message());
  }
  // A short read happens only for pages allocated but never flushed by a
  // crashed process; treat the missing bytes as zeros.
  if (*read < kPageSize) {
    std::memset(frame->page.data() + *read, 0, kPageSize - *read);
  }
  return PageGuard(frame);
}

Status BufferPool::Flush() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (Frame& frame : shard.frames) {
      if (frame.dirty.load(std::memory_order_acquire)) {
        GAEA_RETURN_IF_ERROR(WriteFrame(frame));
        frame.dirty.store(false, std::memory_order_release);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::WritePages(uint32_t first, std::string_view pages) {
  return file_->Write(static_cast<uint64_t>(first) * kPageSize, pages);
}

StatusOr<size_t> BufferPool::ReadPages(uint32_t first, uint32_t n,
                                       char* buf) const {
  auto read = file_->Read(static_cast<uint64_t>(first) * kPageSize,
                          static_cast<size_t>(n) * kPageSize, buf);
  if (!read.ok()) {
    return Status::IOError("read pages " + std::to_string(first) + "+" +
                           std::to_string(n) + ": " + read.status().message());
  }
  return *read;
}

std::vector<BufferPool::ShardStats> BufferPool::PerShardStats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ShardStats stats;
    stats.hits = shard.hits;
    stats.misses = shard.misses;
    stats.evictions = shard.evictions;
    stats.resident = shard.frames.size();
    for (const Frame& frame : shard.frames) {
      if (frame.pins.load(std::memory_order_acquire) != 0) stats.pinned++;
    }
    out.push_back(stats);
  }
  return out;
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (const ShardStats& s : PerShardStats()) total += s.hits;
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (const ShardStats& s : PerShardStats()) total += s.misses;
  return total;
}

uint64_t BufferPool::evictions() const {
  uint64_t total = 0;
  for (const ShardStats& s : PerShardStats()) total += s.evictions;
  return total;
}

}  // namespace gaea
