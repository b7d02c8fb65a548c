// Slotted-page heap file with overflow chains for large records (raster
// payloads routinely exceed one page). Records are addressed by RID
// (page id, slot); deletion tombstones the slot.
//
// Only data pages are cached in the buffer pool. A record longer than
// kMaxInline becomes an overflow chain of n pages that never enters the
// pool: Insert reserves n pages at the end of the file, writes the whole
// chain with one positioned write, and only then puts the chain's head slot
// on a (pooled) data page, so a slot never names chain bytes that were not
// written. ReadInto reads the chain back with one positioned read. No
// chain page is ever in the pool, so the file always holds its bytes.
// Chain bytes reach the file (the OS page cache) at Insert; like every
// heap page they are not fsynced (docs/ROBUSTNESS.md).
//
// Page layout (data page):
//   [0]  u8   page type (1 = data, 2 = overflow)
//   [2]  u16  slot count
//   [4]  u16  free_end — offset one past the last free byte (cells grow
//             downward from the page end)
//   [6..] slot array, 6 bytes per slot: u16 cell offset, u16 size, u16 flags
//
// Overflow page: u8 type=2 (padded to 4), u32 next page id, u32 chunk
// length, payload. Chunk i of a chain sits at page head - i: the chain is
// contiguous, the head slot names its highest page, and each page links to
// the one below it (the last chunk's next is kInvalidPageId).
//
// Overflow head slot payload (8 bytes): u32 head page, u32 total length.

#ifndef GAEA_STORAGE_HEAP_FILE_H_
#define GAEA_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "storage/buffer_pool.h"
#include "util/status.h"

namespace gaea {

// Record identifier: (page, slot) packed for index payloads.
struct Rid {
  uint32_t page_id = kInvalidPageId;
  uint16_t slot = 0;

  uint64_t Encode() const {
    return (static_cast<uint64_t>(page_id) << 16) | slot;
  }
  static Rid Decode(uint64_t v) {
    return Rid{static_cast<uint32_t>(v >> 16), static_cast<uint16_t>(v & 0xFFFF)};
  }
  bool operator==(const Rid&) const = default;
};

class HeapFile {
 public:
  // Data-page layout (above): where the slot array starts, and its bytes
  // per slot.
  static constexpr uint32_t kSlotArrayOff = 6;
  static constexpr uint32_t kSlotBytes = 6;
  // Records larger than this spill to overflow pages: the page header and
  // one slot, plus 8 bytes of slack, must fit beside the record inline.
  static constexpr uint32_t kMaxInline =
      kPageSize - kSlotArrayOff - kSlotBytes - 8;
  // Overflow-page layout (above): where a chunk's payload starts, and the
  // payload bytes per chain page.
  static constexpr uint32_t kOvDataOff = 12;
  static constexpr uint32_t kOvCapacity = kPageSize - kOvDataOff;

  // Opens or creates the heap at `path`; all I/O goes through `env`.
  static StatusOr<std::unique_ptr<HeapFile>> Open(const std::string& path,
                                                  size_t pool_capacity = 256,
                                                  Env* env = Env::Default());

  // Appends a record; returns its RID.
  StatusOr<Rid> Insert(const std::string& record);

  // Reads a record by RID.
  StatusOr<std::string> Read(const Rid& rid) const;

  // Reads a record by RID without reassembling it first: its first
  // prefix.size() bytes land in `prefix` and the rest is appended to *out,
  // each byte copied once, straight from its page. A record framed by a
  // fixed header (the object store's OID) can so be checked and its body
  // placed where the caller wants it, e.g. behind an encoded reply header.
  // Corruption if the record is shorter than `prefix`; on any error *out
  // may hold part of the record.
  Status ReadInto(const Rid& rid, std::span<char> prefix,
                  std::string* out) const;

  // Tombstones a record (overflow chains are unlinked but pages are not
  // recycled — matching the paper's "in no case is the old process
  // overwritten" spirit of append-mostly storage).
  Status Delete(const Rid& rid);

  // Visits every live record in file order. Stop early by returning a
  // non-OK status (propagated to the caller).
  Status ForEach(
      const std::function<Status(const Rid&, const std::string&)>& fn) const;

  // Like ForEach, but records that cannot be read — a torn overflow chain
  // after a crash — are skipped instead of failing the scan. Recovery uses
  // this to salvage every record that survived intact; real I/O errors
  // still propagate.
  Status ForEachReadable(
      const std::function<Status(const Rid&, const std::string&)>& fn) const;

  // Number of live records.
  StatusOr<int64_t> Count() const;

  // Serialized against mutators: page bytes are written under mu_ while
  // holding only a frame pin, which the pool flush cannot see.
  Status Flush() {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return pool_->Flush();
  }

  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }

  // Overflow-chain traffic, which bypasses the pool and so its hit/miss
  // counters: chains read and written, and their pages.
  struct ChainStats {
    uint64_t reads = 0;
    uint64_t read_pages = 0;
    uint64_t writes = 0;
    uint64_t write_pages = 0;
  };
  ChainStats chain_stats() const {
    return ChainStats{chain_reads_.load(std::memory_order_relaxed),
                      chain_read_pages_.load(std::memory_order_relaxed),
                      chain_writes_.load(std::memory_order_relaxed),
                      chain_write_pages_.load(std::memory_order_relaxed)};
  }

 private:
  explicit HeapFile(std::unique_ptr<BufferPool> pool)
      : pool_(std::move(pool)) {}

  // Returns a pinned data page with room for `needed` bytes (slot + cell).
  StatusOr<PageGuard> PageWithSpace(uint32_t needed);

  // Writes `record` as an overflow chain at the end of the file; returns
  // its head page. kIOError if the write fails.
  StatusOr<uint32_t> WriteChain(const std::string& record);

  // ForEach (skip_torn false) and ForEachReadable (true).
  Status Scan(
      bool skip_torn,
      const std::function<Status(const Rid&, const std::string&)>& fn) const;

  // One latch for the whole file: slot/free-space bookkeeping spans pages
  // (last_data_page_ hint, overflow chains), so per-page latching would not
  // give atomic inserts. Recursive because ForEach re-enters Read.
  mutable std::recursive_mutex mu_;
  std::unique_ptr<BufferPool> pool_;
  // Hint: last data page that accepted an insert.
  uint32_t last_data_page_ = kInvalidPageId;
  mutable std::atomic<uint64_t> chain_reads_{0};
  mutable std::atomic<uint64_t> chain_read_pages_{0};
  std::atomic<uint64_t> chain_writes_{0};
  std::atomic<uint64_t> chain_write_pages_{0};
};

}  // namespace gaea

#endif  // GAEA_STORAGE_HEAP_FILE_H_
