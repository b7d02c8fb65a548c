#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace gaea {

namespace {

constexpr uint8_t kDataPage = 1;
constexpr uint8_t kOverflowPage = 2;

constexpr uint32_t kSlotCountOff = 2;
constexpr uint32_t kFreeEndOff = 4;
constexpr uint32_t kSlotArrayOff = HeapFile::kSlotArrayOff;
constexpr uint32_t kSlotBytes = HeapFile::kSlotBytes;

constexpr uint16_t kFlagLive = 0;
constexpr uint16_t kFlagDeleted = 1;
constexpr uint16_t kFlagOverflowHead = 2;

// Overflow page header: type u8 (pad to 4), next u32, chunk u32.
constexpr uint32_t kOvNextOff = 4;
constexpr uint32_t kOvLenOff = 8;
constexpr uint32_t kOvDataOff = HeapFile::kOvDataOff;
constexpr uint32_t kOvCapacity = HeapFile::kOvCapacity;

// Inline payload of an overflow-head slot: first page u32, total length u32.
constexpr uint32_t kOverflowHeadBytes = 8;

struct SlotInfo {
  uint16_t offset;
  uint16_t size;
  uint16_t flags;
};

SlotInfo ReadSlot(const Page& page, uint16_t slot) {
  uint32_t base = kSlotArrayOff + slot * kSlotBytes;
  return SlotInfo{page.ReadAt<uint16_t>(base), page.ReadAt<uint16_t>(base + 2),
                  page.ReadAt<uint16_t>(base + 4)};
}

void WriteSlot(Page* page, uint16_t slot, SlotInfo info) {
  uint32_t base = kSlotArrayOff + slot * kSlotBytes;
  page->WriteAt<uint16_t>(base, info.offset);
  page->WriteAt<uint16_t>(base + 2, info.size);
  page->WriteAt<uint16_t>(base + 4, info.flags);
}

void InitDataPage(Page* page) {
  page->WriteAt<uint8_t>(0, kDataPage);
  page->WriteAt<uint16_t>(kSlotCountOff, 0);
  page->WriteAt<uint16_t>(kFreeEndOff, static_cast<uint16_t>(kPageSize));
}

// Free bytes available for one more (slot header + cell) on a data page.
uint32_t FreeSpace(const Page& page) {
  uint16_t slots = page.ReadAt<uint16_t>(kSlotCountOff);
  uint16_t free_end = page.ReadAt<uint16_t>(kFreeEndOff);
  uint32_t slots_end = kSlotArrayOff + (slots + 1u) * kSlotBytes;
  if (free_end <= slots_end) return 0;
  return free_end - slots_end;
}

Status ShortRecord(uint32_t total, size_t prefix) {
  return Status::Corruption("record of " + std::to_string(total) +
                            " bytes is shorter than its " +
                            std::to_string(prefix) + "-byte header");
}

// Keeps freed multi-MiB buffers (chain reads and writes, rasters, reply
// bodies) in the process instead of returning them to the OS, so each
// derive or large get does not fault its working set in again. glibc's
// defaults hand blocks over 128 KiB to mmap (raising that cut-off only as
// such blocks are freed) and trim the heap top past 128 KiB. 8 MiB is the
// smallest value at which classify_cold's minor faults stop falling
// (docs/PERF.md §7). Once per process; the result is ignored because
// sanitizer builds replace malloc.
void RetainFreedBuffers() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    constexpr int kRetainBytes = 8 << 20;
    (void)mallopt(M_MMAP_THRESHOLD, kRetainBytes);
    (void)mallopt(M_TRIM_THRESHOLD, kRetainBytes);
  });
#endif
}

}  // namespace

StatusOr<std::unique_ptr<HeapFile>> HeapFile::Open(const std::string& path,
                                                   size_t pool_capacity,
                                                   Env* env) {
  RetainFreedBuffers();
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<BufferPool> pool,
                        BufferPool::Open(path, pool_capacity, 4, env));
  return std::unique_ptr<HeapFile>(new HeapFile(std::move(pool)));
}

StatusOr<PageGuard> HeapFile::PageWithSpace(uint32_t needed) {
  if (last_data_page_ != kInvalidPageId) {
    GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(last_data_page_));
    if (guard.page()->ReadAt<uint8_t>(0) == kDataPage &&
        FreeSpace(*guard.page()) >= needed) {
      return guard;
    }
  }
  GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->AllocatePage());
  InitDataPage(guard.page());
  guard.MarkDirty();
  last_data_page_ = guard.page_id();
  return guard;
}

StatusOr<uint32_t> HeapFile::WriteChain(const std::string& record) {
  // The whole chain is laid out in one buffer in file order and written
  // with one positioned write: chunk i goes to page head - i, so the head
  // (chunk 0) is the highest page and each page links to the one below it.
  uint32_t nchunks =
      static_cast<uint32_t>((record.size() + kOvCapacity - 1) / kOvCapacity);
  size_t bytes = static_cast<size_t>(nchunks) * kPageSize;
  auto buf = std::make_unique_for_overwrite<char[]>(bytes);
  uint32_t first = pool_->ReservePages(nchunks);
  uint32_t head = first + nchunks - 1;
  for (uint32_t i = 0; i < nchunks; ++i) {
    char* page = buf.get() + static_cast<size_t>(nchunks - 1 - i) * kPageSize;
    size_t begin = static_cast<size_t>(i) * kOvCapacity;
    uint32_t len = static_cast<uint32_t>(
        std::min<size_t>(kOvCapacity, record.size() - begin));
    uint32_t next = (i + 1 == nchunks) ? kInvalidPageId : head - i - 1;
    std::memset(page, 0, kOvDataOff);
    page[0] = static_cast<char>(kOverflowPage);
    std::memcpy(page + kOvNextOff, &next, 4);
    std::memcpy(page + kOvLenOff, &len, 4);
    std::memcpy(page + kOvDataOff, record.data() + begin, len);
    std::memset(page + kOvDataOff + len, 0, kOvCapacity - len);
  }
  // On failure the reserved pages stay unused: no slot names them yet.
  GAEA_RETURN_IF_ERROR(
      pool_->WritePages(first, std::string_view(buf.get(), bytes)));
  chain_writes_.fetch_add(1, std::memory_order_relaxed);
  chain_write_pages_.fetch_add(nchunks, std::memory_order_relaxed);
  return head;
}

StatusOr<Rid> HeapFile::Insert(const std::string& record) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string inline_payload;
  uint16_t flags = kFlagLive;

  if (record.size() > kMaxInline) {
    // The chain reaches the file before its head slot enters a data page,
    // so no slot ever names chain pages that were not written.
    flags = kFlagOverflowHead;
    GAEA_ASSIGN_OR_RETURN(uint32_t head, WriteChain(record));
    inline_payload.resize(kOverflowHeadBytes);
    uint32_t total = static_cast<uint32_t>(record.size());
    std::memcpy(inline_payload.data(), &head, 4);
    std::memcpy(inline_payload.data() + 4, &total, 4);
  } else {
    inline_payload = record;
  }

  uint32_t needed = static_cast<uint32_t>(inline_payload.size()) + kSlotBytes;
  GAEA_ASSIGN_OR_RETURN(PageGuard guard, PageWithSpace(needed));
  Page* page = guard.page();

  uint16_t slots = page->ReadAt<uint16_t>(kSlotCountOff);
  uint16_t free_end = page->ReadAt<uint16_t>(kFreeEndOff);
  uint16_t cell_off =
      static_cast<uint16_t>(free_end - inline_payload.size());
  std::memcpy(page->data() + cell_off, inline_payload.data(),
              inline_payload.size());
  WriteSlot(page, slots,
            SlotInfo{cell_off, static_cast<uint16_t>(inline_payload.size()),
                     flags});
  page->WriteAt<uint16_t>(kSlotCountOff, static_cast<uint16_t>(slots + 1));
  page->WriteAt<uint16_t>(kFreeEndOff, cell_off);
  guard.MarkDirty();
  return Rid{guard.page_id(), slots};
}

StatusOr<std::string> HeapFile::Read(const Rid& rid) const {
  std::string out;
  GAEA_RETURN_IF_ERROR(ReadInto(rid, {}, &out));
  return out;
}

Status HeapFile::ReadInto(const Rid& rid, std::span<char> prefix,
                          std::string* out) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  const Page* page = guard.page();
  if (page->ReadAt<uint8_t>(0) != kDataPage) {
    return Status::InvalidArgument("RID does not point at a data page");
  }
  uint16_t slots = page->ReadAt<uint16_t>(kSlotCountOff);
  if (rid.slot >= slots) {
    return Status::NotFound("slot " + std::to_string(rid.slot) +
                            " beyond slot count");
  }
  SlotInfo info = ReadSlot(*page, rid.slot);
  if (info.flags == kFlagDeleted) {
    return Status::NotFound("record deleted");
  }
  // Every record byte is copied exactly once, from its page: the first
  // prefix.size() bytes into `prefix`, the rest onto the end of *out.
  size_t filled = 0;
  auto emit = [&](const char* bytes, size_t n) {
    size_t to_prefix = std::min(n, prefix.size() - filled);
    if (to_prefix > 0) std::memcpy(prefix.data() + filled, bytes, to_prefix);
    filled += to_prefix;
    out->append(bytes + to_prefix, n - to_prefix);
  };
  if (info.flags == kFlagLive) {
    if (info.size < prefix.size()) {
      return ShortRecord(info.size, prefix.size());
    }
    out->reserve(out->size() + (info.size - prefix.size()));
    emit(reinterpret_cast<const char*>(page->data()) + info.offset, info.size);
    return Status::OK();
  }
  if (info.size != kOverflowHeadBytes) {
    return Status::Corruption("malformed overflow head slot");
  }
  uint32_t head = 0;
  uint32_t total = 0;
  std::memcpy(&head, page->data() + info.offset, 4);
  std::memcpy(&total, page->data() + info.offset + 4, 4);
  guard.Release();
  if (total < prefix.size()) return ShortRecord(total, prefix.size());

  // Chunk i sits at page head - i. Check the claimed length against the
  // pages the file has before allocating anything for it.
  uint64_t nchunks =
      (static_cast<uint64_t>(total) + kOvCapacity - 1) / kOvCapacity;
  if (nchunks == 0 || head >= pool_->PageCount() || nchunks > head + 1ull) {
    return Status::Corruption(
        "overflow chain truncated: head page " + std::to_string(head) +
        " claims " + std::to_string(total) + " bytes, the file has " +
        std::to_string(pool_->PageCount()) + " pages");
  }
  uint32_t first = head + 1 - static_cast<uint32_t>(nchunks);
  size_t bytes = static_cast<size_t>(nchunks) * kPageSize;
  auto buf = std::make_unique_for_overwrite<char[]>(bytes);
  GAEA_ASSIGN_OR_RETURN(
      size_t read,
      pool_->ReadPages(first, static_cast<uint32_t>(nchunks), buf.get()));
  if (read < bytes) {
    return Status::Corruption("overflow chain truncated: expected " +
                              std::to_string(bytes) + " bytes of pages, got " +
                              std::to_string(read));
  }
  chain_reads_.fetch_add(1, std::memory_order_relaxed);
  chain_read_pages_.fetch_add(nchunks, std::memory_order_relaxed);
  out->reserve(out->size() + (total - prefix.size()));
  size_t got = 0;
  for (uint32_t i = 0; i < nchunks; ++i) {
    const char* ov = buf.get() + (nchunks - 1 - i) * kPageSize;
    if (static_cast<uint8_t>(ov[0]) != kOverflowPage) {
      return Status::Corruption("overflow chain hits non-overflow page");
    }
    uint32_t next = 0;
    uint32_t len = 0;
    std::memcpy(&next, ov + kOvNextOff, 4);
    std::memcpy(&len, ov + kOvLenOff, 4);
    if (len > kOvCapacity) return Status::Corruption("overflow chunk too big");
    got += len;
    if (got > total) return Status::Corruption("overflow chain overrun");
    emit(ov + kOvDataOff, len);
    if (next == kInvalidPageId) break;  // a short chain is reported below
    if (i + 1 == nchunks || next != head - i - 1) {
      return Status::Corruption("overflow chain leaves its pages at page " +
                                std::to_string(head - i));
    }
  }
  if (got != total) {
    return Status::Corruption("overflow chain truncated: expected " +
                              std::to_string(total) + " bytes, got " +
                              std::to_string(got));
  }
  return Status::OK();
}

Status HeapFile::Delete(const Rid& rid) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  Page* page = guard.page();
  if (page->ReadAt<uint8_t>(0) != kDataPage) {
    return Status::InvalidArgument("RID does not point at a data page");
  }
  uint16_t slots = page->ReadAt<uint16_t>(kSlotCountOff);
  if (rid.slot >= slots) return Status::NotFound("no such slot");
  SlotInfo info = ReadSlot(*page, rid.slot);
  if (info.flags == kFlagDeleted) return Status::NotFound("already deleted");
  info.flags = kFlagDeleted;
  WriteSlot(page, rid.slot, info);
  guard.MarkDirty();
  return Status::OK();
}

Status HeapFile::ForEach(
    const std::function<Status(const Rid&, const std::string&)>& fn) const {
  return Scan(/*skip_torn=*/false, fn);
}

Status HeapFile::ForEachReadable(
    const std::function<Status(const Rid&, const std::string&)>& fn) const {
  return Scan(/*skip_torn=*/true, fn);
}

Status HeapFile::Scan(
    bool skip_torn,
    const std::function<Status(const Rid&, const std::string&)>& fn) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Page types are read from the file a batch at a time, so chain pages are
  // skipped without entering the pool. A chain page is typed in the file
  // from its Insert on; a data page may exist only in its frame (never
  // flushed), so every page not typed as a chain page goes through the pool.
  constexpr uint32_t kBatchPages = 64;
  auto batch = std::make_unique_for_overwrite<char[]>(kBatchPages * kPageSize);
  size_t batch_bytes = 0;
  for (uint32_t page_id = 0; page_id < pool_->PageCount(); ++page_id) {
    if (page_id % kBatchPages == 0) {
      GAEA_ASSIGN_OR_RETURN(
          batch_bytes, pool_->ReadPages(page_id, kBatchPages, batch.get()));
    }
    size_t at = static_cast<size_t>(page_id % kBatchPages) * kPageSize;
    if (at < batch_bytes && static_cast<uint8_t>(batch[at]) == kOverflowPage) {
      continue;
    }
    GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    if (guard.page()->ReadAt<uint8_t>(0) != kDataPage) continue;
    uint16_t slots = guard.page()->ReadAt<uint16_t>(kSlotCountOff);
    // Release before Read/fn re-enter the pool: holding one pinned page per
    // nesting level would make deep scans overflow small pools.
    guard.Release();
    for (uint16_t s = 0; s < slots; ++s) {
      GAEA_ASSIGN_OR_RETURN(PageGuard p, pool_->FetchPage(page_id));
      SlotInfo info = ReadSlot(*p.page(), s);
      p.Release();
      if (info.flags == kFlagDeleted) continue;
      Rid rid{page_id, s};
      StatusOr<std::string> record = Read(rid);
      if (!record.ok()) {
        // A torn chain after a crash is skipped when salvaging; a real I/O
        // error always propagates.
        if (!skip_torn || record.status().code() == StatusCode::kIOError) {
          return record.status();
        }
        continue;
      }
      GAEA_RETURN_IF_ERROR(fn(rid, *record));
    }
  }
  return Status::OK();
}

StatusOr<int64_t> HeapFile::Count() const {
  int64_t n = 0;
  GAEA_RETURN_IF_ERROR(
      ForEach([&n](const Rid&, const std::string&) -> Status {
        ++n;
        return Status::OK();
      }));
  return n;
}

}  // namespace gaea
