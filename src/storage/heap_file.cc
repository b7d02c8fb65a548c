#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

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
constexpr uint32_t kOvDataOff = 12;
constexpr uint32_t kOvCapacity = kPageSize - kOvDataOff;

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

}  // namespace

StatusOr<std::unique_ptr<HeapFile>> HeapFile::Open(const std::string& path,
                                                   size_t pool_capacity,
                                                   Env* env) {
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

StatusOr<Rid> HeapFile::Insert(const std::string& record) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string inline_payload;
  uint16_t flags = kFlagLive;

  if (record.size() > kMaxInline) {
    // Spill to an overflow chain, last chunk first so each page can link to
    // the next without a second pass.
    flags = kFlagOverflowHead;
    uint32_t next = kInvalidPageId;
    size_t nchunks = (record.size() + kOvCapacity - 1) / kOvCapacity;
    for (size_t i = nchunks; i-- > 0;) {
      size_t begin = i * kOvCapacity;
      size_t len = std::min<size_t>(kOvCapacity, record.size() - begin);
      GAEA_ASSIGN_OR_RETURN(PageGuard ov, pool_->AllocatePage());
      ov.page()->WriteAt<uint8_t>(0, kOverflowPage);
      ov.page()->WriteAt<uint32_t>(kOvNextOff, next);
      ov.page()->WriteAt<uint32_t>(kOvLenOff, static_cast<uint32_t>(len));
      std::memcpy(ov.page()->data() + kOvDataOff, record.data() + begin, len);
      ov.MarkDirty();
      next = ov.page_id();
    }
    inline_payload.resize(kOverflowHeadBytes);
    uint32_t total = static_cast<uint32_t>(record.size());
    std::memcpy(inline_payload.data(), &next, 4);
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
  auto emit = [&](const uint8_t* bytes, size_t n) {
    const char* p = reinterpret_cast<const char*>(bytes);
    size_t head = std::min(n, prefix.size() - filled);
    if (head > 0) std::memcpy(prefix.data() + filled, p, head);
    filled += head;
    out->append(p + head, n - head);
  };
  uint32_t total = info.size;
  uint32_t next = kInvalidPageId;
  if (info.flags != kFlagLive) {
    // Overflow chain: the head stays pinned through the guard while the
    // chain is chased, so chain fetches can never invalidate it.
    if (info.size != kOverflowHeadBytes) {
      return Status::Corruption("malformed overflow head slot");
    }
    std::memcpy(&next, page->data() + info.offset, 4);
    std::memcpy(&total, page->data() + info.offset + 4, 4);
  }
  if (total < prefix.size()) {
    return Status::Corruption("record of " + std::to_string(total) +
                              " bytes is shorter than its " +
                              std::to_string(prefix.size()) + "-byte header");
  }
  out->reserve(out->size() + (total - prefix.size()));
  if (info.flags == kFlagLive) {
    emit(page->data() + info.offset, info.size);
    return Status::OK();
  }
  size_t got = 0;
  while (next != kInvalidPageId) {
    GAEA_ASSIGN_OR_RETURN(PageGuard ov, pool_->FetchPage(next));
    if (ov.page()->ReadAt<uint8_t>(0) != kOverflowPage) {
      return Status::Corruption("overflow chain hits non-overflow page");
    }
    uint32_t len = ov.page()->ReadAt<uint32_t>(kOvLenOff);
    if (len > kOvCapacity) return Status::Corruption("overflow chunk too big");
    got += len;
    if (got > total) return Status::Corruption("overflow chain overrun");
    emit(ov.page()->data() + kOvDataOff, len);
    next = ov.page()->ReadAt<uint32_t>(kOvNextOff);
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
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (uint32_t page_id = 0; page_id < pool_->PageCount(); ++page_id) {
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
      GAEA_ASSIGN_OR_RETURN(std::string record, Read(rid));
      GAEA_RETURN_IF_ERROR(fn(rid, record));
    }
  }
  return Status::OK();
}

Status HeapFile::ForEachReadable(
    const std::function<Status(const Rid&, const std::string&)>& fn) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (uint32_t page_id = 0; page_id < pool_->PageCount(); ++page_id) {
    GAEA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    if (guard.page()->ReadAt<uint8_t>(0) != kDataPage) continue;
    uint16_t slots = guard.page()->ReadAt<uint16_t>(kSlotCountOff);
    guard.Release();
    for (uint16_t s = 0; s < slots; ++s) {
      GAEA_ASSIGN_OR_RETURN(PageGuard p, pool_->FetchPage(page_id));
      SlotInfo info = ReadSlot(*p.page(), s);
      p.Release();
      if (info.flags == kFlagDeleted) continue;
      Rid rid{page_id, s};
      StatusOr<std::string> record = Read(rid);
      if (!record.ok()) {
        if (record.status().code() == StatusCode::kIOError) {
          return record.status();
        }
        continue;  // torn by the crash; nothing to salvage
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
