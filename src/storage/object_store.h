// OID-addressed object store: the storage face the catalog and task log see.
//
// Every Gaea data object (an instance of a non-primitive class) is a
// serialized tuple stored under a stable 64-bit OID. Built from a heap file
// (payloads, overflow-chained for rasters) plus a B+tree (OID -> RID).
// Secondary indexes (class -> OID, timestamp -> OID) are maintained by the
// catalog layer on top.

#ifndef GAEA_STORAGE_OBJECT_STORE_H_
#define GAEA_STORAGE_OBJECT_STORE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "storage/btree.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace gaea {

// Object identifier. OIDs are never reused.
using Oid = uint64_t;
constexpr Oid kInvalidOid = 0;

class ObjectStore {
 public:
  // Opens (creating if needed) the store files `prefix`.heap / `prefix`.idx;
  // all I/O goes through `env`.
  static StatusOr<std::unique_ptr<ObjectStore>> Open(
      const std::string& prefix, size_t pool_capacity = 256,
      Env* env = Env::Default());

  // Stores `payload` under a freshly allocated OID.
  StatusOr<Oid> Put(const std::string& payload);

  // Stores `payload` under a caller-chosen OID (used on journal replay).
  Status PutWithOid(Oid oid, const std::string& payload);

  // kNotFound when no object is stored under `oid`; any other failure
  // (an index or heap page that cannot be read) is returned as is.
  StatusOr<std::string> Get(Oid oid) const;
  // Appends the payload stored under `oid` to *out, copied once from the
  // heap pages — the read path behind a GetObject reply, which puts the
  // bytes straight behind its encoded header. On error *out is unchanged.
  Status GetInto(Oid oid, std::string* out) const;
  // False only when the OID index has no entry; index I/O errors propagate.
  StatusOr<bool> Contains(Oid oid) const;
  Status Delete(Oid oid);

  // Visits every live object in OID order.
  Status ForEach(
      const std::function<Status(Oid, const std::string&)>& fn) const;

  int64_t Count() const { return index_->Count(); }
  Oid next_oid() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_oid_;
  }

  // Raises the OID allocator floor. Recovery uses this after a crash that
  // lost index pages: OIDs recorded in the task log must never be handed out
  // again, even if the objects themselves vanished.
  void EnsureNextOidAtLeast(Oid floor) {
    std::lock_guard<std::mutex> lock(mu_);
    if (floor > next_oid_) next_oid_ = floor;
  }

  Status Flush();

  // Crash-reconciliation counters from Open. Scrubbed: index entries whose
  // heap record was gone (the index page reached disk, the heap page did
  // not); the entries were deleted. Restored: intact heap records the index
  // had lost (the reverse tear, or a torn index that BTree::Open reset);
  // reinserted from the records' OID headers.
  size_t scrubbed_entries() const { return scrubbed_entries_; }
  size_t restored_entries() const { return restored_entries_; }

  // Buffer pools backing the store, for stats surfaces.
  BufferPool* heap_pool() { return heap_->pool(); }
  BufferPool* index_pool() { return index_->pool(); }
  const BufferPool* heap_pool() const { return heap_->pool(); }
  const BufferPool* index_pool() const { return index_->pool(); }
  // Heap overflow-chain traffic, which bypasses heap_pool().
  HeapFile::ChainStats heap_chain_stats() const {
    return heap_->chain_stats();
  }

 private:
  ObjectStore(std::unique_ptr<HeapFile> heap, std::unique_ptr<BTree> index)
      : heap_(std::move(heap)), index_(std::move(index)) {}

  Status PutWithOidLocked(Oid oid, const std::string& payload);
  StatusOr<Rid> LookupRid(Oid oid) const;

  // Guards next_oid_ and makes Put (allocate OID + insert) atomic; the heap
  // and index have their own latches for reads that bypass this mutex.
  mutable std::mutex mu_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<BTree> index_;
  Oid next_oid_ = 1;
  size_t scrubbed_entries_ = 0;
  size_t restored_entries_ = 0;
};

}  // namespace gaea

#endif  // GAEA_STORAGE_OBJECT_STORE_H_
