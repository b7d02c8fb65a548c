#include "storage/object_store.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace gaea {

namespace {

// Heap records are self-describing: [u64 oid][payload]. The header makes
// the OID index *derived* data — after a crash tears the index, it is
// rebuilt from the heap, the single source of truth.
constexpr size_t kOidHeaderBytes = 8;

std::string WrapPayload(Oid oid, const std::string& payload) {
  std::string record(kOidHeaderBytes, '\0');
  std::memcpy(record.data(), &oid, kOidHeaderBytes);
  record.append(payload);
  return record;
}

bool UnwrapOid(const std::string& record, Oid* oid) {
  if (record.size() < kOidHeaderBytes) return false;
  std::memcpy(oid, record.data(), kOidHeaderBytes);
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<ObjectStore>> ObjectStore::Open(
    const std::string& prefix, size_t pool_capacity, Env* env) {
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> heap,
                        HeapFile::Open(prefix + ".heap", pool_capacity, env));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<BTree> index,
                        BTree::Open(prefix + ".idx", pool_capacity, env));
  std::unique_ptr<ObjectStore> store(
      new ObjectStore(std::move(heap), std::move(index)));

  // Crash reconciliation: the heap and index are separate files, so a crash
  // can flush one and not the other. The heap is the source of truth —
  // entries whose record is gone (truncated page, wrong OID header) are
  // scrubbed, and intact records the index lost (a torn index was reset by
  // BTree::Open, or an index page never reached disk) are reinserted.
  // kIOError is a real I/O problem, not a tear, and still fails the open.
  if (!store->index_->repaired_on_open()) {
    std::vector<std::pair<int64_t, uint64_t>> dangling;
    GAEA_RETURN_IF_ERROR(store->index_->Scan(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max(),
        [&](int64_t key, uint64_t rid_enc) -> Status {
          StatusOr<std::string> record =
              store->heap_->Read(Rid::Decode(rid_enc));
          if (!record.ok()) {
            if (record.status().code() == StatusCode::kIOError) {
              return record.status();
            }
            dangling.emplace_back(key, rid_enc);
            return Status::OK();
          }
          Oid header = kInvalidOid;
          if (!UnwrapOid(*record, &header) ||
              header != static_cast<Oid>(key)) {
            dangling.emplace_back(key, rid_enc);
          }
          return Status::OK();
        }));
    for (const auto& [key, rid_enc] : dangling) {
      GAEA_RETURN_IF_ERROR(store->index_->Delete(key, rid_enc));
    }
    store->scrubbed_entries_ = dangling.size();
  }
  // Collect the heap's records first, then reconcile against the index:
  // touching the index inside ForEachReadable would nest the index lock
  // under the heap lock — the reverse of every other path (index scan →
  // heap read) and a lock-order cycle.
  std::vector<std::pair<Rid, Oid>> heap_records;
  GAEA_RETURN_IF_ERROR(store->heap_->ForEachReadable(
      [&heap_records](const Rid& rid, const std::string& record) -> Status {
        Oid oid = kInvalidOid;
        if (!UnwrapOid(record, &oid) || oid == kInvalidOid) {
          return Status::OK();  // not a record this store wrote
        }
        heap_records.emplace_back(rid, oid);
        return Status::OK();
      }));
  for (const auto& [rid, oid] : heap_records) {
    GAEA_ASSIGN_OR_RETURN(bool indexed, store->Contains(oid));
    if (indexed) continue;
    GAEA_RETURN_IF_ERROR(
        store->index_->Insert(static_cast<int64_t>(oid), rid.Encode()));
    store->restored_entries_++;
  }

  // Recover the next OID as (max stored OID) + 1.
  Oid max_oid = 0;
  GAEA_RETURN_IF_ERROR(store->index_->Scan(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      [&max_oid](int64_t key, uint64_t) -> Status {
        max_oid = std::max(max_oid, static_cast<Oid>(key));
        return Status::OK();
      }));
  store->next_oid_ = max_oid + 1;
  return store;
}

StatusOr<Oid> ObjectStore::Put(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  Oid oid = next_oid_;
  GAEA_RETURN_IF_ERROR(PutWithOidLocked(oid, payload));
  return oid;
}

Status ObjectStore::PutWithOid(Oid oid, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return PutWithOidLocked(oid, payload);
}

Status ObjectStore::PutWithOidLocked(Oid oid, const std::string& payload) {
  if (oid == kInvalidOid) {
    return Status::InvalidArgument("OID 0 is reserved");
  }
  GAEA_ASSIGN_OR_RETURN(bool stored, Contains(oid));
  if (stored) {
    return Status::AlreadyExists("object " + std::to_string(oid) +
                                 " already stored");
  }
  GAEA_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(WrapPayload(oid, payload)));
  GAEA_RETURN_IF_ERROR(
      index_->Insert(static_cast<int64_t>(oid), rid.Encode()));
  if (oid >= next_oid_) next_oid_ = oid + 1;
  return Status::OK();
}

StatusOr<Rid> ObjectStore::LookupRid(Oid oid) const {
  auto rid_enc = index_->LookupFirst(static_cast<int64_t>(oid));
  if (rid_enc.ok()) return Rid::Decode(*rid_enc);
  // Only a missing key means "not stored"; a failed index-page read must
  // reach the caller as the I/O error it is.
  if (rid_enc.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("object " + std::to_string(oid) + " not stored");
  }
  return rid_enc.status();
}

StatusOr<std::string> ObjectStore::Get(Oid oid) const {
  std::string payload;
  GAEA_RETURN_IF_ERROR(GetInto(oid, &payload));
  return payload;
}

Status ObjectStore::GetInto(Oid oid, std::string* out) const {
  GAEA_ASSIGN_OR_RETURN(Rid rid, LookupRid(oid));
  size_t base = out->size();
  char header[kOidHeaderBytes];
  Status read = heap_->ReadInto(rid, header, out);
  if (read.ok()) {
    Oid stored;
    std::memcpy(&stored, header, kOidHeaderBytes);
    if (stored != oid) {
      read = Status::Corruption("object " + std::to_string(oid) +
                                ": heap record does not carry its OID");
    }
  }
  if (!read.ok()) out->resize(base);
  return read;
}

StatusOr<bool> ObjectStore::Contains(Oid oid) const {
  StatusOr<Rid> rid = LookupRid(oid);
  if (rid.ok()) return true;
  if (rid.status().code() == StatusCode::kNotFound) return false;
  return rid.status();
}

Status ObjectStore::Delete(Oid oid) {
  GAEA_ASSIGN_OR_RETURN(Rid rid, LookupRid(oid));
  GAEA_RETURN_IF_ERROR(heap_->Delete(rid));
  return index_->Delete(static_cast<int64_t>(oid), rid.Encode());
}

Status ObjectStore::ForEach(
    const std::function<Status(Oid, const std::string&)>& fn) const {
  // Snapshot the index first so the callback runs with no store lock held:
  // callers reconcile *other* indexes from here (Catalog::
  // RebuildDerivedIndexes), and invoking them mid-scan would nest their
  // locks under this index's — a lock-order cycle with paths that consult
  // this store while holding theirs.
  std::vector<std::pair<int64_t, uint64_t>> entries;
  GAEA_RETURN_IF_ERROR(index_->Scan(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      [&entries](int64_t key, uint64_t rid_enc) -> Status {
        entries.emplace_back(key, rid_enc);
        return Status::OK();
      }));
  for (const auto& [key, rid_enc] : entries) {
    char header[kOidHeaderBytes];
    std::string payload;
    GAEA_RETURN_IF_ERROR(
        heap_->ReadInto(Rid::Decode(rid_enc), header, &payload));
    GAEA_RETURN_IF_ERROR(fn(static_cast<Oid>(key), payload));
  }
  return Status::OK();
}

Status ObjectStore::Flush() {
  GAEA_RETURN_IF_ERROR(heap_->Flush());
  return index_->Flush();
}

}  // namespace gaea
