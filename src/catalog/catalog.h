// The persistent catalog: class definitions, concepts + ISA hierarchy, and
// the stored data objects with their secondary indexes.
//
// Definitions are journaled (append-only; replayed on open). Data objects
// live in the OID object store with two B+tree secondary indexes:
// class -> OID and timestamp -> OID, which back the retrieval step of the
// query sequence in paper §2.1.5.

#ifndef GAEA_CATALOG_CATALOG_H_
#define GAEA_CATALOG_CATALOG_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/class_def.h"
#include "catalog/concept.h"
#include "catalog/data_object.h"
#include "spatial/abstime.h"
#include "spatial/rtree.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "util/status.h"

namespace gaea {

class Catalog {
 public:
  // Opens (creating if needed) the catalog in directory `dir` and replays
  // the definition journal — in full, or, when `recovery` is given, from a
  // checkpoint snapshot plus the journal tail past recovery->start_lsn.
  // All file I/O goes through `env`.
  static StatusOr<std::unique_ptr<Catalog>> Open(
      const std::string& dir, Env* env = Env::Default(),
      const JournalRecovery* recovery = nullptr);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // ---- definitions (journaled) ----

  StatusOr<ClassId> DefineClass(ClassDef def);
  StatusOr<ConceptId> DefineConcept(const std::string& name,
                                    const std::string& doc);
  Status AddIsA(const std::string& child_concept,
                const std::string& parent_concept);
  Status AddConceptMember(const std::string& concept_name,
                          const std::string& class_name);

  const ClassRegistry& classes() const { return classes_; }
  const ConceptRegistry& concepts() const { return concepts_; }

  // ---- data objects ----

  // Type-checks and stores; assigns and returns the OID.
  StatusOr<Oid> InsertObject(DataObject obj);
  StatusOr<DataObject> GetObject(Oid oid) const;
  // False when `oid` is not stored; index I/O errors propagate.
  StatusOr<bool> ContainsObject(Oid oid) const;
  Status DeleteObject(Oid oid);

  // All OIDs of a class, ascending.
  StatusOr<std::vector<Oid>> ObjectsOfClass(ClassId class_id) const;
  // OIDs of a class whose timestamp lies in [t0, t1].
  StatusOr<std::vector<Oid>> ObjectsOfClassInRange(ClassId class_id,
                                                   AbsTime t0,
                                                   AbsTime t1) const;
  // OIDs of any class with timestamp in [t0, t1] (time index scan).
  StatusOr<std::vector<Oid>> ObjectsInTimeRange(AbsTime t0, AbsTime t1) const;

  // OIDs of any class whose spatial extent overlaps `region` (R-tree probe).
  std::vector<Oid> ObjectsInRegion(const Box& region) const;

  // Index-driven candidate set for a spatio-temporal window: objects of
  // `class_id` whose extent overlaps `region` (when given and the class has
  // a spatial extent) and whose timestamp lies in `time` (when given and the
  // class has a temporal extent). Objects with a null extent/timestamp are
  // excluded by the corresponding constraint — an object with no recorded
  // extent overlaps nothing. Constraints handled here need no re-check by
  // the caller; attribute predicates still do.
  StatusOr<std::vector<Oid>> Candidates(
      ClassId class_id, const std::optional<Box>& region,
      const std::optional<TimeInterval>& time) const;

  int64_t ObjectCount() const { return store_->Count(); }
  const std::string& dir() const { return dir_; }

  Status Flush();

  // ---- checkpointing (src/recovery/) ----

  // Streams the current definition state (classes, concepts with their
  // member classes, ISA edges) as catalog journal records and reports the
  // journal LSN the stream covers. Atomic under the shared lock: DDL takes
  // the lock exclusively, so definitions and the covered LSN cannot move
  // mid-capture; object traffic is not excluded (objects are not journaled).
  Status SnapshotDefinitions(
      const std::function<Status(const std::string&)>& sink,
      uint64_t* covered_lsn) const;

  // The definition journal (durability, counts, shipping reads).
  Journal* journal() const { return journal_.get(); }
  Status TruncateJournalPrefix(uint64_t upto_lsn,
                               const std::string& archive_path) {
    // Exclusive: TruncatePrefix swaps the live file and append handle.
    std::unique_lock lock(mu_);
    return journal_->TruncatePrefix(upto_lsn, archive_path);
  }

  // ---- replication (src/replication/) ----

  // Applies one shipped definition record exactly as replay would, then
  // appends it verbatim to the local journal — the replica's definition
  // journal stays byte-equivalent to the primary's logical history.
  Status ApplyReplicatedRecord(const std::string& record);

  // Stores `obj` under the primary-assigned `oid` (type-checked, all
  // secondary indexes updated) and raises the OID allocator past it, so a
  // replica never hands out an OID the primary already used. kAlreadyExists
  // when `oid` is occupied — the caller treats that as an idempotent skip.
  Status InsertObjectAt(DataObject obj, Oid oid);

  // Buffer-pool stats of the object store's heap pool (kernel stats).
  ObjectStore* store() { return store_.get(); }
  const ObjectStore* store() const { return store_.get(); }

 private:
  explicit Catalog(std::string dir) : dir_(std::move(dir)) {}

  Status ReplayRecord(const std::string& record);
  Status AppendRecord(uint8_t tag, const std::string& payload);
  // Rebuilds derived index state from the stored objects: the volatile
  // spatial index in full, and the durable secondary B+trees (class -> OID,
  // timestamp -> OID) by reconciliation — entries for objects that are gone
  // are scrubbed, entries a crash dropped are re-added. The object store is
  // the source of truth; the indexes never are.
  Status RebuildDerivedIndexes();

  // Lock-free internals, called with mu_ already held (shared or exclusive)
  // by the public wrappers — a shared_mutex is not recursive.
  StatusOr<DataObject> GetObjectUnlocked(Oid oid) const;
  StatusOr<std::vector<Oid>> ObjectsOfClassUnlocked(ClassId class_id) const;
  StatusOr<std::vector<Oid>> ObjectsInTimeRangeUnlocked(AbsTime t0,
                                                        AbsTime t1) const;

  // Readers (lookups, candidate scans) share; definition appends and object
  // insert/delete (which mutate the R-trees and secondary indexes as one
  // unit) are exclusive.
  mutable std::shared_mutex mu_;
  std::string dir_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<BTree> by_class_;
  std::unique_ptr<BTree> by_time_;
  ClassRegistry classes_;
  ConceptRegistry concepts_;
  // One R-tree per class: region probes for one class never touch another
  // class's extents, keeping selective queries sublinear in catalog size.
  std::map<ClassId, RTree> spatial_index_;
  bool replaying_ = false;
};

}  // namespace gaea

#endif  // GAEA_CATALOG_CATALOG_H_
