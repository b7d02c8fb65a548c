#include "catalog/catalog.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace gaea {

namespace {
constexpr uint8_t kRecClassDef = 1;
constexpr uint8_t kRecConceptDef = 2;
constexpr uint8_t kRecIsA = 3;
constexpr uint8_t kRecMember = 4;
}  // namespace

StatusOr<std::unique_ptr<Catalog>> Catalog::Open(const std::string& dir,
                                                 Env* env,
                                                 const JournalRecovery* recovery) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("mkdir " + dir + ": " + ec.message());
  }
  std::unique_ptr<Catalog> cat(new Catalog(dir));
  GAEA_ASSIGN_OR_RETURN(cat->journal_,
                        Journal::Open(dir + "/catalog.journal", env));
  GAEA_ASSIGN_OR_RETURN(cat->store_,
                        ObjectStore::Open(dir + "/objects", 256, env));
  GAEA_ASSIGN_OR_RETURN(cat->by_class_,
                        BTree::Open(dir + "/byclass.idx", 256, env));
  GAEA_ASSIGN_OR_RETURN(cat->by_time_,
                        BTree::Open(dir + "/bytime.idx", 256, env));
  cat->replaying_ = true;
  uint64_t start_lsn = 0;
  Status replay = Status::OK();
  if (recovery != nullptr && recovery->load_snapshot) {
    // Snapshot records are catalog journal records: one replay path.
    replay = recovery->load_snapshot([&cat](const std::string& record) {
      return cat->ReplayRecord(record);
    });
    start_lsn = recovery->start_lsn;
  }
  if (replay.ok()) {
    replay = cat->journal_->Replay(
        [&cat](const std::string& record) { return cat->ReplayRecord(record); },
        start_lsn);
  }
  cat->replaying_ = false;
  GAEA_RETURN_IF_ERROR(replay);
  GAEA_RETURN_IF_ERROR(cat->RebuildDerivedIndexes());
  return cat;
}

Status Catalog::RebuildDerivedIndexes() {
  // Scrub secondary-index entries whose object is gone — a crash can flush
  // an index page while the object it points at never reached the store
  // (BTree::Open already reset either tree if it was torn wholesale).
  for (BTree* tree : {by_class_.get(), by_time_.get()}) {
    // Snapshot the entries, then probe the store: Contains takes the store
    // index lock, and taking it inside this tree's Scan would invert the
    // order ObjectStore::ForEach-driven rebuilds establish.
    std::vector<std::pair<int64_t, uint64_t>> entries;
    GAEA_RETURN_IF_ERROR(
        tree->Scan(std::numeric_limits<int64_t>::min(),
                   std::numeric_limits<int64_t>::max(),
                   [&](int64_t key, uint64_t value) -> Status {
                     entries.emplace_back(key, value);
                     return Status::OK();
                   }));
    for (const auto& [key, value] : entries) {
      GAEA_ASSIGN_OR_RETURN(bool stored,
                            store_->Contains(static_cast<Oid>(value)));
      if (stored) continue;
      GAEA_RETURN_IF_ERROR(tree->Delete(key, value));
    }
  }
  // One pass over the store rebuilds the volatile spatial index and re-adds
  // any secondary entries a crash dropped.
  return store_->ForEach([this](Oid oid, const std::string& payload) -> Status {
    BinaryReader r(payload);
    GAEA_ASSIGN_OR_RETURN(DataObject obj, DataObject::Deserialize(&r));
    auto def = classes_.LookupById(obj.class_id());
    if (!def.ok()) return Status::OK();
    Status s = by_class_->Insert(static_cast<int64_t>(obj.class_id()), oid);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    if ((*def)->has_temporal_extent()) {
      auto ts = obj.Timestamp(**def);
      if (ts.ok()) {
        s = by_time_->Insert(ts->seconds(), oid);
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
      }
    }
    if (!(*def)->has_spatial_extent()) return Status::OK();
    auto extent_value = obj.Get(**def, (*def)->spatial_attr());
    if (!extent_value.ok() || extent_value->is_null()) return Status::OK();
    GAEA_ASSIGN_OR_RETURN(Box extent, extent_value->AsBox());
    if (extent.empty()) return Status::OK();
    GAEA_RETURN_IF_ERROR(spatial_index_[obj.class_id()].Insert(extent, oid));
    return Status::OK();
  });
}

Status Catalog::ReplayRecord(const std::string& record) {
  BinaryReader r(record);
  GAEA_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (tag) {
    case kRecClassDef: {
      GAEA_ASSIGN_OR_RETURN(ClassDef def, ClassDef::Deserialize(&r));
      return classes_.Register(std::move(def)).status();
    }
    case kRecConceptDef: {
      GAEA_ASSIGN_OR_RETURN(ConceptDef def, ConceptDef::Deserialize(&r));
      return concepts_.Register(std::move(def)).status();
    }
    case kRecIsA: {
      GAEA_ASSIGN_OR_RETURN(ConceptId child, r.GetU32());
      GAEA_ASSIGN_OR_RETURN(ConceptId parent, r.GetU32());
      return concepts_.AddIsA(child, parent);
    }
    case kRecMember: {
      GAEA_ASSIGN_OR_RETURN(ConceptId concept_id, r.GetU32());
      GAEA_ASSIGN_OR_RETURN(ClassId class_id, r.GetU32());
      return concepts_.AddMemberClass(concept_id, class_id);
    }
    default:
      return Status::Corruption("unknown catalog record tag " +
                                std::to_string(tag));
  }
}

Status Catalog::AppendRecord(uint8_t tag, const std::string& payload) {
  std::string record;
  record.push_back(static_cast<char>(tag));
  record.append(payload);
  return journal_->Append(record);
}

StatusOr<ClassId> Catalog::DefineClass(ClassDef def) {
  std::unique_lock lock(mu_);
  def.set_id(kInvalidClassId);  // id assignment belongs to the registry
  GAEA_ASSIGN_OR_RETURN(ClassId id, classes_.Register(std::move(def)));
  GAEA_ASSIGN_OR_RETURN(const ClassDef* stored, classes_.LookupById(id));
  BinaryWriter w;
  stored->Serialize(&w);
  GAEA_RETURN_IF_ERROR(AppendRecord(kRecClassDef, w.buffer()));
  return id;
}

StatusOr<ConceptId> Catalog::DefineConcept(const std::string& name,
                                           const std::string& doc) {
  std::unique_lock lock(mu_);
  ConceptDef def;
  def.name = name;
  def.doc = doc;
  GAEA_ASSIGN_OR_RETURN(ConceptId id, concepts_.Register(std::move(def)));
  GAEA_ASSIGN_OR_RETURN(const ConceptDef* stored, concepts_.LookupById(id));
  BinaryWriter w;
  stored->Serialize(&w);
  GAEA_RETURN_IF_ERROR(AppendRecord(kRecConceptDef, w.buffer()));
  return id;
}

Status Catalog::AddIsA(const std::string& child_concept,
                       const std::string& parent_concept) {
  std::unique_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(const ConceptDef* child,
                        concepts_.LookupByName(child_concept));
  GAEA_ASSIGN_OR_RETURN(const ConceptDef* parent,
                        concepts_.LookupByName(parent_concept));
  GAEA_RETURN_IF_ERROR(concepts_.AddIsA(child->id, parent->id));
  BinaryWriter w;
  w.PutU32(child->id);
  w.PutU32(parent->id);
  return AppendRecord(kRecIsA, w.buffer());
}

Status Catalog::AddConceptMember(const std::string& concept_name,
                                 const std::string& class_name) {
  std::unique_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(const ConceptDef* concept_def,
                        concepts_.LookupByName(concept_name));
  GAEA_ASSIGN_OR_RETURN(const ClassDef* cls,
                        classes_.LookupByName(class_name));
  GAEA_RETURN_IF_ERROR(concepts_.AddMemberClass(concept_def->id, cls->id()));
  BinaryWriter w;
  w.PutU32(concept_def->id);
  w.PutU32(cls->id());
  return AppendRecord(kRecMember, w.buffer());
}

StatusOr<Oid> Catalog::InsertObject(DataObject obj) {
  std::unique_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        classes_.LookupById(obj.class_id()));
  GAEA_RETURN_IF_ERROR(obj.TypeCheck(*def));

  // Reserve the OID first so the serialized payload already carries it.
  Oid oid = store_->next_oid();
  obj.set_oid(oid);
  BinaryWriter w;
  obj.Serialize(&w);
  GAEA_RETURN_IF_ERROR(store_->PutWithOid(oid, w.buffer()));
  GAEA_RETURN_IF_ERROR(
      by_class_->Insert(static_cast<int64_t>(obj.class_id()), oid));
  if (def->has_temporal_extent()) {
    auto ts = obj.Timestamp(*def);
    if (ts.ok()) {
      GAEA_RETURN_IF_ERROR(by_time_->Insert(ts->seconds(), oid));
    }
  }
  if (def->has_spatial_extent()) {
    auto extent = obj.SpatialExtent(*def);
    if (extent.ok() && !extent->empty()) {
      GAEA_RETURN_IF_ERROR(
          spatial_index_[obj.class_id()].Insert(*extent, oid));
    }
  }
  return oid;
}

Status Catalog::ApplyReplicatedRecord(const std::string& record) {
  std::unique_lock lock(mu_);
  GAEA_RETURN_IF_ERROR(ReplayRecord(record));
  return journal_->Append(record);
}

Status Catalog::InsertObjectAt(DataObject obj, Oid oid) {
  std::unique_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(bool stored, store_->Contains(oid));
  if (stored) {
    return Status::AlreadyExists("object " + std::to_string(oid) +
                                 " already stored");
  }
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        classes_.LookupById(obj.class_id()));
  GAEA_RETURN_IF_ERROR(obj.TypeCheck(*def));
  obj.set_oid(oid);
  BinaryWriter w;
  obj.Serialize(&w);
  GAEA_RETURN_IF_ERROR(store_->PutWithOid(oid, w.buffer()));
  store_->EnsureNextOidAtLeast(oid + 1);
  GAEA_RETURN_IF_ERROR(
      by_class_->Insert(static_cast<int64_t>(obj.class_id()), oid));
  if (def->has_temporal_extent()) {
    auto ts = obj.Timestamp(*def);
    if (ts.ok()) {
      GAEA_RETURN_IF_ERROR(by_time_->Insert(ts->seconds(), oid));
    }
  }
  if (def->has_spatial_extent()) {
    auto extent = obj.SpatialExtent(*def);
    if (extent.ok() && !extent->empty()) {
      GAEA_RETURN_IF_ERROR(
          spatial_index_[obj.class_id()].Insert(*extent, oid));
    }
  }
  return Status::OK();
}

StatusOr<DataObject> Catalog::GetObject(Oid oid) const {
  std::shared_lock lock(mu_);
  return GetObjectUnlocked(oid);
}

StatusOr<DataObject> Catalog::GetObjectUnlocked(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(std::string payload, store_->Get(oid));
  BinaryReader r(payload);
  return DataObject::Deserialize(&r);
}

StatusOr<bool> Catalog::ContainsObject(Oid oid) const {
  return store_->Contains(oid);
}

Status Catalog::DeleteObject(Oid oid) {
  std::unique_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(DataObject obj, GetObjectUnlocked(oid));
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        classes_.LookupById(obj.class_id()));
  GAEA_RETURN_IF_ERROR(store_->Delete(oid));
  GAEA_RETURN_IF_ERROR(
      by_class_->Delete(static_cast<int64_t>(obj.class_id()), oid));
  if (def->has_temporal_extent()) {
    auto ts = obj.Timestamp(*def);
    if (ts.ok()) {
      // Index entry may be absent if the object was inserted without a
      // timestamp; ignore NotFound.
      Status s = by_time_->Delete(ts->seconds(), oid);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
  }
  if (def->has_spatial_extent()) {
    auto extent = obj.SpatialExtent(*def);
    auto tree = spatial_index_.find(obj.class_id());
    if (extent.ok() && !extent->empty() && tree != spatial_index_.end()) {
      Status s = tree->second.Remove(*extent, oid);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
  }
  return Status::OK();
}

std::vector<Oid> Catalog::ObjectsInRegion(const Box& region) const {
  std::shared_lock lock(mu_);
  std::vector<Oid> out;
  for (const auto& [class_id, tree] : spatial_index_) {
    std::vector<uint64_t> hits = tree.SearchValues(region);
    out.insert(out.end(), hits.begin(), hits.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
// Both inputs sorted ascending.
std::vector<Oid> Intersect(const std::vector<Oid>& a,
                           const std::vector<Oid>& b) {
  std::vector<Oid> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}
}  // namespace

StatusOr<std::vector<Oid>> Catalog::Candidates(
    ClassId class_id, const std::optional<Box>& region,
    const std::optional<TimeInterval>& time) const {
  std::shared_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def, classes_.LookupById(class_id));
  std::vector<Oid> candidates;
  if (region.has_value() && def->has_spatial_extent()) {
    // Start from the per-class R-tree: already class-restricted, and the
    // probe visits only spatially relevant subtrees.
    auto tree = spatial_index_.find(class_id);
    if (tree == spatial_index_.end()) return candidates;  // nothing indexed
    std::vector<uint64_t> hits = tree->second.SearchValues(*region);
    candidates.assign(hits.begin(), hits.end());
  } else {
    GAEA_ASSIGN_OR_RETURN(candidates, ObjectsOfClassUnlocked(class_id));
  }
  if (time.has_value() && def->has_temporal_extent()) {
    GAEA_ASSIGN_OR_RETURN(
        std::vector<Oid> in_time,
        ObjectsInTimeRangeUnlocked(time->begin(), time->end()));
    std::sort(in_time.begin(), in_time.end());
    candidates = Intersect(candidates, in_time);
  }
  return candidates;
}

StatusOr<std::vector<Oid>> Catalog::ObjectsOfClass(ClassId class_id) const {
  std::shared_lock lock(mu_);
  return ObjectsOfClassUnlocked(class_id);
}

StatusOr<std::vector<Oid>> Catalog::ObjectsOfClassUnlocked(
    ClassId class_id) const {
  GAEA_ASSIGN_OR_RETURN(std::vector<uint64_t> oids,
                        by_class_->Lookup(static_cast<int64_t>(class_id)));
  return std::vector<Oid>(oids.begin(), oids.end());
}

StatusOr<std::vector<Oid>> Catalog::ObjectsOfClassInRange(ClassId class_id,
                                                          AbsTime t0,
                                                          AbsTime t1) const {
  std::shared_lock lock(mu_);
  GAEA_ASSIGN_OR_RETURN(std::vector<Oid> candidates,
                        ObjectsOfClassUnlocked(class_id));
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def, classes_.LookupById(class_id));
  std::vector<Oid> out;
  for (Oid oid : candidates) {
    GAEA_ASSIGN_OR_RETURN(DataObject obj, GetObjectUnlocked(oid));
    auto ts = obj.Timestamp(*def);
    if (!ts.ok()) continue;
    if (*ts >= t0 && *ts <= t1) out.push_back(oid);
  }
  return out;
}

StatusOr<std::vector<Oid>> Catalog::ObjectsInTimeRange(AbsTime t0,
                                                       AbsTime t1) const {
  std::shared_lock lock(mu_);
  return ObjectsInTimeRangeUnlocked(t0, t1);
}

StatusOr<std::vector<Oid>> Catalog::ObjectsInTimeRangeUnlocked(
    AbsTime t0, AbsTime t1) const {
  std::vector<Oid> out;
  GAEA_RETURN_IF_ERROR(by_time_->Scan(
      t0.seconds(), t1.seconds(), [&out](int64_t, uint64_t oid) -> Status {
        out.push_back(oid);
        return Status::OK();
      }));
  return out;
}

Status Catalog::SnapshotDefinitions(
    const std::function<Status(const std::string&)>& sink,
    uint64_t* covered_lsn) const {
  std::shared_lock lock(mu_);
  auto emit = [&sink](uint8_t tag, const BinaryWriter& w) -> Status {
    std::string record;
    record.push_back(static_cast<char>(tag));
    record.append(w.buffer());
    return sink(record);
  };
  // Classes and concepts in id order: replaying the stream re-registers
  // them with their original ids (the registries honor preset ids) and
  // leaves next_id_ exactly where the journal would have. Concept member
  // classes travel inside the ConceptDef record, so only ISA edges need
  // separate records.
  for (const ClassDef* def : classes_.List()) {
    BinaryWriter w;
    def->Serialize(&w);
    GAEA_RETURN_IF_ERROR(emit(kRecClassDef, w));
  }
  for (const ConceptDef* def : concepts_.List()) {
    BinaryWriter w;
    def->Serialize(&w);
    GAEA_RETURN_IF_ERROR(emit(kRecConceptDef, w));
  }
  for (const auto& [child, parent] : concepts_.IsAEdges()) {
    BinaryWriter w;
    w.PutU32(child);
    w.PutU32(parent);
    GAEA_RETURN_IF_ERROR(emit(kRecIsA, w));
  }
  // DDL appends hold mu_ exclusively, so this count is exactly the journal
  // position the definitions above reflect.
  *covered_lsn = journal_->record_count();
  return Status::OK();
}

Status Catalog::Flush() {
  GAEA_RETURN_IF_ERROR(journal_->Sync());
  GAEA_RETURN_IF_ERROR(store_->Flush());
  GAEA_RETURN_IF_ERROR(by_class_->Flush());
  return by_time_->Flush();
}

}  // namespace gaea
