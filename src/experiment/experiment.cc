#include "experiment/experiment.h"

#include "util/string_util.h"

namespace gaea {

void Experiment::Serialize(BinaryWriter* w) const {
  w->PutU32(id);
  w->PutString(name);
  w->PutString(doc);
  w->PutString(user);
  w->PutU32(static_cast<uint32_t>(concepts.size()));
  for (const std::string& c : concepts) w->PutString(c);
  w->PutU32(static_cast<uint32_t>(tasks.size()));
  for (TaskId t : tasks) w->PutU64(t);
}

StatusOr<Experiment> Experiment::Deserialize(BinaryReader* r) {
  Experiment e;
  GAEA_ASSIGN_OR_RETURN(e.id, r->GetU32());
  GAEA_ASSIGN_OR_RETURN(e.name, r->GetString());
  GAEA_ASSIGN_OR_RETURN(e.doc, r->GetString());
  GAEA_ASSIGN_OR_RETURN(e.user, r->GetString());
  GAEA_ASSIGN_OR_RETURN(uint32_t nc, r->GetU32());
  for (uint32_t i = 0; i < nc; ++i) {
    GAEA_ASSIGN_OR_RETURN(std::string c, r->GetString());
    e.concepts.push_back(std::move(c));
  }
  GAEA_ASSIGN_OR_RETURN(uint32_t nt, r->GetU32());
  for (uint32_t i = 0; i < nt; ++i) {
    GAEA_ASSIGN_OR_RETURN(TaskId t, r->GetU64());
    e.tasks.push_back(t);
  }
  return e;
}

StatusOr<std::unique_ptr<ExperimentManager>> ExperimentManager::Open(
    const std::string& path, Env* env, const JournalRecovery* recovery) {
  std::unique_ptr<ExperimentManager> mgr(new ExperimentManager());
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal,
                        Journal::Open(path, env));
  auto apply = [&mgr](const std::string& record) -> Status {
    BinaryReader r(record);
    GAEA_ASSIGN_OR_RETURN(Experiment e, Experiment::Deserialize(&r));
    if (e.id != static_cast<ExperimentId>(mgr->experiments_.size()) + 1) {
      return Status::Corruption("experiment journal out of order: got id " +
                                std::to_string(e.id));
    }
    mgr->experiments_.push_back(std::move(e));
    return Status::OK();
  };
  uint64_t start_lsn = 0;
  if (recovery != nullptr && recovery->load_snapshot) {
    GAEA_RETURN_IF_ERROR(recovery->load_snapshot(apply));
    start_lsn = recovery->start_lsn;
    if (static_cast<uint64_t>(mgr->experiments_.size()) != start_lsn) {
      return Status::Corruption(
          "experiment snapshot holds " +
          std::to_string(mgr->experiments_.size()) +
          " records but claims to cover LSN " + std::to_string(start_lsn));
    }
  }
  GAEA_RETURN_IF_ERROR(journal->Replay(apply, start_lsn));
  mgr->journal_ = std::move(journal);
  return mgr;
}

Status ExperimentManager::Snapshot(
    const std::function<Status(const std::string&)>& sink,
    uint64_t* covered_lsn) const {
  for (const Experiment& e : experiments_) {
    BinaryWriter w;
    e.Serialize(&w);
    GAEA_RETURN_IF_ERROR(sink(w.buffer()));
  }
  *covered_lsn = journal_->record_count();
  return Status::OK();
}

StatusOr<ExperimentId> ExperimentManager::Define(Experiment experiment) {
  if (!IsIdentifier(experiment.name)) {
    return Status::InvalidArgument("bad experiment name: '" +
                                   experiment.name + "'");
  }
  for (const Experiment& existing : experiments_) {
    if (existing.name == experiment.name) {
      return Status::AlreadyExists("experiment already defined: " +
                                   experiment.name);
    }
  }
  experiment.id = static_cast<ExperimentId>(experiments_.size()) + 1;
  BinaryWriter w;
  experiment.Serialize(&w);
  GAEA_RETURN_IF_ERROR(journal_->Append(w.buffer()));
  ExperimentId id = experiment.id;
  experiments_.push_back(std::move(experiment));
  return id;
}

Status ExperimentManager::ApplyReplicated(const std::string& record) {
  BinaryReader r(record);
  GAEA_ASSIGN_OR_RETURN(Experiment e, Experiment::Deserialize(&r));
  ExperimentId expected = static_cast<ExperimentId>(experiments_.size()) + 1;
  if (e.id != expected) {
    return Status::FailedPrecondition(
        "replicated experiment out of order: got id " + std::to_string(e.id) +
        ", expected " + std::to_string(expected));
  }
  GAEA_RETURN_IF_ERROR(journal_->Append(record));
  experiments_.push_back(std::move(e));
  return Status::OK();
}

StatusOr<const Experiment*> ExperimentManager::Get(
    const std::string& name) const {
  for (const Experiment& e : experiments_) {
    if (e.name == name) return &e;
  }
  return Status::NotFound("experiment not defined: " + name);
}

StatusOr<const Experiment*> ExperimentManager::Get(ExperimentId id) const {
  if (id == 0 || id > experiments_.size()) {
    return Status::NotFound("no experiment with id " + std::to_string(id));
  }
  return &experiments_[id - 1];
}

StatusOr<bool> ObjectsIdentical(const Catalog& catalog, Oid a, Oid b) {
  GAEA_ASSIGN_OR_RETURN(DataObject obj_a, catalog.GetObject(a));
  GAEA_ASSIGN_OR_RETURN(DataObject obj_b, catalog.GetObject(b));
  if (obj_a.class_id() != obj_b.class_id()) return false;
  return obj_a.values() == obj_b.values();
}

StatusOr<ReproductionReport> ExperimentManager::Reproduce(
    const std::string& name, Catalog* catalog, Deriver* deriver,
    Interpolator* interpolator, const TaskLog* log) const {
  GAEA_ASSIGN_OR_RETURN(const Experiment* experiment, Get(name));
  ReproductionReport report;
  for (TaskId task_id : experiment->tasks) {
    GAEA_ASSIGN_OR_RETURN(const Task* task, log->Get(task_id));
    ReproductionReport::Entry entry;
    entry.original_task = task_id;
    if (task->outputs.size() != 1) {
      entry.note = "task has " + std::to_string(task->outputs.size()) +
                   " outputs; reproduction handles single-output tasks";
      entry.identical = false;
      report.all_identical = false;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.original_output = task->outputs[0];
    StatusOr<Oid> replayed =
        task->process_version == 0 ? interpolator->Replay(*task)
                                   : deriver->Replay(*task);
    if (!replayed.ok()) {
      entry.note = "replay failed: " + replayed.status().ToString();
      entry.identical = false;
      report.all_identical = false;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.replayed_output = *replayed;
    GAEA_ASSIGN_OR_RETURN(
        entry.identical,
        ObjectsIdentical(*catalog, entry.original_output, *replayed));
    if (!entry.identical) {
      entry.note = "replayed object differs from original";
      report.all_identical = false;
    }
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace gaea
