#include "core/task.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace gaea {

std::vector<Oid> Task::AllInputs() const {
  std::set<Oid> all;
  for (const auto& [arg, oids] : inputs) {
    all.insert(oids.begin(), oids.end());
  }
  return std::vector<Oid>(all.begin(), all.end());
}

std::string Task::ToString() const {
  std::ostringstream os;
  os << "task#" << id << " " << process_name << " v" << process_version
     << " (";
  bool first = true;
  for (const auto& [arg, oids] : inputs) {
    if (!first) os << ", ";
    first = false;
    os << arg << "=[";
    for (size_t i = 0; i < oids.size(); ++i) {
      if (i > 0) os << ",";
      os << oids[i];
    }
    os << "]";
  }
  os << ") -> [";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) os << ",";
    os << outputs[i];
  }
  os << "]";
  if (status == TaskStatus::kFailed) os << " FAILED: " << error;
  return os.str();
}

void Task::Serialize(BinaryWriter* w) const {
  w->PutU64(id);
  w->PutString(process_name);
  w->PutI32(process_version);
  w->PutU32(static_cast<uint32_t>(inputs.size()));
  for (const auto& [arg, oids] : inputs) {
    w->PutString(arg);
    w->PutU32(static_cast<uint32_t>(oids.size()));
    for (Oid oid : oids) w->PutU64(oid);
  }
  w->PutU32(static_cast<uint32_t>(outputs.size()));
  for (Oid oid : outputs) w->PutU64(oid);
  w->PutU8(static_cast<uint8_t>(status));
  w->PutString(error);
  w->PutString(user);
  w->PutString(note);
  started.Serialize(w);
  w->PutI64(duration_us);
}

StatusOr<Task> Task::Deserialize(BinaryReader* r) {
  Task task;
  GAEA_ASSIGN_OR_RETURN(task.id, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(task.process_name, r->GetString());
  GAEA_ASSIGN_OR_RETURN(task.process_version, r->GetI32());
  GAEA_ASSIGN_OR_RETURN(uint32_t nargs, r->GetU32());
  for (uint32_t i = 0; i < nargs; ++i) {
    GAEA_ASSIGN_OR_RETURN(std::string arg, r->GetString());
    GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
    std::vector<Oid> oids;
    oids.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      GAEA_ASSIGN_OR_RETURN(Oid oid, r->GetU64());
      oids.push_back(oid);
    }
    task.inputs.emplace(std::move(arg), std::move(oids));
  }
  GAEA_ASSIGN_OR_RETURN(uint32_t nout, r->GetU32());
  task.outputs.reserve(nout);
  for (uint32_t i = 0; i < nout; ++i) {
    GAEA_ASSIGN_OR_RETURN(Oid oid, r->GetU64());
    task.outputs.push_back(oid);
  }
  GAEA_ASSIGN_OR_RETURN(uint8_t status, r->GetU8());
  if (status > static_cast<uint8_t>(TaskStatus::kFailed)) {
    return Status::Corruption("bad task status tag");
  }
  task.status = static_cast<TaskStatus>(status);
  GAEA_ASSIGN_OR_RETURN(task.error, r->GetString());
  GAEA_ASSIGN_OR_RETURN(task.user, r->GetString());
  GAEA_ASSIGN_OR_RETURN(task.note, r->GetString());
  GAEA_ASSIGN_OR_RETURN(task.started, AbsTime::Deserialize(r));
  GAEA_ASSIGN_OR_RETURN(task.duration_us, r->GetI64());
  return task;
}

std::unique_ptr<TaskLog> TaskLog::InMemory() {
  return std::unique_ptr<TaskLog>(new TaskLog());
}

StatusOr<std::unique_ptr<TaskLog>> TaskLog::Open(const std::string& path,
                                                 Env* env,
                                                 const JournalRecovery* recovery) {
  auto log = InMemory();
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal,
                        Journal::Open(path, env));
  auto apply = [&log](const std::string& record) -> Status {
    BinaryReader r(record);
    GAEA_ASSIGN_OR_RETURN(Task task, Task::Deserialize(&r));
    // Re-inserting through Append would re-journal; index directly.
    TaskId expected = static_cast<TaskId>(log->tasks_.size()) + 1;
    if (task.id != expected) {
      return Status::Corruption("task journal out of order: got id " +
                                std::to_string(task.id) + ", expected " +
                                std::to_string(expected));
    }
    size_t idx = log->tasks_.size();
    for (Oid oid : task.outputs) log->producer_index_[oid] = idx;
    log->tasks_.push_back(std::move(task));
    return Status::OK();
  };
  uint64_t start_lsn = 0;
  if (recovery != nullptr && recovery->load_snapshot) {
    GAEA_RETURN_IF_ERROR(recovery->load_snapshot(apply));
    start_lsn = recovery->start_lsn;
    // The sequential-id check above implicitly verified the snapshot; the
    // journal tail must continue exactly where the snapshot stops.
    if (static_cast<uint64_t>(log->tasks_.size()) != start_lsn) {
      return Status::Corruption(
          "task snapshot holds " + std::to_string(log->tasks_.size()) +
          " tasks but claims to cover LSN " + std::to_string(start_lsn));
    }
  }
  GAEA_RETURN_IF_ERROR(journal->Replay(apply, start_lsn));
  log->journal_ = std::move(journal);
  return log;
}

Status TaskLog::Snapshot(const std::function<Status(const std::string&)>& sink,
                         uint64_t* covered_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Task& task : tasks_) {
    BinaryWriter w;
    task.Serialize(&w);
    GAEA_RETURN_IF_ERROR(sink(w.buffer()));
  }
  // Appends hold mu_ while journaling, so the journal count equals the
  // number of tasks just streamed (task id N lives at journal LSN N - 1).
  *covered_lsn = journal_ == nullptr ? tasks_.size() : journal_->record_count();
  return Status::OK();
}

StatusOr<TaskId> TaskLog::Append(Task task) {
  std::lock_guard<std::mutex> lock(mu_);
  task.id = static_cast<TaskId>(tasks_.size()) + 1;
  for (Oid oid : task.outputs) {
    if (producer_index_.count(oid) > 0) {
      return Status::AlreadyExists(
          "object " + std::to_string(oid) +
          " already has a producing task (derivations are immutable)");
    }
  }
  if (journal_ != nullptr) {
    BinaryWriter w;
    task.Serialize(&w);
    GAEA_RETURN_IF_ERROR(journal_->Append(w.buffer()));
  }
  size_t idx = tasks_.size();
  for (Oid oid : task.outputs) producer_index_[oid] = idx;
  TaskId id = task.id;
  tasks_.push_back(std::move(task));
  if (commit_hook_) {
    GAEA_RETURN_IF_ERROR(commit_hook_(tasks_.back()));
  }
  return id;
}

StatusOr<const Task*> TaskLog::ApplyReplicated(const std::string& record) {
  std::lock_guard<std::mutex> lock(mu_);
  BinaryReader r(record);
  GAEA_ASSIGN_OR_RETURN(Task task, Task::Deserialize(&r));
  TaskId expected = static_cast<TaskId>(tasks_.size()) + 1;
  if (task.id != expected) {
    return Status::FailedPrecondition(
        "replicated task out of order: got id " + std::to_string(task.id) +
        ", expected " + std::to_string(expected));
  }
  if (journal_ != nullptr) {
    GAEA_RETURN_IF_ERROR(journal_->Append(record));
  }
  size_t idx = tasks_.size();
  for (Oid oid : task.outputs) producer_index_[oid] = idx;
  tasks_.push_back(std::move(task));
  if (commit_hook_) {
    GAEA_RETURN_IF_ERROR(commit_hook_(tasks_.back()));
  }
  return &tasks_.back();
}

StatusOr<const Task*> TaskLog::Get(TaskId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == kInvalidTaskId || id > tasks_.size()) {
    return Status::NotFound("no task with id " + std::to_string(id));
  }
  return &tasks_[id - 1];
}

StatusOr<const Task*> TaskLog::Producer(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = producer_index_.find(oid);
  if (it == producer_index_.end()) {
    return Status::NotFound("object " + std::to_string(oid) +
                            " has no producing task (base data)");
  }
  return &tasks_[it->second];
}

std::vector<Oid> TaskLog::FindCompleted(
    const std::string& process_name, int process_version,
    const std::map<std::string, std::vector<Oid>>& inputs) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Oid> out;
  for (auto it = tasks_.rbegin(); it != tasks_.rend(); ++it) {
    if (it->status == TaskStatus::kCompleted && it->outputs.size() == 1 &&
        it->process_version == process_version &&
        it->process_name == process_name && it->inputs == inputs) {
      out.push_back(it->outputs[0]);
    }
  }
  return out;
}

}  // namespace gaea
