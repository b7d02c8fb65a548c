// Tasks: object-level derivation records (paper §2.1.2, §2.1.5).
//
// "The instantiation of a process with input data objects is called a task.
// Every task will generate a set of objects (most of the time just one) for
// the output class." The task log is the durable record of *how every
// derived object came to be*: process name + version, the exact input OIDs
// per argument, the output OIDs, who ran it and when. It is the basis of
// lineage queries and experiment reproduction.

#ifndef GAEA_CORE_TASK_H_
#define GAEA_CORE_TASK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "spatial/abstime.h"
#include "storage/journal.h"
#include "storage/object_store.h"
#include "util/serialize.h"
#include "util/status.h"

namespace gaea {

using TaskId = uint64_t;
constexpr TaskId kInvalidTaskId = 0;

enum class TaskStatus : uint8_t {
  kCompleted = 0,
  kFailed = 1,
};

struct Task {
  TaskId id = kInvalidTaskId;
  std::string process_name;
  int process_version = 1;
  // Input OIDs per process argument name.
  std::map<std::string, std::vector<Oid>> inputs;
  std::vector<Oid> outputs;
  TaskStatus status = TaskStatus::kCompleted;
  std::string error;       // failure reason when status == kFailed
  std::string user;        // who ran the derivation
  std::string note;        // free text (external-procedure description)
  AbsTime started;         // logical clock supplied by the kernel
  int64_t duration_us = 0; // wall time of the derivation

  // All input OIDs flattened (deduplicated, sorted).
  std::vector<Oid> AllInputs() const;

  std::string ToString() const;

  void Serialize(BinaryWriter* w) const;
  static StatusOr<Task> Deserialize(BinaryReader* r);
};

// Append-only, optionally journal-backed task log with lineage indexes.
// Thread-safe: appends and index lookups are serialized by a mutex. Tasks
// live in a deque, so `const Task*` results stay valid across appends.
class TaskLog {
 public:
  TaskLog() = default;
  TaskLog(const TaskLog&) = delete;
  TaskLog& operator=(const TaskLog&) = delete;

  // In-memory log (benchmarking, scratch sessions).
  static std::unique_ptr<TaskLog> InMemory();
  // Durable log: replays `path` then appends to it; I/O goes through `env`.
  // With `recovery`, the snapshot loads first and the journal replays only
  // from recovery->start_lsn (a task's journal LSN is its id - 1, so the
  // sequential-id replay check holds across the seam).
  static StatusOr<std::unique_ptr<TaskLog>> Open(
      const std::string& path, Env* env = Env::Default(),
      const JournalRecovery* recovery = nullptr);

  // The backing journal (a task's LSN is its id - 1); null for an
  // in-memory log.
  Journal* journal() const { return journal_.get(); }

  // Records a task; assigns and returns its id.
  StatusOr<TaskId> Append(Task task);

  // Called under the log mutex after a task commits (Append or
  // ApplyReplicated), with the committed task. Because the mutex serializes
  // commits, the hook observes tasks in id order exactly once per handle —
  // the provenance index keys its incremental maintenance on this. A hook
  // error propagates to the committer (the task itself is already durable;
  // the hook's own recovery path must absorb the gap).
  void SetCommitHook(std::function<Status(const Task&)> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    commit_hook_ = std::move(hook);
  }

  StatusOr<const Task*> Get(TaskId id) const;
  // Not synchronized with concurrent appends — call only from single-
  // threaded sections (shell, tests, lineage reports).
  const std::deque<Task>& tasks() const { return tasks_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }

  // The task that produced `oid` (an object is produced by at most one
  // task); kNotFound for base objects.
  StatusOr<const Task*> Producer(Oid oid) const;

  // The outputs of every *completed single-output* task with exactly this
  // process version and these input bindings, newest first; empty when
  // none ran. The scan holds the log mutex, so it is safe against
  // concurrent appends. Backs derivation reuse ("avoid unnecessary
  // duplication of experiments", paper §1).
  std::vector<Oid> FindCompleted(
      const std::string& process_name, int process_version,
      const std::map<std::string, std::vector<Oid>>& inputs) const;

  // ---- replication (src/replication/) ----

  // Applies one shipped task record: deserializes, enforces the sequential-
  // id invariant (kFailedPrecondition on a gap so the applier retries after
  // the missing prefix ships), indexes, and appends the record verbatim to
  // the local journal. Returns the applied task (pointer stable across
  // appends) so the caller can rematerialize its outputs.
  StatusOr<const Task*> ApplyReplicated(const std::string& record);

  // ---- checkpointing (src/recovery/) ----

  // Streams every task as a journal record (id order) and reports the
  // journal LSN covered. Atomic under the log mutex, so the stream and the
  // LSN agree even while derivations append concurrently.
  Status Snapshot(const std::function<Status(const std::string&)>& sink,
                  uint64_t* covered_lsn) const;

  // Journaled log only: Journal::TruncatePrefix under the log mutex.
  Status TruncateJournalPrefix(uint64_t upto_lsn,
                               const std::string& archive_path) {
    std::lock_guard<std::mutex> lock(mu_);
    return journal_->TruncatePrefix(upto_lsn, archive_path);
  }

 private:
  mutable std::mutex mu_;
  std::deque<Task> tasks_;
  std::map<Oid, size_t> producer_index_;
  std::unique_ptr<Journal> journal_;
  std::function<Status(const Task&)> commit_hook_;
};

}  // namespace gaea

#endif  // GAEA_CORE_TASK_H_
