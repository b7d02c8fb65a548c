// Derivation executor: fires processes on concrete data objects.
//
// For each instantiation the Deriver (1) loads the bound input objects,
// (2) evaluates the TEMPLATE ASSERTIONS — guard rules that "need to hold
// before a process can be applied" — failing the task if any is violated,
// (3) evaluates the MAPPINGS to produce the output object's attributes,
// (4) stores the output object, and (5) records the Task in the task log.
// Failed instantiations are recorded too: a derivation attempt is itself
// experiment history.

#ifndef GAEA_CORE_DERIVER_H_
#define GAEA_CORE_DERIVER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/process_registry.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "types/op_registry.h"
#include "util/env.h"
#include "util/status.h"

namespace gaea {

class Deriver {
 public:
  Deriver(Catalog* catalog, const ProcessRegistry* processes,
          const OperatorRegistry* ops, TaskLog* log)
      : catalog_(catalog), processes_(processes), ops_(ops), log_(log) {}

  // Identity recorded on tasks.
  void set_user(std::string user) { user_ = std::move(user); }
  // Logical clock recorded on tasks (deterministic replays need an
  // injectable clock; the kernel advances it per operation).
  void set_clock(AbsTime now) { now_ = now; }
  // Wall-clock source for task durations; defaults to Env::Default().
  void set_env(Env* env) { env_ = env; }
  // Observability sink (optional). Counts completed and failed
  // derivations, observes each completed task's duration into
  // gaea_derive_latency_micros{process="<name>"}, and times every operator
  // call of a prepared evaluation into gaea_operator_micros{op="<name>"}.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Fires process `name` (latest version, or `version` > 0) on the given
  // input OIDs. Returns the OID of the newly stored output object.
  StatusOr<Oid> Derive(const std::string& name,
                       const std::map<std::string, std::vector<Oid>>& inputs,
                       int version = 0);

  // Re-runs the process/version and inputs of a completed task; returns the
  // new output OID. Reproducibility check: with deterministic operators the
  // new object's attributes equal the original's.
  StatusOr<Oid> Replay(const Task& task);

  // ---- split execution (used by the parallel TaskScheduler) ----
  //
  // One instantiation is split into a compute half (Prepare: load inputs,
  // check assertions, evaluate mappings — pure reads, safe on any thread)
  // and a commit half (Commit: store the output object, append the task
  // record). The scheduler runs Prepare concurrently but commits in plan
  // order, so OID assignment and task-log order stay deterministic.
  struct Prepared {
    Task task;                         // record-in-progress (no outputs yet)
    std::optional<DataObject> output;  // set iff status.ok()
    Status status = Status::OK();      // prepare outcome
    uint64_t start_us = 0;             // Env::NowMicros at Prepare entry
  };

  Prepared Prepare(const ProcessDef& proc,
                   const std::map<std::string, std::vector<Oid>>& inputs) const;

  // Completes `prepared`: on prepare success, inserts the output object and
  // logs the completed task, returning the new OID; on failure (from
  // Prepare or from the insert itself) logs the failed task and returns the
  // error — exactly Derive's externally visible behavior.
  StatusOr<Oid> Commit(Prepared prepared);

 private:
  Catalog* catalog_;
  const ProcessRegistry* processes_;
  const OperatorRegistry* ops_;
  TaskLog* log_;
  std::string user_ = "gaea";
  AbsTime now_;
  Env* env_ = Env::Default();
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* derives_completed_ = nullptr;
  obs::Counter* derives_failed_ = nullptr;
};

}  // namespace gaea

#endif  // GAEA_CORE_DERIVER_H_
