// Dependency-driven parallel derivation scheduler (the paper's compound-
// process expansion, Figure 5, executed concurrently).
//
// The scheduler takes a DerivationPlan — primitive process instantiations
// whose inputs are either stored OIDs or outputs of earlier steps — and
// runs independent steps as items of one growing job on the process-wide
// TilePool (tile_pool.h), at the pool's width. Each item runs the lowest
// ready step, split along Deriver's Prepare/Commit seam:
//
//   * Prepare (load inputs, check assertions, evaluate mappings) runs on
//     any pool thread, concurrently with other steps;
//   * Commit (store the output object, append the task record) happens in
//     strict plan order through a reorder buffer, so OID assignment and
//     task-log order are byte-identical to a single-threaded run no matter
//     how many threads raced the prepares.
//
// Items never wait for their commit turn: a finished prepare is deposited
// into the buffer and the item ends; whichever item deposits the next-in-
// order step drains everything that became committable, and adds one item
// per dependent step those commits made ready. A one-step plan runs on the
// caller without touching the pool.
//
// When a DerivationCache is attached (non-null), each step consults it
// before preparing (key: process, version, params, input OIDs — see
// derivation_cache.h). The commit-time state is authoritative: a compute-
// time hit is re-validated against the catalog at commit (recomputing
// inline if the object vanished), and a compute-time miss re-checks the
// cache at commit so duplicate in-flight requests converge on one object.
//
// A failed step poisons its transitive dependents (they are reported
// failed, and never run); independent steps still execute — the scheduler
// serves batches from many experiments, and one experiment's failure must
// not cancel another's work.

#ifndef GAEA_CORE_SCHEDULER_H_
#define GAEA_CORE_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/compound_process.h"
#include "core/derivation_cache.h"
#include "core/deriver.h"
#include "core/planner.h"
#include "core/process_registry.h"
#include "util/status.h"

namespace gaea {

// One batched derivation request; inputs are stored OIDs.
struct DeriveRequest {
  std::string process;
  int version = 0;  // 0 = latest
  std::map<std::string, std::vector<Oid>> inputs;
};

// Outcome of one plan step / batch request.
struct DeriveOutcome {
  Status status = Status::OK();
  Oid oid = kInvalidOid;
  bool cache_hit = false;
};

class TaskScheduler {
 public:
  // A null `cache` turns memoization off: every step prepares and commits.
  TaskScheduler(Deriver* deriver, Catalog* catalog,
                const ProcessRegistry* processes, DerivationCache* cache)
      : deriver_(deriver),
        catalog_(catalog),
        processes_(processes),
        cache_(cache) {}

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  // Executes `plan`, returning one outcome per step in plan order. The call
  // itself fails only on a malformed plan (forward/self step references);
  // per-step failures are reported in the outcomes.
  StatusOr<std::vector<DeriveOutcome>> Execute(const DerivationPlan& plan);

  // Executes independent requests (a batch has no inter-step references).
  StatusOr<std::vector<DeriveOutcome>> RunBatch(
      const std::vector<DeriveRequest>& requests);

  // Expands `compound` into its primitive-stage DAG and executes it;
  // returns the output stage's object. First failing stage's status (in
  // stage order) is returned on failure.
  StatusOr<Oid> RunCompound(
      const CompoundProcessDef& compound,
      const std::map<std::string, std::vector<Oid>>& external_inputs);

 private:
  struct StepItem;  // reorder-buffer entry (scheduler.cc)

  StepItem ComputeStep(const PlanStep& step,
                       std::map<std::string, std::vector<Oid>> inputs) const;

  Deriver* deriver_;
  Catalog* catalog_;
  const ProcessRegistry* processes_;
  DerivationCache* cache_;  // null when caching is off
};

}  // namespace gaea

#endif  // GAEA_CORE_SCHEDULER_H_
