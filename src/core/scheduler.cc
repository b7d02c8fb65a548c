#include "core/scheduler.h"

#include <mutex>
#include <set>
#include <utility>

#include "core/tile_pool.h"
#include "obs/trace.h"

namespace gaea {

// One entry of the commit reorder buffer.
struct TaskScheduler::StepItem {
  enum class Kind {
    kPrepared,  // prepare ran (successfully or not); commit via Deriver
    kCacheHit,  // compute-time cache hit; validate at commit
    kFailed,    // never reached Prepare (e.g. unknown process); no task log
  };
  Kind kind = Kind::kFailed;
  Deriver::Prepared prepared;            // kPrepared
  std::string key;                       // cache key (when caching)
  Oid cached_oid = kInvalidOid;          // kCacheHit
  const ProcessDef* proc = nullptr;      // for inline recompute at commit
  std::map<std::string, std::vector<Oid>> inputs;
  Status status = Status::OK();          // kFailed reason
};

TaskScheduler::StepItem TaskScheduler::ComputeStep(
    const PlanStep& step, std::map<std::string, std::vector<Oid>> inputs) const {
  StepItem item;
  item.inputs = std::move(inputs);

  StatusOr<const ProcessDef*> proc =
      processes_->Resolve(step.process_name, step.process_version);
  if (!proc.ok()) {
    item.kind = StepItem::Kind::kFailed;
    item.status = proc.status();
    return item;
  }
  item.proc = *proc;

  if (cache_ != nullptr) {
    item.key = DerivationCache::MakeKey(**proc, item.inputs);
    if (std::optional<Oid> hit = cache_->Lookup(item.key)) {
      item.kind = StepItem::Kind::kCacheHit;
      item.cached_oid = *hit;
      return item;
    }
  }

  item.kind = StepItem::Kind::kPrepared;
  item.prepared = deriver_->Prepare(**proc, item.inputs);
  return item;
}

StatusOr<std::vector<DeriveOutcome>> TaskScheduler::Execute(
    const DerivationPlan& plan) {
  const size_t n = plan.steps.size();
  std::vector<DeriveOutcome> results(n);
  if (n == 0) return results;

  // Dependency graph from step references. Plans are topologically ordered
  // by construction (planner, compound expansion), so only backward
  // references are legal.
  std::vector<std::vector<size_t>> dependents(n);
  std::vector<size_t> remaining(n, 0);
  std::set<size_t> ready;  // runnable steps, lowest first; guarded by mu
  for (size_t i = 0; i < n; ++i) {
    std::set<size_t> deps;
    for (const auto& [arg, bound] : plan.steps[i].bindings) {
      for (const BoundInput& input : bound) {
        if (input.kind != BoundInput::Kind::kStep) continue;
        if (input.step_index >= i) {
          return Status::InvalidArgument(
              "plan step " + std::to_string(i) + " references step " +
              std::to_string(input.step_index) + " that does not precede it");
        }
        deps.insert(input.step_index);
      }
    }
    remaining[i] = deps.size();
    if (deps.empty()) ready.insert(i);
    for (size_t d : deps) dependents[d].push_back(i);
  }

  // Shared execution state, all guarded by `mu`. Lock order: mu is only
  // ever taken when no storage/catalog latch is held by this thread;
  // catalog/storage latches may be taken while holding mu (commit path).
  std::mutex mu;
  std::map<size_t, StepItem> pending;  // reorder buffer: step -> finished item
  std::vector<Oid> oids(n, kInvalidOid);
  std::vector<char> poisoned(n, 0);
  size_t next_commit = 0;

  // Resolves a step's input OIDs; dependencies are committed, so oids[] is
  // final for every referenced step. Called with mu held.
  auto resolve_inputs = [&](const PlanStep& step) {
    std::map<std::string, std::vector<Oid>> inputs;
    for (const auto& [arg, bound] : step.bindings) {
      std::vector<Oid>& out = inputs[arg];
      for (const BoundInput& input : bound) {
        out.push_back(input.kind == BoundInput::Kind::kStored
                          ? input.oid
                          : oids[input.step_index]);
      }
    }
    return inputs;
  };

  // Finalizes step i's outcome bookkeeping. Called with mu held from the
  // drain loop; may add ready steps or poison entries to `pending`.
  auto finalize = [&](size_t i) {
    for (size_t d : dependents[i]) {
      if (!results[i].status.ok()) poisoned[d] = 1;
      if (--remaining[d] > 0) continue;
      if (poisoned[d]) {
        StepItem poison;
        poison.kind = StepItem::Kind::kFailed;
        poison.status = Status::FailedPrecondition(
            "upstream plan step " + std::to_string(i) + " failed: " +
            results[i].status.ToString());
        pending.emplace(d, std::move(poison));
      } else {
        ready.insert(d);
      }
    }
  };

  // Commits every item that became next-in-order. Called with mu held.
  auto drain = [&] {
    for (auto it = pending.find(next_commit); it != pending.end();
         it = pending.find(next_commit)) {
      size_t i = it->first;
      StepItem item = std::move(it->second);
      pending.erase(it);
      DeriveOutcome& out = results[i];
      switch (item.kind) {
        case StepItem::Kind::kFailed:
          out.status = std::move(item.status);
          break;
        case StepItem::Kind::kCacheHit: {
          StatusOr<bool> stored = catalog_->ContainsObject(item.cached_oid);
          if (!stored.ok()) {
            out.status = stored.status();
          } else if (*stored) {
            out.oid = item.cached_oid;
            out.cache_hit = true;
          } else {
            // The memoized object was evicted after the compute-time hit;
            // the commit-time state wins — recompute inline (we hold this
            // step's commit slot, so ordering is preserved).
            cache_->InvalidateOutput(item.cached_oid);
            StatusOr<Oid> oid =
                deriver_->Commit(deriver_->Prepare(*item.proc, item.inputs));
            if (oid.ok()) {
              out.oid = *oid;
              cache_->Insert(item.key, *oid);
            } else {
              out.status = oid.status();
            }
          }
          break;
        }
        case StepItem::Kind::kPrepared: {
          if (cache_ != nullptr && item.prepared.status.ok()) {
            // Another in-flight step may have committed this key while we
            // were preparing; converge on its object (uncounted peek: the
            // compute-time miss already told the stats story).
            std::optional<Oid> dup = cache_->Peek(item.key);
            if (dup.has_value()) {
              StatusOr<bool> stored = catalog_->ContainsObject(*dup);
              if (!stored.ok()) {
                out.status = stored.status();
                break;
              }
              if (*stored) {
                out.oid = *dup;
                out.cache_hit = true;
                break;
              }
            }
          }
          StatusOr<Oid> oid = deriver_->Commit(std::move(item.prepared));
          if (oid.ok()) {
            out.oid = *oid;
            if (cache_ != nullptr) cache_->Insert(item.key, *oid);
          } else {
            out.status = oid.status();
          }
          break;
        }
      }
      oids[i] = out.oid;
      finalize(i);
      next_commit++;
    }
  };

  // One pool item: runs the lowest ready step, then commits whatever
  // became next-in-order; it adds one item per step its commits made ready.
  auto run_step = [&](int64_t, int64_t* more) {
    std::unique_lock<std::mutex> lock(mu);
    size_t i = *ready.begin();
    ready.erase(ready.begin());
    std::map<std::string, std::vector<Oid>> inputs =
        resolve_inputs(plan.steps[i]);
    lock.unlock();
    StepItem item;
    {
      obs::SpanGuard span("task:" + plan.steps[i].process_name, "scheduler");
      item = ComputeStep(plan.steps[i], std::move(inputs));
    }
    lock.lock();
    pending.emplace(i, std::move(item));
    const size_t was_ready = ready.size();
    drain();
    *more = static_cast<int64_t>(ready.size() - was_ready);
    return Status::OK();
  };

  // A one-step plan (every wire Derive) runs on the caller, off the pool.
  int64_t more = 0;
  GAEA_RETURN_IF_ERROR(
      n == 1 ? run_step(0, &more)
             : TilePool::Global().Run(static_cast<int64_t>(ready.size()),
                                      run_step));
  return results;
}

StatusOr<std::vector<DeriveOutcome>> TaskScheduler::RunBatch(
    const std::vector<DeriveRequest>& requests) {
  DerivationPlan plan;
  plan.steps.reserve(requests.size());
  for (const DeriveRequest& request : requests) {
    PlanStep step;
    step.process_name = request.process;
    step.process_version = request.version;
    for (const auto& [arg, oids] : request.inputs) {
      std::vector<BoundInput>& bound = step.bindings[arg];
      bound.reserve(oids.size());
      for (Oid oid : oids) bound.push_back(BoundInput::Stored(oid));
    }
    plan.steps.push_back(std::move(step));
  }
  return Execute(plan);
}

StatusOr<Oid> TaskScheduler::RunCompound(
    const CompoundProcessDef& compound,
    const std::map<std::string, std::vector<Oid>>& external_inputs) {
  GAEA_ASSIGN_OR_RETURN(std::vector<const CompoundStage*> order,
                        compound.Expand(catalog_->classes(), *processes_));
  DerivationPlan plan;
  plan.steps.reserve(order.size());
  std::map<std::string, size_t> stage_index;
  for (size_t i = 0; i < order.size(); ++i) {
    const CompoundStage* stage = order[i];
    PlanStep step;
    step.process_name = stage->process_name;
    step.process_version = 0;  // latest, matching direct Derive
    for (const auto& [arg, input] : stage->bindings) {
      if (input.source == StageInput::Source::kExternal) {
        auto it = external_inputs.find(input.name);
        if (it == external_inputs.end()) {
          return Status::InvalidArgument("compound input " + input.name +
                                         " not supplied");
        }
        std::vector<BoundInput>& bound = step.bindings[arg];
        for (Oid oid : it->second) bound.push_back(BoundInput::Stored(oid));
      } else {
        auto it = stage_index.find(input.name);
        if (it == stage_index.end()) {
          return Status::Internal("stage " + input.name +
                                  " not yet executed in expansion order");
        }
        step.bindings[arg] = {BoundInput::FromStep(it->second)};
      }
    }
    stage_index[stage->name] = i;
    plan.steps.push_back(std::move(step));
  }

  GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes, Execute(plan));
  for (const DeriveOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) return outcome.status;
  }
  auto it = stage_index.find(compound.output_stage());
  if (it != stage_index.end()) return outcomes[it->second].oid;
  return outcomes.empty() ? kInvalidOid : outcomes.back().oid;
}

}  // namespace gaea
