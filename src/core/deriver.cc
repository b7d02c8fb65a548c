#include "core/deriver.h"

#include "obs/trace.h"

namespace gaea {

void Deriver::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  derives_completed_ = metrics->GetCounter("gaea_derives_completed_total");
  derives_failed_ = metrics->GetCounter("gaea_derives_failed_total");
}

StatusOr<Oid> Deriver::Derive(
    const std::string& name,
    const std::map<std::string, std::vector<Oid>>& inputs, int version) {
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* proc,
                        processes_->Resolve(name, version));
  return Commit(Prepare(*proc, inputs));
}

Deriver::Prepared Deriver::Prepare(
    const ProcessDef& proc,
    const std::map<std::string, std::vector<Oid>>& inputs) const {
  obs::SpanGuard span("prepare:" + proc.name(), "derive");
  Prepared prepared;
  prepared.start_us = env_->NowMicros();

  // Prepare a task record up front so failures are logged too.
  Task& task = prepared.task;
  task.process_name = proc.name();
  task.process_version = proc.version();
  task.inputs = inputs;
  task.user = user_;
  task.started = now_;

  auto fail = [&](Status status) -> Prepared&& {
    prepared.status = std::move(status);
    return std::move(prepared);
  };

  // Load and bind the input objects. Objects are kept alive in `loaded`.
  std::vector<std::unique_ptr<DataObject>> loaded;
  EvalContext ctx;
  ctx.ops = ops_;
  ctx.params = &proc.params();
  ctx.metrics = metrics_;
  ctx.env = env_;
  for (const ProcessArg& arg : proc.args()) {
    auto it = inputs.find(arg.name);
    if (it == inputs.end()) {
      return fail(Status::InvalidArgument("process " + proc.name() +
                                          ": argument " + arg.name +
                                          " not bound"));
    }
    if (static_cast<int>(it->second.size()) < arg.min_card) {
      return fail(Status::FailedPrecondition(
          "process " + proc.name() + ": argument " + arg.name + " needs >= " +
          std::to_string(arg.min_card) + " objects, got " +
          std::to_string(it->second.size())));
    }
    if (!arg.setof && it->second.size() != 1) {
      return fail(Status::InvalidArgument(
          "process " + proc.name() + ": scalar argument " + arg.name +
          " bound to " + std::to_string(it->second.size()) + " objects"));
    }
    auto arg_class = catalog_->classes().LookupByName(arg.class_name);
    if (!arg_class.ok()) return fail(arg_class.status());
    ArgBinding binding;
    binding.class_def = *arg_class;
    binding.setof = arg.setof;
    for (Oid oid : it->second) {
      auto obj = catalog_->GetObject(oid);
      if (!obj.ok()) return fail(obj.status());
      if (obj->class_id() != (*arg_class)->id()) {
        return fail(Status::InvalidArgument(
            "object " + std::to_string(oid) + " is not of class " +
            arg.class_name));
      }
      loaded.push_back(std::make_unique<DataObject>(*std::move(obj)));
      binding.objects.push_back(loaded.back().get());
    }
    ctx.args[arg.name] = std::move(binding);
  }
  // Reject bindings for arguments the process does not declare.
  for (const auto& [arg_name, oids] : inputs) {
    if (!proc.FindArg(arg_name).ok()) {
      return fail(Status::InvalidArgument("process " + proc.name() +
                                          " has no argument " + arg_name));
    }
  }

  // Check the guard assertions.
  for (const ExprPtr& assertion : proc.assertions()) {
    auto result = assertion->Eval(ctx);
    if (!result.ok()) return fail(result.status());
    auto truth = result->AsBool();
    if (!truth.ok()) return fail(truth.status());
    if (!*truth) {
      return fail(Status::FailedPrecondition(
          "process " + proc.name() + ": assertion violated: " +
          assertion->ToString()));
    }
  }

  // Evaluate the mappings into the output object.
  auto out_class = catalog_->classes().LookupByName(proc.output_class());
  if (!out_class.ok()) return fail(out_class.status());
  DataObject output(**out_class);
  for (const ProcessMapping& mapping : proc.mappings()) {
    auto value = mapping.expr->Eval(ctx);
    if (!value.ok()) {
      return fail(Status(value.status().code(),
                         "mapping " + proc.output_class() + "." +
                             mapping.attr + ": " + value.status().message()));
    }
    Status set = output.Set(**out_class, mapping.attr, *std::move(value));
    if (!set.ok()) return fail(set);
  }

  prepared.output = std::move(output);
  return prepared;
}

StatusOr<Oid> Deriver::Commit(Prepared prepared) {
  obs::SpanGuard span("commit:" + prepared.task.process_name, "derive");
  Task& task = prepared.task;
  auto finish_us = [&prepared, this] {
    uint64_t now = env_->NowMicros();
    return now > prepared.start_us ? now - prepared.start_us : 0;
  };
  auto fail = [&](Status status) -> Status {
    task.status = TaskStatus::kFailed;
    task.error = status.ToString();
    task.duration_us = static_cast<int64_t>(finish_us());
    if (derives_failed_ != nullptr) derives_failed_->Inc();
    // Best effort: the original error dominates a logging error.
    (void)log_->Append(std::move(task));
    return status;
  };

  if (!prepared.status.ok()) return fail(std::move(prepared.status));

  auto oid = catalog_->InsertObject(*std::move(prepared.output));
  if (!oid.ok()) return fail(oid.status());

  task.outputs.push_back(*oid);
  task.duration_us = static_cast<int64_t>(finish_us());
  if (metrics_ != nullptr) {
    derives_completed_->Inc();
    metrics_
        ->GetHistogram(obs::LabelledName("gaea_derive_latency_micros",
                                         "process", task.process_name))
        ->Observe(static_cast<uint64_t>(task.duration_us));
  }
  GAEA_RETURN_IF_ERROR(log_->Append(std::move(task)).status());
  return *oid;
}

StatusOr<Oid> Deriver::Replay(const Task& task) {
  if (task.status != TaskStatus::kCompleted) {
    return Status::FailedPrecondition("cannot replay failed task #" +
                                      std::to_string(task.id));
  }
  if (task.process_version < 1) {
    // version 0 = synthetic interpolation (Interpolator::Replay);
    // version -1 = external non-applicative procedure (paper §5).
    return Status::NotSupported(
        "task #" + std::to_string(task.id) + " (" + task.process_name +
        ") was not produced by a template-defined process and cannot be "
        "replayed by the deriver");
  }
  return Derive(task.process_name, task.inputs, task.process_version);
}

}  // namespace gaea
