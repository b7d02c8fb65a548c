#include "query/query.h"

#include "core/scheduler.h"

namespace gaea {

const char* QueryStepName(QueryStep step) {
  switch (step) {
    case QueryStep::kRetrieve: return "retrieve";
    case QueryStep::kInterpolate: return "interpolate";
    case QueryStep::kDerive: return "derive";
  }
  return "unknown";
}

std::vector<Oid> QueryResult::AllOids() const {
  std::vector<Oid> out;
  for (const ClassAnswer& answer : answers) {
    out.insert(out.end(), answer.oids.begin(), answer.oids.end());
  }
  return out;
}

bool QueryResult::empty() const {
  for (const ClassAnswer& answer : answers) {
    if (!answer.oids.empty()) return false;
  }
  return true;
}

StatusOr<std::vector<ClassId>> QueryEngine::ResolveTarget(
    const std::string& target) const {
  auto cls = catalog_->classes().LookupByName(target);
  if (cls.ok()) return std::vector<ClassId>{(*cls)->id()};
  auto concept_def = catalog_->concepts().LookupByName(target);
  if (concept_def.ok()) {
    GAEA_ASSIGN_OR_RETURN(std::set<ClassId> covered,
                          catalog_->concepts().CoveredClasses(
                              (*concept_def)->id));
    if (covered.empty()) {
      return Status::FailedPrecondition(
          "concept " + target +
          " covers no classes (no derivation mapped yet)");
    }
    return std::vector<ClassId>(covered.begin(), covered.end());
  }
  return Status::NotFound("'" + target + "' is neither a class nor a concept");
}

StatusOr<std::vector<Oid>> QueryEngine::TryRetrieve(
    ClassId class_id, const QueryFilter& filter) const {
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        catalog_->classes().LookupById(class_id));
  // Index-driven candidates: the spatial and temporal window constraints
  // are already satisfied; only attribute predicates require loading.
  GAEA_ASSIGN_OR_RETURN(
      std::vector<Oid> candidates,
      catalog_->Candidates(class_id, filter.window.region,
                           filter.window.time));
  if (filter.predicates.empty()) return candidates;
  std::vector<Oid> out;
  for (Oid oid : candidates) {
    GAEA_ASSIGN_OR_RETURN(DataObject obj, catalog_->GetObject(oid));
    bool match = true;
    for (const AttrPredicate& pred : filter.predicates) {
      GAEA_ASSIGN_OR_RETURN(match, pred.Matches(*def, obj));
      if (!match) break;
    }
    if (match) out.push_back(oid);
  }
  return out;
}

StatusOr<std::vector<Oid>> QueryEngine::TryInterpolate(
    ClassId class_id, const QueryFilter& filter) {
  if (!filter.window.time.has_value()) {
    return Status::FailedPrecondition(
        "interpolation needs a temporal window");
  }
  // Interpolate at the window midpoint — the requested instant for
  // instant-style windows.
  const TimeInterval& interval = *filter.window.time;
  AbsTime t = interval.begin() +
              (interval.end() - interval.begin()) / 2;
  GAEA_ASSIGN_OR_RETURN(
      Oid oid, interpolator_->Interpolate(class_id, t, filter.window.region));
  // The interpolated object must still satisfy attribute predicates.
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        catalog_->classes().LookupById(class_id));
  GAEA_ASSIGN_OR_RETURN(DataObject obj, catalog_->GetObject(oid));
  GAEA_ASSIGN_OR_RETURN(bool match, filter.Matches(*def, obj));
  if (!match) {
    return Status::NotFound("interpolated object does not satisfy predicates");
  }
  return std::vector<Oid>{oid};
}

StatusOr<std::vector<Oid>> QueryEngine::TryDerive(ClassId class_id,
                                                  const QueryFilter& filter) {
  GAEA_ASSIGN_OR_RETURN(DerivationPlan plan,
                        planner_.Plan(class_id, filter.window));
  if (plan.steps.empty()) {
    // Planner found stored data; nothing to derive.
    return Status::NotFound("data already stored; nothing to derive");
  }
  // No cache: the query records one task per plan step, committed in plan
  // order at any pool width.
  TaskScheduler scheduler(deriver_, catalog_, processes_, nullptr);
  GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes,
                        scheduler.Execute(plan));
  // A failed step's dependents report it second-hand, so the first failure
  // in plan order is the root cause.
  for (const DeriveOutcome& outcome : outcomes) {
    GAEA_RETURN_IF_ERROR(outcome.status);
  }
  // The final step's output is the requested object; check predicates.
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        catalog_->classes().LookupById(class_id));
  Oid target_oid = outcomes.back().oid;
  GAEA_ASSIGN_OR_RETURN(DataObject obj, catalog_->GetObject(target_oid));
  GAEA_ASSIGN_OR_RETURN(bool match, filter.Matches(*def, obj));
  if (!match) {
    return Status::NotFound("derived object does not satisfy predicates");
  }
  return std::vector<Oid>{target_oid};
}

StatusOr<QueryResult> QueryEngine::Execute(const QueryRequest& request) {
  if (request.strategy.empty()) {
    return Status::InvalidArgument("query strategy must list at least one step");
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<ClassId> classes,
                        ResolveTarget(request.target));
  QueryResult result;
  for (ClassId class_id : classes) {
    GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                          catalog_->classes().LookupById(class_id));
    std::vector<std::string> attempts;
    bool answered = false;
    for (QueryStep step : request.strategy) {
      StatusOr<std::vector<Oid>> oids =
          Status::Internal("unreachable query step");
      switch (step) {
        case QueryStep::kRetrieve:
          oids = TryRetrieve(class_id, request.filter);
          break;
        case QueryStep::kInterpolate:
          oids = TryInterpolate(class_id, request.filter);
          break;
        case QueryStep::kDerive:
          oids = TryDerive(class_id, request.filter);
          break;
      }
      attempts.push_back(std::string(QueryStepName(step)) + ": " +
                         (oids.ok() ? std::to_string(oids->size()) + " object(s)"
                                    : oids.status().ToString()));
      if (oids.ok() && !oids->empty()) {
        ClassAnswer answer;
        answer.class_id = class_id;
        answer.class_name = def->name();
        answer.method = step;
        answer.oids = *std::move(oids);
        answer.attempts = std::move(attempts);
        result.answers.push_back(std::move(answer));
        answered = true;
        break;
      }
      // Data-availability misses fall through to the next step; genuine
      // configuration errors abort the query.
      if (!oids.ok() && oids.status().code() != StatusCode::kNotFound &&
          oids.status().code() != StatusCode::kUnderivable &&
          oids.status().code() != StatusCode::kFailedPrecondition) {
        return oids.status();
      }
    }
    if (!answered && !attempts.empty()) {
      // Record the miss so callers can explain "no data" (empty oids).
      ClassAnswer miss;
      miss.class_id = class_id;
      miss.class_name = def->name();
      miss.attempts = std::move(attempts);
      result.answers.push_back(std::move(miss));
    }
  }
  return result;
}

}  // namespace gaea
