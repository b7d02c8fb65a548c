// The query engine: answers requests over concepts and classes with the
// three-step sequence of paper §2.1.5:
//
//   1. direct data retrieval from the non-primitive classes corresponding
//      to the concept of interest;
//   2. data interpolation (temporal), where data are missing;
//   3. data computation, based on a derivation relationship;
//
// with "steps 2 and 3 prioritized according to the user's needs" — the
// request carries an ordered strategy list. Queries over a concept expand
// to the classes it covers (own members plus ISA descendants). Step 3
// runs the planner's plan on the TaskScheduler, the one plan executor.

#ifndef GAEA_QUERY_QUERY_H_
#define GAEA_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/deriver.h"
#include "core/planner.h"
#include "core/process_registry.h"
#include "query/interpolate.h"
#include "query/predicate.h"
#include "util/status.h"

namespace gaea {

enum class QueryStep : uint8_t { kRetrieve = 0, kInterpolate = 1, kDerive = 2 };

const char* QueryStepName(QueryStep step);

struct QueryRequest {
  // Concept name or class name; concepts expand to covered classes.
  std::string target;
  QueryFilter filter;
  // Steps attempted in order per class until one yields objects.
  std::vector<QueryStep> strategy = {QueryStep::kRetrieve,
                                     QueryStep::kInterpolate,
                                     QueryStep::kDerive};
};

// Per-class portion of an answer.
struct ClassAnswer {
  ClassId class_id = kInvalidClassId;
  std::string class_name;
  QueryStep method = QueryStep::kRetrieve;  // how the objects were obtained
  std::vector<Oid> oids;
  // One line per attempted step, e.g. "retrieve: 0 objects",
  // "derive: Underivable: ..." — the EXPLAIN trace of §2.1.5's sequence.
  std::vector<std::string> attempts;
};

struct QueryResult {
  std::vector<ClassAnswer> answers;

  // All OIDs across classes.
  std::vector<Oid> AllOids() const;
  bool empty() const;
};

class QueryEngine {
 public:
  QueryEngine(Catalog* catalog, const ProcessRegistry* processes,
              Deriver* deriver, Interpolator* interpolator)
      : catalog_(catalog),
        processes_(processes),
        deriver_(deriver),
        interpolator_(interpolator),
        planner_(catalog, processes) {}

  // Executes the request. A class contributes an answer from the first
  // strategy step that yields objects; classes where every step fails are
  // omitted. An entirely empty result is returned as OK with no answers
  // when at least one step failed only for lack of data, so callers can
  // distinguish "no data" from malformed requests (which return errors).
  StatusOr<QueryResult> Execute(const QueryRequest& request);

  const Planner& planner() const { return planner_; }

 private:
  // Classes named by `target` (one class, or a concept's covered classes).
  StatusOr<std::vector<ClassId>> ResolveTarget(const std::string& target) const;

  StatusOr<std::vector<Oid>> TryRetrieve(ClassId class_id,
                                         const QueryFilter& filter) const;
  StatusOr<std::vector<Oid>> TryInterpolate(ClassId class_id,
                                            const QueryFilter& filter);
  StatusOr<std::vector<Oid>> TryDerive(ClassId class_id,
                                       const QueryFilter& filter);

  Catalog* catalog_;
  const ProcessRegistry* processes_;
  Deriver* deriver_;
  Interpolator* interpolator_;
  Planner planner_;
};

}  // namespace gaea

#endif  // GAEA_QUERY_QUERY_H_
