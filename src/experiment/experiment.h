// Experiment management: the high-level semantics layer (paper §2.1.1,
// goal 4: "a metadata manager for the management of scientific experiments
// and procedures, providing the capabilities of data sharing,
// reproducibility of experiments and capturing the semantics of derived
// data").
//
// An Experiment groups the tasks a scientist ran toward one objective,
// together with the concepts involved. Reproduce() replays every recorded
// task in order and verifies that the regenerated objects are attribute-
// identical to the originals — "experiments can be reproduced, allowing
// rapid and reliable confirmation of results" (§4.2).

#ifndef GAEA_EXPERIMENT_EXPERIMENT_H_
#define GAEA_EXPERIMENT_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/deriver.h"
#include "core/task.h"
#include "query/interpolate.h"
#include "storage/journal.h"
#include "util/status.h"

namespace gaea {

using ExperimentId = uint32_t;

struct Experiment {
  ExperimentId id = 0;
  std::string name;
  std::string doc;
  std::string user;
  std::vector<std::string> concepts;  // concepts under study
  std::vector<TaskId> tasks;          // derivations, in execution order

  void Serialize(BinaryWriter* w) const;
  static StatusOr<Experiment> Deserialize(BinaryReader* r);
};

// Outcome of reproducing one experiment.
struct ReproductionReport {
  struct Entry {
    TaskId original_task = kInvalidTaskId;
    Oid original_output = kInvalidOid;
    Oid replayed_output = kInvalidOid;
    bool identical = false;   // attribute-for-attribute equality
    std::string note;
  };
  std::vector<Entry> entries;
  bool all_identical = true;
};

class ExperimentManager {
 public:
  // Replays `path` then appends new definitions to it; file I/O goes
  // through `env`. With `recovery`, the snapshot loads first and the
  // journal replays only from recovery->start_lsn.
  static StatusOr<std::unique_ptr<ExperimentManager>> Open(
      const std::string& path, Env* env = Env::Default(),
      const JournalRecovery* recovery = nullptr);

  // The experiment journal (never null).
  Journal* journal() const { return journal_.get(); }

  // Records an experiment; assigns and returns its id.
  StatusOr<ExperimentId> Define(Experiment experiment);

  StatusOr<const Experiment*> Get(const std::string& name) const;
  StatusOr<const Experiment*> Get(ExperimentId id) const;
  const std::vector<Experiment>& List() const { return experiments_; }

  // Replays every task of `name` via the deriver (template processes) or
  // interpolator (synthetic interpolation tasks) and compares outputs.
  StatusOr<ReproductionReport> Reproduce(const std::string& name,
                                         Catalog* catalog, Deriver* deriver,
                                         Interpolator* interpolator,
                                         const TaskLog* log) const;

  // ---- replication (src/replication/) ----

  // Applies one shipped experiment record (sequential-id checked:
  // kFailedPrecondition on a gap) and appends it verbatim to the local
  // journal. Serialized externally, like Define.
  Status ApplyReplicated(const std::string& record);

  // ---- checkpointing (src/recovery/) ----
  // Like the manager itself, not internally synchronized: the kernel
  // serializes Define against Snapshot (DDL is exclusive, checkpoint
  // shared, on the server path).

  // Streams every experiment as a journal record (id order) and reports
  // the journal LSN covered.
  Status Snapshot(const std::function<Status(const std::string&)>& sink,
                  uint64_t* covered_lsn) const;

 private:
  ExperimentManager() = default;

  std::vector<Experiment> experiments_;
  std::unique_ptr<Journal> journal_;
};

// Attribute-for-attribute equality of two stored objects of the same class
// (OIDs excluded). Exposed for tests.
StatusOr<bool> ObjectsIdentical(const Catalog& catalog, Oid a, Oid b);

}  // namespace gaea

#endif  // GAEA_EXPERIMENT_EXPERIMENT_H_
