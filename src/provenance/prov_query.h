// Provenance query engine over the lineage index (docs/PROVENANCE.md).
//
// Queries follow the semantics of Cheney, Chiticariu & Tan, "Provenance in
// Databases: Why, How, and Where" (Foundations and Trends in Databases,
// 2009), specialized to Gaea's derivation model:
//
//   * ancestry / descendant closure — the transitive inputs (resp. outputs)
//     of an object through the task log, resolved entirely through the
//     B+tree index with cycle and depth guards;
//   * why-provenance — the witness set of an output: the exact input OIDs,
//     per process argument, whose presence justified the derivation, plus
//     the base (underived) objects the witness ultimately rests on;
//   * where-provenance — which input *contributed a value* to which output
//     attribute: each MAPPING of the producing process version names the
//     arguments its expression reads, and those arguments bind the
//     contributing OIDs;
//   * process-version diff — how the procedures behind two objects differ
//     (ProvDB-style workflow-version queries: Miao et al., CIDR 2017),
//     leveraging the immutable versioned process registry;
//   * process chain and derivation diagram — the paper's derivation
//     browsing: the deepest chain of process versions behind an object, the
//     base data it rests on, and a Graphviz rendering of its history. Both
//     walk the derivation DAG once, fetching each task at most once, and
//     two chains compare without touching the index at all.
//
// Task records are resolved through a TaskSource, not the in-memory log
// alone: after a checkpoint's Journal::TruncatePrefix the live task journal
// no longer holds the oldest records, and the source transparently falls
// through to the archive-segment chain — so provenance reaches across
// checkpoint/truncation boundaries (tests/provenance_truncation_test.cc).

#ifndef GAEA_PROVENANCE_PROV_QUERY_H_
#define GAEA_PROVENANCE_PROV_QUERY_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/process_registry.h"
#include "core/task.h"
#include "provenance/prov_index.h"
#include "util/env.h"
#include "util/status.h"

namespace gaea {
namespace provenance {

// Where the engine reads task records from. Implementations must be safe
// for concurrent Fetch calls.
class TaskSource {
 public:
  virtual ~TaskSource() = default;
  // The task with `id`; kNotFound when the log never recorded it.
  virtual StatusOr<Task> Fetch(TaskId id) const = 0;
  // Highest committed task id (index entries above it are ignored).
  virtual uint64_t MaxTaskId() const = 0;
};

// Task records resolved from a database directory: the resident log first,
// then the live journal, then the archive chain a checkpoint truncated the
// prefix into. `log` may be in-memory (no journal) — the resident path then
// answers everything. With `prefer_resident` false the resident log is
// skipped, forcing every fetch through the durable chain (used by the
// truncation regression test; production keeps the fast path).
class DbTaskSource : public TaskSource {
 public:
  DbTaskSource(Env* env, std::string db_dir, const TaskLog* log,
               bool prefer_resident = true)
      : env_(env), db_dir_(std::move(db_dir)), log_(log),
        prefer_resident_(prefer_resident) {}

  StatusOr<Task> Fetch(TaskId id) const override;
  uint64_t MaxTaskId() const override { return log_->size(); }

  // Fetches that had to cross into the archive chain (metrics, tests).
  uint64_t archive_fetches() const {
    return archive_fetches_.load(std::memory_order_acquire);
  }

 private:
  Env* const env_;
  const std::string db_dir_;
  const TaskLog* const log_;
  const bool prefer_resident_;
  mutable std::atomic<uint64_t> archive_fetches_{0};
};

// ---- query results ----

// Transitive closure (ancestors or descendants) of one object.
struct ClosureResult {
  Oid root = kInvalidOid;
  bool ancestors = true;          // direction of the traversal
  std::vector<Oid> oids;          // closure members, ascending, root excluded
  std::vector<TaskId> tasks;      // tasks crossed, ascending
  int depth = 0;                  // deepest task level reached
  bool truncated = false;         // a guard (depth/visit cap) cut the walk
  uint64_t index_lookups = 0;     // B+tree probes the answer cost

  std::string ToJson() const;
  std::string ToText() const;
};

// Why-provenance: the witness set of one derived object.
struct WhyResult {
  Oid output = kInvalidOid;
  TaskId task = kInvalidTaskId;
  std::string process;
  int version = 0;
  // The witness proper: input OIDs per process argument, argument order.
  std::vector<std::pair<std::string, std::vector<Oid>>> witnesses;
  // Base (underived) objects the witness transitively rests on.
  std::vector<Oid> base_witnesses;

  std::string ToJson() const;
  std::string ToText() const;
};

// Where-provenance: one entry per MAPPING of the producing process.
struct WhereEntry {
  std::string attr;       // output attribute the mapping derives
  std::string mapping;    // the transfer expression, source form
  // Arguments the expression reads -> the input OIDs bound to them.
  std::vector<std::pair<std::string, std::vector<Oid>>> contributors;
};

struct WhereResult {
  Oid output = kInvalidOid;
  TaskId task = kInvalidTaskId;
  std::string process;
  int version = 0;
  std::string note;  // set when no template exists (external/interpolation)
  std::vector<WhereEntry> entries;

  std::string ToJson() const;
  std::string ToText() const;
};

// Process-version diff between the procedures that produced two objects.
struct DiffResult {
  Oid a = kInvalidOid;
  Oid b = kInvalidOid;
  std::string process_a, process_b;
  int version_a = 0, version_b = 0;
  bool same_procedure = false;
  // Human-readable difference lines (empty when same_procedure).
  std::vector<std::string> differences;

  std::string ToJson() const;
  std::string ToText() const;
};

// The deepest chain of process versions behind one object, plus the base
// data it rests on.
struct ChainResult {
  Oid root = kInvalidOid;
  // "name:vN" per task along the deepest input path, nearest first; empty
  // for base data.
  std::vector<std::string> chain;
  // {root} for base data; otherwise Why's base_witnesses, ascending.
  std::vector<Oid> base_sources;

  std::string ToJson() const;
  std::string ToText() const;
};

// How the procedures behind two objects compare, chain against chain: the
// resolution of the paper's two-scientists scenario.
struct DerivationComparison {
  bool same_procedure = false;  // identical process-version chains
  // Human-readable explanation of the first divergence (or sameness).
  std::string explanation;
  std::vector<std::string> chain_a;
  std::vector<std::string> chain_b;
};

DerivationComparison Compare(const ChainResult& a, const ChainResult& b);

// ---- the engine ----

// Traversal guards for closure queries.
struct QueryLimits {
  int max_depth = 0;             // 0 = unbounded
  size_t max_visits = 1u << 20;  // closure-size guard (cycles, runaways)
};

class ProvenanceEngine {
 public:
  using Limits = QueryLimits;

  // `processes` may be null; Where/Diff then fail kFailedPrecondition.
  ProvenanceEngine(const ProvenanceIndex* index, const TaskSource* source,
                   const ProcessRegistry* processes = nullptr)
      : index_(index), source_(source), processes_(processes) {}

  StatusOr<ClosureResult> Ancestors(Oid oid,
                                    const Limits& limits = Limits()) const;
  StatusOr<ClosureResult> Descendants(Oid oid,
                                      const Limits& limits = Limits()) const;
  StatusOr<WhyResult> Why(Oid oid) const;
  StatusOr<WhereResult> Where(Oid oid) const;
  StatusOr<DiffResult> Diff(Oid a, Oid b) const;
  // kInternal when the index holds a cycle (a damaged log).
  StatusOr<ChainResult> Chain(Oid oid) const;
  // Graphviz rendering of the derivation DAG of `oid`: every object and
  // every task appears once.
  StatusOr<std::string> Dot(Oid oid) const;

  // The id of the task that produced `oid`; kInvalidTaskId for base data
  // (and for an OID no task ever output).
  StatusOr<TaskId> ProducerIdOf(Oid oid) const;

 private:
  struct Dag;

  // The producing task of `oid`, kNotFound for base data.
  StatusOr<Task> ProducerOf(Oid oid) const;
  StatusOr<Dag> BuildDag(Oid root) const;
  StatusOr<ClosureResult> Closure(Oid oid, bool ancestors,
                                  const Limits& limits) const;

  const ProvenanceIndex* const index_;
  const TaskSource* const source_;
  const ProcessRegistry* const processes_;
};

}  // namespace provenance
}  // namespace gaea

#endif  // GAEA_PROVENANCE_PROV_QUERY_H_
