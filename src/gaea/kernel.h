// GaeaKernel: the public face of the Gaea kernel (paper Figure 1).
//
// Wires the three metadata layers over one database directory:
//   * system level   — primitive classes + operators (types/)
//   * derivation     — processes, tasks, Petri net, planner, deriver (core/)
//   * experiment     — concepts, experiments, reproduction (catalog/,
//                      experiment/)
// plus the storage substrate and the §2.1.5 query engine. All definitions
// and tasks are journaled in the directory and replayed on reopen.

#ifndef GAEA_GAEA_KERNEL_H_
#define GAEA_GAEA_KERNEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis_cache.h"
#include "analysis/diagnostic.h"
#include "catalog/catalog.h"
#include "core/compound_process.h"
#include "core/derivation_cache.h"
#include "core/deriver.h"
#include "core/petri.h"
#include "core/planner.h"
#include "core/process_registry.h"
#include "core/scheduler.h"
#include "core/task.h"
#include "ddl/parser.h"
#include "experiment/experiment.h"
#include "obs/metrics.h"
#include "provenance/prov_index.h"
#include "provenance/prov_query.h"
#include "query/interpolate.h"
#include "query/query.h"
#include "recovery/checkpoint.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "types/compound_op.h"
#include "types/op_registry.h"
#include "types/primitive_class.h"
#include "util/status.h"

namespace gaea {

class GaeaKernel {
 public:
  struct Options {
    std::string dir;           // database directory
    std::string user = "gaea"; // recorded on tasks
    // File system to run on; nullptr means Env::Default(). Tests pass a
    // FaultInjectingEnv here to crash the kernel at chosen write ops.
    Env* env = nullptr;
    // Journal Sync policy applied to every journal the kernel writes: the
    // catalog, process, tasks and experiments journals, objects.journal on
    // a replicated kernel, and quarantine.journal; see DurabilityMode in
    // storage/journal.h.
    DurabilityMode durability = DurabilityMode::kOs;
    // Cluster member (primary or replica): additionally journals base-object
    // inserts into objects.journal so they ship to replicas like every other
    // component (derived objects never need this — replicas rematerialize
    // them from shipped task records). Off by default: a standalone kernel
    // pays no insert-journaling cost.
    bool replicated = false;
  };

  // Opens (creating if needed) a Gaea database and runs crash recovery:
  // loads the newest valid checkpoint (src/recovery/) and replays only the
  // journal tails past it, falling back to the previous checkpoint and
  // finally to a full replay (archive chain + live journals) when a
  // snapshot turns out to be corrupt. Ends with the startup invariant check
  // (see Recover below).
  static StatusOr<std::unique_ptr<GaeaKernel>> Open(const Options& options);

  GaeaKernel(const GaeaKernel&) = delete;
  GaeaKernel& operator=(const GaeaKernel&) = delete;

  // ---- layer access ----
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  const PrimitiveClassRegistry& primitive_classes() const {
    return primitives_;
  }
  OperatorRegistry& operators() { return ops_; }
  const OperatorRegistry& operators() const { return ops_; }
  const ProcessRegistry& processes() const { return processes_; }
  TaskLog& tasks() { return *task_log_; }
  const TaskLog& tasks() const { return *task_log_; }
  ExperimentManager& experiments() { return *experiments_; }
  // The Env this kernel was opened on (clock + file system).
  Env* env() { return env_; }

  // ---- observability ----
  // Instrument registry for this kernel, the one stats surface: derivation
  // and checkpoint counters and the per-process and per-operator latency
  // histograms live here, and a scrape-time collector mirrors GetStats()
  // (catalog/cache/pool/journal/store state) into gauges. gaead serves
  // metrics().Render() over the wire (Prometheus text format), and the
  // shell's `stats` and `profile` are views of it; see
  // docs/OBSERVABILITY.md.
  obs::MetricsRegistry& metrics() { return metrics_; }

  // ---- definitions ----

  // Parses and applies a DDL script (classes, processes, concepts).
  Status ExecuteDdl(const std::string& source);

  // Like above, but additionally runs the static analyzer (src/analysis/)
  // over the loaded catalog and appends its findings to `diagnostics`
  // (warn-on-load: findings never fail an otherwise valid load; process
  // templates with error-severity findings were already rejected by
  // DefineProcess). See docs/ANALYSIS.md for the policy.
  Status ExecuteDdl(const std::string& source,
                    std::vector<Diagnostic>* diagnostics);

  // Registers a process built programmatically (journaled, versioned).
  // Reject-on-error: the definition is refused when the static analyzer
  // reports any error-severity diagnostic (e.g. a trivially false
  // assertion), in addition to ProcessDef::Validate.
  StatusOr<int> DefineProcess(ProcessDef def);

  // ---- static analysis ----

  // Runs every analysis pass over the current catalog and returns the
  // normalized findings. Incremental: results are memoized per catalog
  // version, and per-process passes are keyed on `name#version`, so after a
  // DDL batch only new or re-versioned processes are re-analyzed (classes
  // are never redefined and process versions are immutable, so old entries
  // stay valid). The reference is invalidated by the next definition.
  const std::vector<Diagnostic>& LintCatalog();

  // Monotonic counter bumped by every successful definition; keys the
  // incremental analysis cache above.
  uint64_t catalog_version() const { return catalog_version_; }

  // Cache effectiveness counters (tests, shell `lint` diagnostics).
  const AnalysisCache::Stats& analysis_stats() const {
    return analysis_cache_.stats();
  }

  // ---- data & derivation ----

  // Stores a base object. On a replicated kernel the stored payload is also
  // journaled (objects.journal) so replicas receive it via shipping.
  StatusOr<Oid> Insert(DataObject obj);
  StatusOr<DataObject> Get(Oid oid) const { return catalog_->GetObject(oid); }

  // Fires a process on explicit inputs; records the task.
  StatusOr<Oid> Derive(const std::string& process,
                       const std::map<std::string, std::vector<Oid>>& inputs,
                       int version = 0);

  // Executes a batch of independent derivation requests as TaskScheduler
  // steps on the process-wide TilePool (SetDeriveThreads), consulting the
  // derivation cache; a one-request batch runs on the calling thread. One
  // outcome per request, in request order; per-request failures are
  // reported in the outcomes, not as a batch failure.
  StatusOr<std::vector<DeriveOutcome>> DeriveBatch(
      const std::vector<DeriveRequest>& requests);

  // Width of the process-wide TilePool (clamped to >= 1): the caller plus
  // threads-1 helpers, shared by plan steps (DeriveBatch, DeriveCompound,
  // derive-by-plan queries) and raster tiles. Process-wide, not per kernel.
  void SetDeriveThreads(int threads);
  int derive_threads() const;

  DerivationCache& derivation_cache() { return *derivation_cache_; }
  const DerivationCache& derivation_cache() const {
    return *derivation_cache_;
  }

  // Like Derive, but first checks the task log for a completed run of the
  // same process version on the same inputs whose output is still stored —
  // and returns that object instead of recomputing ("experiment management
  // also helps avoid unnecessary duplication of experiments", paper §1).
  // Since derivations are deterministic, the reused object equals what a
  // fresh run would produce.
  StatusOr<Oid> DeriveOrReuse(
      const std::string& process,
      const std::map<std::string, std::vector<Oid>>& inputs, int version = 0);

  // Drops a *derived* object's stored bytes while keeping its task record:
  // "typically, when data are not stored in the database, we may generate
  // the needed data with the help of such derivation relationships"
  // (§2.1.2) — eviction is the storage/recompute trade-off that sentence
  // implies. A later query for the same window re-derives an attribute-
  // identical object. Base objects (no producing task) are refused: they
  // cannot be regenerated. Objects consumed by other stored objects'
  // derivations are refused too, so recorded tasks always reference
  // re-derivable inputs.
  Status Evict(Oid oid);

  // Expands a compound process on external inputs and runs its primitive
  // stages on the scheduler (independent stages run concurrently on the
  // TilePool when SetDeriveThreads > 1); returns the output stage's object.
  // Compound runs bypass the derivation cache: every invocation records its
  // stage tasks, matching the sequential Derive-per-stage semantics.
  StatusOr<Oid> DeriveCompound(
      const CompoundProcessDef& compound,
      const std::map<std::string, std::vector<Oid>>& external_inputs);

  // Records a *non-applicative* derivation (paper §5: "a process may
  // consist of a mapping which is described by experimental procedures that
  // do not follow a well known algorithm"): the outputs were produced
  // outside Gaea (lab work, manual digitizing, a remote service), but their
  // lineage — which stored objects went in, what came out, who did it — is
  // still captured. Such tasks cannot be replayed (version -1); lineage and
  // comparison work normally. Every input and output OID must be stored.
  StatusOr<TaskId> RecordExternalTask(
      const std::string& procedure_name,
      const std::map<std::string, std::vector<Oid>>& inputs,
      const std::vector<Oid>& outputs, const std::string& description);

  // Marker version for external (non-replayable) tasks.
  static constexpr int kExternalTaskVersion = -1;

  // ---- query (paper §2.1.5) ----
  StatusOr<QueryResult> Query(const QueryRequest& request);
  // Parses a GQL SELECT statement (query/qparser.h) and executes it.
  StatusOr<QueryResult> QueryText(const std::string& gql);

  // ---- concept-instance comparison (paper §2.1.5 item 2) ----
  // "Users may ... study the meaning and compare instances of concepts
  // according to their derivation procedures." For every pair of stored
  // instances of the concept's covered classes (within the window), reports
  // whether they came from the same procedure and how their derivations
  // diverge.
  struct InstanceComparison {
    Oid a = kInvalidOid;
    Oid b = kInvalidOid;
    std::string class_a;
    std::string class_b;
    bool same_procedure = false;
    std::string explanation;
  };
  StatusOr<std::vector<InstanceComparison>> CompareConceptInstances(
      const std::string& concept_name, const Window& window = {});

  // ---- typed statistics snapshot ----
  // A point-in-time read of the subsystem state behind the gaea_* gauges:
  // the scrape-time collector mirrors it into the metrics registry, which
  // is the one surface users read (`metrics`, and `stats` as its JSON
  // view; docs/OBSERVABILITY.md). In-process callers (tests, perfbench)
  // read the struct directly.
  struct PoolStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  struct Stats {
    size_t classes = 0;
    size_t concepts = 0;
    size_t processes = 0;        // latest versions
    size_t process_versions = 0; // total across history
    size_t objects = 0;
    size_t tasks = 0;
    size_t experiments = 0;
    size_t quarantined_tasks = 0;    // flagged by startup recovery

    // Recovery & checkpoint state (docs/ROBUSTNESS.md). records_replayed
    // is what the last Open actually replayed from the journals;
    // checkpoint_seq is the newest installed checkpoint (0 = none).
    uint64_t records_replayed = 0;
    uint64_t recovered_checkpoint_seq = 0;
    uint64_t recovery_fallbacks = 0;
    uint64_t checkpoint_seq = 0;
    uint64_t checkpoints_taken = 0;
    uint64_t checkpoint_failures = 0;
    uint64_t last_checkpoint_duration_us = 0;
    uint64_t last_checkpoint_bytes = 0;
    uint64_t cluster_lsn = 0;  // every live journal's length; ClusterLsn()

    // Provenance index state (docs/PROVENANCE.md).
    uint64_t prov_index_entries = 0;
    uint64_t prov_indexed_through = 0;
    uint64_t prov_index_rebuilds = 0;
    uint64_t prov_archive_fetches = 0;

    DerivationCache::Stats derivation_cache;
    PoolStats heap_pool;   // object store: heap file frames (data pages)
    HeapFile::ChainStats heap_chains;  // heap overflow chains (no frames)
    PoolStats index_pool;  // object store: OID index frames
  };
  Stats GetStats() const;

  // ---- crash recovery ----
  // Startup invariant check, run by Open after every journal has replayed:
  // each committed task must either still have all its output objects
  // stored, or be re-derivable (its process version is registered — missing
  // outputs are then legitimate evictions, re-derivable on demand). Tasks
  // that satisfy neither are *quarantined*: recorded in
  // `dir`/quarantine.journal (deduplicated across reopens) and counted in
  // stats, but never fatal — the database stays usable and the damage is
  // reported instead of silently ignored. Recovery also raises the object
  // store's OID allocator past every task output, so a crash that lost
  // index pages can never lead to an OID being handed out twice.
  struct RecoveryReport {
    size_t tasks_checked = 0;
    size_t rederivable_missing = 0;  // missing outputs covered by lineage
    std::vector<TaskId> quarantined; // tasks with unrecoverable outputs
    Oid max_task_output = kInvalidOid;
  };
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  DurabilityMode durability() const { return durability_; }

  // ---- checkpointing ----

  // Takes one fuzzy checkpoint: flushes the object store, captures every
  // journal-backed component under its own lock (derivations keep running),
  // installs snapshots + manifest atomically, truncates the journal
  // prefixes the *previous* checkpoint covers into archive segments, and
  // GCs all but the latest two checkpoints. Serialized internally; safe
  // against concurrent derivations and inserts, but must not race DDL
  // (process/experiment definition) — the server guarantees that by
  // running DDL under its exclusive lock and Checkpoint under the shared
  // one.
  StatusOr<recovery::CheckpointInfo> Checkpoint();

  // Background checkpoint policy: a checkpoint is due when the live
  // journals hold at least `journal_bytes` bytes appended since the last
  // checkpoint, or at least `tasks` task records past the last covered
  // LSN. Zero disables a threshold; both zero (the default) disables
  // MaybeCheckpoint entirely.
  struct CheckpointPolicy {
    uint64_t journal_bytes = 0;
    uint64_t tasks = 0;
  };
  void SetCheckpointPolicy(const CheckpointPolicy& policy);
  CheckpointPolicy checkpoint_policy() const;

  // Runs Checkpoint() if the policy says one is due. Returns whether one
  // ran. gaead's background poll thread and post-batch hooks call this.
  StatusOr<bool> MaybeCheckpoint();

  // How this kernel came up: 0 = full journal replay, else the manifest
  // sequence number the state was loaded from.
  uint64_t recovered_checkpoint_seq() const {
    return recovered_checkpoint_seq_;
  }
  // Journal records replayed at startup (tail past the checkpoint, or the
  // whole history without one) — the quantity checkpoints exist to bound.
  uint64_t records_replayed() const { return records_replayed_; }
  // Candidate recovery plans that failed (corrupt snapshot → fallback).
  uint64_t recovery_fallbacks() const { return recovery_fallbacks_; }

  // ---- replication (src/replication/, docs/ROBUSTNESS.md) ----

  bool replicated() const { return object_journal_ != nullptr; }

  // Cluster LSN: the sum of every component journal's logical length
  // (record_count, which TruncatePrefix preserves). Monotonic; two kernels
  // with equal cluster LSNs that shipped from the same history hold the
  // same definitions, tasks and experiments.
  uint64_t ClusterLsn() const;

  // component -> record_count for every journaled component, in apply
  // order (see components_); a replica's ShipBatch cursors are exactly its
  // own counts.
  std::vector<std::pair<std::string, uint64_t>> ReplicationCursors() const;

  // Reads records of `component` with LSN >= `from` for shipping: live
  // journal first, archive-chain fallback when a checkpoint truncated the
  // prefix away (the TruncatePrefix-vs-live-shipper race). `*next` is one
  // past the last record returned. An unknown component is
  // kInvalidArgument.
  Status ShipRange(const std::string& component, uint64_t from,
                   size_t max_records, size_t max_bytes,
                   std::vector<std::string>* out, uint64_t* next);

  // Applies shipped records of `component` starting at LSN `from` — journal
  // append verbatim plus the in-memory apply, exactly like replay. Records
  // below the current count are skipped (duplicate delivery is idempotent);
  // a gap is kFailedPrecondition and the applier retries after the missing
  // prefix ships. An unknown component is kInvalidArgument, which the
  // applier reports as an error, not as a transient gap. Completed task
  // records eagerly rematerialize their outputs: the process is re-run
  // (pure, deterministic) and the output stored under the primary-recorded
  // OID, so replicas hold byte-identical derived objects. Caller must hold the server's exclusive kernel lock
  // (or otherwise exclude concurrent definition readers).
  Status ApplyReplicated(const std::string& component, uint64_t from,
                         const std::vector<std::string>& records);

  // Read-only derivation lookup for replica serving (and the reuse half of
  // DeriveOrReuse): resolves the process, consults the derivation cache,
  // then the task log (TaskLog::FindCompleted), and returns the recorded
  // output when this exact derivation already ran and its output is still
  // stored. kNotFound when the request is novel — a replica answers that
  // with a bounce to the primary instead of forking history with a local
  // write.
  StatusOr<Oid> TryRecordedDerive(
      const std::string& process,
      const std::map<std::string, std::vector<Oid>>& inputs, int version = 0);

  // ---- provenance (src/provenance/, docs/PROVENANCE.md) ----
  // Indexed lineage queries: closure/why/where/chain/dot resolve through the
  // B+tree index (never a log scan); diff additionally reads the versioned
  // process registry. All are reads — replicas serve them over the wire.
  // max_depth 0 = unbounded. Each answers kNotFound ("object N is not
  // stored") for an OID that is neither stored nor the output of a recorded
  // task, rather than reading it as base data.
  StatusOr<provenance::ClosureResult> ProvenanceAncestors(Oid oid,
                                                          int max_depth = 0);
  StatusOr<provenance::ClosureResult> ProvenanceDescendants(Oid oid,
                                                            int max_depth = 0);
  StatusOr<provenance::WhyResult> ProvenanceWhy(Oid oid);
  StatusOr<provenance::WhereResult> ProvenanceWhere(Oid oid);
  StatusOr<provenance::DiffResult> ProvenanceDiff(Oid a, Oid b);
  StatusOr<provenance::ChainResult> ProvenanceChain(Oid oid);
  StatusOr<std::string> ProvenanceDot(Oid oid);

  const provenance::ProvenanceIndex& provenance_index() const {
    return *prov_index_;
  }
  // Task fetches that crossed into the archive chain (metrics, tests).
  uint64_t provenance_archive_fetches() const {
    return prov_source_->archive_fetches();
  }

  // ---- Petri net ----
  StatusOr<DerivationNet> BuildDerivationNet() const {
    return DerivationNet::Build(catalog_->classes(), processes_);
  }
  // Current marking: stored object count per class.
  StatusOr<DerivationNet::Marking> CurrentMarking() const;
  // Can an object of `class_name` be produced from the stored data?
  StatusOr<bool> CanDerive(const std::string& class_name) const;

  // ---- experiments ----
  StatusOr<ExperimentId> DefineExperiment(Experiment experiment) {
    return experiments_->Define(std::move(experiment));
  }
  StatusOr<ReproductionReport> Reproduce(const std::string& experiment);

  // ---- clock ----
  // Logical clock recorded on tasks; deterministic sessions set it
  // explicitly, interactive ones may tick it per operation.
  void SetClock(AbsTime now);
  AbsTime clock() const { return now_; }

  // Writes back the object store and indexes, then syncs every journal of
  // components_ (catalog, process, tasks, experiments, and objects when
  // replicated) — the kOs durability point.
  Status Flush();

 private:
  GaeaKernel() = default;

  // One attempt to bring the kernel up under `plan`; kCorruption makes
  // Open move on to the next candidate with a fresh kernel.
  static StatusOr<std::unique_ptr<GaeaKernel>> OpenWithPlan(
      const Options& options, Env* env, const recovery::RecoveryPlan& plan);
  // One journal-backed component: a row of components_.
  struct JournaledComponent {
    // Manifest entry, archive segment and replication cursor name; the
    // journal file is <dir>/<name>.journal.
    std::string name;
    // Null only for the object journal of a non-replicated kernel.
    Journal* journal = nullptr;
    // Checkpoint capture: atomic (records, covered LSN) under the owner's
    // lock. Empty for a component checkpoints leave out (the object
    // journal: the object store is its own durable state).
    decltype(recovery::CheckpointSource::capture) capture;
    // Applies one shipped record exactly like replay, plus the verbatim
    // journal append.
    std::function<Status(const std::string& record)> apply;
    // Journal::TruncatePrefix under the owner's lock.
    decltype(recovery::CheckpointSource::truncate_prefix) truncate_prefix;

    uint64_t record_count() const {
      return journal == nullptr ? 0 : journal->record_count();
    }
  };
  // The row named `name`; kInvalidArgument for a name no row has.
  StatusOr<const JournaledComponent*> FindComponent(
      const std::string& name) const;
  // The checkpointed rows as RunCheckpoint sources.
  std::vector<recovery::CheckpointSource> BuildCheckpointSources() const;
  // Bytes in the live journals of the checkpointed rows: the input of the
  // journal_bytes checkpoint policy.
  uint64_t CheckpointedJournalBytes() const;
  // Streams the process registry (name order, versions ascending) and the
  // covered process-journal LSN; mirrors Catalog::SnapshotDefinitions.
  Status SnapshotProcesses(
      const std::function<Status(const std::string&)>& sink,
      uint64_t* covered_lsn) const;

  Status ApplyStatement(ParsedStatement stmt);
  // A query engine over the provenance index and this kernel's task source.
  provenance::ProvenanceEngine ProvEngine() const {
    return provenance::ProvenanceEngine(prov_index_.get(), prov_source_.get(),
                                        &processes_);
  }
  // kNotFound("object N is not stored") for an OID this database never
  // held: neither in the object store nor the output of a recorded task.
  // An evicted derived object keeps its producer, so it still answers.
  Status CheckProvenanceSubject(Oid oid) const;
  // Applies one objects.journal record: [u64 oid][string DataObject bytes].
  Status ApplyObjectRecord(const std::string& record);
  // Journals the stored bytes of `oid` into objects.journal.
  Status AppendObjectRecord(Oid oid);
  // Applies one shipped task record: checks that its inputs and process
  // version already arrived, rematerializes its outputs, then appends it.
  Status ApplyTaskRecord(const std::string& record);
  // Journals the outputs of interpolation tasks (process_version 0) recorded
  // after `from_task_id` into objects.journal: interpolation outputs are
  // inserted by the interpolator, not through Insert, yet replicas cannot
  // rematerialize them (the requested instant lives only in the output), so
  // a replicated kernel ships the bytes instead. Query/Reproduce call this
  // after running; without an object journal it does nothing.
  Status JournalInterpolationOutputs(uint64_t from_task_id);
  // Re-runs a replicated completed task and stores its outputs under the
  // recorded OIDs (skipping ones already present).
  Status RematerializeTask(const Task& task);
  // One pass over the recovered task log, in id order, at open. It eagerly
  // re-derives every completed single-output task whose stored output a
  // crash took with it: replicas rematerialize when task records arrive,
  // so a replicated primary must do the same or its store diverges from
  // what it already shipped. It then memoizes the task's output, so a
  // derive retried across a restart finds it instead of running twice
  // (exactly-once under client retry + idempotency dedup).
  Status RematerializeMissingOutputs();
  // The startup invariant check described at RecoveryReport; `env` is the
  // file system the quarantine journal is written through.
  Status Recover(Env* env);
  // Registers the scrape-time collectors that mirror subsystem stats into
  // registry gauges, and hands the deriver its instruments.
  void WireObservability();

  std::string dir_;
  std::string user_ = "gaea";
  PrimitiveClassRegistry primitives_;
  OperatorRegistry ops_;
  std::unique_ptr<Catalog> catalog_;
  ProcessRegistry processes_;
  std::unique_ptr<Journal> process_journal_;
  // Base-object insert journal; non-null only on replicated kernels.
  std::unique_ptr<Journal> object_journal_;
  std::unique_ptr<TaskLog> task_log_;
  std::unique_ptr<provenance::ProvenanceIndex> prov_index_;
  std::unique_ptr<provenance::DbTaskSource> prov_source_;
  std::unique_ptr<ExperimentManager> experiments_;
  std::unique_ptr<Deriver> deriver_;
  std::unique_ptr<DerivationCache> derivation_cache_;
  std::unique_ptr<Interpolator> interpolator_;
  std::unique_ptr<QueryEngine> query_engine_;
  // The journaled components, in replication apply order: each may
  // reference state its predecessors establish (a task needs its process
  // version and input objects, an experiment its tasks). Built once by
  // OpenWithPlan; durability, replay accounting, checkpoints, shipping,
  // apply, stats and metrics all loop over it.
  std::vector<JournaledComponent> components_;
  AbsTime now_;
  DurabilityMode durability_ = DurabilityMode::kOs;
  RecoveryReport recovery_report_;
  Env* env_ = nullptr;
  obs::MetricsRegistry metrics_;
  uint64_t catalog_version_ = 0;
  AnalysisCache analysis_cache_;

  // ---- checkpoint state ----
  // Serializes Checkpoint()/MaybeCheckpoint() runs; never held while a
  // component lock is (each capture hook takes and releases its own).
  std::mutex checkpoint_mu_;
  // Policy thresholds, readable without blocking on a running checkpoint.
  std::atomic<uint64_t> policy_journal_bytes_{0};
  std::atomic<uint64_t> policy_tasks_{0};
  // Set once by Open; read-only afterwards.
  uint64_t recovered_checkpoint_seq_ = 0;
  uint64_t records_replayed_ = 0;
  uint64_t recovery_fallbacks_ = 0;
  // Updated by Checkpoint(), read by stats/metrics threads.
  std::atomic<uint64_t> checkpoint_seq_{0};    // newest installed manifest
  // Checkpoint() counts into these registry instruments; GetStats reads
  // them back.
  obs::Counter* checkpoints_total_ =
      metrics_.GetCounter("gaea_checkpoints_total");
  obs::Counter* checkpoint_failures_total_ =
      metrics_.GetCounter("gaea_checkpoint_failures_total");
  obs::Gauge* checkpoint_last_duration_us_ =
      metrics_.GetGauge("gaea_checkpoint_last_duration_micros");
  obs::Gauge* checkpoint_last_bytes_ =
      metrics_.GetGauge("gaea_checkpoint_last_snapshot_bytes");
  // Policy inputs: task-journal LSN covered by the newest checkpoint, and
  // the live-journal byte floor right after it (post-truncation).
  std::atomic<uint64_t> ckpt_covered_tasks_{0};
  std::atomic<uint64_t> ckpt_bytes_floor_{0};
};

}  // namespace gaea

#endif  // GAEA_GAEA_KERNEL_H_
