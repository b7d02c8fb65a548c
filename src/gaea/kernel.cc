#include "gaea/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "core/tile_pool.h"
#include "obs/trace.h"
#include "query/qparser.h"
#include "replication/shipper.h"
#include "util/string_util.h"

namespace gaea {

namespace {
// The task log's row: the checkpoint policy counts the task records past
// what the newest checkpoint covers.
constexpr char kTaskComponent[] = "tasks";
}  // namespace

StatusOr<std::unique_ptr<GaeaKernel>> GaeaKernel::Open(
    const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("GaeaKernel needs a database directory");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  GAEA_ASSIGN_OR_RETURN(std::vector<recovery::RecoveryPlan> plans,
                        recovery::BuildRecoveryPlans(env, options.dir));
  uint64_t newest_seq = 0;
  for (const recovery::RecoveryPlan& plan : plans) {
    newest_seq = std::max(newest_seq, plan.checkpoint_seq);
  }
  Status last_error = Status::OK();
  for (size_t i = 0; i < plans.size(); ++i) {
    auto kernel = OpenWithPlan(options, env, plans[i]);
    if (kernel.ok()) {
      (*kernel)->recovery_fallbacks_ = i;
      (*kernel)->checkpoint_seq_.store(newest_seq, std::memory_order_release);
      return kernel;
    }
    // Only corruption justifies retrying under an older plan — an
    // environmental error (ENOSPC, permissions) would fail every candidate
    // identically. Each attempt starts from a fresh kernel, so a plan that
    // died mid-load leaves nothing behind.
    if (kernel.status().code() != StatusCode::kCorruption) {
      return kernel.status();
    }
    last_error = kernel.status();
  }
  return last_error;
}

StatusOr<std::unique_ptr<GaeaKernel>> GaeaKernel::OpenWithPlan(
    const Options& options, Env* env, const recovery::RecoveryPlan& plan) {
  std::unique_ptr<GaeaKernel> kernel(new GaeaKernel());
  GaeaKernel* k = kernel.get();
  kernel->dir_ = options.dir;
  kernel->user_ = options.user;
  kernel->env_ = env;
  kernel->durability_ = options.durability;
  kernel->primitives_ = PrimitiveClassRegistry::WithBuiltins();
  GAEA_RETURN_IF_ERROR(RegisterBuiltinOperators(&kernel->ops_));
  kernel->recovered_checkpoint_seq_ = plan.checkpoint_seq;

  // Builds the recovery hook one journal-backed component feeds its Open:
  // snapshot load + tail replay under a checkpoint plan, archive chain +
  // full live replay under the last-resort plan, nullptr when the plan
  // does not mention the component (fresh database).
  auto recovery_for = [env, &plan, &options](
                          const std::string& name,
                          JournalRecovery* out) -> const JournalRecovery* {
    auto it = plan.components.find(name);
    if (it == plan.components.end()) return nullptr;
    const recovery::ComponentPlan& cp = it->second;
    if (cp.has_snapshot) {
      recovery::SnapshotEntry entry = cp.entry;
      std::string db_dir = options.dir;
      out->load_snapshot =
          [env, db_dir, entry](
              const std::function<Status(const std::string&)>& apply) {
            return recovery::ReadSnapshot(env, db_dir, entry, apply);
          };
      out->start_lsn = cp.start_lsn;
      return out;
    }
    if (cp.archives.empty()) return nullptr;
    std::vector<std::string> archives = cp.archives;
    uint64_t expected = cp.start_lsn;
    out->load_snapshot =
        [env, archives, expected](
            const std::function<Status(const std::string&)>& apply) -> Status {
      GAEA_ASSIGN_OR_RETURN(uint64_t cursor,
                            recovery::ReplayArchiveChain(env, archives, apply));
      if (cursor != expected) {
        return Status::Corruption(
            "archive chain ends at LSN " + std::to_string(cursor) +
            ", expected " + std::to_string(expected));
      }
      return Status::OK();
    };
    out->start_lsn = expected;
    return out;
  };
  // Journal LSN a plan's snapshot of `name` covers (0 without one).
  auto snapshot_covered = [&plan](const std::string& name) -> uint64_t {
    auto it = plan.components.find(name);
    return it != plan.components.end() && it->second.has_snapshot
               ? it->second.entry.covered_lsn
               : 0;
  };
  // Each component opens as its row joins the table, in apply order.
  auto add_row = [k](const char* name) -> JournaledComponent& {
    JournaledComponent& row = k->components_.emplace_back();
    row.name = name;
    return row;
  };
  auto journal_path = [&options](const JournaledComponent& row) {
    return options.dir + "/" + row.name + ".journal";
  };

  // The catalog creates the directory and replays class/concept records.
  {
    JournaledComponent& row = add_row("catalog");
    JournalRecovery rec;
    GAEA_ASSIGN_OR_RETURN(
        k->catalog_,
        Catalog::Open(options.dir, env, recovery_for(row.name, &rec)));
    row.journal = k->catalog_->journal();
    row.capture = [k](const auto& sink, uint64_t* lsn) {
      return k->catalog_->SnapshotDefinitions(sink, lsn);
    };
    row.apply = [k](const std::string& record) -> Status {
      GAEA_RETURN_IF_ERROR(k->catalog_->ApplyReplicatedRecord(record));
      ++k->catalog_version_;
      return Status::OK();
    };
    row.truncate_prefix = [k](uint64_t upto, const std::string& path) {
      return k->catalog_->TruncateJournalPrefix(upto, path);
    };
  }

  // Processes journal. The registry re-derives each version number as it
  // registers (per name, ascending), so both the snapshot stream and the
  // journal tail reproduce the exact version history.
  {
    JournaledComponent& row = add_row("process");
    GAEA_ASSIGN_OR_RETURN(k->process_journal_,
                          Journal::Open(journal_path(row), env));
    auto replay = [k](const std::string& record) -> Status {
      BinaryReader r(record);
      GAEA_ASSIGN_OR_RETURN(ProcessDef def, ProcessDef::Deserialize(&r));
      return k->processes_.Register(std::move(def)).status();
    };
    JournalRecovery rec;
    uint64_t start = 0;
    if (recovery_for(row.name, &rec) != nullptr) {
      GAEA_RETURN_IF_ERROR(rec.load_snapshot(replay));
      start = rec.start_lsn;
    }
    GAEA_RETURN_IF_ERROR(k->process_journal_->Replay(replay, start));
    row.journal = k->process_journal_.get();
    row.capture = [k](const auto& sink, uint64_t* lsn) {
      return k->SnapshotProcesses(sink, lsn);
    };
    row.apply = [k](const std::string& record) -> Status {
      BinaryReader r(record);
      GAEA_ASSIGN_OR_RETURN(ProcessDef def, ProcessDef::Deserialize(&r));
      int expected = def.version();
      GAEA_ASSIGN_OR_RETURN(int version,
                            k->processes_.Register(std::move(def)));
      if (version != expected) {
        return Status::Corruption(
            "replicated process record carries version " +
            std::to_string(expected) + " but registered as v" +
            std::to_string(version));
      }
      GAEA_RETURN_IF_ERROR(k->process_journal_->Append(record));
      ++k->catalog_version_;
      return Status::OK();
    };
    row.truncate_prefix = [k](uint64_t upto, const std::string& path) {
      return k->process_journal_->TruncatePrefix(upto, path);
    };
  }

  // Cluster members additionally journal base-object bytes so inserts ship
  // to replicas; a standalone kernel's row has no journal. Not covered by
  // checkpoints (the object store itself is the durable state); replay is
  // idempotent (insert-if-absent at the recorded OID), so a full pass per
  // open is a reconciliation on the primary and the shipped objects on a
  // replica. It needs the catalog's classes and runs before Recover.
  {
    JournaledComponent& row = add_row("objects");
    if (options.replicated) {
      GAEA_ASSIGN_OR_RETURN(k->object_journal_,
                            Journal::Open(journal_path(row), env));
      GAEA_RETURN_IF_ERROR(k->object_journal_->Replay(
          [k](const std::string& record) {
            return k->ApplyObjectRecord(record);
          }));
      row.journal = k->object_journal_.get();
    }
    row.apply = [k](const std::string& record) -> Status {
      if (k->object_journal_ == nullptr) {
        return Status::FailedPrecondition(
            "cannot apply object records: kernel not opened replicated");
      }
      GAEA_RETURN_IF_ERROR(k->ApplyObjectRecord(record));
      return k->object_journal_->Append(record);
    };
  }

  {
    JournaledComponent& row = add_row(kTaskComponent);
    JournalRecovery rec;
    GAEA_ASSIGN_OR_RETURN(k->task_log_,
                          TaskLog::Open(journal_path(row), env,
                                        recovery_for(row.name, &rec)));
    row.journal = k->task_log_->journal();
    row.capture = [k](const auto& sink, uint64_t* lsn) {
      return k->task_log_->Snapshot(sink, lsn);
    };
    row.apply = [k](const std::string& record) {
      return k->ApplyTaskRecord(record);
    };
    row.truncate_prefix = [k](uint64_t upto, const std::string& path) {
      return k->task_log_->TruncateJournalPrefix(upto, path);
    };
    k->ckpt_covered_tasks_.store(snapshot_covered(row.name),
                                 std::memory_order_release);
  }

  // Provenance index: catch up with the recovered log (rebuilding from it
  // when a tree came up torn or ahead of the journals), then hook task
  // commits so the index advances inside the log mutex — a query never
  // observes a half-indexed task, and replication apply is covered by the
  // same hook.
  GAEA_ASSIGN_OR_RETURN(kernel->prov_index_,
                        provenance::ProvenanceIndex::Open(options.dir, env));
  GAEA_RETURN_IF_ERROR(kernel->prov_index_->CatchUp(*kernel->task_log_));
  provenance::ProvenanceIndex* prov = kernel->prov_index_.get();
  kernel->task_log_->SetCommitHook(
      [prov](const Task& task) { return prov->IndexTask(task); });
  kernel->prov_source_ = std::make_unique<provenance::DbTaskSource>(
      env, options.dir, kernel->task_log_.get());

  {
    JournaledComponent& row = add_row("experiments");
    JournalRecovery rec;
    GAEA_ASSIGN_OR_RETURN(
        k->experiments_,
        ExperimentManager::Open(journal_path(row), env,
                                recovery_for(row.name, &rec)));
    row.journal = k->experiments_->journal();
    row.capture = [k](const auto& sink, uint64_t* lsn) {
      return k->experiments_->Snapshot(sink, lsn);
    };
    row.apply = [k](const std::string& record) {
      return k->experiments_->ApplyReplicated(record);
    };
    row.truncate_prefix = [k](uint64_t upto, const std::string& path) {
      return k->experiments_->journal()->TruncatePrefix(upto, path);
    };
  }

  // OID allocator floor recorded in the manifest: belt-and-suspenders
  // against reallocating an OID whose index pages died with the crash.
  if (plan.next_oid > 0) {
    kernel->catalog_->store()->EnsureNextOidAtLeast(plan.next_oid);
  }

  // Every journal takes the Sync policy. records_replayed_ is what this
  // startup actually replayed from journals (checkpoints exist to bound
  // this number; stats/CI assert on it). Archive-chain records count too —
  // the full-replay plan really does the whole history.
  for (const JournaledComponent& row : kernel->components_) {
    if (row.journal == nullptr) continue;
    row.journal->set_durability(options.durability);
    uint64_t count = row.journal->record_count();
    kernel->records_replayed_ +=
        count - std::min(snapshot_covered(row.name), count);
  }

  kernel->deriver_ = std::make_unique<Deriver>(
      kernel->catalog_.get(), &kernel->processes_, &kernel->ops_,
      kernel->task_log_.get());
  kernel->deriver_->set_user(options.user);
  kernel->derivation_cache_ = std::make_unique<DerivationCache>();
  kernel->interpolator_ = std::make_unique<Interpolator>(
      kernel->catalog_.get(), kernel->task_log_.get());
  kernel->interpolator_->set_user(options.user);
  kernel->query_engine_ = std::make_unique<QueryEngine>(
      kernel->catalog_.get(), &kernel->processes_, kernel->deriver_.get(),
      kernel->interpolator_.get());
  GAEA_RETURN_IF_ERROR(kernel->Recover(env));
  // Cluster members restore derived objects whose pages never reached disk
  // (a replicated kernel must hold the exact bytes it shipped to replicas)
  // and seed the derivation cache from the recovered task log: a derive the
  // client retries across a primary crash then hits the cache and returns
  // the original OIDs instead of recording a duplicate task (exactly-once
  // together with the server's idempotency dedup).
  if (kernel->object_journal_ != nullptr) {
    GAEA_RETURN_IF_ERROR(kernel->RematerializeMissingOutputs());
  }
  kernel->WireObservability();
  return kernel;
}

void GaeaKernel::WireObservability() {
  deriver_->set_env(env_);
  deriver_->set_metrics(&metrics_);

  // Scrape-time mirror of subsystem state into gauges. The callback runs
  // inside MetricsRegistry::Render with no registry lock held; everything
  // it reads is itself thread-safe.
  metrics_.AddCollector([this] {
    metrics_.GetGauge("gaea_catalog_classes")
        ->Set(static_cast<int64_t>(catalog_->classes().size()));
    metrics_.GetGauge("gaea_catalog_concepts")
        ->Set(static_cast<int64_t>(catalog_->concepts().size()));
    metrics_.GetGauge("gaea_catalog_processes")
        ->Set(static_cast<int64_t>(processes_.ListLatest().size()));
    metrics_.GetGauge("gaea_catalog_objects")->Set(catalog_->ObjectCount());
    metrics_.GetGauge("gaea_tasks_logged")
        ->Set(static_cast<int64_t>(task_log_->size()));
    metrics_.GetGauge("gaea_quarantined_tasks")
        ->Set(static_cast<int64_t>(recovery_report_.quarantined.size()));

    DerivationCache::Stats cache = derivation_cache_->stats();
    metrics_.GetGauge("gaea_derivation_cache_hits")
        ->Set(static_cast<int64_t>(cache.hits));
    metrics_.GetGauge("gaea_derivation_cache_misses")
        ->Set(static_cast<int64_t>(cache.misses));
    metrics_.GetGauge("gaea_derivation_cache_evictions")
        ->Set(static_cast<int64_t>(cache.evictions));
    metrics_.GetGauge("gaea_derivation_cache_invalidations")
        ->Set(static_cast<int64_t>(cache.invalidations));
    metrics_.GetGauge("gaea_derivation_cache_entries")
        ->Set(static_cast<int64_t>(cache.entries));
    metrics_.GetGauge("gaea_derivation_cache_capacity")
        ->Set(static_cast<int64_t>(cache.capacity));

    auto pool_gauges = [this](const BufferPool* pool, const char* label) {
      std::string suffix = std::string("{pool=\"") + label + "\"}";
      metrics_.GetGauge("gaea_pool_page_hits" + suffix)
          ->Set(static_cast<int64_t>(pool->hits()));
      metrics_.GetGauge("gaea_pool_page_misses" + suffix)
          ->Set(static_cast<int64_t>(pool->misses()));
      metrics_.GetGauge("gaea_pool_page_evictions" + suffix)
          ->Set(static_cast<int64_t>(pool->evictions()));
    };
    pool_gauges(catalog_->store()->heap_pool(), "heap");
    pool_gauges(catalog_->store()->index_pool(), "index");
    HeapFile::ChainStats chains = catalog_->store()->heap_chain_stats();
    metrics_.GetGauge("gaea_heap_chain_reads")
        ->Set(static_cast<int64_t>(chains.reads));
    metrics_.GetGauge("gaea_heap_chain_read_pages")
        ->Set(static_cast<int64_t>(chains.read_pages));
    metrics_.GetGauge("gaea_heap_chain_writes")
        ->Set(static_cast<int64_t>(chains.writes));
    metrics_.GetGauge("gaea_heap_chain_write_pages")
        ->Set(static_cast<int64_t>(chains.write_pages));

    for (const JournaledComponent& row : components_) {
      if (row.journal == nullptr) continue;
      metrics_.GetGauge(obs::LabelledName("gaea_journal_appends", "journal",
                                          row.name))
          ->Set(row.journal->appended());
    }

    metrics_.GetGauge("gaea_provenance_index_entries")
        ->Set(prov_index_->entry_count());
    metrics_.GetGauge("gaea_provenance_indexed_through")
        ->Set(static_cast<int64_t>(prov_index_->indexed_through()));
    metrics_.GetGauge("gaea_provenance_index_rebuilds")
        ->Set(static_cast<int64_t>(prov_index_->rebuilds()));
    metrics_.GetGauge("gaea_provenance_archive_fetches")
        ->Set(static_cast<int64_t>(prov_source_->archive_fetches()));

    TilePool::Stats tiles = TilePool::Global().stats();
    metrics_.GetGauge("gaea_tile_jobs_total")
        ->Set(static_cast<int64_t>(tiles.jobs));
    metrics_.GetGauge("gaea_tile_fanout_jobs_total")
        ->Set(static_cast<int64_t>(tiles.fanout_jobs));
    metrics_.GetGauge("gaea_tile_inline_jobs_total")
        ->Set(static_cast<int64_t>(tiles.inline_jobs));
    metrics_.GetGauge("gaea_tile_tiles_total")
        ->Set(static_cast<int64_t>(tiles.tiles));
    metrics_.GetGauge("gaea_tile_helper_tiles_total")
        ->Set(static_cast<int64_t>(tiles.helper_tiles));
    metrics_.GetGauge("gaea_tile_helpers")->Set(tiles.helpers);

    metrics_.GetGauge("gaea_checkpoint_seq")
        ->Set(static_cast<int64_t>(
            checkpoint_seq_.load(std::memory_order_acquire)));
    metrics_.GetGauge("gaea_checkpoint_last_duration_micros")
        ->Set(static_cast<int64_t>(
            last_checkpoint_duration_us_.load(std::memory_order_acquire)));
    metrics_.GetGauge("gaea_checkpoint_last_snapshot_bytes")
        ->Set(static_cast<int64_t>(
            last_checkpoint_bytes_.load(std::memory_order_acquire)));
    metrics_.GetGauge("gaea_recovery_records_replayed")
        ->Set(static_cast<int64_t>(records_replayed_));
    metrics_.GetGauge("gaea_recovery_checkpoint_seq")
        ->Set(static_cast<int64_t>(recovered_checkpoint_seq_));
    metrics_.GetGauge("gaea_recovery_fallbacks")
        ->Set(static_cast<int64_t>(recovery_fallbacks_));

    metrics_.GetGauge("gaea_store_next_oid")
        ->Set(static_cast<int64_t>(catalog_->store()->next_oid()));
    metrics_.GetGauge("gaea_store_scrubbed_entries")
        ->Set(static_cast<int64_t>(catalog_->store()->scrubbed_entries()));
    metrics_.GetGauge("gaea_store_restored_entries")
        ->Set(static_cast<int64_t>(catalog_->store()->restored_entries()));
  });
}

Status GaeaKernel::Recover(Env* env) {
  RecoveryReport report;
  std::vector<std::pair<TaskId, std::string>> orphans;
  for (const Task& task : task_log_->tasks()) {
    if (task.status != TaskStatus::kCompleted) continue;
    report.tasks_checked++;
    for (Oid oid : task.outputs) {
      if (oid > report.max_task_output) report.max_task_output = oid;
      GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
      if (stored) continue;
      // A missing output is legitimate if the task can be replayed: Evict
      // deliberately drops stored bytes of re-derivable objects. External
      // tasks (version -1) and tasks whose process definition vanished with
      // the crash have no way back — quarantine those.
      bool rederivable =
          task.process_version >= 1 &&
          processes_.Version(task.process_name, task.process_version).ok();
      if (rederivable) {
        report.rederivable_missing++;
      } else {
        orphans.emplace_back(task.id,
                             "output " + std::to_string(oid) +
                                 " lost and process " + task.process_name +
                                 " v" + std::to_string(task.process_version) +
                                 " not replayable");
        break;  // one quarantine record per task
      }
    }
  }
  // OIDs recorded by committed tasks must never be reallocated, even when
  // the objects themselves (and the index pages that recovered next_oid)
  // were lost in the crash.
  if (report.max_task_output != kInvalidOid) {
    catalog_->store()->EnsureNextOidAtLeast(report.max_task_output + 1);
  }
  if (!orphans.empty()) {
    // Quarantine is itself a journal so reports survive reopen; records are
    // "id<TAB>reason" text, deduplicated against prior runs by replay.
    GAEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> quarantine,
                          Journal::Open(dir_ + "/quarantine.journal", env));
    quarantine->set_durability(durability_);
    std::set<TaskId> known;
    GAEA_RETURN_IF_ERROR(
        quarantine->Replay([&known](const std::string& record) -> Status {
          known.insert(static_cast<TaskId>(
              std::strtoull(record.c_str(), nullptr, 10)));
          return Status::OK();
        }));
    for (const auto& [id, reason] : orphans) {
      report.quarantined.push_back(id);
      if (known.count(id) > 0) continue;
      GAEA_RETURN_IF_ERROR(
          quarantine->Append(std::to_string(id) + "\t" + reason));
    }
    GAEA_RETURN_IF_ERROR(quarantine->Sync());
  }
  recovery_report_ = std::move(report);
  return Status::OK();
}

Status GaeaKernel::SnapshotProcesses(
    const std::function<Status(const std::string&)>& sink,
    uint64_t* covered_lsn) const {
  // Grouped by name, versions ascending: registration re-derives each
  // version number, and per-name ordering is all that matters (names are
  // independent). Must not race DefineProcess — see Checkpoint().
  for (const ProcessDef* latest : processes_.ListLatest()) {
    GAEA_ASSIGN_OR_RETURN(std::vector<const ProcessDef*> history,
                          processes_.History(latest->name()));
    for (const ProcessDef* def : history) {
      BinaryWriter w;
      def->Serialize(&w);
      GAEA_RETURN_IF_ERROR(sink(w.buffer()));
    }
  }
  *covered_lsn = process_journal_->record_count();
  return Status::OK();
}

std::vector<recovery::CheckpointSource> GaeaKernel::BuildCheckpointSources()
    const {
  std::vector<recovery::CheckpointSource> sources;
  for (const JournaledComponent& row : components_) {
    if (!row.capture) continue;
    sources.push_back(
        {row.name, row.capture, row.journal, row.truncate_prefix});
  }
  return sources;
}

uint64_t GaeaKernel::CheckpointedJournalBytes() const {
  uint64_t bytes = 0;
  for (const JournaledComponent& row : components_) {
    if (row.capture) bytes += row.journal->size_bytes();
  }
  return bytes;
}

StatusOr<recovery::CheckpointInfo> GaeaKernel::Checkpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  obs::SpanGuard span("checkpoint", "kernel");
  metrics_.GetCounter("gaea_checkpoints_total")->Inc();
  // Objects referenced by captured tasks — and the next_oid floor the
  // manifest records — must be durable before the manifest can claim them.
  Status flushed = catalog_->Flush();
  StatusOr<recovery::CheckpointInfo> info =
      flushed.ok() ? recovery::RunCheckpoint(env_, dir_,
                                             BuildCheckpointSources(),
                                             catalog_->store()->next_oid())
                   : StatusOr<recovery::CheckpointInfo>(flushed);
  if (!info.ok()) {
    checkpoint_failures_.fetch_add(1, std::memory_order_acq_rel);
    metrics_.GetCounter("gaea_checkpoint_failures_total")->Inc();
    return info;
  }
  checkpoints_taken_.fetch_add(1, std::memory_order_acq_rel);
  checkpoint_seq_.store(info->seq, std::memory_order_release);
  last_checkpoint_duration_us_.store(info->duration_us,
                                     std::memory_order_release);
  last_checkpoint_bytes_.store(info->snapshot_bytes,
                               std::memory_order_release);
  auto covered = info->covered.find(kTaskComponent);
  if (covered != info->covered.end()) {
    ckpt_covered_tasks_.store(covered->second, std::memory_order_release);
  }
  ckpt_bytes_floor_.store(CheckpointedJournalBytes(),
                          std::memory_order_release);
  // Persist the provenance index watermark alongside: recovery then only
  // re-indexes the post-checkpoint tail instead of re-passing the history.
  GAEA_RETURN_IF_ERROR(prov_index_->Flush());
  return info;
}

void GaeaKernel::SetCheckpointPolicy(const CheckpointPolicy& policy) {
  policy_journal_bytes_.store(policy.journal_bytes, std::memory_order_release);
  policy_tasks_.store(policy.tasks, std::memory_order_release);
}

GaeaKernel::CheckpointPolicy GaeaKernel::checkpoint_policy() const {
  CheckpointPolicy policy;
  policy.journal_bytes = policy_journal_bytes_.load(std::memory_order_acquire);
  policy.tasks = policy_tasks_.load(std::memory_order_acquire);
  return policy;
}

StatusOr<bool> GaeaKernel::MaybeCheckpoint() {
  CheckpointPolicy policy = checkpoint_policy();
  if (policy.journal_bytes == 0 && policy.tasks == 0) return false;
  bool due = false;
  if (policy.tasks > 0) {
    uint64_t total = task_log_->journal()->record_count();
    uint64_t covered = ckpt_covered_tasks_.load(std::memory_order_acquire);
    due = total > covered && total - covered >= policy.tasks;
  }
  if (!due && policy.journal_bytes > 0) {
    uint64_t live = CheckpointedJournalBytes();
    uint64_t floor = ckpt_bytes_floor_.load(std::memory_order_acquire);
    due = live > floor && live - floor >= policy.journal_bytes;
  }
  if (!due) return false;
  GAEA_RETURN_IF_ERROR(Checkpoint().status());
  return true;
}

void GaeaKernel::SetClock(AbsTime now) {
  now_ = now;
  deriver_->set_clock(now);
  interpolator_->set_clock(now);
}

Status GaeaKernel::ApplyStatement(ParsedStatement stmt) {
  if (auto* class_def = std::get_if<ClassDef>(&stmt)) {
    // A derived class must reference a known process — enforced here rather
    // than in the catalog so base-first scripts still work when the process
    // arrives in the same script before first use.
    GAEA_RETURN_IF_ERROR(
        catalog_->DefineClass(std::move(*class_def)).status());
    ++catalog_version_;
    return Status::OK();
  }
  if (auto* process_def = std::get_if<ProcessDef>(&stmt)) {
    return DefineProcess(std::move(*process_def)).status();
  }
  if (auto* concept_stmt = std::get_if<ConceptStmt>(&stmt)) {
    if (!catalog_->concepts().Contains(concept_stmt->name)) {
      GAEA_RETURN_IF_ERROR(
          catalog_->DefineConcept(concept_stmt->name, concept_stmt->doc)
              .status());
    }
    for (const std::string& parent : concept_stmt->isa_parents) {
      if (!catalog_->concepts().Contains(parent)) {
        GAEA_RETURN_IF_ERROR(catalog_->DefineConcept(parent, "").status());
      }
      GAEA_RETURN_IF_ERROR(catalog_->AddIsA(concept_stmt->name, parent));
    }
    for (const std::string& member : concept_stmt->member_classes) {
      GAEA_RETURN_IF_ERROR(
          catalog_->AddConceptMember(concept_stmt->name, member));
    }
    ++catalog_version_;
    return Status::OK();
  }
  return Status::Internal("unhandled DDL statement variant");
}

Status GaeaKernel::ExecuteDdl(const std::string& source) {
  return ExecuteDdl(source, nullptr);
}

Status GaeaKernel::ExecuteDdl(const std::string& source,
                              std::vector<Diagnostic>* diagnostics) {
  GAEA_ASSIGN_OR_RETURN(std::vector<ParsedStatement> stmts,
                        ParseScript(source));
  for (ParsedStatement& stmt : stmts) {
    GAEA_RETURN_IF_ERROR(ApplyStatement(std::move(stmt)));
  }
  if (diagnostics != nullptr) {
    // Warn-on-load: surface everything the analyzer finds in the catalog as
    // it now stands. Cross-statement findings (a DERIVED BY process still
    // missing, an unreachable transition) are legal mid-bootstrap — a later
    // script may complete the network — so they do not fail the load.
    // Incremental: only processes new to this script are re-analyzed.
    const std::vector<Diagnostic>& found = LintCatalog();
    diagnostics->insert(diagnostics->end(), found.begin(), found.end());
  }
  return Status::OK();
}

const std::vector<Diagnostic>& GaeaKernel::LintCatalog() {
  // GA502 needs to know which classes a concept vouches for: a derivation
  // feeding no further process is not dead if an experiment-level concept
  // covers its output.
  std::set<std::string> covered;
  for (const ConceptDef* concept_def : catalog_->concepts().List()) {
    for (ClassId id : concept_def->member_classes) {
      auto cls = catalog_->classes().LookupById(id);
      if (cls.ok()) covered.insert((*cls)->name());
    }
  }
  return analysis_cache_.Analyze(catalog_version_, catalog_->classes(),
                                 processes_, ops_, &covered);
}

StatusOr<int> GaeaKernel::DefineProcess(ProcessDef def) {
  GAEA_RETURN_IF_ERROR(def.Validate(catalog_->classes(), ops_));
  // Reject-on-error: a process whose template can never hold (trivially
  // false assertion, contradictory cardinalities, ...) would be a dead
  // transition in every derivation net; refuse it at the door.
  std::vector<Diagnostic> diags;
  AnalyzeProcess(def, catalog_->classes(), ops_, &diags);
  if (!HasErrors(diags)) {
    // Dataflow errors (provable shape mismatch, zero divisor, contradicted
    // assertion) are just as fatal as type errors: the template can never
    // fire, or fires into a guaranteed runtime failure.
    ClassSummaries summaries =
        ComputeClassSummaries(catalog_->classes(), processes_, ops_);
    AnalyzeProcessDataflow(def, catalog_->classes(), ops_, summaries, &diags);
  }
  if (HasErrors(diags)) {
    std::string rendered;
    for (const Diagnostic& d : diags) {
      if (d.severity != Severity::kError) continue;
      if (!rendered.empty()) rendered += "; ";
      rendered += d.ToString();
    }
    return Status::InvalidArgument("process " + def.name() +
                                   " rejected by static analysis: " +
                                   rendered);
  }
  std::string name = def.name();
  GAEA_ASSIGN_OR_RETURN(int version, processes_.Register(std::move(def)));
  // Journal the registered (version-stamped) definition.
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* stored,
                        processes_.Version(name, version));
  BinaryWriter w;
  stored->Serialize(&w);
  GAEA_RETURN_IF_ERROR(process_journal_->Append(w.buffer()));
  ++catalog_version_;
  return version;
}

StatusOr<Oid> GaeaKernel::Derive(
    const std::string& process,
    const std::map<std::string, std::vector<Oid>>& inputs, int version) {
  return deriver_->Derive(process, inputs, version);
}

StatusOr<std::vector<DeriveOutcome>> GaeaKernel::DeriveBatch(
    const std::vector<DeriveRequest>& requests) {
  obs::SpanGuard span("derive-batch", "kernel");
  metrics_.GetCounter("gaea_derive_batches_total")->Inc();
  TaskScheduler scheduler(deriver_.get(), catalog_.get(), &processes_,
                          derivation_cache_.get());
  return scheduler.RunBatch(requests);
}

void GaeaKernel::SetDeriveThreads(int threads) {
  // One knob, one pool: plan steps and their raster tiles share the
  // TilePool's threads (docs/PERF.md).
  TilePool::Global().SetMaxParallel(threads);
}

int GaeaKernel::derive_threads() const {
  return TilePool::Global().max_parallel();
}

StatusOr<Oid> GaeaKernel::DeriveCompound(
    const CompoundProcessDef& compound,
    const std::map<std::string, std::vector<Oid>>& external_inputs) {
  obs::SpanGuard span("compound:" + compound.name(), "kernel");
  metrics_.GetCounter("gaea_compound_runs_total")->Inc();
  // No cache: every compound run records its stage tasks.
  TaskScheduler scheduler(deriver_.get(), catalog_.get(), &processes_,
                          nullptr);
  return scheduler.RunCompound(compound, external_inputs);
}

StatusOr<Oid> GaeaKernel::DeriveOrReuse(
    const std::string& process,
    const std::map<std::string, std::vector<Oid>>& inputs, int version) {
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* proc,
                        processes_.Resolve(process, version));
  StatusOr<Oid> recorded = TryRecordedDerive(process, inputs, proc->version());
  if (recorded.status().code() != StatusCode::kNotFound) return recorded;
  GAEA_ASSIGN_OR_RETURN(Oid oid, Derive(process, inputs, proc->version()));
  derivation_cache_->Insert(DerivationCache::MakeKey(*proc, inputs), oid);
  return oid;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

StatusOr<const GaeaKernel::JournaledComponent*> GaeaKernel::FindComponent(
    const std::string& name) const {
  for (const JournaledComponent& row : components_) {
    if (row.name == name) return &row;
  }
  return Status::InvalidArgument("unknown replication component: " + name);
}

uint64_t GaeaKernel::ClusterLsn() const {
  uint64_t total = 0;
  for (const JournaledComponent& row : components_) {
    total += row.record_count();
  }
  return total;
}

std::vector<std::pair<std::string, uint64_t>> GaeaKernel::ReplicationCursors()
    const {
  std::vector<std::pair<std::string, uint64_t>> cursors;
  for (const JournaledComponent& row : components_) {
    cursors.emplace_back(row.name, row.record_count());
  }
  return cursors;
}

StatusOr<Oid> GaeaKernel::Insert(DataObject obj) {
  GAEA_ASSIGN_OR_RETURN(Oid oid, catalog_->InsertObject(std::move(obj)));
  if (object_journal_ != nullptr) {
    GAEA_RETURN_IF_ERROR(AppendObjectRecord(oid));
  }
  return oid;
}

Status GaeaKernel::AppendObjectRecord(Oid oid) {
  // Journal the exact stored bytes, not a re-serialization: the replica's
  // store ends up byte-identical and convergence checks can compare raw
  // payloads.
  GAEA_ASSIGN_OR_RETURN(std::string payload, catalog_->store()->Get(oid));
  BinaryWriter w;
  w.PutU64(oid);
  w.PutString(payload);
  return object_journal_->Append(w.buffer());
}

Status GaeaKernel::ApplyObjectRecord(const std::string& record) {
  BinaryReader r(record);
  GAEA_ASSIGN_OR_RETURN(Oid oid, r.GetU64());
  GAEA_ASSIGN_OR_RETURN(std::string payload, r.GetString());
  BinaryReader obj_reader(payload);
  GAEA_ASSIGN_OR_RETURN(DataObject obj, DataObject::Deserialize(&obj_reader));
  Status inserted = catalog_->InsertObjectAt(std::move(obj), oid);
  // Duplicate delivery (or a primary replaying its own journal) is a no-op.
  if (inserted.code() == StatusCode::kAlreadyExists) return Status::OK();
  return inserted;
}

Status GaeaKernel::JournalInterpolationOutputs(uint64_t from_task_id) {
  if (object_journal_ == nullptr) return Status::OK();
  uint64_t total = task_log_->size();
  for (TaskId id = from_task_id + 1; id <= total; ++id) {
    GAEA_ASSIGN_OR_RETURN(const Task* task, task_log_->Get(id));
    if (task->status != TaskStatus::kCompleted || task->process_version != 0) {
      continue;
    }
    for (Oid oid : task->outputs) {
      GAEA_RETURN_IF_ERROR(AppendObjectRecord(oid));
    }
  }
  return Status::OK();
}

Status GaeaKernel::ShipRange(const std::string& component, uint64_t from,
                             size_t max_records, size_t max_bytes,
                             std::vector<std::string>* out, uint64_t* next) {
  *next = from;
  GAEA_ASSIGN_OR_RETURN(const JournaledComponent* row,
                        FindComponent(component));
  if (row->journal == nullptr) return Status::OK();
  size_t bytes = 0;
  while (out->size() < max_records && bytes < max_bytes) {
    size_t before = out->size();
    Status live = row->journal->ReadRange(*next, max_records - out->size(),
                                          max_bytes - bytes, out, next);
    if (live.code() == StatusCode::kOutOfRange) {
      // The prefix was truncated into the archive chain by a concurrent
      // checkpoint; ship from the segments, then loop to cross the seam
      // back into the live journal.
      GAEA_RETURN_IF_ERROR(replication::ReadFromArchives(
          env_, dir_, component, *next, max_records - out->size(),
          max_bytes - bytes, out, next));
    } else {
      GAEA_RETURN_IF_ERROR(live);
    }
    if (out->size() == before) break;  // at the tail (or byte cap reached)
    for (size_t i = before; i < out->size(); ++i) bytes += (*out)[i].size();
  }
  return Status::OK();
}

Status GaeaKernel::ApplyReplicated(const std::string& component, uint64_t from,
                                   const std::vector<std::string>& records) {
  GAEA_ASSIGN_OR_RETURN(const JournaledComponent* row,
                        FindComponent(component));
  uint64_t count = row->record_count();
  if (from > count) {
    return Status::FailedPrecondition(
        "replication gap in " + component + ": batch starts at LSN " +
        std::to_string(from) + " but only " + std::to_string(count) +
        " records applied");
  }
  // Records below the local count were already applied (duplicate delivery,
  // or a batch straddling the replica's cursor) — skip them idempotently.
  size_t skip = static_cast<size_t>(
      std::min<uint64_t>(count - from, records.size()));
  for (size_t i = skip; i < records.size(); ++i) {
    GAEA_RETURN_IF_ERROR(row->apply(records[i]));
  }
  return Status::OK();
}

Status GaeaKernel::ApplyTaskRecord(const std::string& record) {
  BinaryReader r(record);
  GAEA_ASSIGN_OR_RETURN(Task task, Task::Deserialize(&r));
  if (task.status == TaskStatus::kCompleted) {
    // Cross-component cursors are read without a global lock on the
    // primary, so a task can ship before its process version or input
    // objects. kFailedPrecondition makes the applier retry once the
    // missing prefix ships; nothing was persisted.
    for (const auto& [arg, oids] : task.inputs) {
      for (Oid oid : oids) {
        GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
        if (!stored) {
          return Status::FailedPrecondition(
              "task #" + std::to_string(task.id) + " input object " +
              std::to_string(oid) + " not yet shipped");
        }
      }
    }
    if (task.process_version >= 1) {
      if (!processes_.Version(task.process_name, task.process_version).ok()) {
        return Status::FailedPrecondition(
            "task #" + std::to_string(task.id) + " process " +
            task.process_name + " v" + std::to_string(task.process_version) +
            " not yet shipped");
      }
      // Store outputs before the task record, mirroring the primary's
      // insert-then-log order (a crash between the two leaves the same
      // state Recover already handles).
      GAEA_RETURN_IF_ERROR(RematerializeTask(task));
    } else {
      // Interpolation (v0) and external (v-1) outputs cannot be re-run
      // here; their bytes ship through the objects component.
      for (Oid oid : task.outputs) {
        GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
        if (!stored) {
          return Status::FailedPrecondition(
              "task #" + std::to_string(task.id) + " output object " +
              std::to_string(oid) + " not yet shipped");
        }
      }
    }
  }
  return task_log_->ApplyReplicated(record).status();
}

Status GaeaKernel::RematerializeMissingOutputs() {
  // Task order is id order, so an input that is itself a derived object was
  // rematerialized by an earlier iteration. Tasks the deriver cannot re-run
  // (external, interpolation, multi-output) ship their bytes through the
  // objects journal instead and were restored by its replay; tasks whose
  // process vanished were already quarantined by Recover.
  for (const Task& task : task_log_->tasks()) {
    if (task.status != TaskStatus::kCompleted || task.process_version < 1 ||
        task.outputs.size() != 1) {
      continue;
    }
    GAEA_ASSIGN_OR_RETURN(bool stored,
                          catalog_->ContainsObject(task.outputs[0]));
    auto proc = processes_.Version(task.process_name, task.process_version);
    if (!proc.ok()) continue;
    if (!stored) GAEA_RETURN_IF_ERROR(RematerializeTask(task));
    derivation_cache_->Insert(DerivationCache::MakeKey(**proc, task.inputs),
                              task.outputs[0]);
  }
  return Status::OK();
}

Status GaeaKernel::RematerializeTask(const Task& task) {
  bool missing = false;
  for (Oid oid : task.outputs) {
    GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
    if (!stored) missing = true;
  }
  if (!missing) return Status::OK();  // duplicate remat after a crash
  if (task.outputs.size() != 1) {
    return Status::FailedPrecondition(
        "task #" + std::to_string(task.id) +
        " has multiple outputs; cannot rematerialize");
  }
  GAEA_ASSIGN_OR_RETURN(
      const ProcessDef* proc,
      processes_.Version(task.process_name, task.process_version));
  // Pure compute half of a derivation: processes are deterministic, so the
  // replica's object is attribute-identical to the primary's.
  Deriver::Prepared prepared = deriver_->Prepare(*proc, task.inputs);
  GAEA_RETURN_IF_ERROR(prepared.status);
  return catalog_->InsertObjectAt(std::move(*prepared.output),
                                  task.outputs[0]);
}

StatusOr<Oid> GaeaKernel::TryRecordedDerive(
    const std::string& process,
    const std::map<std::string, std::vector<Oid>>& inputs, int version) {
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* proc,
                        processes_.Resolve(process, version));
  std::string key = DerivationCache::MakeKey(*proc, inputs);
  if (std::optional<Oid> hit = derivation_cache_->Lookup(key)) {
    GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(*hit));
    if (stored) return *hit;
    derivation_cache_->InvalidateOutput(*hit);
  }
  // Newest first; the first output still stored wins (earlier equivalents
  // may have been evicted). The store probes run outside the log mutex.
  for (Oid output : task_log_->FindCompleted(process, proc->version(),
                                             inputs)) {
    GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(output));
    if (!stored) continue;
    derivation_cache_->Insert(key, output);
    return output;
  }
  return Status::NotFound("no recorded derivation of " + process +
                          " with these inputs");
}

Status GaeaKernel::Evict(Oid oid) {
  GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
  if (!stored) {
    return Status::NotFound("object " + std::to_string(oid) + " is not stored");
  }
  auto producer = task_log_->Producer(oid);
  if (!producer.ok()) {
    return Status::FailedPrecondition(
        "object " + std::to_string(oid) +
        " is base data and cannot be regenerated; eviction refused");
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<TaskId> consumers,
                        prov_index_->TasksByInput(oid));
  const uint64_t max_id = task_log_->size();
  if (std::any_of(consumers.begin(), consumers.end(),
                  [max_id](TaskId id) { return id <= max_id; })) {
    return Status::FailedPrecondition(
        "object " + std::to_string(oid) +
        " is an input of recorded derivations; evicting it would break "
        "their replay");
  }
  GAEA_RETURN_IF_ERROR(catalog_->DeleteObject(oid));
  // The memoized derivation no longer points at a stored object.
  derivation_cache_->InvalidateOutput(oid);
  return Status::OK();
}

StatusOr<TaskId> GaeaKernel::RecordExternalTask(
    const std::string& procedure_name,
    const std::map<std::string, std::vector<Oid>>& inputs,
    const std::vector<Oid>& outputs, const std::string& description) {
  if (!IsIdentifier(procedure_name)) {
    return Status::InvalidArgument("bad external procedure name: '" +
                                   procedure_name + "'");
  }
  if (outputs.empty()) {
    return Status::InvalidArgument("external task needs at least one output");
  }
  for (const auto& [arg, oids] : inputs) {
    for (Oid oid : oids) {
      GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
      if (!stored) {
        return Status::NotFound("external task input object " +
                                std::to_string(oid) + " is not stored");
      }
    }
  }
  for (Oid oid : outputs) {
    GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
    if (!stored) {
      return Status::NotFound("external task output object " +
                              std::to_string(oid) + " is not stored");
    }
  }
  Task task;
  task.process_name = procedure_name;
  task.process_version = kExternalTaskVersion;
  task.inputs = inputs;
  task.outputs = outputs;
  task.user = user_;
  task.note = description;
  task.started = now_;
  return task_log_->Append(std::move(task));
}

StatusOr<QueryResult> GaeaKernel::Query(const QueryRequest& request) {
  uint64_t watermark = task_log_->size();
  StatusOr<QueryResult> result = query_engine_->Execute(request);
  // A query may interpolate (synthetic v0 tasks); ship those outputs.
  GAEA_RETURN_IF_ERROR(JournalInterpolationOutputs(watermark));
  return result;
}

StatusOr<QueryResult> GaeaKernel::QueryText(const std::string& gql) {
  GAEA_ASSIGN_OR_RETURN(QueryRequest request, ParseQuery(gql));
  return Query(request);
}

StatusOr<std::vector<GaeaKernel::InstanceComparison>>
GaeaKernel::CompareConceptInstances(const std::string& concept_name,
                                    const Window& window) {
  GAEA_ASSIGN_OR_RETURN(const ConceptDef* concept_def,
                        catalog_->concepts().LookupByName(concept_name));
  GAEA_ASSIGN_OR_RETURN(std::set<ClassId> covered,
                        catalog_->concepts().CoveredClasses(concept_def->id));
  // Collect (oid, class name) per covered class within the window.
  std::vector<std::pair<Oid, std::string>> instances;
  for (ClassId class_id : covered) {
    GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                          catalog_->classes().LookupById(class_id));
    GAEA_ASSIGN_OR_RETURN(
        std::vector<Oid> oids,
        catalog_->Candidates(class_id, window.region, window.time));
    for (Oid oid : oids) instances.emplace_back(oid, def->name());
  }
  // One chain per instance, then every pair compares chain against chain.
  provenance::ProvenanceEngine engine = ProvEngine();
  std::vector<provenance::ChainResult> chains;
  chains.reserve(instances.size());
  for (const auto& [oid, class_name] : instances) {
    GAEA_ASSIGN_OR_RETURN(provenance::ChainResult chain, engine.Chain(oid));
    chains.push_back(std::move(chain));
  }
  std::vector<InstanceComparison> out;
  for (size_t i = 0; i < instances.size(); ++i) {
    for (size_t j = i + 1; j < instances.size(); ++j) {
      provenance::DerivationComparison cmp =
          provenance::Compare(chains[i], chains[j]);
      InstanceComparison entry;
      entry.a = instances[i].first;
      entry.b = instances[j].first;
      entry.class_a = instances[i].second;
      entry.class_b = instances[j].second;
      entry.same_procedure = cmp.same_procedure;
      entry.explanation = std::move(cmp.explanation);
      out.push_back(std::move(entry));
    }
  }
  return out;
}

GaeaKernel::Stats GaeaKernel::GetStats() const {
  Stats stats;
  stats.classes = catalog_->classes().size();
  stats.concepts = catalog_->concepts().size();
  stats.processes = processes_.ListLatest().size();
  for (const ProcessDef* def : processes_.ListLatest()) {
    auto history = processes_.History(def->name());
    stats.process_versions += history.ok() ? history->size() : 0;
  }
  stats.objects = static_cast<size_t>(catalog_->ObjectCount());
  stats.tasks = task_log_->size();
  stats.experiments = experiments_->List().size();
  stats.quarantined_tasks = recovery_report_.quarantined.size();
  stats.durability = DurabilityModeName(durability_);
  stats.records_replayed = records_replayed_;
  stats.recovered_checkpoint_seq = recovered_checkpoint_seq_;
  stats.recovery_fallbacks = recovery_fallbacks_;
  stats.checkpoint_seq = checkpoint_seq_.load(std::memory_order_acquire);
  stats.checkpoints_taken =
      checkpoints_taken_.load(std::memory_order_acquire);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_acquire);
  stats.last_checkpoint_duration_us =
      last_checkpoint_duration_us_.load(std::memory_order_acquire);
  stats.last_checkpoint_bytes =
      last_checkpoint_bytes_.load(std::memory_order_acquire);
  // Every live journal's logical length: the same sum as the cluster LSN.
  stats.journal_records_total = ClusterLsn();
  stats.cluster_lsn = stats.journal_records_total;
  stats.prov_index_entries = static_cast<uint64_t>(prov_index_->entry_count());
  stats.prov_indexed_through = prov_index_->indexed_through();
  stats.prov_index_rebuilds = prov_index_->rebuilds();
  stats.prov_archive_fetches = prov_source_->archive_fetches();
  stats.derivation_cache = derivation_cache_->stats();
  auto fill_pool = [](const BufferPool* pool, PoolStats* out) {
    out->hits = pool->hits();
    out->misses = pool->misses();
    out->evictions = pool->evictions();
    out->per_shard = pool->PerShardStats();
  };
  fill_pool(catalog_->store()->heap_pool(), &stats.heap_pool);
  fill_pool(catalog_->store()->index_pool(), &stats.index_pool);
  stats.heap_chains = catalog_->store()->heap_chain_stats();
  return stats;
}

std::string GaeaKernel::Stats::ToJson() const {
  auto field = [](std::string* json, const char* key, uint64_t value,
                  bool first = false) {
    if (!first) *json += ',';
    *json += '"';
    *json += key;
    *json += "\":";
    *json += std::to_string(value);
  };
  auto pool_json = [&field](const PoolStats& pool,
                            const HeapFile::ChainStats* chains = nullptr) {
    std::string json = "{";
    field(&json, "hits", pool.hits, /*first=*/true);
    field(&json, "misses", pool.misses);
    field(&json, "evictions", pool.evictions);
    if (chains != nullptr) {
      field(&json, "chain_reads", chains->reads);
      field(&json, "chain_read_pages", chains->read_pages);
      field(&json, "chain_writes", chains->writes);
      field(&json, "chain_write_pages", chains->write_pages);
    }
    json += ",\"shards\":[";
    for (size_t i = 0; i < pool.per_shard.size(); ++i) {
      const BufferPool::ShardStats& shard = pool.per_shard[i];
      if (i > 0) json += ',';
      std::string entry = "{";
      field(&entry, "hits", shard.hits, /*first=*/true);
      field(&entry, "misses", shard.misses);
      field(&entry, "evictions", shard.evictions);
      field(&entry, "resident", shard.resident);
      field(&entry, "pinned", shard.pinned);
      entry += '}';
      json += entry;
    }
    json += "]}";
    return json;
  };
  std::string json = "{";
  field(&json, "classes", classes, /*first=*/true);
  field(&json, "concepts", concepts);
  field(&json, "processes", processes);
  field(&json, "process_versions", process_versions);
  field(&json, "objects", objects);
  field(&json, "tasks", tasks);
  field(&json, "experiments", experiments);
  field(&json, "quarantined_tasks", quarantined_tasks);
  field(&json, "cluster_lsn", cluster_lsn);
  json += ",\"durability\":\"" + durability + "\"";
  json += ",\"recovery\":{";
  field(&json, "records_replayed", records_replayed, /*first=*/true);
  field(&json, "checkpoint_seq", recovered_checkpoint_seq);
  field(&json, "fallbacks", recovery_fallbacks);
  json += "},\"checkpoint\":{";
  field(&json, "seq", checkpoint_seq, /*first=*/true);
  field(&json, "taken", checkpoints_taken);
  field(&json, "failures", checkpoint_failures);
  field(&json, "last_duration_us", last_checkpoint_duration_us);
  field(&json, "last_bytes", last_checkpoint_bytes);
  field(&json, "journal_records", journal_records_total);
  json += "}";
  json += ",\"provenance\":{";
  field(&json, "index_entries", prov_index_entries, /*first=*/true);
  field(&json, "indexed_through", prov_indexed_through);
  field(&json, "rebuilds", prov_index_rebuilds);
  field(&json, "archive_fetches", prov_archive_fetches);
  json += "}";
  json += ",\"derivation_cache\":{";
  field(&json, "entries", derivation_cache.entries, /*first=*/true);
  field(&json, "capacity", derivation_cache.capacity);
  field(&json, "hits", derivation_cache.hits);
  field(&json, "misses", derivation_cache.misses);
  field(&json, "evictions", derivation_cache.evictions);
  field(&json, "invalidations", derivation_cache.invalidations);
  json += "},\"heap_pool\":" + pool_json(heap_pool, &heap_chains);
  json += ",\"index_pool\":" + pool_json(index_pool);
  json += '}';
  return json;
}

StatusOr<DerivationNet::Marking> GaeaKernel::CurrentMarking() const {
  DerivationNet::Marking marking;
  for (const ClassDef* def : catalog_->classes().List()) {
    GAEA_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                          catalog_->ObjectsOfClass(def->id()));
    if (!oids.empty()) {
      marking[def->id()] = static_cast<int64_t>(oids.size());
    }
  }
  return marking;
}

StatusOr<bool> GaeaKernel::CanDerive(const std::string& class_name) const {
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        catalog_->classes().LookupByName(class_name));
  GAEA_ASSIGN_OR_RETURN(DerivationNet net, BuildDerivationNet());
  GAEA_ASSIGN_OR_RETURN(DerivationNet::Marking marking, CurrentMarking());
  return net.CanDerive(def->id(), marking);
}

StatusOr<ReproductionReport> GaeaKernel::Reproduce(
    const std::string& experiment) {
  uint64_t watermark = task_log_->size();
  StatusOr<ReproductionReport> report = experiments_->Reproduce(
      experiment, catalog_.get(), deriver_.get(), interpolator_.get(),
      task_log_.get());
  GAEA_RETURN_IF_ERROR(JournalInterpolationOutputs(watermark));
  return report;
}

Status GaeaKernel::Flush() {
  GAEA_RETURN_IF_ERROR(catalog_->Flush());
  GAEA_RETURN_IF_ERROR(prov_index_->Flush());
  for (const JournaledComponent& row : components_) {
    if (row.journal != nullptr) GAEA_RETURN_IF_ERROR(row.journal->Sync());
  }
  return Status::OK();
}

// ---- provenance queries ----

namespace {
// Counts and times one provenance query; kind labels the metric.
class ProvQueryScope {
 public:
  ProvQueryScope(obs::MetricsRegistry* metrics, Env* env, const char* kind)
      : metrics_(metrics), env_(env),
        span_(std::string("provenance:") + kind, "kernel"),
        start_us_(env->NowMicros()) {
    metrics_->GetCounter(
        obs::LabelledName("gaea_provenance_queries_total", "kind", kind))->Inc();
  }
  ~ProvQueryScope() {
    metrics_->GetHistogram("gaea_provenance_query_micros")
        ->Observe(env_->NowMicros() - start_us_);
  }

 private:
  obs::MetricsRegistry* const metrics_;
  Env* const env_;
  obs::SpanGuard span_;
  const uint64_t start_us_;
};
}  // namespace

Status GaeaKernel::CheckProvenanceSubject(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(bool stored, catalog_->ContainsObject(oid));
  if (stored) return Status::OK();
  GAEA_ASSIGN_OR_RETURN(TaskId producer, ProvEngine().ProducerIdOf(oid));
  if (producer != kInvalidTaskId) return Status::OK();
  return Status::NotFound("object " + std::to_string(oid) + " is not stored");
}

StatusOr<provenance::ClosureResult> GaeaKernel::ProvenanceAncestors(
    Oid oid, int max_depth) {
  ProvQueryScope scope(&metrics_, env_, "ancestors");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  provenance::ProvenanceEngine::Limits limits;
  limits.max_depth = max_depth;
  return ProvEngine().Ancestors(oid, limits);
}

StatusOr<provenance::ClosureResult> GaeaKernel::ProvenanceDescendants(
    Oid oid, int max_depth) {
  ProvQueryScope scope(&metrics_, env_, "descendants");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  provenance::ProvenanceEngine::Limits limits;
  limits.max_depth = max_depth;
  return ProvEngine().Descendants(oid, limits);
}

StatusOr<provenance::WhyResult> GaeaKernel::ProvenanceWhy(Oid oid) {
  ProvQueryScope scope(&metrics_, env_, "why");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  return ProvEngine().Why(oid);
}

StatusOr<provenance::WhereResult> GaeaKernel::ProvenanceWhere(Oid oid) {
  ProvQueryScope scope(&metrics_, env_, "where");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  return ProvEngine().Where(oid);
}

StatusOr<provenance::DiffResult> GaeaKernel::ProvenanceDiff(Oid a, Oid b) {
  ProvQueryScope scope(&metrics_, env_, "diff");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(a));
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(b));
  return ProvEngine().Diff(a, b);
}

StatusOr<provenance::ChainResult> GaeaKernel::ProvenanceChain(Oid oid) {
  ProvQueryScope scope(&metrics_, env_, "chain");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  return ProvEngine().Chain(oid);
}

StatusOr<std::string> GaeaKernel::ProvenanceDot(Oid oid) {
  ProvQueryScope scope(&metrics_, env_, "dot");
  GAEA_RETURN_IF_ERROR(CheckProvenanceSubject(oid));
  return ProvEngine().Dot(oid);
}

}  // namespace gaea
