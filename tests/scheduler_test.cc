// TaskScheduler: parallel execution must be observationally identical to
// sequential execution — byte-identical derived objects, identical OIDs,
// identical task-log lineage — and the derivation cache must memoize
// repeated requests without ever returning a stale (evicted) object.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/tile_pool.h"
#include "gaea/kernel.h"
#include "raster/scene.h"
#include "test_util.h"
#include "util/serialize.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kSchema[] = R"(
CLASS reading (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS left (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: make-left
)
CLASS right (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: make-right
)
CLASS merged (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: merge-lr
)
)";

// Adds an identity-shaped process `name`: one scalar `reading`-typed (or
// given class) argument copied through to `output`.
void DefineCopyProcess(GaeaKernel* kernel, const std::string& name,
                       const std::string& input_class,
                       const std::string& output_class) {
  ProcessDef def(name, output_class);
  ASSERT_OK(def.AddArg({"in", input_class, false, 1}));
  ASSERT_OK(def.AddMapping("v", Expr::AttrRef("in", "v")));
  ASSERT_OK(
      def.AddMapping("spatialextent", Expr::AttrRef("in", "spatialextent")));
  ASSERT_OK(def.AddMapping("timestamp", Expr::AttrRef("in", "timestamp")));
  ASSERT_OK(kernel->DefineProcess(std::move(def)).status());
}

void DefineMergeProcess(GaeaKernel* kernel) {
  ProcessDef def("merge-lr", "merged");
  ASSERT_OK(def.AddArg({"a", "left", false, 1}));
  ASSERT_OK(def.AddArg({"b", "right", false, 1}));
  ASSERT_OK(def.AddMapping("v", Expr::AttrRef("a", "v")));
  ASSERT_OK(
      def.AddMapping("spatialextent", Expr::AttrRef("a", "spatialextent")));
  ASSERT_OK(def.AddMapping("timestamp", Expr::AttrRef("b", "timestamp")));
  ASSERT_OK(kernel->DefineProcess(std::move(def)).status());
}

// L and R consume the same external input independently; M joins them.
CompoundProcessDef BuildDiamond() {
  CompoundProcessDef diamond("diamond", "M");
  EXPECT_OK(diamond.AddExternalInput("src", "reading"));
  CompoundStage l;
  l.name = "L";
  l.process_name = "make-left";
  l.bindings["in"] = {StageInput::Source::kExternal, "src"};
  EXPECT_OK(diamond.AddStage(std::move(l)));
  CompoundStage r;
  r.name = "R";
  r.process_name = "make-right";
  r.bindings["in"] = {StageInput::Source::kExternal, "src"};
  EXPECT_OK(diamond.AddStage(std::move(r)));
  CompoundStage m;
  m.name = "M";
  m.process_name = "merge-lr";
  m.bindings["a"] = {StageInput::Source::kStage, "L"};
  m.bindings["b"] = {StageInput::Source::kStage, "R"};
  EXPECT_OK(diamond.AddStage(std::move(m)));
  return diamond;
}

struct Fixture {
  TempDir dir;
  std::unique_ptr<GaeaKernel> kernel;
  std::vector<Oid> readings;

  explicit Fixture(const std::string& tag, int objects = 6) : dir(tag) {
    GaeaKernel::Options options;
    options.dir = dir.path();
    auto opened = GaeaKernel::Open(options);
    EXPECT_OK(opened.status());
    kernel = std::move(*opened);
    kernel->SetClock(AbsTime(100));
    EXPECT_OK(kernel->ExecuteDdl(kSchema));
    DefineCopyProcess(kernel.get(), "make-left", "reading", "left");
    DefineCopyProcess(kernel.get(), "make-right", "reading", "right");
    DefineMergeProcess(kernel.get());
    const ClassDef* cls =
        kernel->catalog().classes().LookupByName("reading").value();
    for (int i = 0; i < objects; ++i) {
      DataObject obj(*cls);
      EXPECT_OK(obj.Set(*cls, "v", Value::Int(10 + i)));
      EXPECT_OK(obj.Set(*cls, "spatialextent",
                        Value::OfBox(Box(i, 0, i + 1, 1))));
      EXPECT_OK(obj.Set(*cls, "timestamp", Value::Time(AbsTime(200 + i))));
      auto oid = kernel->Insert(std::move(obj));
      EXPECT_OK(oid.status());
      readings.push_back(*oid);
    }
  }
};

std::string ObjectBytes(GaeaKernel* kernel, Oid oid) {
  auto obj = kernel->Get(oid);
  EXPECT_OK(obj.status());
  BinaryWriter w;
  obj->Serialize(&w);
  return w.buffer();
}

// Observable trace of one kernel's run: the derived OIDs plus every task's
// lineage tuple in log order (durations vary run to run and are excluded).
struct Trace {
  std::vector<Oid> batch_oids;
  Oid compound_oid = kInvalidOid;
  std::vector<std::string> objects;  // serialized derived objects, OID order
  std::vector<std::string> tasks;    // "process#version inputs -> outputs"
};

Trace RunWorkload(Fixture* f, int threads) {
  Trace trace;
  f->kernel->SetDeriveThreads(threads);

  std::vector<DeriveRequest> batch;
  for (Oid oid : f->readings) {
    DeriveRequest request;
    request.process = "make-left";
    request.inputs["in"] = {oid};
    batch.push_back(std::move(request));
  }
  auto outcomes = f->kernel->DeriveBatch(batch);
  EXPECT_OK(outcomes.status());
  for (const DeriveOutcome& outcome : *outcomes) {
    EXPECT_OK(outcome.status);
    trace.batch_oids.push_back(outcome.oid);
  }

  auto compound =
      f->kernel->DeriveCompound(BuildDiamond(), {{"src", {f->readings[0]}}});
  EXPECT_OK(compound.status());
  trace.compound_oid = compound.ok() ? *compound : kInvalidOid;

  for (Oid oid : trace.batch_oids) {
    trace.objects.push_back(ObjectBytes(f->kernel.get(), oid));
  }
  trace.objects.push_back(ObjectBytes(f->kernel.get(), trace.compound_oid));

  for (const Task& task : f->kernel->tasks().tasks()) {
    std::string line = task.process_name + "#" +
                       std::to_string(task.process_version) +
                       (task.status == TaskStatus::kCompleted ? " ok" : " fail");
    for (const auto& [arg, oids] : task.inputs) {
      line += " " + arg + "=";
      for (Oid oid : oids) line += std::to_string(oid) + ",";
    }
    line += " ->";
    for (Oid oid : task.outputs) line += " " + std::to_string(oid);
    trace.tasks.push_back(std::move(line));
  }
  return trace;
}

// The tentpole's correctness bar: N worker threads produce byte-identical
// objects, identical OIDs, and the same task-log lineage as one thread.
TEST(SchedulerDeterminismTest, ParallelRunMatchesSequential) {
  Fixture sequential("sched_seq");
  Fixture parallel("sched_par");
  Trace seq = RunWorkload(&sequential, 1);
  Trace par = RunWorkload(&parallel, 4);

  EXPECT_EQ(seq.batch_oids, par.batch_oids);
  EXPECT_EQ(seq.compound_oid, par.compound_oid);
  ASSERT_EQ(seq.objects.size(), par.objects.size());
  for (size_t i = 0; i < seq.objects.size(); ++i) {
    EXPECT_EQ(seq.objects[i], par.objects[i]) << "object " << i;
  }
  EXPECT_EQ(seq.tasks, par.tasks);
}

// Repeating the run on more threads again matches (8 > step count exercises
// the thread-clamp path too).
TEST(SchedulerDeterminismTest, EightThreadsMatchesSequential) {
  Fixture sequential("sched_seq8");
  Fixture parallel("sched_par8");
  Trace seq = RunWorkload(&sequential, 1);
  Trace par = RunWorkload(&parallel, 8);
  EXPECT_EQ(seq.batch_oids, par.batch_oids);
  EXPECT_EQ(seq.objects, par.objects);
  EXPECT_EQ(seq.tasks, par.tasks);
}

TEST(SchedulerBatchTest, PerRequestFailuresAreIsolated) {
  Fixture f("sched_isolated");
  f.kernel->SetDeriveThreads(4);
  std::vector<DeriveRequest> batch;
  DeriveRequest good;
  good.process = "make-left";
  good.inputs["in"] = {f.readings[0]};
  DeriveRequest bad;
  bad.process = "no-such-process";
  bad.inputs["in"] = {f.readings[1]};
  DeriveRequest good2;
  good2.process = "make-right";
  good2.inputs["in"] = {f.readings[2]};
  batch.push_back(good);
  batch.push_back(bad);
  batch.push_back(good2);

  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> outcomes,
                       f.kernel->DeriveBatch(batch));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_OK(outcomes[0].status);
  EXPECT_FALSE(outcomes[1].status.ok());
  EXPECT_OK(outcomes[2].status);
  EXPECT_TRUE(f.kernel->catalog().ContainsObject(outcomes[0].oid).value());
  EXPECT_TRUE(f.kernel->catalog().ContainsObject(outcomes[2].oid).value());
}

// A failing stage poisons its transitive dependents (no task is ever logged
// for them) while independent stages still run to completion.
TEST(SchedulerPoisonTest, FailedStagePoisonsDependentsOnly) {
  Fixture f("sched_poison");
  // make-left is replaced by a version whose assertion can never hold, so
  // stage L fails; R is independent and must still complete; M (depends on
  // L) must never run.
  ProcessDef strict("make-left", "left");
  ASSERT_OK(strict.AddArg({"in", "reading", false, 1}));
  std::vector<ExprPtr> args;
  args.push_back(Expr::AttrRef("in", "v"));
  args.push_back(Expr::Literal(Value::Int(1000000)));
  ASSERT_OK(strict.AddAssertion(Expr::OpCall("gt", std::move(args))));
  ASSERT_OK(strict.AddMapping("v", Expr::AttrRef("in", "v")));
  ASSERT_OK(
      strict.AddMapping("spatialextent", Expr::AttrRef("in", "spatialextent")));
  ASSERT_OK(strict.AddMapping("timestamp", Expr::AttrRef("in", "timestamp")));
  ASSERT_OK(f.kernel->DefineProcess(std::move(strict)).status());

  f.kernel->SetDeriveThreads(4);
  auto result =
      f.kernel->DeriveCompound(BuildDiamond(), {{"src", {f.readings[0]}}});
  EXPECT_FALSE(result.ok());

  int left_failed = 0, right_completed = 0, merge_tasks = 0;
  for (const Task& task : f.kernel->tasks().tasks()) {
    if (task.process_name == "make-left" &&
        task.status == TaskStatus::kFailed) {
      left_failed++;
    }
    if (task.process_name == "make-right" &&
        task.status == TaskStatus::kCompleted) {
      right_completed++;
    }
    if (task.process_name == "merge-lr") merge_tasks++;
  }
  EXPECT_EQ(left_failed, 1);
  EXPECT_EQ(right_completed, 1);
  EXPECT_EQ(merge_tasks, 0);  // poisoned: reported failed, never run
}

TEST(DerivationCacheTest, RepeatedBatchHitsWithoutNewTasks) {
  Fixture f("sched_cache");
  f.kernel->SetDeriveThreads(4);
  std::vector<DeriveRequest> batch;
  for (Oid oid : f.readings) {
    DeriveRequest request;
    request.process = "make-left";
    request.inputs["in"] = {oid};
    batch.push_back(std::move(request));
  }

  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> first,
                       f.kernel->DeriveBatch(batch));
  size_t tasks_after_first = f.kernel->tasks().size();
  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> second,
                       f.kernel->DeriveBatch(batch));

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_OK(second[i].status);
    EXPECT_FALSE(first[i].cache_hit);
    EXPECT_TRUE(second[i].cache_hit) << "request " << i;
    EXPECT_EQ(first[i].oid, second[i].oid);
  }
  // Memoized requests record no new tasks.
  EXPECT_EQ(f.kernel->tasks().size(), tasks_after_first);

  DerivationCache::Stats stats = f.kernel->derivation_cache().stats();
  EXPECT_GE(stats.hits, f.readings.size());
  EXPECT_GE(stats.misses, f.readings.size());
}

// Evicting a memoized output must invalidate its cache entry: the next
// request recomputes instead of returning the dangling OID.
TEST(DerivationCacheTest, EvictionInvalidatesEntry) {
  Fixture f("sched_evict");
  std::vector<DeriveRequest> batch;
  DeriveRequest request;
  request.process = "make-left";
  request.inputs["in"] = {f.readings[0]};
  batch.push_back(std::move(request));

  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> first,
                       f.kernel->DeriveBatch(batch));
  ASSERT_OK(first[0].status);
  Oid original = first[0].oid;
  ASSERT_OK(f.kernel->Evict(original));

  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> second,
                       f.kernel->DeriveBatch(batch));
  ASSERT_OK(second[0].status);
  EXPECT_FALSE(second[0].cache_hit);
  EXPECT_NE(second[0].oid, original);
  EXPECT_TRUE(f.kernel->catalog().ContainsObject(second[0].oid).value());
  // The recomputed object carries the same attribute bytes.
  auto obj = f.kernel->Get(second[0].oid);
  EXPECT_OK(obj.status());
}

TEST(DerivationCacheTest, DeriveOrReuseConsultsCache) {
  Fixture f("sched_reuse");
  std::map<std::string, std::vector<Oid>> inputs{{"in", {f.readings[0]}}};
  ASSERT_OK_AND_ASSIGN(Oid first, f.kernel->DeriveOrReuse("make-left", inputs));
  uint64_t hits_before = f.kernel->derivation_cache().stats().hits;
  ASSERT_OK_AND_ASSIGN(Oid again, f.kernel->DeriveOrReuse("make-left", inputs));
  EXPECT_EQ(first, again);
  EXPECT_GT(f.kernel->derivation_cache().stats().hits, hits_before);
}

// DeriveOrReuse scans the task log while DeriveBatch appends to it from
// another thread (gaead runs DeriveBatch concurrently, and neither call is
// single-threaded by contract); the scan must hold the log mutex. Every
// request is fresh, so each reuse lookup walks the whole log and derives.
TEST(DerivationCacheTest, DeriveOrReuseRacesDeriveBatch) {
  constexpr int kRounds = 24;
  Fixture f("sched_reuse_race", kRounds);
  std::thread reuser([&] {
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_OK(f.kernel->DeriveOrReuse("make-left",
                                        {{"in", {f.readings[i]}}})
                    .status());
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    DeriveRequest request;
    request.process = "make-right";
    request.inputs["in"] = {f.readings[i]};
    // No ASSERT here: returning early would skip the join.
    auto outcomes = f.kernel->DeriveBatch({request});
    EXPECT_TRUE(outcomes.ok() && (*outcomes)[0].status.ok());
  }
  reuser.join();
  EXPECT_EQ(f.kernel->tasks().size(), 2u * kRounds);
}

// Threads in this process: the Threads: line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Raises `peak` to at least `value`.
void RaiseTo(std::atomic<int>* peak, int value) {
  int seen = peak->load();
  while (value > seen && !peak->compare_exchange_weak(seen, value)) {
  }
}

// Plan steps run on the TilePool's threads: a width-4 batch starts no
// thread of its own, and still runs four steps at once.
TEST(SchedulerThreadBudgetTest, BatchRunsOnThePoolsThreads) {
  constexpr int kRequests = 16;
  Fixture f("sched_budget", kRequests);
  std::atomic<int> running{0};
  std::atomic<int> peak_running{0};
  std::atomic<int> peak_threads{0};
  OperatorSignature sig;
  sig.params = {TypeId::kInt};
  sig.result = TypeId::kInt;
  sig.doc = "identity that samples the thread count and waits";
  sig.fn = [&](const ValueList& args) -> StatusOr<Value> {
    RaiseTo(&peak_running, running.fetch_add(1) + 1);
    RaiseTo(&peak_threads, ProcessThreads());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    running.fetch_sub(1);
    return args[0];
  };
  ASSERT_OK(f.kernel->operators().Register("probe_ident", std::move(sig)));
  ProcessDef def("probe-left", "left");
  ASSERT_OK(def.AddArg({"in", "reading", false, 1}));
  std::vector<ExprPtr> call_args;
  call_args.push_back(Expr::AttrRef("in", "v"));
  ASSERT_OK(
      def.AddMapping("v", Expr::OpCall("probe_ident", std::move(call_args))));
  ASSERT_OK(def.AddMapping("spatialextent",
                           Expr::AttrRef("in", "spatialextent")));
  ASSERT_OK(def.AddMapping("timestamp", Expr::AttrRef("in", "timestamp")));
  ASSERT_OK(f.kernel->DefineProcess(std::move(def)).status());

  f.kernel->SetDeriveThreads(4);
  std::vector<DeriveRequest> batch;
  for (Oid oid : f.readings) {
    DeriveRequest request;
    request.process = "probe-left";
    request.inputs["in"] = {oid};
    batch.push_back(std::move(request));
  }
  const int threads_before = ProcessThreads();
  ASSERT_GT(threads_before, 0);
  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> outcomes,
                       f.kernel->DeriveBatch(batch));
  f.kernel->SetDeriveThreads(1);
  for (const DeriveOutcome& outcome : outcomes) EXPECT_OK(outcome.status);
  EXPECT_LE(peak_threads.load(), threads_before);
  EXPECT_EQ(peak_running.load(), 4);
}

constexpr char kRasterChainSchema[] = R"(
CLASS raster (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS scaled (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: scale-up
)
CLASS rescaled (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: scale-down
)
CLASS mask (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: threshold
)
DEFINE PROCESS scale-up
OUTPUT scaled
ARGUMENT ( raster in )
TEMPLATE {
  MAPPINGS:
    scaled.data = img_scale(in.data, 2.0);
    scaled.spatialextent = in.spatialextent;
    scaled.timestamp = in.timestamp;
}
DEFINE PROCESS scale-down
OUTPUT rescaled
ARGUMENT ( scaled in )
TEMPLATE {
  MAPPINGS:
    rescaled.data = img_scale(in.data, 0.5);
    rescaled.spatialextent = in.spatialextent;
    rescaled.timestamp = in.timestamp;
}
DEFINE PROCESS threshold
OUTPUT mask
ARGUMENT ( rescaled in )
TEMPLATE {
  MAPPINGS:
    mask.data = img_threshold(in.data, 0.5);
    mask.spatialextent = in.spatialextent;
    mask.timestamp = in.timestamp;
}
)";

// A step item runs its operator's tiles on the same pool: a chain of
// raster stages (one ready step at a time) must leave helpers free to take
// tiles, not park them behind the scheduler.
TEST(SchedulerThreadBudgetTest, ChainedRasterStagesFanOutTiles) {
  TempDir dir("sched_chain");
  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       GaeaKernel::Open(options));
  ASSERT_OK(kernel->ExecuteDdl(kRasterChainSchema));
  const ClassDef* cls =
      kernel->catalog().classes().LookupByName("raster").value();
  SceneSpec spec;
  spec.nrow = 1024;  // 16 tiles per stage
  spec.ncol = 512;
  spec.nbands = 1;
  DataObject obj(*cls);
  ASSERT_OK(obj.Set(*cls, "data",
                    Value::OfImage(std::move(GenerateScene(spec).value()[0]))));
  ASSERT_OK(obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
  ASSERT_OK(obj.Set(*cls, "timestamp", Value::Time(AbsTime(1))));
  ASSERT_OK_AND_ASSIGN(Oid src, kernel->Insert(std::move(obj)));

  CompoundProcessDef chain("chain", "T");
  ASSERT_OK(chain.AddExternalInput("src", "raster"));
  const char* stages[][3] = {{"U", "scale-up", nullptr},
                             {"D", "scale-down", "U"},
                             {"T", "threshold", "D"}};
  for (const auto& [name, process, upstream] : stages) {
    CompoundStage stage;
    stage.name = name;
    stage.process_name = process;
    stage.bindings["in"] =
        upstream == nullptr
            ? StageInput{StageInput::Source::kExternal, "src"}
            : StageInput{StageInput::Source::kStage, upstream};
    ASSERT_OK(chain.AddStage(std::move(stage)));
  }

  kernel->SetDeriveThreads(4);
  const uint64_t helper_tiles = TilePool::Global().stats().helper_tiles;
  auto out = kernel->DeriveCompound(chain, {{"src", {src}}});
  kernel->SetDeriveThreads(1);
  ASSERT_OK(out.status());
  EXPECT_GT(TilePool::Global().stats().helper_tiles, helper_tiles);
  EXPECT_EQ(kernel->tasks().size(), 3u);
}

// Kernel stats surface the new derivation-cache and buffer-pool counters.
TEST(SchedulerStatsTest, KernelStatsIncludeCacheAndPools) {
  Fixture f("sched_stats");
  std::vector<DeriveRequest> batch;
  DeriveRequest request;
  request.process = "make-left";
  request.inputs["in"] = {f.readings[0]};
  batch.push_back(request);
  ASSERT_OK(f.kernel->DeriveBatch(batch).status());
  ASSERT_OK(f.kernel->DeriveBatch(batch).status());

  GaeaKernel::Stats stats = f.kernel->GetStats();
  EXPECT_GE(stats.derivation_cache.hits, 1u);
  EXPECT_GE(stats.derivation_cache.misses, 1u);
  EXPECT_GT(stats.derivation_cache.capacity, 0u);
  uint64_t heap_traffic = stats.heap_pool.hits + stats.heap_pool.misses;
  EXPECT_GT(heap_traffic, 0u);
}

}  // namespace
}  // namespace gaea
