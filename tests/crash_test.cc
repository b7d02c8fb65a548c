// Crash-recovery suite (`ctest -L crash`): the randomized workload from
// src/testing/crash_workload.h is crashed at every injected write point and
// must recover with the docs/ROBUSTNESS.md invariants intact, plus a
// deterministic quarantine scenario for damage that recovery cannot repair.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gaea/kernel.h"
#include "storage/heap_file.h"
#include "test_util.h"
#include "testing/crash_workload.h"
#include "util/env.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

// Counts the workload's write ops with no faults armed, so sweeps know the
// crash-point range.
uint64_t CountWorkloadWrites(uint64_t seed, int rounds) {
  TempDir dir("crash_dry");
  FaultInjectingEnv env(Env::Default());
  crashtest::WorkloadOptions options;
  options.seed = seed;
  options.rounds = rounds;
  Status status = crashtest::RunWorkload(dir.path(), &env, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return env.write_ops();
}

// One full crash/recover cycle: run the workload into a crash at write op
// `point`, then reopen fault-free and check every recovery invariant.
void CrashAtPointAndRecover(uint64_t seed, int rounds, uint64_t point,
                            const FaultInjectingEnv::FaultPlan& base_plan) {
  TempDir dir("crash_cycle");
  FaultInjectingEnv env(Env::Default());
  FaultInjectingEnv::FaultPlan plan = base_plan;
  plan.crash_after_writes = point;
  env.set_plan(plan);

  crashtest::WorkloadOptions options;
  options.seed = seed;
  options.rounds = rounds;
  Status crashed = crashtest::RunWorkload(dir.path(), &env, options);
  ASSERT_TRUE(env.crashed())
      << "crash point " << point << " never fired (workload: "
      << crashed.ToString() << ")";
  EXPECT_FALSE(crashed.ok());

  env.Reset();
  env.set_plan(FaultInjectingEnv::FaultPlan());
  Status verified = crashtest::VerifyRecovered(dir.path(), &env);
  EXPECT_TRUE(verified.ok()) << "seed " << seed << " crash point " << point
                             << ": " << verified.ToString();
}

TEST(CrashWorkloadTest, RunsCleanWithoutFaults) {
  uint64_t writes = CountWorkloadWrites(/*seed=*/1, /*rounds=*/4);
  // DDL journaling + task records + page flushes: a real workload writes.
  EXPECT_GT(writes, 10u);
}

// Every round stores two rasters past a page (a scene and its copy), so
// the sweeps below crash inside overflow-chain writes too.
TEST(CrashWorkloadTest, StoresOverflowChains) {
  TempDir dir("crash_chains");
  crashtest::WorkloadOptions options;
  options.rounds = 4;
  ASSERT_OK(crashtest::RunWorkload(dir.path(), Env::Default(), options));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HeapFile> heap,
                       HeapFile::Open(dir.path() + "/objects.heap"));
  int chains = 0;
  ASSERT_OK(heap->ForEach([&chains](const Rid&, const std::string& record) {
    if (record.size() > HeapFile::kMaxInline) ++chains;
    return Status::OK();
  }));
  EXPECT_EQ(chains, 2 * options.rounds);
}

// Seeds 1 and 2 cover both durability modes (the workload picks kOs for odd
// seeds, kFsync for even); every single write op is a crash point.
TEST(CrashRecoveryTest, RecoversFromEveryCrashPointTornTail) {
  for (uint64_t seed : {1u, 2u}) {
    uint64_t writes = CountWorkloadWrites(seed, /*rounds=*/3);
    ASSERT_GT(writes, 0u);
    FaultInjectingEnv::FaultPlan plan;
    plan.torn_tail = true;
    for (uint64_t point = 1; point <= writes; ++point) {
      CrashAtPointAndRecover(seed, /*rounds=*/3, point, plan);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashRecoveryTest, RecoversWithCleanCutCrashes) {
  uint64_t writes = CountWorkloadWrites(/*seed=*/3, /*rounds=*/3);
  ASSERT_GT(writes, 0u);
  FaultInjectingEnv::FaultPlan plan;
  plan.torn_tail = false;  // the crashing write vanishes entirely
  for (uint64_t point = 1; point <= writes; point += 3) {
    CrashAtPointAndRecover(/*seed=*/3, /*rounds=*/3, point, plan);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecoveryTest, RecoversUnderShortWriteRegime) {
  uint64_t writes = CountWorkloadWrites(/*seed=*/4, /*rounds=*/3);
  ASSERT_GT(writes, 0u);
  FaultInjectingEnv::FaultPlan plan;
  plan.short_write_every = 2;  // every other append is cut short
  for (uint64_t point = 1; point <= writes; point += 4) {
    CrashAtPointAndRecover(/*seed=*/4, /*rounds=*/3, point, plan);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Damage recovery cannot repair — a non-replayable task whose output is
// gone — must be quarantined and reported, never fatal, and the quarantine
// journal must deduplicate across reopens.
TEST(CrashRecoveryTest, QuarantinesUnrecoverableExternalTask) {
  TempDir dir("crash_quarantine");
  GaeaKernel::Options options;
  options.dir = dir.path();

  constexpr char kSchema[] = R"(
CLASS sample (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
)
)";

  Oid scanned = kInvalidOid;
  TaskId external = kInvalidTaskId;
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    kernel->SetClock(AbsTime(100));
    ASSERT_OK(kernel->ExecuteDdl(kSchema));
    ASSERT_OK_AND_ASSIGN(const ClassDef* def,
                         kernel->catalog().classes().LookupByName("sample"));
    auto make = [&](int64_t value) {
      DataObject obj(*def);
      EXPECT_OK(obj.Set(*def, "value", Value::Int(value)));
      EXPECT_OK(obj.Set(*def, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
      EXPECT_OK(obj.Set(*def, "timestamp", Value::Time(AbsTime(100))));
      return obj;
    };
    ASSERT_OK_AND_ASSIGN(Oid input, kernel->Insert(make(1)));
    ASSERT_OK_AND_ASSIGN(scanned, kernel->Insert(make(2)));
    // The scan object was "produced" outside Gaea: lineage is recorded but
    // the task can never be replayed (version -1).
    ASSERT_OK_AND_ASSIGN(
        external, kernel->RecordExternalTask("lab-scan", {{"input", {input}}},
                                             {scanned}, "manual digitizing"));
    // Evicting it drops the only stored copy of a non-re-derivable object.
    ASSERT_OK(kernel->Evict(scanned));
    ASSERT_OK(kernel->Flush());
  }

  {
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    const GaeaKernel::RecoveryReport& report = kernel->recovery_report();
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], external);
    GaeaKernel::Stats stats = kernel->GetStats();
    EXPECT_EQ(stats.quarantined_tasks, 1u);
    EXPECT_NE(kernel->metrics().Render().find("\ngaea_quarantined_tasks 1\n"),
              std::string::npos);
    // Quarantine is a report, not a tombstone: the database stays usable.
    kernel->SetClock(AbsTime(200));
    ASSERT_OK_AND_ASSIGN(const ClassDef* def,
                         kernel->catalog().classes().LookupByName("sample"));
    DataObject obj(*def);
    ASSERT_OK(obj.Set(*def, "value", Value::Int(3)));
    ASSERT_OK(obj.Set(*def, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
    ASSERT_OK(obj.Set(*def, "timestamp", Value::Time(AbsTime(200))));
    ASSERT_OK(kernel->Insert(std::move(obj)));
  }

  // A third open replays the quarantine journal: the same task is reported
  // once, not appended again.
  ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
  ASSERT_EQ(kernel->recovery_report().quarantined.size(), 1u);
  EXPECT_EQ(kernel->recovery_report().quarantined[0], external);
}

}  // namespace
}  // namespace gaea
