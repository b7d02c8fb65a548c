// Q3 — task-lineage recording costs: overhead per derivation (in-memory vs
// journal-backed, the §6 ablation), producer lookup and journal replay.
// Expected shape: recording is a small constant cost relative to raster
// math. Lineage traversal runs on the provenance index and is measured by
// bench_provenance.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/task.h"

namespace gaea {
namespace {

Task MakeTask(Oid input, Oid output) {
  Task t;
  t.process_name = "p";
  t.process_version = 1;
  t.inputs["in"] = {input};
  t.outputs = {output};
  t.user = "bench";
  t.started = AbsTime(1);
  return t;
}

// Builds a linear derivation history of `depth` tasks: 1 -> 2 -> ... .
std::unique_ptr<TaskLog> ChainLog(int depth) {
  auto log = TaskLog::InMemory();
  for (int i = 0; i < depth; ++i) {
    BENCH_CHECK_OK(log->Append(MakeTask(i + 1, i + 2)).status());
  }
  return log;
}

void BM_AppendInMemory(benchmark::State& state) {
  auto log = TaskLog::InMemory();
  Oid next = 1;
  for (auto _ : state) {
    auto id = log->Append(MakeTask(next, next + 1));
    BENCH_CHECK_OK(id.status());
    next += 2;
  }
}
BENCHMARK(BM_AppendInMemory);

void BM_AppendJournaled(benchmark::State& state) {
  std::string dir = bench::FreshDir("q3_journal");
  auto log = std::move(TaskLog::Open(dir + "/tasks.journal")).value();
  Oid next = 1;
  for (auto _ : state) {
    auto id = log->Append(MakeTask(next, next + 1));
    BENCH_CHECK_OK(id.status());
    next += 2;
  }
}
BENCHMARK(BM_AppendJournaled);

void BM_ProducerLookup(benchmark::State& state) {
  auto log = ChainLog(10000);
  Oid oid = 5000;
  for (auto _ : state) {
    auto task = log->Producer(oid);
    BENCH_CHECK_OK(task.status());
    benchmark::DoNotOptimize(*task);
  }
}
BENCHMARK(BM_ProducerLookup);

// Replay cost of reloading a long journal (catalog restart).
void BM_JournalReplay(benchmark::State& state) {
  int tasks = static_cast<int>(state.range(0));
  std::string dir = bench::FreshDir("q3_replay");
  std::string path = dir + "/tasks.journal";
  {
    auto log = std::move(TaskLog::Open(path)).value();
    for (int i = 0; i < tasks; ++i) {
      BENCH_CHECK_OK(log->Append(MakeTask(i + 1, i + 2)).status());
    }
  }
  for (auto _ : state) {
    auto log = TaskLog::Open(path);
    BENCH_CHECK_OK(log.status());
    benchmark::DoNotOptimize((*log)->size());
  }
  state.counters["tasks"] = tasks;
}
BENCHMARK(BM_JournalReplay)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gaea

GAEA_BENCHMARK_MAIN(bench_lineage);
