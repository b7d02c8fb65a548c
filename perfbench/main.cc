// gaea end-to-end benchmark program.
//
//   gaea_perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir D
//
// Sets up the named workload (perfbench/workloads.h) in fresh database
// directories under D, drives it through loopback clients for S seconds and
// prints, as the last line of stdout, one JSON object: correctness, attempt
// and failure counts, and the metrics of BENCHMARK.json. --trace 0 measures
// the end-to-end metrics with tracing off; --trace 1 runs half the time
// untraced and half traced and reports the per-layer breakdown. See
// perfbench/README.md for what each metric means.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 7;   // setup_s is the median of these
constexpr int kReopenRuns = 3;  // recovery.reopen_ms is the median of these
constexpr int kWindows = 10;    // end-to-end figures are medians over these
// The traced phase stops early past this many steps, keeping it well under
// the tracer's 2^20-span buffer.
constexpr uint64_t kTracedStepCap = 150000;
const char* const kVerbs[] = {"Derive", "GetObject", "Provenance",
                              "InsertObject"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return MakeWorkload(args->workload, 0) != nullptr && args->seconds > 0 &&
         !args->dir.empty();
}

// Closed-loop clients for `seconds` (or until `step_cap` steps). Returns
// the phase's wall time in seconds; `logs` gets one entry per client and
// `start_out`, when given, the instant the phase started.
double RunPhase(Workload& workload, Rig& rig, double seconds,
                uint64_t step_cap, std::vector<ClientLog>* logs,
                Clock::time_point* start_out = nullptr) {
  int n = workload.clients();
  logs->assign(n, ClientLog{});
  std::atomic<uint64_t> steps{0};
  std::vector<Clock::time_point> ends(n);
  const Clock::time_point start = Clock::now();
  if (start_out != nullptr) *start_out = start;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline && steps.fetch_add(1) < step_cap) {
        if (!workload.Step(rig.client(c), c, (*logs)[c])) break;
      }
      ends[c] = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  return MicrosBetween(start, *std::max_element(ends.begin(), ends.end())) /
         1e6;
}

struct Totals {
  std::vector<double> us[kNumOps];
  std::vector<double> all_us;
  uint64_t attempted = 0, failed = 0, completed = 0;
  std::vector<std::string> errors;

  void Add(const std::vector<ClientLog>& logs) {
    for (const ClientLog& log : logs) {
      for (int op = 0; op < kNumOps; ++op) {
        us[op].insert(us[op].end(), log.us[op].begin(), log.us[op].end());
        all_us.insert(all_us.end(), log.us[op].begin(), log.us[op].end());
      }
      attempted += log.attempted;
      failed += log.failed;
      completed += log.completed();
      errors.insert(errors.end(), log.errors.begin(), log.errors.end());
    }
  }
};

// The timed phase cut into kWindows equal windows by completion time. Each
// end-to-end rate and latency is the median of its per-window values, so
// load from elsewhere on a shared host that covers part of a run moves the
// figure little.
struct WindowMedians {
  double ops_per_s = 0, p50_us = 0, p95_us = 0;
};

WindowMedians MedianOverWindows(const std::vector<ClientLog>& logs,
                                Clock::time_point start, double wall_s) {
  std::vector<std::vector<double>> us(kWindows);
  const double width_s = wall_s / kWindows;
  for (const ClientLog& log : logs) {
    for (size_t i = 0; i < log.done_at.size(); ++i) {
      int w = static_cast<int>(MicrosBetween(start, log.done_at[i]) / 1e6 /
                               width_s);
      us[std::clamp(w, 0, kWindows - 1)].push_back(log.done_us[i]);
    }
  }
  std::vector<double> rate, p50, p95;
  std::printf("window ops/s:");
  for (const std::vector<double>& v : us) {
    rate.push_back(static_cast<double>(v.size()) / width_s);
    p50.push_back(Median(v));
    p95.push_back(Quantile(v, 0.95));
    std::printf(" %.1f", rate.back());
  }
  std::printf("\n");
  return {Median(rate), Median(p50), Median(p95)};
}

// Per-request-kind latency table (human-readable, before the result line).
void PrintLatencies(const Totals& t, double wall_s) {
  std::printf("%-14s %9s %10s %10s %10s %10s\n", "request", "n", "p50_us",
              "p95_us", "p99_us", "max_us");
  auto row = [](const char* name, const std::vector<double>& v) {
    std::printf("%-14s %9zu %10.1f %10.1f %10.1f %10.1f\n", name, v.size(),
                Median(v), Quantile(v, 0.95), Quantile(v, 0.99),
                Quantile(v, 1.0));
  };
  for (int op = 0; op < kNumOps; ++op) {
    if (!t.us[op].empty()) row(OpName(static_cast<Op>(op)), t.us[op]);
  }
  row("all", t.all_us);
  std::printf("%.1f requests/s over %.2f s\n", t.completed / wall_s, wall_s);
}

// Steps every client a few times so caches and lazy set-up settle; any
// wrong answer here still counts as a failure.
void WarmUp(Workload& workload, Rig& rig, Totals* totals) {
  std::vector<ClientLog> logs;
  const uint64_t steps = static_cast<uint64_t>(workload.warmup_steps()) *
                         static_cast<uint64_t>(workload.clients());
  RunPhase(workload, rig, /*seconds=*/60, steps, &logs);
  for (const ClientLog& log : logs) {
    totals->failed += log.failed;
    totals->errors.insert(totals->errors.end(), log.errors.begin(),
                          log.errors.end());
  }
}

struct Built {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Rig> rig;
  double seconds = 0;
};

// Open, DDL, data generation and load, history build, server start,
// client connect and warm-up: everything before the first timed request.
Built SetUp(const Args& args, const std::string& dir, Totals* totals) {
  Built b;
  SyncFileSystem(args.dir);
  const Clock::time_point t0 = Clock::now();
  b.workload = MakeWorkload(args.workload, args.seed);
  b.rig = std::make_unique<Rig>(dir, *b.workload);
  WarmUp(*b.workload, *b.rig, totals);
  b.seconds = MicrosBetween(t0, Clock::now()) / 1e6;
  return b;
}

// Median wall time of GaeaKernel::Open on a closed directory, and the
// journal records the last open replayed.
double ReopenMs(const std::string& dir, int runs, uint64_t* replayed) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    gaea::GaeaKernel::Options options;
    options.dir = dir;
    options.durability = gaea::DurabilityMode::kOs;
    SyncFileSystem(dir);
    const Clock::time_point t0 = Clock::now();
    auto kernel = gaea::GaeaKernel::Open(options);
    ms.push_back(MicrosBetween(t0, Clock::now()) / 1e3);
    CheckOk(kernel.status(), "reopen");
    *replayed = (*kernel)->records_replayed();
  }
  std::printf("reopen_ms:");
  for (double x : ms) std::printf(" %.1f", x);
  std::printf("\n");
  return Median(ms);
}

// Checks no timed path lost or duplicated a task: every cold derive the
// clients saw succeed is exactly one new task in the log.
struct TaskMark {
  uint64_t tasks = 0;
  uint64_t cold_derives = 0;
};

TaskMark MarkTasks(Rig& rig, const Workload& workload) {
  return {rig.kernel().GetStats().tasks, workload.cold_derives()};
}

void CheckTaskCount(Rig& rig, const Workload& workload, const TaskMark& mark,
                    Totals* totals) {
  ++totals->attempted;
  uint64_t tasks_after = rig.kernel().GetStats().tasks;
  uint64_t want = mark.tasks + workload.cold_derives() - mark.cold_derives;
  if (tasks_after != want) {
    ++totals->failed;
    totals->errors.push_back("task log holds " + std::to_string(tasks_after) +
                             " tasks, expected " + std::to_string(want));
  }
}

// "Where a request's time goes": per verb, the mean client-seen rpc time
// split into the part outside the server worker, the request span's own
// self time, and the self time of each named span beneath it.
void PrintBreakdown(const SpanFold& fold, size_t spans) {
  std::printf("where a request's time goes (traced, mean us per request, "
              "%zu spans)\n",
              spans);
  for (const auto& [verb, v] : fold.verbs) {
    double n = static_cast<double>(v.rpc_us.size());
    auto mean = [n](const std::vector<double>& x) {
      double sum = 0;
      for (double y : x) sum += y;
      return sum / n;
    };
    std::printf("%s (n=%zu): rpc %.1f = outside_worker %.1f + request_self "
                "%.1f",
                verb.c_str(), v.rpc_us.size(), mean(v.rpc_us),
                mean(v.outside_us), mean(v.request_self_us));
    for (const auto& [name, total] : v.inner_self_total_us) {
      std::printf(" + %s %.1f", name.c_str(), total / n);
    }
    std::printf("\n");
  }
}

int Finish(const Totals& totals, const std::vector<Metric>& metrics) {
  for (const std::string& e : totals.errors) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", e.c_str());
  }
  bool correct = totals.failed == 0;
  const uint64_t attempted = std::max<uint64_t>(totals.attempted, 1);
  std::printf("%s\n",
              ResultJson(correct, attempted, totals.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunEndToEnd(const Args& args) {
  Totals totals;
  std::vector<double> setup_s;
  Built live;
  for (int i = 0; i < kSetupRuns; ++i) {
    // One rig alive at a time; the last one set up is the one measured.
    if (live.rig != nullptr) {
      live.rig->Close();
      std::filesystem::remove_all(live.rig->dir());
    }
    live = SetUp(args, args.dir + "/db" + std::to_string(i), &totals);
    setup_s.push_back(live.seconds);
  }
  Workload& workload = *live.workload;
  Rig& rig = *live.rig;
  const TaskMark mark = MarkTasks(rig, workload);

  std::vector<ClientLog> logs;
  Clock::time_point start;
  double wall_s =
      RunPhase(workload, rig, args.seconds, UINT64_MAX, &logs, &start);
  totals.Add(logs);
  PrintLatencies(totals, wall_s);
  const WindowMedians windows = MedianOverWindows(logs, start, wall_s);

  ClientLog verify;
  workload.Verify(rig.client(0), verify);
  totals.Add({verify});
  CheckTaskCount(rig, workload, mark, &totals);

  rig.Close();
  double stored = static_cast<double>(DirBytes(rig.dir()));

  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"ops_per_s", "1/s", windows.ops_per_s},
      {"latency_p50_us", "us", windows.p50_us},
      {"latency_p95_us", "us", windows.p95_us},
      {"bytes_stored_per_user_byte", "ratio",
       Ratio(stored, static_cast<double>(workload.user_bytes()))},
  };
  std::filesystem::remove_all(rig.dir());
  return Finish(totals, metrics);
}

int RunTraced(const Args& args) {
  Totals totals;
  Built live = SetUp(args, args.dir + "/db0", &totals);
  Workload& workload = *live.workload;
  Rig& rig = *live.rig;
  const TaskMark mark = MarkTasks(rig, workload);

  std::vector<ClientLog> logs;
  double untraced_s =
      RunPhase(workload, rig, args.seconds / 2, UINT64_MAX, &logs);
  Totals untraced;
  untraced.Add(logs);
  totals.Add(logs);

  gaea::obs::Tracer& tracer = gaea::obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable(true);
  Snapshot before = TakeSnapshot(rig.kernel(), rig.server(), rig.dir());
  double traced_s =
      RunPhase(workload, rig, args.seconds / 2, kTracedStepCap, &logs);
  Snapshot after = TakeSnapshot(rig.kernel(), rig.server(), rig.dir());
  Totals traced;
  traced.Add(logs);
  totals.Add(logs);
  PrintLatencies(traced, traced_s);

  // Direct calls into layer entry points, each under a bench-owned span.
  std::vector<double> ping_us;
  for (int i = 0; i < 2000; ++i) {
    gaea::obs::SpanGuard span("bench:ping", "bench");
    const Clock::time_point t0 = Clock::now();
    CheckOk(rig.client(0).Ping(), "ping");
    ping_us.push_back(MicrosBetween(t0, Clock::now()));
  }
  Probes probes;
  workload.Probe(rig.kernel(), &probes);
  tracer.Enable(false);
  const std::vector<gaea::obs::Span> spans = tracer.spans();
  SpanFold fold = FoldSpans(spans);
  uint64_t dropped = tracer.dropped();
  PrintBreakdown(fold, spans.size());

  ClientLog verify;
  workload.Verify(rig.client(0), verify);
  totals.Add({verify});
  CheckTaskCount(rig, workload, mark, &totals);
  rig.Close();
  uint64_t replayed = 0;
  const double reopen_ms = ReopenMs(rig.dir(), kReopenRuns, &replayed);
  std::filesystem::remove_all(rig.dir());

  // Deltas over the traced phase.
  auto d = [&](const std::string& name) {
    return after.Reg(name) - before.Reg(name);
  };
  const double ops = static_cast<double>(traced.completed);
  const double derives = static_cast<double>(
      traced.us[static_cast<int>(Op::kDeriveCold)].size() +
      traced.us[static_cast<int>(Op::kDeriveCached)].size());
  const double tasks =
      static_cast<double>(after.kernel.tasks - before.kernel.tasks);
  const auto& kc = after.kernel.derivation_cache;
  const auto& kb = before.kernel.derivation_cache;
  const double hits = static_cast<double>(kc.hits - kb.hits);
  const double misses = static_cast<double>(kc.misses - kb.misses);
  auto pool_rate = [](const gaea::GaeaKernel::PoolStats& a,
                      const gaea::GaeaKernel::PoolStats& b) {
    double h = static_cast<double>(a.hits - b.hits);
    double m = static_cast<double>(a.misses - b.misses);
    return Ratio(h, h + m);
  };
  const gaea::net::ServerStats& sa = after.server;
  const gaea::net::ServerStats& sb = before.server;
  const double tiles = d("gaea_tile_tiles_total");

  std::vector<Metric> m;
  m.push_back({"net.ping_us", "us", Median(ping_us)});
  for (const char* verb : kVerbs) {
    SpanFold::Verb v;
    if (auto it = fold.verbs.find(verb); it != fold.verbs.end()) v = it->second;
    m.push_back({std::string("net.rpc_us.") + verb, "us", Median(v.rpc_us)});
    m.push_back(
        {std::string("net.request_us.") + verb, "us", Median(v.request_us)});
    m.push_back({std::string("net.outside_worker_us.") + verb, "us",
                 Median(v.outside_us)});
  }
  m.push_back(
      {"net.bytes_per_req", "B",
       Ratio(static_cast<double>(sa.bytes_in + sa.bytes_out - sb.bytes_in -
                                 sb.bytes_out),
             static_cast<double>(sa.requests_total - sb.requests_total))});
  m.push_back({"net.rejected", "count",
               static_cast<double>(sa.rejected_overload +
                                   sa.rejected_deadline -
                                   sb.rejected_overload -
                                   sb.rejected_deadline)});
  m.push_back({"gaea.derive_batch_self_us", "us",
               Median(fold.SelfByPrefix("derive-batch"))});
  m.push_back({"core.task_self_us", "us", Median(fold.SelfByPrefix("task:"))});
  m.push_back(
      {"core.prepare_self_us", "us", Median(fold.SelfByPrefix("prepare:"))});
  m.push_back({"core.commit_us", "us", Median(fold.TotalByPrefix("commit:"))});
  for (const char* op :
       {"composite", "unsuperclassify", "changemap", "img_threshold"}) {
    m.push_back({std::string("op.") + op + "_self_us", "us",
                 Median(fold.SelfByPrefix(std::string("op:") + op))});
  }
  m.push_back(
      {"core.tile_fanout_us", "us", Median(fold.TotalByPrefix("tiles:"))});
  m.push_back({"core.tiles_per_derive", "ratio", Ratio(tiles, misses)});
  m.push_back({"core.helper_tile_share", "ratio",
               Ratio(d("gaea_tile_helper_tiles_total"), tiles)});
  m.push_back({"core.inline_job_share", "ratio",
               Ratio(d("gaea_tile_inline_jobs_total"),
                     d("gaea_tile_jobs_total"))});
  m.push_back({"core.cache_hit_rate", "ratio", Ratio(hits, hits + misses)});
  m.push_back({"core.tasks_per_op", "ratio", Ratio(tasks, derives)});
  m.push_back({"storage.get_small_us", "us", Median(probes.get_small_us)});
  m.push_back({"storage.get_large_us", "us", Median(probes.get_large_us)});
  m.push_back({"storage.heap_hit_rate", "ratio",
               pool_rate(after.kernel.heap_pool, before.kernel.heap_pool)});
  m.push_back({"storage.index_hit_rate", "ratio",
               pool_rate(after.kernel.index_pool, before.kernel.index_pool)});
  m.push_back({"storage.heap_evictions_per_op", "ratio",
               Ratio(static_cast<double>(after.kernel.heap_pool.evictions -
                                         before.kernel.heap_pool.evictions),
                     ops)});
  m.push_back({"storage.journal_bytes_per_task", "B",
               Ratio(static_cast<double>(after.task_journal_bytes) -
                         static_cast<double>(before.task_journal_bytes),
                     tasks)});
  m.push_back({"provenance.why_us", "us", Median(probes.why_us)});
  m.push_back({"provenance.index_entries_per_task", "ratio",
               Ratio(d("gaea_provenance_index_entries"), tasks)});
  m.push_back({"recovery.checkpoints", "count", d("gaea_checkpoints_total")});
  m.push_back({"recovery.checkpoint_ms", "ms",
               Median(fold.TotalByPrefix("checkpoint")) / 1e3});
  m.push_back({"recovery.checkpoint_bytes", "B",
               static_cast<double>(after.kernel.last_checkpoint_bytes)});
  m.push_back(
      {"recovery.records_replayed", "count", static_cast<double>(replayed)});
  m.push_back({"recovery.reopen_ms", "ms", reopen_ms});
  m.push_back({"process.peak_rss_mib", "MiB", PeakRssMib()});
  m.push_back({"obs.trace_overhead_share", "ratio",
               1.0 - Ratio(traced.completed / traced_s,
                           untraced.completed / untraced_s)});
  m.push_back({"obs.spans_dropped", "count", static_cast<double>(dropped)});
  for (const char* verb : kVerbs) {
    // Share of the client-seen rpc time attributed to a named layer: the
    // part outside the worker plus named child spans inside the request.
    double coverage = 0;
    if (auto it = fold.verbs.find(verb); it != fold.verbs.end()) {
      double rpc = 0, unattributed = 0;
      for (double x : it->second.rpc_us) rpc += x;
      for (double x : it->second.request_self_us) unattributed += x;
      coverage = 1.0 - Ratio(unattributed, rpc);
    }
    m.push_back({std::string("obs.span_coverage.") + verb, "ratio", coverage});
  }
  return Finish(totals, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gaea_perfbench --workload classify_cold|read_hot|"
                 "ingest_mixed --seed N --seconds S --trace 0|1 --dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
