// bench_provenance: indexed lineage traversal vs. a task-log scan
// (docs/PROVENANCE.md).
//
// Builds a 10k-task history of parallel derivation chains (the realistic
// shape: many shallow pipelines over a long history), then answers the same
// ancestry-closure query two ways:
//
//   * indexed — GaeaKernel::ProvenanceAncestors: B+tree probes per hop,
//     touching only the ~2·depth tasks the closure actually crosses;
//   * scan    — what an unindexed lineage query costs: decode the FULL
//     durable task history from the journal, build the producer map, then
//     walk. Per query, because without the index there is nothing to
//     amortize into.
//
// In-bench gates (hard failures, exit 1):
//   * the two answers agree on every sampled query;
//   * indexed speedup >= 100x (the ISSUE acceptance bar; measured same-run,
//     so the ratio is immune to machine noise).
//
// Emits BENCH_bench_provenance.json for scripts/check_bench_regression.py.

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gaea/kernel.h"

namespace gaea {
namespace {

// Chains alternate link_b -> link_c -> link_b ... so one pair of processes
// yields unbounded chain depth without self-loop classes.
constexpr char kSchema[] = R"(
CLASS link_a (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS link_b (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: a2b
)
CLASS link_c (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: b2c
)
DEFINE PROCESS a2b
OUTPUT link_b
ARGUMENT ( link_a src )
TEMPLATE {
  MAPPINGS:
    link_b.value = src.value;
    link_b.spatialextent = src.spatialextent;
    link_b.timestamp = src.timestamp;
}
DEFINE PROCESS b2c
OUTPUT link_c
ARGUMENT ( link_b src )
TEMPLATE {
  MAPPINGS:
    link_c.value = src.value;
    link_c.spatialextent = src.spatialextent;
    link_c.timestamp = src.timestamp;
}
DEFINE PROCESS c2b
OUTPUT link_b
ARGUMENT ( link_c src )
TEMPLATE {
  MAPPINGS:
    link_b.value = src.value;
    link_b.spatialextent = src.spatialextent;
    link_b.timestamp = src.timestamp;
}
)";

constexpr int kChains = 500;
constexpr int kDepth = 20;  // tasks per chain; kChains * kDepth = 10k total
constexpr int kIndexQueries = 100;
constexpr int kScanQueries = 10;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The no-index baseline: decode the whole durable task history, build the
// producer map, walk the closure. Returns the ancestor OID set size +
// task count so the bench can check agreement with the indexed answer.
void ScanAncestors(GaeaKernel* kernel, Oid root, std::set<Oid>* oids,
                   std::set<TaskId>* tasks) {
  std::map<Oid, Task> producer;
  uint64_t cursor = 0;
  while (true) {
    std::vector<std::string> records;
    uint64_t next = 0;
    BENCH_CHECK_OK(kernel->tasks().journal()->ReadRange(
        cursor, /*max_records=*/1024, /*max_bytes=*/4u << 20, &records,
        &next));
    if (records.empty()) break;
    for (const std::string& record : records) {
      BinaryReader r(record);
      Task task = Task::Deserialize(&r).value();
      for (Oid out : task.outputs) producer.emplace(out, task);
    }
    cursor = next;
  }
  std::vector<Oid> frontier = {root};
  while (!frontier.empty()) {
    Oid oid = frontier.back();
    frontier.pop_back();
    auto it = producer.find(oid);
    if (it == producer.end()) continue;
    if (!tasks->insert(it->second.id).second) continue;
    for (Oid input : it->second.AllInputs()) {
      if (oids->insert(input).second) frontier.push_back(input);
    }
  }
}

}  // namespace
}  // namespace gaea

int main() {
  std::string dir = gaea::bench::FreshDir("provenance");
  gaea::GaeaKernel::Options options;
  options.dir = dir;
  auto kernel = gaea::GaeaKernel::Open(options);
  BENCH_CHECK_OK(kernel.status());
  (*kernel)->SetClock(gaea::AbsTime(1000));
  (*kernel)->SetDeriveThreads(4);
  BENCH_CHECK_OK((*kernel)->ExecuteDdl(gaea::kSchema));

  // Seed one base object per chain, then grow all chains level by level
  // (independent within a level, so DeriveBatch parallelizes the build).
  const gaea::ClassDef* base_cls =
      (*kernel)->catalog().classes().LookupByName("link_a").value();
  std::vector<gaea::Oid> heads(gaea::kChains);
  for (int c = 0; c < gaea::kChains; ++c) {
    gaea::DataObject obj(*base_cls);
    BENCH_CHECK_OK(obj.Set(*base_cls, "value", gaea::Value::Int(c)));
    BENCH_CHECK_OK(obj.Set(*base_cls, "spatialextent",
                           gaea::Value::OfBox(gaea::Box(0, 0, 10, 10))));
    BENCH_CHECK_OK(obj.Set(*base_cls, "timestamp",
                           gaea::Value::Time(gaea::AbsTime(1000 + c))));
    heads[c] = (*kernel)->Insert(std::move(obj)).value();
  }
  for (int level = 0; level < gaea::kDepth; ++level) {
    const char* process =
        level == 0 ? "a2b" : (level % 2 == 1 ? "b2c" : "c2b");
    std::vector<gaea::DeriveRequest> requests(gaea::kChains);
    for (int c = 0; c < gaea::kChains; ++c) {
      requests[c].process = process;
      requests[c].inputs = {{"src", {heads[c]}}};
    }
    auto outcomes = (*kernel)->DeriveBatch(requests);
    BENCH_CHECK_OK(outcomes.status());
    for (int c = 0; c < gaea::kChains; ++c) {
      BENCH_CHECK_OK((*outcomes)[c].status);
      heads[c] = (*outcomes)[c].oid;
    }
  }
  const uint64_t total_tasks = (*kernel)->tasks().size();

  // Indexed closure queries over sampled chain leaves.
  uint64_t index_lookups = 0;
  size_t closure_size = 0;
  double start = gaea::NowUs();
  for (int q = 0; q < gaea::kIndexQueries; ++q) {
    auto closure =
        (*kernel)->ProvenanceAncestors(heads[q % gaea::kChains]);
    BENCH_CHECK_OK(closure.status());
    index_lookups += closure->index_lookups;
    closure_size = closure->oids.size();
  }
  double index_us = (gaea::NowUs() - start) / gaea::kIndexQueries;

  // Scan baseline on a subset (it is the slow side), checking agreement.
  bool agree = true;
  start = gaea::NowUs();
  for (int q = 0; q < gaea::kScanQueries; ++q) {
    gaea::Oid leaf = heads[q % gaea::kChains];
    std::set<gaea::Oid> oids;
    std::set<gaea::TaskId> tasks;
    gaea::ScanAncestors((*kernel).get(), leaf, &oids, &tasks);
    auto indexed = (*kernel)->ProvenanceAncestors(leaf);
    BENCH_CHECK_OK(indexed.status());
    agree = agree &&
            oids == std::set<gaea::Oid>(indexed->oids.begin(),
                                        indexed->oids.end()) &&
            tasks == std::set<gaea::TaskId>(indexed->tasks.begin(),
                                            indexed->tasks.end());
  }
  double scan_us =
      (gaea::NowUs() - start) / gaea::kScanQueries;
  // The scan loop also ran one indexed query per rep for the agreement
  // check; subtract its cost so the baseline is the scan alone.
  scan_us = scan_us > index_us ? scan_us - index_us : scan_us;

  double speedup = index_us > 0 ? scan_us / index_us : 0;
  bool pass = agree && speedup >= 100.0;

  std::printf(
      "history %llu tasks: indexed ancestry %0.1f us/query (%llu B+tree "
      "probes over %d queries, closure %zu oids), scan %0.1f us/query, "
      "speedup %0.1fx, agree=%s\n",
      static_cast<unsigned long long>(total_tasks), index_us,
      static_cast<unsigned long long>(index_lookups), gaea::kIndexQueries,
      closure_size, scan_us, speedup, agree ? "yes" : "no");

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"bench_provenance\",\n"
                "  \"tasks\": %llu,\n"
                "  \"index_query_us\": %.3f,\n"
                "  \"scan_query_us\": %.3f,\n"
                "  \"closure_oids\": %zu,\n"
                "  \"index_speedup\": %.3f,\n"
                "  \"agree\": %s,\n"
                "  \"pass\": %s\n}\n",
                static_cast<unsigned long long>(total_tasks), index_us,
                scan_us, closure_size, speedup, agree ? "true" : "false",
                pass ? "true" : "false");
  std::string json = buf;

  std::string path =
      gaea::bench::ResultsPath("BENCH_bench_provenance.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("%s", json.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "bench_provenance: FAIL — speedup %.1fx (< 100x) or "
                 "disagreement (agree=%d)\n",
                 speedup, agree ? 1 : 0);
    return 1;
  }
  return 0;
}
