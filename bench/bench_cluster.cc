// Read scaling across a replicated cluster: one primary plus two read
// replicas versus the primary alone, under the read-heavy mixed workload
// of docs/ROBUSTNESS.md "Replication & failover".
//
// Three in-process GaeaServers share one process: a replicated primary and
// two replicas fed by real ReplicationAppliers over the wire protocol.
// Every server runs with a per-request service-time floor
// (GaeaServer::Options::service_floor_us) modeling the storage / external-
// procedure latency a real deployment pays — the same modeling idiom as
// bench_server's sleeping operator, and the only honest way to measure
// node-count scaling on a small CI box where loopback syscalls are
// otherwise the bottleneck. Each client thread drives a GaeaClusterClient
// through a 75% get-object / 20% recorded-derive / 5% insert mix; the
// baseline client knows only the primary, the cluster client fans reads
// and recorded derives across both replicas with read-your-writes tokens.
//
// Plain main emitting a custom BENCH_bench_cluster.json. The pass
// criterion is the acceptance bar of docs/ROBUSTNESS.md: 2-replica
// aggregate read/derive throughput at least 1.7x single-node, with zero
// client-visible errors in either phase.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gaea/kernel.h"
#include "net/cluster_client.h"
#include "net/server.h"
#include "replication/applier.h"

namespace gaea {
namespace {

constexpr char kSchema[] = R"(
CLASS sample (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS ident_out (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: ident
)
)";

constexpr int kWorkers = 2;          // per-server kernel workers
constexpr int kServiceFloorUs = 2000;  // modeled per-request service time
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 300;
constexpr int kSeedObjects = 64;     // sample objects with recorded derives

// Pure attribute-reference process: replayable on the replicas without
// operator registration, so shipped task records rematerialize there.
constexpr char kIdentProcess[] = R"(
DEFINE PROCESS ident
OUTPUT ident_out
ARGUMENT ( sample in )
TEMPLATE {
  MAPPINGS:
    ident_out.v = in.v;
    ident_out.spatialextent = in.spatialextent;
    ident_out.timestamp = in.timestamp;
}
)";

std::unique_ptr<GaeaKernel> OpenReplicated(const std::string& dir) {
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "bench_cluster";
  options.replicated = true;
  auto kernel = GaeaKernel::Open(options);
  BENCH_CHECK_OK(kernel.status());
  (*kernel)->SetClock(AbsTime(1));
  return *std::move(kernel);
}

Oid InsertSample(GaeaKernel* kernel, int v) {
  const ClassDef* cls =
      kernel->catalog().classes().LookupByName("sample").value();
  DataObject obj(*cls);
  BENCH_CHECK_OK(obj.Set(*cls, "v", Value::Int(v)));
  BENCH_CHECK_OK(obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
  BENCH_CHECK_OK(obj.Set(*cls, "timestamp", Value::Time(AbsTime(v + 1))));
  return kernel->Insert(std::move(obj)).value();
}

net::InsertObjectRequest MakeInsert(int v) {
  net::InsertObjectRequest request;
  request.class_name = "sample";
  request.attrs = {{"v", Value::Int(v)},
                   {"spatialextent", Value::OfBox(Box(0, 0, 1, 1))},
                   {"timestamp", Value::Time(AbsTime(v + 1))}};
  return request;
}

struct MixResult {
  int clients = 0;
  int requests = 0;
  int errors = 0;
  double wall_ms = 0;
  double throughput_rps = 0;
  double latency_avg_ms = 0;
  double latency_p95_ms = 0;
};

// Drives `clients` threads, each with its own GaeaClusterClient, through
// the read-heavy mix. `replica_ports` empty = single-node baseline (every
// request lands on the primary); otherwise reads and recorded derives
// round-robin across the replicas with the primary as fallback. The
// recorded derive asserts exactness: the answer must be the seeded output
// oid, whichever node served it.
MixResult RunMix(int primary_port, const std::vector<int>& replica_ports,
                 int clients, int requests_per_client,
                 const std::vector<Oid>& seed_inputs,
                 const std::map<Oid, Oid>& seed_outputs, int insert_base) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<int> errors(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::GaeaClusterClient::Options options;
      options.retry.max_attempts = 8;
      std::vector<net::GaeaClusterClient::Endpoint> replicas;
      for (int port : replica_ports) replicas.push_back({"127.0.0.1", port});
      net::GaeaClusterClient client({"127.0.0.1", primary_port},
                                    std::move(replicas), options);
      for (int i = 0; i < requests_per_client; ++i) {
        // Deterministic 75/20/5 cycle, phase-shifted per client so the
        // inserts (and the read-your-writes stalls they cause) spread out.
        int slot = (i + c * 7) % 20;
        Oid in = seed_inputs[(c * requests_per_client + i) %
                             seed_inputs.size()];
        auto t0 = std::chrono::steady_clock::now();
        bool ok = true;
        if (slot < 15) {
          ok = client.GetObjectRaw(in).ok();
        } else if (slot < 19) {
          auto out = client.Derive("ident", {{"in", {in}}});
          ok = out.ok() && *out == seed_outputs.at(in);
          if (!ok) {
            static std::atomic<int> reported{0};
            if (reported.fetch_add(1) < 3) {
              std::fprintf(stderr, "derive in=%llu: %s (got %llu want %llu)\n",
                           (unsigned long long)in,
                           out.status().ToString().c_str(),
                           out.ok() ? (unsigned long long)*out : 0ULL,
                           (unsigned long long)seed_outputs.at(in));
            }
          }
        } else {
          ok = client
                   .InsertObject(MakeInsert(insert_base + c * 1000 + i))
                   .ok();
        }
        auto t1 = std::chrono::steady_clock::now();
        if (!ok) ++errors[c];
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto end = std::chrono::steady_clock::now();

  MixResult result;
  result.clients = clients;
  result.requests = clients * requests_per_client;
  result.wall_ms = std::chrono::duration<double, std::milli>(end - start)
                       .count();
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    result.errors += errors[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    double sum = 0;
    for (double v : all) sum += v;
    result.latency_avg_ms = sum / all.size();
    result.latency_p95_ms = all[static_cast<size_t>(0.95 * (all.size() - 1))];
  }
  if (result.wall_ms > 0) {
    result.throughput_rps = 1000.0 * result.requests / result.wall_ms;
  }
  return result;
}

int Run() {
  std::string primary_dir = bench::FreshDir("cluster_primary");
  std::string r1_dir = bench::FreshDir("cluster_r1");
  std::string r2_dir = bench::FreshDir("cluster_r2");

  auto primary = OpenReplicated(primary_dir);
  BENCH_CHECK_OK(primary->ExecuteDdl(kSchema));
  BENCH_CHECK_OK(primary->ExecuteDdl(kIdentProcess));
  std::vector<Oid> seed_inputs;
  std::map<Oid, Oid> seed_outputs;
  for (int i = 0; i < kSeedObjects; ++i) {
    Oid in = InsertSample(primary.get(), i);
    // DeriveBatch, not Derive: the batch path memoizes into the derivation
    // cache, so the served repeats below answer from the recorded run
    // instead of re-executing.
    DeriveRequest request;
    request.process = "ident";
    request.inputs["in"] = {in};
    auto outcomes = primary->DeriveBatch({request});
    BENCH_CHECK_OK(outcomes.status());
    BENCH_CHECK_OK((*outcomes)[0].status);
    seed_inputs.push_back(in);
    seed_outputs[in] = (*outcomes)[0].oid;
  }
  BENCH_CHECK_OK(primary->Flush());

  net::GaeaServer::Options primary_options;
  primary_options.workers = kWorkers;
  primary_options.max_inflight = 256;
  primary_options.service_floor_us = kServiceFloorUs;
  net::GaeaServer primary_server(primary.get(), primary_options);
  BENCH_CHECK_OK(primary_server.Start());
  std::string primary_addr =
      "127.0.0.1:" + std::to_string(primary_server.port());

  auto r1 = OpenReplicated(r1_dir);
  auto r2 = OpenReplicated(r2_dir);
  net::GaeaServer::Options replica_options = primary_options;
  replica_options.replica = true;
  replica_options.replica_wait_ms = 2000;
  replica_options.primary = primary_addr;
  net::GaeaServer r1_server(r1.get(), replica_options);
  net::GaeaServer r2_server(r2.get(), replica_options);
  BENCH_CHECK_OK(r1_server.Start());
  BENCH_CHECK_OK(r2_server.Start());

  replication::ReplicationApplier::Options applier_options;
  applier_options.primary_port = primary_server.port();
  applier_options.poll_ms = 2;
  applier_options.replica_id = "r1";
  replication::ReplicationApplier a1(r1.get(), &r1_server, applier_options);
  applier_options.replica_id = "r2";
  replication::ReplicationApplier a2(r2.get(), &r2_server, applier_options);
  BENCH_CHECK_OK(a1.Start());
  BENCH_CHECK_OK(a2.Start());
  uint64_t seeded_lsn = primary->ClusterLsn();
  if (!a1.WaitForLsn(seeded_lsn, 30000) || !a2.WaitForLsn(seeded_lsn, 30000)) {
    std::fprintf(stderr, "replicas never caught up to lsn %llu\n",
                 static_cast<unsigned long long>(seeded_lsn));
    return 1;
  }

  std::vector<int> replica_ports = {r1_server.port(), r2_server.port()};

  // Warm both routing modes (connections, caches) before measuring.
  (void)RunMix(primary_server.port(), {}, 2, 20, seed_inputs, seed_outputs,
               1000000);
  (void)RunMix(primary_server.port(), replica_ports, 2, 20, seed_inputs,
               seed_outputs, 2000000);

  MixResult single = RunMix(primary_server.port(), {}, kClients,
                            kRequestsPerClient, seed_inputs, seed_outputs,
                            3000000);
  std::printf("single-node: %d requests, %d errors, %.1f rps\n",
              single.requests, single.errors, single.throughput_rps);

  MixResult cluster = RunMix(primary_server.port(), replica_ports, kClients,
                             kRequestsPerClient, seed_inputs, seed_outputs,
                             4000000);
  std::printf("2-replica cluster: %d requests, %d errors, %.1f rps\n",
              cluster.requests, cluster.errors, cluster.throughput_rps);

  double speedup = single.throughput_rps > 0
                       ? cluster.throughput_rps / single.throughput_rps
                       : 0;
  std::printf("speedup: %.2fx\n", speedup);

  replication::ReplicationApplier::Stats s1 = a1.stats();
  replication::ReplicationApplier::Stats s2 = a2.stats();

  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"bench\": \"bench_cluster\",\n"
      "  \"config\": {\"workers\": %d, \"service_floor_us\": %d, "
      "\"clients\": %d, \"requests_per_client\": %d, "
      "\"mix\": {\"get\": 0.75, \"derive\": 0.20, \"insert\": 0.05}},\n"
      "  \"single_node\": {\"requests\": %d, \"errors\": %d, "
      "\"wall_ms\": %.3f, \"throughput_rps\": %.3f, "
      "\"latency_avg_ms\": %.3f, \"latency_p95_ms\": %.3f},\n"
      "  \"cluster\": {\"replicas\": 2, \"requests\": %d, \"errors\": %d, "
      "\"wall_ms\": %.3f, \"throughput_rps\": %.3f, "
      "\"latency_avg_ms\": %.3f, \"latency_p95_ms\": %.3f},\n"
      "  \"speedup\": %.3f,\n"
      "  \"replication\": {\"r1_records_applied\": %llu, "
      "\"r2_records_applied\": %llu, \"r1_reconnects\": %llu, "
      "\"r2_reconnects\": %llu}\n}\n",
      kWorkers, kServiceFloorUs, kClients, kRequestsPerClient,
      single.requests, single.errors, single.wall_ms, single.throughput_rps,
      single.latency_avg_ms, single.latency_p95_ms, cluster.requests,
      cluster.errors, cluster.wall_ms, cluster.throughput_rps,
      cluster.latency_avg_ms, cluster.latency_p95_ms, speedup,
      static_cast<unsigned long long>(s1.records_applied),
      static_cast<unsigned long long>(s2.records_applied),
      static_cast<unsigned long long>(s1.reconnects),
      static_cast<unsigned long long>(s2.reconnects));

  std::string path = bench::ResultsPath("BENCH_bench_cluster.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(buf, out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());

  a1.Stop();
  a2.Stop();
  r1_server.Shutdown();
  r2_server.Shutdown();
  primary_server.Shutdown();

  if (single.errors != 0 || cluster.errors != 0) {
    std::fprintf(stderr, "FAIL: client-visible errors (single %d, cluster %d)\n",
                 single.errors, cluster.errors);
    return 1;
  }
  if (speedup < 1.7) {
    std::fprintf(stderr,
                 "FAIL: 2-replica aggregate throughput only %.2fx single-node "
                 "(want >= 1.7x)\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gaea

int main() { return gaea::Run(); }
