// Journal shipping, replica apply, cluster routing and fault injection
// (docs/ROBUSTNESS.md "Replication & failover", docs/NET.md "Replication").
//
// In-process suite: primary and replica kernels (and servers) live in one
// test binary, shipping through the real ShipRange/ApplyReplicated code and
// — for the server tests — the real wire protocol, with FlakyProxy
// injecting delay, drops, duplicates and torn frames. The multi-process
// SIGKILL failover test lives in tests/cluster_test.cc.

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gaea/kernel.h"
#include "net/client.h"
#include "net/cluster_client.h"
#include "net/server.h"
#include "recovery/backup.h"
#include "replication/applier.h"
#include "storage/journal.h"
#include "test_util.h"
#include "testing/flaky_transport.h"

namespace gaea {
namespace {

using ::gaea::testing::FlakyProxy;
using ::gaea::testing::TempDir;

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

// Pure attribute-reference process: replayable on any kernel without
// operator registration, which is what makes replica-side
// rematerialization well-defined.
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

StatusOr<std::unique_ptr<GaeaKernel>> OpenReplicated(const std::string& dir) {
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "replication_test";
  options.replicated = true;
  auto kernel = GaeaKernel::Open(options);
  if (kernel.ok()) (*kernel)->SetClock(AbsTime(1));
  return kernel;
}

Oid InsertSample(GaeaKernel* kernel, int v) {
  const ClassDef* cls =
      kernel->catalog().classes().LookupByName("sample").value();
  DataObject obj(*cls);
  EXPECT_OK(obj.Set(*cls, "v", Value::Int(v)));
  EXPECT_OK(obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
  EXPECT_OK(obj.Set(*cls, "timestamp", Value::Time(AbsTime(v + 1))));
  return kernel->Insert(std::move(obj)).value();
}

// Ships everything the replica is missing, component by component, until
// the cluster LSNs meet. Fails the test when no progress is possible.
void Pump(GaeaKernel* primary, GaeaKernel* replica) {
  for (int round = 0; round < 200; ++round) {
    if (replica->ClusterLsn() == primary->ClusterLsn()) return;
    bool progressed = false;
    for (const auto& [component, from] : replica->ReplicationCursors()) {
      std::vector<std::string> records;
      uint64_t next = from;
      ASSERT_OK(primary->ShipRange(component, from, 512, 4u << 20, &records,
                                   &next));
      if (records.empty()) continue;
      Status applied = replica->ApplyReplicated(component, from, records);
      // Cross-component ordering holes resolve on a later round.
      if (applied.code() == StatusCode::kFailedPrecondition) continue;
      ASSERT_OK(applied);
      progressed = true;
    }
    if (!progressed && replica->ClusterLsn() != primary->ClusterLsn()) {
      // One more full pass may still resolve a hole; only bail when two
      // consecutive rounds moved nothing.
      ++round;
    }
  }
  ASSERT_EQ(replica->ClusterLsn(), primary->ClusterLsn())
      << "replica never converged";
}

// Byte-level equality of every stored object on both sides.
void ExpectSameObjects(GaeaKernel* primary, GaeaKernel* replica,
                       Oid max_oid = 128) {
  for (Oid oid = 1; oid <= max_oid; ++oid) {
    bool on_primary = primary->catalog().store()->Contains(oid).value();
    ASSERT_EQ(replica->catalog().store()->Contains(oid).value(), on_primary)
        << "oid " << oid;
    if (!on_primary) continue;
    ASSERT_OK_AND_ASSIGN(std::string want, primary->catalog().store()->Get(oid));
    ASSERT_OK_AND_ASSIGN(std::string got, replica->catalog().store()->Get(oid));
    EXPECT_EQ(got, want) << "object " << oid << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Journal::ReadRange vs TruncatePrefix (the shipper's seam)
// ---------------------------------------------------------------------------

TEST(ShipRangeTest, ReadRangeReportsTruncatedPrefixAsOutOfRange) {
  TempDir dir("readrange");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Journal> journal,
                       Journal::Open(dir.file("j.journal"), Env::Default()));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(journal->Append("record-" + std::to_string(i)));
  }
  std::vector<std::string> records;
  uint64_t next = 0;
  ASSERT_OK(journal->ReadRange(0, 100, 1 << 20, &records, &next));
  EXPECT_EQ(records.size(), 10u);
  EXPECT_EQ(next, 10u);

  ASSERT_OK(journal->TruncatePrefix(6, dir.file("j.0-6.seg")));
  records.clear();
  Status below = journal->ReadRange(2, 100, 1 << 20, &records, &next);
  EXPECT_EQ(below.code(), StatusCode::kOutOfRange)
      << "a truncated prefix must be distinguishable from an empty tail";
  records.clear();
  ASSERT_OK(journal->ReadRange(6, 100, 1 << 20, &records, &next));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], "record-6");
  EXPECT_EQ(next, 10u);
}

TEST(ShipRangeTest, ShipRangeCrossesTheArchiveSeam) {
  TempDir dir("seam");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       OpenReplicated(dir.path()));
  ASSERT_OK(kernel->ExecuteDdl(kSchema));
  ASSERT_OK(kernel->ExecuteDdl(kIdentProcess));
  for (int i = 0; i < 6; ++i) {
    Oid in = InsertSample(kernel.get(), i);
    ASSERT_OK(kernel->Derive("ident", {{"in", {in}}}));
  }
  uint64_t total = 0;
  for (const auto& [component, count] : kernel->ReplicationCursors()) {
    if (component == "tasks") total = count;
  }
  ASSERT_GT(total, 0u);
  // Two checkpoints: lag-by-one truncation archives the task prefix after
  // the second, so LSN 0 now lives only in the archive chain.
  ASSERT_OK(kernel->Checkpoint());
  for (int i = 6; i < 9; ++i) {
    Oid in = InsertSample(kernel.get(), i);
    ASSERT_OK(kernel->Derive("ident", {{"in", {in}}}));
  }
  ASSERT_OK_AND_ASSIGN(auto info, kernel->Checkpoint());
  ASSERT_GT(info.truncated_records, 0u)
      << "test needs a truncated prefix to exercise the seam";

  // Ship the full history from 0 in small bites: the read starts in the
  // archive chain and must cross into the live journal seamlessly.
  std::vector<std::string> all;
  uint64_t cursor = 0;
  for (int guard = 0; guard < 100; ++guard) {
    std::vector<std::string> batch;
    uint64_t next = cursor;
    ASSERT_OK(kernel->ShipRange("tasks", cursor, 2, 1 << 20, &batch, &next));
    if (batch.empty()) break;
    EXPECT_EQ(next, cursor + batch.size()) << "non-contiguous ship";
    cursor = next;
    for (std::string& record : batch) all.push_back(std::move(record));
  }
  uint64_t now_total = 0;
  for (const auto& [component, count] : kernel->ReplicationCursors()) {
    if (component == "tasks") now_total = count;
  }
  EXPECT_EQ(all.size(), now_total)
      << "full history must be shippable after truncation";
}

// Satellite regression: a live shipper iterating from LSN 0 races
// checkpoints that keep truncating the prefix out from under it. Every
// round must deliver the complete, contiguous history with no gaps and no
// errors — the kOutOfRange → archive fallback in ShipRange is what holds
// this together.
TEST(ShipRangeTest, TruncateRacingLiveShipperLosesNoRecords) {
  TempDir dir("race");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       OpenReplicated(dir.path()));
  ASSERT_OK(kernel->ExecuteDdl(kSchema));
  ASSERT_OK(kernel->ExecuteDdl(kIdentProcess));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread shipper([&] {
    while (!stop.load()) {
      uint64_t total = 0;
      for (const auto& [component, count] : kernel->ReplicationCursors()) {
        if (component == "tasks") total = count;
      }
      std::vector<std::string> records;
      uint64_t cursor = 0;
      while (cursor < total) {
        std::vector<std::string> batch;
        uint64_t next = cursor;
        Status shipped =
            kernel->ShipRange("tasks", cursor, 3, 1 << 20, &batch, &next);
        if (!shipped.ok() || next != cursor + batch.size()) {
          failures.fetch_add(1);
          break;
        }
        cursor = next;
        for (std::string& r : batch) records.push_back(std::move(r));
      }
      if (cursor >= total && records.size() < total) failures.fetch_add(1);
    }
  });

  for (int i = 0; i < 12; ++i) {
    Oid in = InsertSample(kernel.get(), i);
    ASSERT_OK(kernel->Derive("ident", {{"in", {in}}}));
    if (i % 3 == 2) ASSERT_OK(kernel->Checkpoint());
  }
  stop.store(true);
  shipper.join();
  EXPECT_EQ(failures.load(), 0)
      << "shipper saw a gap or error while checkpoints truncated the prefix";
}

// ---------------------------------------------------------------------------
// Kernel-level replication: ship + apply
// ---------------------------------------------------------------------------

TEST(ReplicationKernelTest, ReplicaConvergesToByteIdenticalState) {
  TempDir primary_dir("prim");
  TempDir replica_dir("repl");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> primary,
                       OpenReplicated(primary_dir.path()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> replica,
                       OpenReplicated(replica_dir.path()));

  ASSERT_OK(primary->ExecuteDdl(kSchema));
  ASSERT_OK(primary->ExecuteDdl(kIdentProcess));
  std::vector<Oid> inputs;
  std::vector<Oid> outputs;
  for (int i = 0; i < 5; ++i) {
    Oid in = InsertSample(primary.get(), i);
    ASSERT_OK_AND_ASSIGN(Oid out, primary->Derive("ident", {{"in", {in}}}));
    inputs.push_back(in);
    outputs.push_back(out);
  }
  Experiment experiment;
  experiment.name = "exp-1";
  experiment.user = "replication_test";
  experiment.tasks = {1};
  ASSERT_OK(primary->DefineExperiment(experiment));
  // A checkpoint mid-history: part of what ships comes from the archives.
  ASSERT_OK(primary->Checkpoint());
  for (int i = 5; i < 8; ++i) {
    Oid in = InsertSample(primary.get(), i);
    ASSERT_OK_AND_ASSIGN(Oid out, primary->Derive("ident", {{"in", {in}}}));
    outputs.push_back(out);
  }
  ASSERT_OK(primary->Checkpoint());

  Pump(primary.get(), replica.get());

  GaeaKernel::Stats want = primary->GetStats();
  GaeaKernel::Stats got = replica->GetStats();
  EXPECT_EQ(got.classes, want.classes);
  EXPECT_EQ(got.processes, want.processes);
  EXPECT_EQ(got.objects, want.objects);
  EXPECT_EQ(got.tasks, want.tasks);
  EXPECT_EQ(got.experiments, want.experiments);
  EXPECT_EQ(got.cluster_lsn, want.cluster_lsn);
  ExpectSameObjects(primary.get(), replica.get());

  // Recorded derives answer locally; novel derives are refused kNotFound.
  ASSERT_OK_AND_ASSIGN(
      Oid recorded, replica->TryRecordedDerive("ident", {{"in", {inputs[0]}}}));
  EXPECT_EQ(recorded, outputs[0]);
  Oid novel_in = InsertSample(primary.get(), 99);
  auto miss = replica->TryRecordedDerive("ident", {{"in", {novel_in}}});
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
}

TEST(ReplicationKernelTest, ApplyIsIdempotentAndGapsAreFailedPrecondition) {
  TempDir primary_dir("prim2");
  TempDir replica_dir("repl2");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> primary,
                       OpenReplicated(primary_dir.path()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> replica,
                       OpenReplicated(replica_dir.path()));
  ASSERT_OK(primary->ExecuteDdl(kSchema));

  std::vector<std::string> records;
  uint64_t next = 0;
  ASSERT_OK(primary->ShipRange("catalog", 0, 512, 4u << 20, &records, &next));
  ASSERT_FALSE(records.empty());

  // A gap: applying from LSN 3 into an empty journal must be refused.
  Status gap = replica->ApplyReplicated("catalog", 3, records);
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  // An unknown component is not a gap the applier could wait out: apply
  // and ship both refuse it, whatever the batch's starting LSN.
  for (uint64_t from : {uint64_t{0}, uint64_t{3}}) {
    EXPECT_EQ(replica->ApplyReplicated("bogus", from, records).code(),
              StatusCode::kInvalidArgument)
        << "from " << from;
  }
  std::vector<std::string> shipped;
  EXPECT_EQ(primary->ShipRange("bogus", 0, 512, 4u << 20, &shipped, &next)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(shipped.empty());

  ASSERT_OK(replica->ApplyReplicated("catalog", 0, records));
  uint64_t after_first = replica->ClusterLsn();
  // Duplicate delivery (applier retry after a lost ack) is a no-op.
  ASSERT_OK(replica->ApplyReplicated("catalog", 0, records));
  EXPECT_EQ(replica->ClusterLsn(), after_first);
  EXPECT_EQ(replica->GetStats().classes, primary->GetStats().classes);
}

TEST(ReplicationKernelTest, WarmCacheMakesRetriedDeriveExactlyOnce) {
  TempDir dir("warm");
  Oid first_out = kInvalidOid;
  uint64_t tasks_before = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                         OpenReplicated(dir.path()));
    ASSERT_OK(kernel->ExecuteDdl(kSchema));
    ASSERT_OK(kernel->ExecuteDdl(kIdentProcess));
    Oid in = InsertSample(kernel.get(), 7);
    ASSERT_OK_AND_ASSIGN(first_out, kernel->Derive("ident", {{"in", {in}}}));
    tasks_before = kernel->GetStats().tasks;
    ASSERT_OK(kernel->Flush());
  }
  // "Crash" + restart: the derivation cache is rebuilt from the task log,
  // so a client retrying the same derive after failover gets the recorded
  // output, not a duplicate execution.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       OpenReplicated(dir.path()));
  DeriveRequest request;
  request.process = "ident";
  request.inputs["in"] = {1};
  ASSERT_OK_AND_ASSIGN(auto outcomes, kernel->DeriveBatch({request}));
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_OK(outcomes[0].status);
  EXPECT_EQ(outcomes[0].oid, first_out);
  EXPECT_TRUE(outcomes[0].cache_hit);
  EXPECT_EQ(kernel->GetStats().tasks, tasks_before)
      << "a retried derive after restart must not append a second task";
}

TEST(ReplicationKernelTest, BootstrapFromBackupThenCatchUp) {
  TempDir primary_dir("boot_p");
  TempDir backup_dir("boot_b");
  TempDir replica_dir("boot_r");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> primary,
                       OpenReplicated(primary_dir.path()));
  ASSERT_OK(primary->ExecuteDdl(kSchema));
  ASSERT_OK(primary->ExecuteDdl(kIdentProcess));
  for (int i = 0; i < 4; ++i) {
    Oid in = InsertSample(primary.get(), i);
    ASSERT_OK(primary->Derive("ident", {{"in", {in}}}));
  }
  ASSERT_OK(primary->Checkpoint());
  ASSERT_OK(primary->Flush());
  ASSERT_OK(recovery::CreateBackup(Env::Default(), primary_dir.path(),
                                   backup_dir.path()));
  // History the backup does not hold: the replica must fetch this tail
  // over the ship protocol after restoring.
  for (int i = 4; i < 7; ++i) {
    Oid in = InsertSample(primary.get(), i);
    ASSERT_OK(primary->Derive("ident", {{"in", {in}}}));
  }

  std::string dest = replica_dir.file("db");
  ASSERT_OK(recovery::RestoreBackup(Env::Default(), backup_dir.path(), dest));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> replica,
                       OpenReplicated(dest));
  EXPECT_GT(replica->ClusterLsn(), 0u) << "bootstrap should not start empty";
  EXPECT_LT(replica->ClusterLsn(), primary->ClusterLsn());
  Pump(primary.get(), replica.get());
  ExpectSameObjects(primary.get(), replica.get());
}

// ---------------------------------------------------------------------------
// Server-level: wire shipping, applier, cluster client, fault injection
// ---------------------------------------------------------------------------

struct Node {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<GaeaKernel> kernel;
  std::unique_ptr<net::GaeaServer> server;
};

Node StartNode(const std::string& tag, bool replica, int replica_wait_ms = 500,
               std::string primary = "") {
  Node node;
  node.dir = std::make_unique<TempDir>(tag);
  auto kernel = OpenReplicated(node.dir->path());
  EXPECT_OK(kernel.status());
  node.kernel = *std::move(kernel);
  net::GaeaServer::Options options;
  options.replica = replica;
  options.replica_wait_ms = replica_wait_ms;
  options.primary = std::move(primary);
  node.server =
      std::make_unique<net::GaeaServer>(node.kernel.get(), options);
  EXPECT_OK(node.server->Start());
  return node;
}

TEST(ReplicationServerTest, ClusterServesReadsFromReplicaWithFailoverToPrimary) {
  Node primary = StartNode("srv_p", /*replica=*/false);
  Node replica = StartNode("srv_r", /*replica=*/true, /*replica_wait_ms=*/2000,
                           "127.0.0.1:" + std::to_string(primary.server->port()));

  replication::ReplicationApplier::Options applier_options;
  applier_options.primary_host = "127.0.0.1";
  applier_options.primary_port = primary.server->port();
  applier_options.replica_id = "r1";
  applier_options.poll_ms = 5;
  replication::ReplicationApplier applier(replica.kernel.get(),
                                          replica.server.get(),
                                          applier_options);
  ASSERT_OK(applier.Start());

  net::GaeaClusterClient::Options cluster_options;
  cluster_options.retry.max_attempts = 5;
  net::GaeaClusterClient cluster(
      {"127.0.0.1", primary.server->port()},
      {{"127.0.0.1", replica.server->port()}}, cluster_options);

  ASSERT_OK(cluster.ExecuteDdl(kSchema));
  ASSERT_OK(cluster.ExecuteDdl(kIdentProcess));
  net::InsertObjectRequest insert;
  insert.class_name = "sample";
  insert.attrs = {{"v", Value::Int(42)},
                  {"spatialextent", Value::OfBox(Box(0, 0, 1, 1))},
                  {"timestamp", Value::Time(AbsTime(5))}};
  ASSERT_OK_AND_ASSIGN(Oid in, cluster.InsertObject(insert));
  EXPECT_GT(cluster.token(), 0u) << "writes must advance the LSN token";

  // Read-your-writes through the replica: the token forces the replica to
  // have applied the insert before answering.
  ASSERT_OK_AND_ASSIGN(std::string raw, cluster.GetObjectRaw(in));
  ASSERT_OK_AND_ASSIGN(std::string want,
                       primary.kernel->catalog().store()->Get(in));
  EXPECT_EQ(raw, want);

  // A novel derive through the cluster bounces to the primary (the replica
  // has no recorded task for it) and still succeeds.
  ASSERT_OK_AND_ASSIGN(Oid out, cluster.Derive("ident", {{"in", {in}}}));
  // The same derive again is answerable by the replica once it catches up.
  ASSERT_TRUE(applier.WaitForLsn(primary.kernel->ClusterLsn(), 5000));
  bool cache_hit = false;
  ASSERT_OK_AND_ASSIGN(Oid again,
                       cluster.Derive("ident", {{"in", {in}}}, 0, &cache_hit));
  EXPECT_EQ(again, out);
  EXPECT_TRUE(cache_hit);

  // Replicas refuse writes outright.
  ASSERT_OK_AND_ASSIGN(auto direct, net::GaeaClient::Connect(
                                        "127.0.0.1", replica.server->port()));
  Status refused = direct->ExecuteDdl("CLASS nope ( ATTRIBUTES: v = int4; )");
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);

  // The primary's status RPC reports the shipping peer.
  ASSERT_OK_AND_ASSIGN(
      auto on_primary,
      net::GaeaClient::Connect("127.0.0.1", primary.server->port()));
  ASSERT_OK_AND_ASSIGN(net::ReplicaStatusReply status,
                       on_primary->ReplicaStatus());
  EXPECT_EQ(status.role, 0);
  ASSERT_EQ(status.peers.size(), 1u);
  EXPECT_EQ(status.peers[0].replica_id, "r1");

  applier.Stop();
  replica.server->Shutdown();
  primary.server->Shutdown();
}

TEST(ReplicationServerTest, ReadYourWritesHoldsUnderInjectedLag) {
  Node primary = StartNode("lag_p", /*replica=*/false);

  // The applier ships through a proxy that delays every reply: the replica
  // is permanently behind by ~delay, which is exactly the window where a
  // stale read could slip through without the LSN token.
  FlakyProxy::Options proxy_options;
  proxy_options.upstream_port = primary.server->port();
  proxy_options.delay_ms = 40;
  FlakyProxy proxy(proxy_options);
  ASSERT_OK(proxy.Start());

  Node replica = StartNode("lag_r", /*replica=*/true, /*replica_wait_ms=*/3000);
  replication::ReplicationApplier::Options applier_options;
  applier_options.primary_port = proxy.port();
  applier_options.replica_id = "laggy";
  applier_options.poll_ms = 5;
  replication::ReplicationApplier applier(replica.kernel.get(),
                                          replica.server.get(),
                                          applier_options);
  ASSERT_OK(applier.Start());

  net::GaeaClusterClient::Options cluster_options;
  cluster_options.retry.max_attempts = 5;
  net::GaeaClusterClient cluster(
      {"127.0.0.1", primary.server->port()},
      {{"127.0.0.1", replica.server->port()}}, cluster_options);
  ASSERT_OK(cluster.ExecuteDdl(kSchema));

  for (int i = 0; i < 8; ++i) {
    net::InsertObjectRequest insert;
    insert.class_name = "sample";
    insert.attrs = {{"v", Value::Int(i)},
                    {"spatialextent", Value::OfBox(Box(0, 0, 1, 1))},
                    {"timestamp", Value::Time(AbsTime(i + 1))}};
    ASSERT_OK_AND_ASSIGN(Oid oid, cluster.InsertObject(insert));
    // Immediately read back what was just written: with the replica lagging
    // this must either wait out the lag on the replica or bounce to the
    // primary — never answer from pre-write state.
    ASSERT_OK_AND_ASSIGN(std::string raw, cluster.GetObjectRaw(oid));
    ASSERT_OK_AND_ASSIGN(std::string want,
                         primary.kernel->catalog().store()->Get(oid));
    ASSERT_EQ(raw, want) << "stale or wrong read at round " << i;
  }

  applier.Stop();
  proxy.Stop();
  replica.server->Shutdown();
  primary.server->Shutdown();
}

TEST(ReplicationServerTest, ReplicaConvergesThroughFlakyTransport) {
  Node primary = StartNode("flaky_p", /*replica=*/false);

  FlakyProxy::Options proxy_options;
  proxy_options.upstream_port = primary.server->port();
  proxy_options.drop_every_n = 3;
  proxy_options.duplicate_every_n = 5;
  proxy_options.truncate_every_n = 4;
  FlakyProxy proxy(proxy_options);
  ASSERT_OK(proxy.Start());

  // The history exists before the applier starts, so every record must
  // cross the faulty link in small bites.
  ASSERT_OK(primary.kernel->ExecuteDdl(kSchema));
  ASSERT_OK(primary.kernel->ExecuteDdl(kIdentProcess));
  for (int i = 0; i < 16; ++i) {
    Oid in = InsertSample(primary.kernel.get(), i);
    ASSERT_OK(primary.kernel->Derive("ident", {{"in", {in}}}));
  }

  Node replica = StartNode("flaky_r", /*replica=*/true);
  replication::ReplicationApplier::Options applier_options;
  applier_options.primary_port = proxy.port();
  applier_options.replica_id = "flaky";
  applier_options.poll_ms = 5;
  applier_options.max_records = 2;  // many small batches → many fault hits
  replication::ReplicationApplier applier(replica.kernel.get(),
                                          replica.server.get(),
                                          applier_options);
  ASSERT_OK(applier.Start());

  ASSERT_TRUE(applier.WaitForLsn(primary.kernel->ClusterLsn(), 30000))
      << "replica failed to converge through a flaky transport; applier: "
      << applier.stats().last_error;
  ExpectSameObjects(primary.kernel.get(), replica.kernel.get());
  FlakyProxy::Counters counters = proxy.counters();
  EXPECT_GT(counters.frames_dropped + counters.frames_truncated, 0u)
      << "the proxy never actually injected a fault (forwarded="
      << counters.frames_forwarded << " dup=" << counters.frames_duplicated
      << "); applier polls=" << applier.stats().polls
      << " reconnects=" << applier.stats().reconnects;

  applier.Stop();
  proxy.Stop();
  replica.server->Shutdown();
  primary.server->Shutdown();
}

}  // namespace
}  // namespace gaea
