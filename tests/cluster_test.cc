// Multi-process cluster hardening: real gaead daemons, a real SIGKILL.
//
// These tests fork/exec the gaead binary (path baked in as GAEA_GAEAD_PATH)
// and drive it over the wire, because the failure being proven — a primary
// killed with SIGKILL mid-workload while clients keep going — cannot be
// faked in-process. The CI cluster-smoke job runs the same scenario from a
// shell script; this is the hermetic version.

#include <csignal>
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/cluster_client.h"
#include "test_util.h"

namespace gaea::net {
namespace {

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

// One gaead child process. Start() blocks until the daemon has written its
// port file, so a returned Gaead is accepting connections.
class Gaead {
 public:
  // `args` beyond --dir/--port-file; stdout+stderr land in `log`.
  static std::unique_ptr<Gaead> Start(const std::string& dir,
                                      const std::string& port_file,
                                      const std::string& log,
                                      std::vector<std::string> args,
                                      bool wait_for_port = true) {
    auto daemon = std::unique_ptr<Gaead>(new Gaead);
    daemon->port_file_ = port_file;
    daemon->log_ = log;
    std::vector<std::string> argv = {GAEA_GAEAD_PATH, "--dir", dir,
                                     "--port-file", port_file};
    for (std::string& arg : args) argv.push_back(std::move(arg));

    ::unlink(port_file.c_str());
    pid_t pid = ::fork();
    if (pid == 0) {
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      std::vector<char*> cargv;
      for (std::string& arg : argv) cargv.push_back(arg.data());
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      _exit(127);
    }
    daemon->pid_ = pid;
    if (wait_for_port && !daemon->WaitForPort()) return nullptr;
    return daemon;
  }

  ~Gaead() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  int port() const { return port_; }

  void SigKill() {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  // SIGTERM + reaped exit status (-1 when the child did not exit cleanly).
  int Terminate() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // Exit status of an already-dead child (for expected startup failures).
  int WaitExit() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string Log() const {
    std::ifstream in(log_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  Gaead() = default;

  bool WaitForPort() {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = port;
        return true;
      }
      // A crashed child will never write the file; bail early.
      if (::waitpid(pid_, nullptr, WNOHANG) != 0) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
  std::string log_;
};

uint64_t ClusterLsnOf(int port) {
  auto client = GaeaClient::Connect("127.0.0.1", port);
  if (!client.ok()) return 0;
  auto status = (*client)->ReplicaStatus();
  return status.ok() ? status->cluster_lsn : 0;
}

InsertObjectRequest SampleInsert(int v) {
  InsertObjectRequest insert;
  insert.class_name = "sample";
  insert.attrs = {{"v", Value::Int(v)},
                  {"spatialextent", Value::OfBox(Box(0, 0, 1, 1))},
                  {"timestamp", Value::Time(AbsTime(v + 1))}};
  return insert;
}

TEST(GaeadTest, EphemeralPortIsWrittenToPortFile) {
  TempDir dir("port0");
  auto daemon = Gaead::Start(dir.file("db"), dir.file("port"),
                             dir.file("log"), {"--port", "0"});
  ASSERT_NE(daemon, nullptr) << "gaead did not come up";
  EXPECT_GT(daemon->port(), 0);
  ASSERT_OK_AND_ASSIGN(auto client,
                       GaeaClient::Connect("127.0.0.1", daemon->port()));
  EXPECT_OK(client->Ping());
  EXPECT_EQ(daemon->Terminate(), 0);
}

TEST(GaeadTest, PortInUseIsACleanErrorNotAnAbort) {
  TempDir dir("inuse");
  auto first = Gaead::Start(dir.file("db1"), dir.file("port1"),
                            dir.file("log1"), {"--port", "0"});
  ASSERT_NE(first, nullptr);
  auto second = Gaead::Start(
      dir.file("db2"), dir.file("port2"), dir.file("log2"),
      {"--port", std::to_string(first->port())}, /*wait_for_port=*/false);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->WaitExit(), 1) << second->Log();
  EXPECT_NE(second->Log().find("cannot listen"), std::string::npos)
      << "stderr should explain the port clash: " << second->Log();
  EXPECT_EQ(first->Terminate(), 0);
}

// Out-of-range numeric flags are usage errors caught while parsing: exit 2
// with the usage line, before the database directory is even created.
TEST(GaeadTest, OutOfRangeNumericFlagsAreUsageErrors) {
  TempDir dir("badflags");
  const std::vector<std::vector<std::string>> bad = {
      {"--port", "70000"},
      {"--port", "-1"},
      {"--port", "4294967297"},
      {"--workers", "0"},
      {"--workers", "1025"},
      {"--workers", "4294967297"},
      {"--derive-threads", "0"},
      {"--derive-threads", "1025"},
      {"--derive-threads", "4294967297"},
      {"--max-inflight", "4294967297"},
      {"--checkpoint-bytes", "-1"},
      {"--checkpoint-tasks", "-1"},
      {"--checkpoint-poll-ms", "-1"},
      {"--replica-poll-ms", "-1"},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    const std::string tag = std::to_string(i);
    auto daemon =
        Gaead::Start(dir.file("db" + tag), dir.file("port" + tag),
                     dir.file("log" + tag), bad[i], /*wait_for_port=*/false);
    ASSERT_NE(daemon, nullptr);
    EXPECT_EQ(daemon->WaitExit(), 2) << bad[i][0] << " " << bad[i][1];
    EXPECT_NE(daemon->Log().find("usage:"), std::string::npos)
        << daemon->Log();
    EXPECT_FALSE(std::filesystem::exists(dir.file("db" + tag)))
        << bad[i][0] << " " << bad[i][1] << " got past flag parsing";
  }
}

// The tentpole scenario: a primary and two replicas, a client hammering
// inserts+derives, SIGKILL the primary mid-stream and supervise it back.
// The client's retry/idempotency machinery must absorb the whole episode —
// zero visible errors, every derivation exactly once — and both replicas
// must converge to the primary's exact bytes.
TEST(GaeadTest, PrimarySigkillMidWorkloadIsInvisibleToClients) {
  TempDir dir("failover");
  const std::string primary_db = dir.file("primary_db");
  auto primary =
      Gaead::Start(primary_db, dir.file("pport"), dir.file("plog"),
                   {"--port", "0", "--replicated"});
  ASSERT_NE(primary, nullptr) << "primary did not come up";
  const int primary_port = primary->port();
  const std::string primary_addr =
      "127.0.0.1:" + std::to_string(primary_port);

  auto replica1 = Gaead::Start(
      dir.file("r1_db"), dir.file("r1port"), dir.file("r1log"),
      {"--port", "0", "--replica-of", primary_addr, "--replica-id", "r1",
       "--replica-poll-ms", "10"});
  auto replica2 = Gaead::Start(
      dir.file("r2_db"), dir.file("r2port"), dir.file("r2log"),
      {"--port", "0", "--replica-of", primary_addr, "--replica-id", "r2",
       "--replica-poll-ms", "10"});
  ASSERT_NE(replica1, nullptr) << "replica1 did not come up";
  ASSERT_NE(replica2, nullptr) << "replica2 did not come up";

  GaeaClusterClient::Options options;
  options.retry.max_attempts = 25;  // must ride out the restart window
  GaeaClusterClient cluster(
      {"127.0.0.1", primary_port},
      {{"127.0.0.1", replica1->port()}, {"127.0.0.1", replica2->port()}},
      options);
  ASSERT_OK(cluster.ExecuteDdl(kSchema));
  ASSERT_OK(cluster.ExecuteDdl(kIdentProcess));

  constexpr int kRounds = 20;
  constexpr int kKillAt = 10;
  std::vector<Oid> inputs;
  std::vector<Oid> outputs;
  std::thread restarter;
  for (int i = 0; i < kRounds; ++i) {
    if (i == kKillAt) {
      primary->SigKill();
      // Supervise it back after a beat, on the SAME port and directory —
      // while the client keeps issuing requests and retrying into the gap.
      restarter = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        primary = Gaead::Start(primary_db, dir.file("pport2"),
                               dir.file("plog"),
                               {"--port", std::to_string(primary_port),
                                "--replicated"});
      });
    }
    ASSERT_OK_AND_ASSIGN(Oid in, cluster.InsertObject(SampleInsert(i)));
    DeriveRequest request;
    request.process = "ident";
    request.inputs["in"] = {in};
    ASSERT_OK_AND_ASSIGN(auto outcomes, cluster.DeriveBatch({request}));
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok())
        << "client-visible error at round " << i << ": "
        << outcomes[0].status.ToString();
    inputs.push_back(in);
    outputs.push_back(outcomes[0].oid);
  }
  if (restarter.joinable()) restarter.join();
  ASSERT_NE(primary, nullptr) << "primary did not restart";

  // Exactly-once: re-deriving every input must return the recorded output,
  // from the derivation cache, without growing the task log.
  ASSERT_OK_AND_ASSIGN(auto direct,
                       GaeaClient::Connect("127.0.0.1", primary_port));
  for (int i = 0; i < kRounds; ++i) {
    bool cache_hit = false;
    ASSERT_OK_AND_ASSIGN(
        Oid again, direct->Derive("ident", {{"in", {inputs[i]}}}, 0,
                                  &cache_hit));
    EXPECT_EQ(again, outputs[i]) << "derivation " << i << " forked";
    EXPECT_TRUE(cache_hit) << "derivation " << i << " re-executed";
  }

  // Both replicas converge to the primary's cluster LSN...
  uint64_t target = ClusterLsnOf(primary_port);
  ASSERT_GT(target, 0u);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((ClusterLsnOf(replica1->port()) != target ||
          ClusterLsnOf(replica2->port()) != target ||
          ClusterLsnOf(primary_port) != target) &&
         std::chrono::steady_clock::now() < deadline) {
    target = ClusterLsnOf(primary_port);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(ClusterLsnOf(replica1->port()), target)
      << "replica1 never caught up\n" << replica1->Log();
  EXPECT_EQ(ClusterLsnOf(replica2->port()), target)
      << "replica2 never caught up\n" << replica2->Log();

  // ...and hold byte-identical objects, inputs and derived outputs alike.
  ASSERT_OK_AND_ASSIGN(auto read1,
                       GaeaClient::Connect("127.0.0.1", replica1->port()));
  ASSERT_OK_AND_ASSIGN(auto read2,
                       GaeaClient::Connect("127.0.0.1", replica2->port()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (Oid oid : {inputs[i], outputs[i]}) {
      ASSERT_OK_AND_ASSIGN(std::string want, direct->GetObjectRaw(oid));
      ASSERT_OK_AND_ASSIGN(std::string got1, read1->GetObjectRaw(oid));
      ASSERT_OK_AND_ASSIGN(std::string got2, read2->GetObjectRaw(oid));
      EXPECT_EQ(got1, want) << "replica1 diverged on oid " << oid;
      EXPECT_EQ(got2, want) << "replica2 diverged on oid " << oid;
    }
  }

  EXPECT_EQ(replica1->Terminate(), 0);
  EXPECT_EQ(replica2->Terminate(), 0);
  EXPECT_EQ(primary->Terminate(), 0);
}

}  // namespace
}  // namespace gaea::net
