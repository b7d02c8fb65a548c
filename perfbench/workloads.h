// The benchmark's three workloads and the rig they run on.
//
// A Rig is one database directory served the way gaead serves it: a
// GaeaKernel (journal durability kOs, derive threads = nproc) behind an
// in-process GaeaServer on loopback (workers = nproc), with one
// net::GaeaClient connection per closed-loop client. A Workload loads its
// data and history into the kernel before the server starts, then drives
// requests one closed-loop step at a time and checks every answer.

#ifndef GAEA_PERFBENCH_WORKLOADS_H_
#define GAEA_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

// Request kinds, each with its own latency sample.
enum class Op {
  kDeriveCold,    // Derive that computes (cache miss)
  kDeriveCached,  // Derive answered from the derivation cache
  kGetSmall,      // GetObjectRaw, 4 KiB object
  kGetLarge,      // GetObjectRaw, 1 MiB object
  kGetDerived,    // GetObjectRaw of a just-derived object
  kWhy,           // Provenance why
  kInsert,        // InsertObject
};
constexpr int kNumOps = 7;
const char* OpName(Op op);

// One client's record of a phase: latency per request kind (successes
// only), when each success completed, attempts, and failed or wrong answers.
struct ClientLog {
  std::vector<double> us[kNumOps];
  // Every success in completion order: when it completed, and its latency.
  std::vector<std::chrono::steady_clock::time_point> done_at;
  std::vector<double> done_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  void Ok(Op op, double micros) {
    us[static_cast<int>(op)].push_back(micros);
    done_at.push_back(std::chrono::steady_clock::now());
    done_us.push_back(micros);
  }
  void Fail(const std::string& what);
  uint64_t completed() const;
};

// In-process timings of layer entry points, taken in the traced run.
struct Probes {
  std::vector<double> get_small_us, get_large_us, why_us;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  // Closed-loop steps per client (on average) run before timing starts.
  virtual int warmup_steps() const = 0;
  // Background checkpointing; both zero means none.
  virtual gaea::GaeaKernel::CheckpointPolicy checkpoint_policy() const {
    return {};
  }
  virtual int checkpoint_poll_ms() const { return 0; }

  // Generates the inputs from the seed and loads them, plus any recorded
  // history, into `kernel` (the server is not running yet). `scratch_dir`
  // is a free path for a reference kernel.
  virtual void Load(gaea::GaeaKernel& kernel,
                    const std::string& scratch_dir) = 0;

  // One closed-loop step of client `c`: sends its requests, checks each
  // answer. Returns false when the workload's inputs or its write budget
  // are used up. Called concurrently for distinct `c`.
  virtual bool Step(gaea::net::GaeaClient& client, int c, ClientLog& log) = 0;

  // Checks made once the timed phases end (not timed).
  virtual void Verify(gaea::net::GaeaClient& client, ClientLog& log) {
    (void)client;
    (void)log;
  }

  // Direct in-process calls into the storage and provenance layers.
  virtual void Probe(gaea::GaeaKernel& kernel, Probes* out) = 0;

  // Cold derives answered so far; each must have logged exactly one task.
  virtual uint64_t cold_derives() const = 0;

  // Serialized bytes of every object inserted or derived so far.
  virtual uint64_t user_bytes() const = 0;
};

// nullptr when `name` is not a workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Kernel + loopback server + one client per closed-loop client.
class Rig {
 public:
  // Opens a fresh kernel at `dir`, loads `workload`, starts the server and
  // connects the clients. Exits the process on failure.
  Rig(const std::string& dir, Workload& workload);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  gaea::GaeaKernel& kernel() { return *kernel_; }
  gaea::net::GaeaServer& server() { return *server_; }
  gaea::net::GaeaClient& client(int c) { return *clients_[c]; }
  const std::string& dir() const { return dir_; }

  // Disconnects, drains the server and closes the kernel (journals
  // flushed), leaving the directory as a restart would find it.
  void Close();

 private:
  std::string dir_;
  std::unique_ptr<gaea::GaeaKernel> kernel_;
  std::unique_ptr<gaea::net::GaeaServer> server_;
  std::vector<std::unique_ptr<gaea::net::GaeaClient>> clients_;
};

// Threads used for server workers and derivations: the machine's.
int HardwareThreads();

// Prints `what` and the status to stderr and exits 2 when `s` is not OK.
void CheckOk(const gaea::Status& s, const std::string& what);

}  // namespace perfbench

#endif  // GAEA_PERFBENCH_WORKLOADS_H_
