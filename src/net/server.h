// gaead's serving core: one GaeaKernel shared by many TCP sessions.
//
// Threading model (docs/NET.md):
//   * an accept thread polls the listening socket and spawns one reader
//     thread per connection (net/session.h);
//   * every request type is one row of net::kVerbs (wire.h) plus one
//     handler here; the row says whether the reader thread answers it
//     inline (hello, ping, stats, metrics) or a bounded worker pool runs
//     it, which kernel lock the handler runs under, whether a replica
//     refuses it and whether a retry replays the recorded reply;
//   * admission is limited by max_inflight — when the pool is saturated the
//     request is answered kUnavailable immediately instead of queueing
//     without bound, and a request whose deadline_ms elapsed while queued is
//     answered kUnavailable without touching the kernel;
//   * the dispatcher takes the row's lock and applies its replica policy,
//     so handlers hold no kernel lock of their own.
//
// Shutdown() — wired to SIGTERM in tools/gaead.cc — stops accepting, lets
// queued work drain, flushes the kernel's journals, and only then tears the
// sessions down, so every admitted request is answered.

#ifndef GAEA_NET_SERVER_H_
#define GAEA_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <utility>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "gaea/kernel.h"
#include "net/session.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace gaea::net {

// Aggregate server counters, surfaced by the stats RPC (as the "server"
// object of the JSON document) and by tests. The counters themselves live
// in the kernel's MetricsRegistry (gaead_* instruments); this struct is a
// point-in-time snapshot of them.
struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_active = 0;
  uint64_t requests_total = 0;     // admitted or answered, all types
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;     // non-OK answers other than the two below
  uint64_t rejected_overload = 0;  // kUnavailable: max_inflight reached
  uint64_t rejected_deadline = 0;  // kUnavailable: deadline_ms elapsed queued
  uint64_t dedup_hits = 0;         // retried requests answered from the
                                   // idempotency cache (never re-executed)
  uint64_t in_flight = 0;          // queued + executing worker requests
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t latency_micros_total = 0;  // answered worker requests (rejections
                                      // excluded), admission→response: the
                                      // sum of the per-verb histograms' sums
  uint64_t latency_micros_max = 0;

  std::string ToJson() const;
};

// Answers one provenance request from `kernel` — the Provenance verb's
// handler, shared with the local tools that take the same request. The
// caller holds whatever lock keeps DDL away from the kernel.
StatusOr<ProvenanceReply> AnswerProvenance(GaeaKernel* kernel,
                                           const ProvenanceRequest& request);

// Stores the base object `request` describes in `kernel` and returns its
// OID — the InsertObject verb's handler, shared with the local shell. The
// caller holds the kernel lock the verb's row names.
StatusOr<Oid> AnswerInsert(GaeaKernel* kernel,
                           const InsertObjectRequest& request);

class GaeaServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;          // 0 = ephemeral; see port() after Start
    int workers = 4;       // kernel worker threads (clamped to >= 1)
    int max_inflight = 64; // queued+executing bound before kUnavailable
    // Responses remembered per (idem nonce, request id) so a client retry
    // after a lost response never re-executes the request (clamped >= 1).
    size_t dedup_capacity = 1024;
    // When > 0, a background thread polls the kernel's checkpoint policy
    // (GaeaKernel::MaybeCheckpoint) this often under the shared kernel
    // lock, so checkpoints ride along with serving without blocking it.
    // 0 disables the thread (checkpoints then only happen on request).
    int checkpoint_poll_ms = 0;
    // Replica mode (docs/ROBUSTNESS.md "Replication"): the verbs whose row
    // says OnReplica::kRefuse (ddl, insert-object) are refused with
    // kFailedPrecondition, and derive requests answer from the recorded
    // history only (GaeaKernel::TryRecordedDerive) — a novel derivation is
    // kNotFound so the client bounces it to the primary.
    bool replica = false;
    // How long a request carrying min_lsn may wait for the local cluster
    // LSN to catch up before it is answered kUnavailable (the client then
    // retries elsewhere, typically on the primary).
    int replica_wait_ms = 500;
    // Informational: the "host:port" this replica ships from, echoed by the
    // replica-status RPC. Empty on a primary.
    std::string primary;
    // Benchmark hook: holds the worker this long on every worker-path
    // request, modeling storage / external-procedure latency so capacity
    // benches (bench_cluster) measure how throughput scales with node
    // count instead of loopback syscall speed. Zero (production) adds
    // nothing to the request path.
    int service_floor_us = 0;
  };

  GaeaServer(GaeaKernel* kernel, Options options);
  ~GaeaServer();

  GaeaServer(const GaeaServer&) = delete;
  GaeaServer& operator=(const GaeaServer&) = delete;

  // Binds, listens and spawns the accept + worker threads.
  Status Start();

  // Bound port (useful with Options::port == 0).
  int port() const { return port_; }

  // Drains in-flight work, flushes the kernel, closes all sessions and
  // joins every thread. Idempotent; also run by the destructor.
  void Shutdown();

  ServerStats stats() const;

  // Runs fn under the exclusive kernel lock, serialized against every
  // in-flight request. The replication applier uses this so replaying a
  // shipped batch never races a concurrently served derive or read.
  Status WithExclusiveKernel(const std::function<Status()>& fn);

 private:
  friend class Session;

  struct Job {
    std::shared_ptr<Session> session;
    const Verb* verb = nullptr;  // the row of header.type
    RequestHeader header;
    std::string payload;      // the whole request frame, decoded in place
    size_t body_offset = 0;   // where the body starts, after the header
    uint64_t admitted_us = 0; // Env::NowMicros at admission
  };

  // Reader-thread entry point: parse the header, answer reader-thread
  // verbs inline, admit worker verbs onto the queue.
  void HandleFrame(std::shared_ptr<Session> session, std::string payload);

  void AcceptLoop();
  void WorkerLoop();
  void CheckpointLoop();
  void ExecuteJob(Job job);
  void FinishJob(const Job& job, const Status& result);

  // A verb's handler: decodes the request body from `r` and, on success,
  // encodes the reply body into `body`. It runs under the lock its row
  // names, and never on a replica when the row refuses replicas.
  using Handler = Status (GaeaServer::*)(BinaryReader* r, BinaryWriter* body);
  struct Route {
    MsgType type;
    Handler handler;
  };
  // One handler per kVerbs row, in row order (checked at compile time).
  static const Route kRoutes[std::size(kVerbs)];

  // Runs `verb`'s handler under the row's lock and replica policy.
  Status Run(const Verb& verb, BinaryReader* r, BinaryWriter* body);

  Status HandleHello(BinaryReader* r, BinaryWriter* body);
  Status HandlePing(BinaryReader* r, BinaryWriter* body);
  Status HandleDdl(BinaryReader* r, BinaryWriter* body);
  Status HandleDerive(BinaryReader* r, BinaryWriter* body);
  Status HandleDeriveBatch(BinaryReader* r, BinaryWriter* body);
  Status HandleStats(BinaryReader* r, BinaryWriter* body);
  Status HandleMetrics(BinaryReader* r, BinaryWriter* body);
  Status HandleLint(BinaryReader* r, BinaryWriter* body);
  Status HandleCheckpoint(BinaryReader* r, BinaryWriter* body);
  Status HandleShipBatch(BinaryReader* r, BinaryWriter* body);
  Status HandleReplicaStatus(BinaryReader* r, BinaryWriter* body);
  Status HandleInsertObject(BinaryReader* r, BinaryWriter* body);
  Status HandleGetObject(BinaryReader* r, BinaryWriter* body);
  Status HandleProvenance(BinaryReader* r, BinaryWriter* body);

  // The response payload answering `request` with `status`. When `status`
  // is OK and `body` is non-null, the reply is `body`'s buffer, whose
  // first kOkResponseHeaderBytes were left free for the header: a large
  // body (a GetObject raster) is never copied to be framed. Non-static:
  // stamps the kernel's current cluster LSN into the header's applied_lsn,
  // the token clients carry for read-your-writes.
  std::string EncodeResponse(const RequestHeader& request,
                             const Status& status, BinaryWriter* body) const;
  // Sends a response without a body (an error, typically) and counts it.
  void Respond(Session& session, const RequestHeader& request,
               const Status& status);
  void CountResponse(const Status& status);

  // Blocks until the kernel's cluster LSN reaches header.min_lsn or
  // replica_wait_ms elapses; kUnavailable on timeout so the client can
  // bounce the read to the primary instead of seeing stale state.
  Status WaitForMinLsn(uint64_t min_lsn);

  // ---- idempotency cache ----
  // A request whose row replays (OnRetry::kReplay) and that carries
  // header.idem != 0 is looked up in a bounded LRU keyed by (idem, id)
  // *before* admission; every other request ignores idem. A recorded
  // response is replayed verbatim (the request is not re-executed); a
  // pending marker means the original is still in flight, answered
  // kUnavailable so the client backs off and retries. kUnavailable results
  // are never recorded — the request never executed, so a retry must be
  // allowed to run.
  using DedupKey = std::pair<uint64_t, uint64_t>;  // (idem, request id)
  // Returns true when the frame was fully answered here (cache hit or
  // pending collision); false means a pending marker was installed and the
  // caller must admit the job (and later DedupFinish or DedupAbort it).
  bool DedupBegin(Session& session, const RequestHeader& header);
  void DedupFinish(const RequestHeader& header, const Status& result,
                   std::string encoded);
  void DedupAbort(const RequestHeader& header);

  void ReapDoneSessions();  // joins and drops finished sessions

  void AddBytesIn(uint64_t n) { bytes_in_->Inc(n); }
  void AddBytesOut(uint64_t n) { bytes_out_->Inc(n); }

  GaeaKernel* kernel_;
  Env* env_;  // the kernel's Env: clock for deadlines and latency
  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;

  enum class State { kIdle, kRunning, kStopped };
  std::atomic<State> state_{State::kIdle};
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::thread checkpoint_thread_;
  std::vector<std::thread> workers_;

  // Serializes catalog/process mutation against derivations; each verb
  // takes it as its kVerbs row says.
  mutable std::shared_mutex kernel_mu_;

  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  struct DedupEntry {
    bool pending = true;
    std::string response;  // encoded response payload when !pending
    std::list<DedupKey>::iterator lru;  // valid when !pending
  };
  std::mutex dedup_mu_;
  std::map<DedupKey, DedupEntry> dedup_;
  std::list<DedupKey> dedup_lru_;  // completed entries, oldest first

  // Replica bookkeeping on the shipping side: last cursor position each
  // replica acknowledged (the cursors it sent with its latest ship
  // request) and when it was last heard from. Surfaced by replica-status.
  struct PeerState {
    uint64_t acked_lsn = 0;
    uint64_t last_seen_us = 0;
  };
  mutable std::mutex peers_mu_;
  std::map<std::string, PeerState> peers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;    // workers wait for jobs / stop
  std::condition_variable drained_cv_;  // Shutdown waits for in_flight == 0
  std::deque<Job> queue_;
  bool stop_workers_ = false;

  // Serving instruments, owned by the kernel's MetricsRegistry (stable
  // pointers for the server's lifetime; the kernel must outlive the
  // server). The stats RPC and the Prometheus metrics RPC are two views of
  // these same instruments.
  obs::Gauge* in_flight_;
  obs::Counter* sessions_opened_;
  obs::Counter* requests_total_;
  obs::Counter* requests_ok_;
  obs::Counter* requests_error_;
  obs::Counter* rejected_overload_;
  obs::Counter* rejected_deadline_;
  obs::Counter* dedup_hits_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  // gaead_request_latency_micros{verb="<row name>"}, one per kVerbs row
  // that runs on a worker (null for reader-thread rows), in row order.
  obs::Histogram* request_latency_us_[std::size(kVerbs)] = {};
  obs::Gauge* latency_micros_max_;
};

}  // namespace gaea::net

#endif  // GAEA_NET_SERVER_H_
