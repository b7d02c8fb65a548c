// GaeaClient: a blocking, self-healing C++ client for gaead (docs/NET.md).
//
// One client is one TCP connection plus one outstanding request at a time;
// the hello/version handshake happens inside Connect, so a constructed
// client is ready to use. All calls are thread-safe (serialized on an
// internal mutex); for concurrency open one client per thread — connections
// are cheap and the server multiplexes sessions.
//
// Self-healing (docs/ROBUSTNESS.md): with Options::retry.max_attempts > 1,
// a call that fails with kUnavailable (overload, deadline expiry, server
// draining) or a transport error (broken/closed connection) is retried with
// exponential backoff plus jitter, reconnecting first when the transport
// died. A retry keeps the request id, and the writes whose kVerbs row
// replays (ddl, derive, derive-batch, insert-object) carry the client's
// idempotency nonce, so the server can detect a retry of work it already
// executed and replay the recorded response instead of running the
// request twice. Every other request is simply executed again.

#ifndef GAEA_NET_CLIENT_H_
#define GAEA_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.h"
#include "net/wire.h"
#include "util/status.h"

namespace gaea::net {

// How a client call behaves when the server is unavailable or the
// connection breaks. The default (max_attempts = 1) never retries.
struct RetryPolicy {
  int max_attempts = 1;        // total tries, including the first
  int initial_backoff_ms = 10; // sleep before the second try
  int max_backoff_ms = 1000;   // backoff growth cap
  double multiplier = 2.0;     // backoff growth per retry
  // Overall wall-clock budget across all attempts; once spent, the last
  // error is returned instead of sleeping again. 0 = unbounded.
  int deadline_ms = 0;
};

// Splits "host:port" at its last colon. The host must be non-empty and the
// port all digits, 1-65535. The one parser behind every tool's --connect
// and gaead's --replica-of.
bool ParseHostPort(std::string_view text, std::string* host, int* port);

class GaeaClient {
 public:
  struct Options {
    // Applied to every request; 0 = no deadline. The deadline bounds the
    // server-side queue wait, not the network round trip.
    uint32_t deadline_ms = 0;
    RetryPolicy retry;
    // Idempotency nonce stamped on every request whose row replays; 0
    // means "pick one at random" (the normal case). Tests pin it to prove
    // the exactly-once behavior of retried derives.
    uint64_t idem_nonce = 0;
  };

  // Resolves `host` (name or dotted IPv4), connects, and performs the
  // protocol handshake.
  static StatusOr<std::unique_ptr<GaeaClient>> Connect(
      const std::string& host, int port, Options options);
  static StatusOr<std::unique_ptr<GaeaClient>> Connect(const std::string& host,
                                                       int port);

  // Constructs without dialing: the first call connects (and, with a retry
  // policy, keeps redialing through backoff). This is what lets a cluster
  // client ride out a primary that is down at the moment of the call.
  static std::unique_ptr<GaeaClient> Create(const std::string& host, int port,
                                            Options options);

  ~GaeaClient();

  GaeaClient(const GaeaClient&) = delete;
  GaeaClient& operator=(const GaeaClient&) = delete;

  // Round-trip liveness probe.
  Status Ping();

  // Remote GaeaKernel::ExecuteDdl.
  Status ExecuteDdl(const std::string& source);

  // Remote single derivation (server-side cache consulted). `cache_hit`,
  // when non-null, reports whether the result was memoized.
  StatusOr<Oid> Derive(const std::string& process,
                       const std::map<std::string, std::vector<Oid>>& inputs,
                       int version = 0, bool* cache_hit = nullptr);

  // Remote GaeaKernel::DeriveBatch: one outcome per request, request order.
  StatusOr<std::vector<DeriveOutcome>> DeriveBatch(
      const std::vector<DeriveRequest>& requests);

  // Remote provenance query (closure/why/where/diff/chain over the lineage
  // index); served by replicas too — the index is replicated state.
  StatusOr<ProvenanceReply> Provenance(const ProvenanceRequest& request);

  // Combined server+kernel counters as a JSON document.
  StatusOr<std::string> StatsJson();

  // Prometheus text exposition of every instrument in the server's metrics
  // registry (kernel gaea_* and serving gaead_* metrics).
  StatusOr<std::string> Metrics();

  // Remote GaeaKernel::LintCatalog: every static-analysis finding over the
  // server's current catalog, normalized (sorted, deduped).
  StatusOr<std::vector<Diagnostic>> Lint();

  // Remote GaeaKernel::Checkpoint: takes one fuzzy checkpoint on the server
  // and reports its sequence number and sizes. A retry just takes the next
  // checkpoint.
  StatusOr<CheckpointReply> Checkpoint();

  // ---- replication RPCs (docs/NET.md "Replication") ----

  // Pulls every component's tail past the request's cursors.
  StatusOr<ShipReply> ShipBatch(const ShipRequest& request);

  // Role, cluster LSN and shipping peers of the connected server.
  StatusOr<ReplicaStatusReply> ReplicaStatus();

  // Inserts a base object on the server (primary only); returns its OID.
  StatusOr<Oid> InsertObject(const InsertObjectRequest& request);

  // Raw serialized DataObject bytes of `oid`, exactly as stored.
  StatusOr<std::string> GetObjectRaw(Oid oid);

  void set_deadline_ms(uint32_t ms) { options_.deadline_ms = ms; }
  void set_retry(const RetryPolicy& retry) { options_.retry = retry; }
  uint64_t idem_nonce() const { return options_.idem_nonce; }

  // Read-your-writes token stamped into every request header (0 = none):
  // the server must have applied at least this cluster LSN before
  // answering. The cluster client sets it from applied_lsn() before
  // routing a read to a replica.
  void set_min_lsn(uint64_t lsn) { min_lsn_.store(lsn); }
  uint64_t min_lsn() const { return min_lsn_.load(); }

  // Largest cluster LSN any response from this connection has carried —
  // after a write, the LSN that write is covered by.
  uint64_t applied_lsn() const { return applied_lsn_.load(); }

 private:
  GaeaClient(std::string host, int port, Options options);

  // Dials and performs the hello handshake; fd_ is valid on success.
  // Caller holds mu_.
  Status ConnectLocked();

  // A response payload as received, decoded in place: the body is the
  // bytes after the ResponseHeader.
  struct Reply {
    std::string payload;
    size_t body_offset = 0;
    std::string_view body() const {
      return std::string_view(payload).substr(body_offset);
    }
  };

  // Sends one request under `id` and blocks for its response. Caller holds
  // mu_.
  StatusOr<Reply> CallOnceLocked(MsgType type, uint64_t id,
                                 std::string_view body);

  // Retry loop around ConnectLocked + CallOnceLocked per options_.retry.
  StatusOr<Reply> Call(MsgType type, std::string_view body);

  std::mutex mu_;
  std::string host_;
  int port_;
  int fd_ = -1;
  Options options_;
  FrameBuffer frames_;
  uint64_t next_id_ = 0;
  std::mt19937_64 rng_;  // backoff jitter
  std::atomic<uint64_t> min_lsn_{0};
  std::atomic<uint64_t> applied_lsn_{0};
};

}  // namespace gaea::net

#endif  // GAEA_NET_CLIENT_H_
