// GaeaClusterClient: one client over a primary + N read replicas
// (docs/ROBUSTNESS.md "Replication & failover").
//
// Routing policy:
//   * writes (ddl, define-process, insert-object, derive-batch) pin to the
//     primary and use the full retry/idempotency machinery, so a primary
//     that is killed and supervised back to life mid-batch costs latency,
//     never correctness — the retried request is deduplicated server-side;
//   * reads (get-object, stats) and single derives fan out to the
//     replicas round-robin, stamped with the client's read-your-writes
//     token (the largest applied_lsn any response has carried), falling
//     back to the primary when the replica is behind (kUnavailable), does
//     not know the derivation (kNotFound), refuses it (kFailedPrecondition)
//     or is simply gone (transport error). One replica attempt per call:
//     the primary fallback IS the retry.
//
// Thread-safe the same way GaeaClient is: calls serialize on an internal
// mutex; open one cluster client per thread for concurrency.

#ifndef GAEA_NET_CLUSTER_CLIENT_H_
#define GAEA_NET_CLUSTER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "util/status.h"

namespace gaea::net {

class GaeaClusterClient {
 public:
  struct Endpoint {
    std::string host = "127.0.0.1";
    int port = 0;
  };

  struct Options {
    uint32_t deadline_ms = 0;
    // Applied to primary-bound calls (writes and fallbacks). Replica
    // attempts never retry locally.
    RetryPolicy retry;
    uint64_t idem_nonce = 0;  // 0 = random; shared by every connection
  };

  GaeaClusterClient(Endpoint primary, std::vector<Endpoint> replicas,
                    Options options);

  // ---- writes: primary only ----
  Status ExecuteDdl(const std::string& source);
  StatusOr<int> DefineProcess(const ProcessDef& def);
  StatusOr<Oid> InsertObject(const InsertObjectRequest& request);
  StatusOr<std::vector<DeriveOutcome>> DeriveBatch(
      const std::vector<DeriveRequest>& requests);

  // ---- reads / recorded derives: replicas first, primary fallback ----
  StatusOr<Oid> Derive(const std::string& process,
                       const std::map<std::string, std::vector<Oid>>& inputs,
                       int version = 0, bool* cache_hit = nullptr);
  StatusOr<std::string> GetObjectRaw(Oid oid);
  StatusOr<std::string> StatsJson();

  // Replica-status of the primary (peer lags) — monitoring helper.
  StatusOr<ReplicaStatusReply> PrimaryStatus();

  // The read-your-writes token: largest cluster LSN any response (from any
  // endpoint) has carried. Replica-bound reads demand at least this much
  // applied history.
  uint64_t token() const { return token_.load(); }

  size_t replica_count() const { return replicas_.size(); }

 private:
  struct Conn {
    Endpoint endpoint;
    std::unique_ptr<GaeaClient> client;  // lazily (re)dialed
  };

  // Lazily connects `conn`; nullptr when the endpoint is unreachable.
  GaeaClient* Dial(Conn* conn, bool primary);
  void Absorb(const GaeaClient* client);  // max client LSN into the token
  // True when `status` means "this replica can't answer; ask the primary".
  static bool BounceToPrimary(const Status& status);

  // The two routes. Each runs `call` (GaeaClient* -> Status or StatusOr)
  // with mu_ held and folds the answering endpoint's LSN into the token.
  //
  // The primary only.
  template <typename Call>
  std::invoke_result_t<const Call&, GaeaClient*> OnPrimary(const Call& call);
  // One replica attempt (round-robin; stamped with the token as min_lsn
  // when `read_your_writes`), then the primary if the replica bounces.
  template <typename Call>
  std::invoke_result_t<const Call&, GaeaClient*> ReplicaFirst(
      bool read_your_writes, const Call& call);

  std::mutex mu_;
  Options options_;
  Conn primary_;
  std::vector<Conn> replicas_;
  size_t next_replica_ = 0;  // round-robin cursor
  std::atomic<uint64_t> token_{0};
};

}  // namespace gaea::net

#endif  // GAEA_NET_CLUSTER_CLIENT_H_
