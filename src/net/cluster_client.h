// GaeaClusterClient: one client over a primary + N read replicas
// (docs/ROBUSTNESS.md "Replication & failover").
//
// Routing policy, read from each verb's kVerbs row (wire.h):
//   * verbs a replica refuses (ddl, insert-object) go to the primary and
//     use the full retry/idempotency machinery, so a primary that is
//     killed and supervised back to life mid-call costs latency, never
//     correctness — the retried request is deduplicated server-side;
//   * every other verb (derive, derive-batch, get-object) tries one
//     replica, round-robin, stamped with the client's read-your-writes
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

  Status ExecuteDdl(const std::string& source);
  StatusOr<Oid> InsertObject(const InsertObjectRequest& request);
  StatusOr<Oid> Derive(const std::string& process,
                       const std::map<std::string, std::vector<Oid>>& inputs,
                       int version = 0, bool* cache_hit = nullptr);
  StatusOr<std::vector<DeriveOutcome>> DeriveBatch(
      const std::vector<DeriveRequest>& requests);
  StatusOr<std::string> GetObjectRaw(Oid oid);

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

  // Runs `call` (GaeaClient* -> Status or StatusOr), which sends one
  // `type` request, under mu_, and folds the answering endpoints' LSNs
  // into the token. A verb replicas serve gets one replica attempt
  // (round-robin, stamped with the token as min_lsn) before the primary;
  // a verb they refuse goes to the primary only.
  template <typename Call>
  std::invoke_result_t<const Call&, GaeaClient*> Route(MsgType type,
                                                       const Call& call);

  std::mutex mu_;
  Options options_;
  Conn primary_;
  std::vector<Conn> replicas_;
  size_t next_replica_ = 0;  // round-robin cursor
  std::atomic<uint64_t> token_{0};
};

}  // namespace gaea::net

#endif  // GAEA_NET_CLUSTER_CLIENT_H_
