#include "net/cluster_client.h"

#include <random>
#include <utility>

namespace gaea::net {

namespace {

// The status of a call's result, whether it returns Status or StatusOr.
const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& result) {
  return result.status();
}

}  // namespace

GaeaClusterClient::GaeaClusterClient(Endpoint primary,
                                     std::vector<Endpoint> replicas,
                                     Options options)
    : options_(options) {
  // All connections share one idempotency nonce, so a request that fails
  // over between endpoints still names the same piece of work.
  while (options_.idem_nonce == 0) {
    std::random_device rd;
    options_.idem_nonce = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }
  primary_.endpoint = std::move(primary);
  replicas_.reserve(replicas.size());
  for (Endpoint& endpoint : replicas) {
    Conn conn;
    conn.endpoint = std::move(endpoint);
    replicas_.push_back(std::move(conn));
  }
}

GaeaClient* GaeaClusterClient::Dial(Conn* conn, bool primary) {
  if (conn->client == nullptr) {
    GaeaClient::Options copts;
    copts.deadline_ms = options_.deadline_ms;
    copts.idem_nonce = options_.idem_nonce;
    // The primary carries the retry budget; a replica gets one shot — its
    // retry is the fallback to the primary.
    if (primary) copts.retry = options_.retry;
    conn->client = GaeaClient::Create(conn->endpoint.host,
                                      conn->endpoint.port, copts);
  }
  return conn->client.get();
}

void GaeaClusterClient::Absorb(const GaeaClient* client) {
  uint64_t seen = client->applied_lsn();
  uint64_t token = token_.load(std::memory_order_relaxed);
  while (seen > token &&
         !token_.compare_exchange_weak(token, seen,
                                       std::memory_order_relaxed)) {
  }
}

bool GaeaClusterClient::BounceToPrimary(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:        // behind min_lsn / overloaded
    case StatusCode::kIOError:            // replica gone
    case StatusCode::kNotFound:           // derivation not recorded there yet
    case StatusCode::kFailedPrecondition: // replica refuses (read-only etc.)
      return true;
    default:
      return false;
  }
}

template <typename Call>
std::invoke_result_t<const Call&, GaeaClient*> GaeaClusterClient::Route(
    MsgType type, const Call& call) {
  std::lock_guard<std::mutex> lock(mu_);
  if (VerbOf(type).replica == OnReplica::kServe && !replicas_.empty()) {
    Conn& conn = replicas_[next_replica_++ % replicas_.size()];
    GaeaClient* replica = Dial(&conn, /*primary=*/false);
    replica->set_min_lsn(token_.load());
    auto result = call(replica);
    Absorb(replica);
    if (!BounceToPrimary(StatusOf(result))) return result;
  }
  GaeaClient* primary = Dial(&primary_, /*primary=*/true);
  auto result = call(primary);
  Absorb(primary);
  return result;
}

Status GaeaClusterClient::ExecuteDdl(const std::string& source) {
  return Route(MsgType::kDdl,
               [&](GaeaClient* c) { return c->ExecuteDdl(source); });
}

StatusOr<Oid> GaeaClusterClient::InsertObject(
    const InsertObjectRequest& request) {
  return Route(MsgType::kInsertObject,
               [&](GaeaClient* c) { return c->InsertObject(request); });
}

StatusOr<Oid> GaeaClusterClient::Derive(
    const std::string& process,
    const std::map<std::string, std::vector<Oid>>& inputs, int version,
    bool* cache_hit) {
  return Route(MsgType::kDerive, [&](GaeaClient* c) {
    return c->Derive(process, inputs, version, cache_hit);
  });
}

StatusOr<std::vector<DeriveOutcome>> GaeaClusterClient::DeriveBatch(
    const std::vector<DeriveRequest>& requests) {
  return Route(MsgType::kDeriveBatch,
               [&](GaeaClient* c) { return c->DeriveBatch(requests); });
}

StatusOr<std::string> GaeaClusterClient::GetObjectRaw(Oid oid) {
  return Route(MsgType::kGetObject,
               [&](GaeaClient* c) { return c->GetObjectRaw(oid); });
}

}  // namespace gaea::net
