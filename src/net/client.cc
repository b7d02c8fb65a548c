#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/trace.h"

namespace gaea::net {

namespace {

// Transport-level failures (send/recv error, connection closed, failed
// reconnect) surface as kIOError; the server signals backpressure and
// drain with kUnavailable. Both mean "the request may not have executed —
// try again"; everything else is a real answer.
bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIOError;
}

}  // namespace

bool ParseHostPort(std::string_view text, std::string* host, int* port) {
  size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  std::string_view digits = text.substr(colon + 1);
  if (digits.empty()) return false;
  int value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > 65535) return false;
  }
  if (value == 0) return false;
  *host = std::string(text.substr(0, colon));
  *port = value;
  return true;
}

GaeaClient::GaeaClient(std::string host, int port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {
  std::random_device rd;
  rng_.seed((static_cast<uint64_t>(rd()) << 32) ^ rd());
  while (options_.idem_nonce == 0) options_.idem_nonce = rng_();
}

StatusOr<std::unique_ptr<GaeaClient>> GaeaClient::Connect(
    const std::string& host, int port) {
  return Connect(host, port, Options());
}

StatusOr<std::unique_ptr<GaeaClient>> GaeaClient::Connect(
    const std::string& host, int port, Options options) {
  std::unique_ptr<GaeaClient> client(new GaeaClient(host, port, options));
  std::lock_guard<std::mutex> lock(client->mu_);
  GAEA_RETURN_IF_ERROR(client->ConnectLocked());
  return client;
}

std::unique_ptr<GaeaClient> GaeaClient::Create(const std::string& host,
                                               int port, Options options) {
  return std::unique_ptr<GaeaClient>(new GaeaClient(host, port, options));
}

GaeaClient::~GaeaClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status GaeaClient::ConnectLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  frames_ = FrameBuffer();  // drop bytes of the dead connection

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  int rc = ::getaddrinfo(host_.c_str(), std::to_string(port_).c_str(), &hints,
                         &resolved);
  if (rc != 0) {
    return Status::IOError("resolve " + host_ + ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no addresses";
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    return Status::IOError("connect " + host_ + ":" + std::to_string(port_) +
                           ": " + last_error);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;

  BinaryWriter hello;
  EncodeHello(&hello);
  Status shaken = CallOnceLocked(MsgType::kHello, ++next_id_, hello.buffer())
                      .status();
  if (!shaken.ok()) {
    ::close(fd_);
    fd_ = -1;
  }
  return shaken;
}

StatusOr<GaeaClient::Reply> GaeaClient::CallOnceLocked(
    MsgType type, uint64_t id, std::string_view body) {
  // When tracing is on this span covers the send and the wait for the
  // reply, and mints a trace id if the caller has none; the id rides the
  // request header so the server's spans land in the same trace. A retry
  // makes a fresh rpc span but keeps the trace.
  const Verb& verb = VerbOf(type);
  obs::SpanGuard rpc_span(std::string("rpc:") + verb.name, "client");
  RequestHeader header;
  header.type = type;
  header.id = id;
  header.deadline_ms = options_.deadline_ms;
  header.trace_id = obs::Tracer::CurrentContext().trace_id;
  header.min_lsn = min_lsn_.load(std::memory_order_relaxed);
  if (verb.retry == OnRetry::kReplay) header.idem = options_.idem_nonce;
  BinaryWriter payload;
  EncodeRequestHeader(header, &payload);
  payload.PutRaw(body.data(), body.size());
  GAEA_RETURN_IF_ERROR(
      SendFrame(fd_, EncodeFrameHeader(payload.buffer()), payload.buffer()));

  for (;;) {
    Reply reply;
    GAEA_ASSIGN_OR_RETURN(bool have, frames_.Next(&reply.payload));
    if (!have) {
      bool closed = false;
      GAEA_RETURN_IF_ERROR(RecvInto(fd_, &frames_, &closed));
      if (closed) {
        return Status::IOError("server closed the connection");
      }
      continue;
    }
    BinaryReader reader(reply.payload);
    GAEA_ASSIGN_OR_RETURN(ResponseHeader rh, DecodeResponseHeader(&reader));
    if (rh.id != header.id) continue;  // stale answer from a prior timeout
    // Track the largest cluster LSN seen even on errors — the header is
    // stamped regardless of the outcome.
    uint64_t seen = applied_lsn_.load(std::memory_order_relaxed);
    while (rh.applied_lsn > seen &&
           !applied_lsn_.compare_exchange_weak(seen, rh.applied_lsn,
                                               std::memory_order_relaxed)) {
    }
    GAEA_RETURN_IF_ERROR(ResponseStatus(rh));
    reply.body_offset = reader.position();
    return reply;
  }
}

StatusOr<GaeaClient::Reply> GaeaClient::Call(MsgType type,
                                             std::string_view body) {
  std::lock_guard<std::mutex> lock(mu_);
  // One id for all attempts: paired with the idempotency nonce it names
  // *this piece of work*, letting the server recognize a retry of a request
  // it already ran.
  uint64_t id = ++next_id_;
  const RetryPolicy& retry = options_.retry;
  auto start = std::chrono::steady_clock::now();
  double backoff_ms = static_cast<double>(retry.initial_backoff_ms);
  Status last = Status::OK();
  for (int attempt = 1;; ++attempt) {
    if (fd_ < 0) {
      last = ConnectLocked();
    } else {
      last = Status::OK();
    }
    if (last.ok()) {
      auto reply = CallOnceLocked(type, id, body);
      if (reply.ok()) return reply;
      last = reply.status();
      if (last.code() == StatusCode::kIOError) {
        // The transport is suspect; force a fresh connection next attempt.
        ::close(fd_);
        fd_ = -1;
      }
    }
    if (!IsRetryable(last) || attempt >= retry.max_attempts) return last;
    // Full jitter: sleep a uniform slice of the exponential backoff, so a
    // herd of clients that failed together does not retry together.
    int64_t cap = static_cast<int64_t>(backoff_ms);
    if (cap < 1) cap = 1;
    int64_t sleep_ms = static_cast<int64_t>(rng_() % static_cast<uint64_t>(cap)) + 1;
    if (retry.deadline_ms > 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      if (elapsed + sleep_ms > retry.deadline_ms) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms *= retry.multiplier;
    if (backoff_ms > retry.max_backoff_ms) {
      backoff_ms = static_cast<double>(retry.max_backoff_ms);
    }
  }
}

Status GaeaClient::Ping() { return Call(MsgType::kPing, {}).status(); }

Status GaeaClient::ExecuteDdl(const std::string& source) {
  BinaryWriter body;
  body.PutString(source);
  return Call(MsgType::kDdl, body.buffer()).status();
}

StatusOr<Oid> GaeaClient::Derive(
    const std::string& process,
    const std::map<std::string, std::vector<Oid>>& inputs, int version,
    bool* cache_hit) {
  DeriveRequest request;
  request.process = process;
  request.version = version;
  request.inputs = inputs;
  BinaryWriter body;
  EncodeDeriveRequest(request, &body);
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kDerive, body.buffer()));
  BinaryReader reader(reply.body());
  GAEA_ASSIGN_OR_RETURN(Oid oid, reader.GetU64());
  GAEA_ASSIGN_OR_RETURN(bool hit, reader.GetBool());
  if (cache_hit != nullptr) *cache_hit = hit;
  return oid;
}

StatusOr<std::vector<DeriveOutcome>> GaeaClient::DeriveBatch(
    const std::vector<DeriveRequest>& requests) {
  BinaryWriter body;
  body.PutU32(static_cast<uint32_t>(requests.size()));
  for (const DeriveRequest& request : requests) {
    EncodeDeriveRequest(request, &body);
  }
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kDeriveBatch, body.buffer()));
  BinaryReader reader(reply.body());
  GAEA_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  // A DeriveOutcome encodes to at least 14 bytes (code, message length
  // prefix, oid, cache bit), bounding how many fit in the reply.
  GAEA_RETURN_IF_ERROR(CheckCount(reader, count, 14));
  std::vector<DeriveOutcome> outcomes;
  outcomes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    GAEA_ASSIGN_OR_RETURN(DeriveOutcome outcome, DecodeDeriveOutcome(&reader));
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

StatusOr<ProvenanceReply> GaeaClient::Provenance(
    const ProvenanceRequest& request) {
  BinaryWriter body;
  EncodeProvenanceRequest(request, &body);
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kProvenance, body.buffer()));
  BinaryReader reader(reply.body());
  return DecodeProvenanceReply(&reader);
}

StatusOr<std::string> GaeaClient::StatsJson() {
  GAEA_ASSIGN_OR_RETURN(Reply reply, Call(MsgType::kStats, {}));
  BinaryReader reader(reply.body());
  return reader.GetString();
}

StatusOr<std::string> GaeaClient::Metrics() {
  GAEA_ASSIGN_OR_RETURN(Reply reply, Call(MsgType::kMetrics, {}));
  BinaryReader reader(reply.body());
  return reader.GetString();
}

StatusOr<std::vector<Diagnostic>> GaeaClient::Lint() {
  GAEA_ASSIGN_OR_RETURN(Reply reply, Call(MsgType::kLint, {}));
  BinaryReader reader(reply.body());
  return DecodeLintReply(&reader);
}

StatusOr<CheckpointReply> GaeaClient::Checkpoint() {
  GAEA_ASSIGN_OR_RETURN(Reply reply, Call(MsgType::kCheckpoint, {}));
  BinaryReader reader(reply.body());
  return DecodeCheckpointReply(&reader);
}

StatusOr<ShipReply> GaeaClient::ShipBatch(const ShipRequest& request) {
  BinaryWriter body;
  EncodeShipRequest(request, &body);
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kShipBatch, body.buffer()));
  BinaryReader reader(reply.body());
  return DecodeShipReply(&reader);
}

StatusOr<ReplicaStatusReply> GaeaClient::ReplicaStatus() {
  GAEA_ASSIGN_OR_RETURN(Reply reply, Call(MsgType::kReplicaStatus, {}));
  BinaryReader reader(reply.body());
  return DecodeReplicaStatusReply(&reader);
}

StatusOr<Oid> GaeaClient::InsertObject(const InsertObjectRequest& request) {
  BinaryWriter body;
  EncodeInsertObjectRequest(request, &body);
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kInsertObject, body.buffer()));
  BinaryReader reader(reply.body());
  return reader.GetU64();
}

StatusOr<std::string> GaeaClient::GetObjectRaw(Oid oid) {
  BinaryWriter body;
  body.PutU64(oid);
  GAEA_ASSIGN_OR_RETURN(Reply reply,
                        Call(MsgType::kGetObject, body.buffer()));
  BinaryReader reader(reply.body());
  GAEA_ASSIGN_OR_RETURN(uint32_t size, reader.GetU32());
  if (reader.remaining() < size) {
    return Status::Corruption("object reply truncated");
  }
  // The received frame becomes the result: the object's bytes are slid to
  // the front of the buffer they arrived in rather than copied out of it.
  std::string& bytes = reply.payload;
  bytes.erase(0, reply.body_offset + reader.position());
  bytes.resize(size);
  return std::move(bytes);
}

}  // namespace gaea::net
