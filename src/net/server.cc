#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "catalog/class_def.h"
#include "catalog/data_object.h"
#include "core/process.h"
#include "obs/trace.h"

namespace gaea::net {

namespace {

void AppendField(std::string* json, const char* key, uint64_t value,
                 bool first = false) {
  if (!first) *json += ',';
  *json += '"';
  *json += key;
  *json += "\":";
  *json += std::to_string(value);
}

}  // namespace

std::string ServerStats::ToJson() const {
  std::string json = "{";
  AppendField(&json, "sessions_opened", sessions_opened, /*first=*/true);
  AppendField(&json, "sessions_active", sessions_active);
  AppendField(&json, "requests_total", requests_total);
  AppendField(&json, "requests_ok", requests_ok);
  AppendField(&json, "requests_error", requests_error);
  AppendField(&json, "rejected_overload", rejected_overload);
  AppendField(&json, "rejected_deadline", rejected_deadline);
  AppendField(&json, "dedup_hits", dedup_hits);
  AppendField(&json, "in_flight", in_flight);
  AppendField(&json, "bytes_in", bytes_in);
  AppendField(&json, "bytes_out", bytes_out);
  AppendField(&json, "latency_micros_total", latency_micros_total);
  AppendField(&json, "latency_micros_max", latency_micros_max);
  uint64_t answered = requests_ok + requests_error;
  AppendField(&json, "latency_micros_avg",
              answered == 0 ? 0 : latency_micros_total / answered);
  json += '}';
  return json;
}

GaeaServer::GaeaServer(GaeaKernel* kernel, Options options)
    : kernel_(kernel),
      env_(kernel->env() != nullptr ? kernel->env() : Env::Default()),
      options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_inflight < 1) options_.max_inflight = 1;
  if (options_.dedup_capacity < 1) options_.dedup_capacity = 1;
  obs::MetricsRegistry& reg = kernel_->metrics();
  in_flight_ = reg.GetGauge("gaead_in_flight");
  sessions_opened_ = reg.GetCounter("gaead_sessions_opened_total");
  requests_total_ = reg.GetCounter("gaead_requests_total");
  requests_ok_ = reg.GetCounter("gaead_requests_ok_total");
  requests_error_ = reg.GetCounter("gaead_requests_error_total");
  rejected_overload_ = reg.GetCounter("gaead_rejected_overload_total");
  rejected_deadline_ = reg.GetCounter("gaead_rejected_deadline_total");
  dedup_hits_ = reg.GetCounter("gaead_dedup_hits_total");
  bytes_in_ = reg.GetCounter("gaead_bytes_in_total");
  bytes_out_ = reg.GetCounter("gaead_bytes_out_total");
  latency_micros_total_ = reg.GetCounter("gaead_request_latency_micros_total");
  request_latency_us_ = reg.GetHistogram("gaead_request_latency_micros");
  latency_micros_max_gauge_ = reg.GetGauge("gaead_request_latency_max_micros");
}

GaeaServer::~GaeaServer() { Shutdown(); }

Status GaeaServer::Start() {
  if (state_.load() != State::kIdle) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IOError("bind " + options_.host + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status status =
        Status::IOError("listen: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  state_.store(State::kRunning);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.workers);
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.checkpoint_poll_ms > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

void GaeaServer::CheckpointLoop() {
  // Sleep in short slices so Shutdown is never stuck behind a long poll
  // interval; the actual work happens at most every checkpoint_poll_ms.
  int64_t slept_ms = 0;
  for (;;) {
    if (draining_.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    slept_ms += 50;
    if (slept_ms < options_.checkpoint_poll_ms) continue;
    slept_ms = 0;
    std::shared_lock<std::shared_mutex> lock(kernel_mu_);
    // Policy misfires (e.g. a full disk) surface in the kernel's
    // checkpoint-failure counter and metrics; the loop itself keeps going.
    (void)kernel_->MaybeCheckpoint();
  }
}

void GaeaServer::AcceptLoop() {
  for (;;) {
    if (draining_.load(std::memory_order_acquire)) return;
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    ReapDoneSessions();
    if (ready == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sessions_opened_->Inc();
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      uint64_t id = next_session_id_++;
      session = std::make_shared<Session>(this, fd, id);
      sessions_[id] = session;
    }
    session->Start();
  }
}

void GaeaServer::OnSessionDone(uint64_t) {
  // Reaping happens on the accept thread (and in Shutdown); the reader
  // thread that calls this must not destroy its own Session.
}

void GaeaServer::ReapDoneSessions() {
  std::vector<std::shared_ptr<Session>> dead;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->done()) {
        dead.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : dead) session->Join();
  // Destructors run here, off the sessions_mu_ lock and off reader threads.
}

StatusOr<ProvenanceReply> AnswerProvenance(GaeaKernel* kernel,
                                           const ProvenanceRequest& request) {
  ProvenanceReply reply;
  reply.kind = request.kind;
  Status status;
  // Renders any engine answer into the reply; false on an error.
  auto render = [&](const auto& answer) {
    if (!answer.ok()) {
      status = answer.status();
      return false;
    }
    reply.text = answer->ToText();
    reply.json = answer->ToJson();
    return true;
  };
  const Oid oid = request.oid;
  const int max_depth = static_cast<int>(request.max_depth);
  switch (request.kind) {
    case ProvenanceKind::kAncestors:
    case ProvenanceKind::kDescendants: {
      auto closure = request.kind == ProvenanceKind::kAncestors
                         ? kernel->ProvenanceAncestors(oid, max_depth)
                         : kernel->ProvenanceDescendants(oid, max_depth);
      if (render(closure)) {
        reply.oids = closure->oids;
        reply.tasks = closure->tasks;
      }
      break;
    }
    case ProvenanceKind::kWhy:
      render(kernel->ProvenanceWhy(oid));
      break;
    case ProvenanceKind::kWhere:
      render(kernel->ProvenanceWhere(oid));
      break;
    case ProvenanceKind::kDiff:
      render(kernel->ProvenanceDiff(oid, request.oid_b));
      break;
    case ProvenanceKind::kChain: {
      auto chain = kernel->ProvenanceChain(oid);
      if (render(chain)) reply.oids = chain->base_sources;
      break;
    }
  }
  GAEA_RETURN_IF_ERROR(status);
  return reply;
}

void GaeaServer::HandleFrame(std::shared_ptr<Session> session,
                             std::string payload) {
  BinaryReader reader(payload);
  auto header_or = DecodeRequestHeader(&reader);
  requests_total_->Inc();
  if (!header_or.ok()) {
    Respond(*session, 0, MsgType::kPing, 0, header_or.status(), {});
    session->Close();
    return;
  }
  RequestHeader header = *header_or;
  // An untraced request gets a server-minted trace id when tracing is on,
  // so its spans still form one tree; the id is echoed in the response
  // either way.
  if (header.trace_id == 0 && obs::Tracer::Global().enabled()) {
    header.trace_id = obs::Tracer::Global().NewTraceId();
  }

  if (header.type == MsgType::kHello) {
    Status hello = DecodeAndCheckHello(&reader);
    if (hello.ok()) {
      session->set_handshaken();
      BinaryWriter body;
      body.PutU16(kProtocolVersion);
      Respond(*session, header.id, header.type, header.trace_id, hello,
              body.buffer());
    } else {
      Respond(*session, header.id, header.type, header.trace_id, hello, {});
      session->Close();
    }
    return;
  }
  if (!session->handshaken()) {
    Respond(*session, header.id, header.type, header.trace_id,
            Status::FailedPrecondition("hello handshake required"), {});
    session->Close();
    return;
  }
  session->counters().requests.fetch_add(1, std::memory_order_relaxed);

  switch (header.type) {
    case MsgType::kPing:
      Respond(*session, header.id, header.type, header.trace_id, Status::OK(),
              {});
      return;
    case MsgType::kStats: {
      std::string json = StatsJson();
      BinaryWriter body;
      body.PutString(json);
      Respond(*session, header.id, header.type, header.trace_id, Status::OK(),
              body.buffer());
      return;
    }
    case MsgType::kMetrics: {
      // Prometheus text exposition of every instrument in the kernel's
      // registry (gaea_* kernel metrics and gaead_* serving metrics). The
      // shared lock keeps the scrape-time collectors from racing a DDL.
      std::string text;
      {
        std::shared_lock<std::shared_mutex> lock(kernel_mu_);
        text = kernel_->metrics().Render();
      }
      BinaryWriter body;
      body.PutString(text);
      Respond(*session, header.id, header.type, header.trace_id, Status::OK(),
              body.buffer());
      return;
    }
    default:
      break;
  }

  // Kernel-bound request: idempotency check, bounded admission, then the
  // worker pool.
  if (header.idem != 0 && DedupBegin(*session, header)) return;
  Job job;
  job.session = std::move(session);
  job.header = header;
  job.body_offset = reader.position();
  job.payload = std::move(payload);
  job.admitted_us = env_->NowMicros();
  // Admission is decided under queue_mu_, but the rejection response is
  // sent after the lock is dropped: Respond() is a blocking socket send,
  // and a peer that stops reading must only be able to stall its own
  // reader thread, never the lock that workers and Shutdown depend on.
  Status rejected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load(std::memory_order_acquire)) {
      rejected = Status::Unavailable("server is shutting down");
    } else if (in_flight_->value() >=
               static_cast<int64_t>(options_.max_inflight)) {
      rejected_overload_->Inc();
      rejected = Status::Unavailable(
          "server overloaded: " + std::to_string(options_.max_inflight) +
          " requests already in flight; retry later");
    } else {
      in_flight_->Add(1);
      queue_.push_back(std::move(job));
    }
  }
  if (!rejected.ok()) {
    // The request never ran; a retry must be allowed to execute.
    if (header.idem != 0) DedupAbort(header);
    Respond(*job.session, header.id, header.type, header.trace_id, rejected,
            {});
    return;
  }
  queue_cv_.notify_one();
}

bool GaeaServer::DedupBegin(Session& session, const RequestHeader& header) {
  DedupKey key{header.idem, header.id};
  std::string cached;
  bool pending = false;
  {
    std::lock_guard<std::mutex> lock(dedup_mu_);
    auto it = dedup_.find(key);
    if (it == dedup_.end()) {
      dedup_[key];  // install the pending marker (DedupEntry{pending=true})
      return false;
    }
    if (it->second.pending) {
      pending = true;
    } else {
      cached = it->second.response;
      // Refresh recency so a retried-then-reused entry survives eviction.
      dedup_lru_.splice(dedup_lru_.end(), dedup_lru_, it->second.lru);
    }
  }
  if (pending) {
    // The original is still executing; answering anything else could make
    // the retry observe a different outcome than the first send.
    Respond(session, header.id, header.type, header.trace_id,
            Status::Unavailable("request " + std::to_string(header.id) +
                                " is still executing; retry later"),
            {});
    return true;
  }
  dedup_hits_->Inc();
  // The cached bytes carry the original execution's trace id, so the retry
  // is stitched to the spans that actually ran — the replay itself records
  // no spans and re-counts no execution metrics.
  (void)session.Send(cached);
  return true;
}

void GaeaServer::DedupFinish(const RequestHeader& header, const Status& result,
                             std::string encoded) {
  DedupKey key{header.idem, header.id};
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(key);
  if (it == dedup_.end()) return;
  if (result.code() == StatusCode::kUnavailable) {
    // Rejections (deadline expiry) mean the request never executed; drop
    // the marker so the retry can run for real.
    dedup_.erase(it);
    return;
  }
  it->second.pending = false;
  it->second.response = std::move(encoded);
  it->second.lru = dedup_lru_.insert(dedup_lru_.end(), key);
  while (dedup_lru_.size() > options_.dedup_capacity) {
    dedup_.erase(dedup_lru_.front());
    dedup_lru_.pop_front();
  }
}

void GaeaServer::DedupAbort(const RequestHeader& header) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto it = dedup_.find(DedupKey{header.idem, header.id});
  if (it != dedup_.end() && it->second.pending) dedup_.erase(it);
}

void GaeaServer::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteJob(std::move(job));
  }
}

void GaeaServer::ExecuteJob(Job job) {
  const RequestHeader& header = job.header;
  if (header.deadline_ms > 0) {
    uint64_t now_us = env_->NowMicros();
    uint64_t waited_us = now_us > job.admitted_us ? now_us - job.admitted_us : 0;
    if (waited_us > static_cast<uint64_t>(header.deadline_ms) * 1000) {
      rejected_deadline_->Inc();
      Status expired = Status::Unavailable(
          "deadline of " + std::to_string(header.deadline_ms) +
          " ms expired before execution");
      if (header.idem != 0) DedupAbort(header);
      Respond(*job.session, header.id, header.type, header.trace_id, expired,
              {});
      FinishJob(job, expired);
      return;
    }
  }

  // Read-your-writes gate: a request stamped with min_lsn must observe at
  // least that much applied history. A primary trivially satisfies its own
  // writes; a lagging replica waits a bounded time for the applier, then
  // bounces the request back (kUnavailable is never dedup-recorded, so the
  // client's retry on another endpoint executes for real).
  if (header.min_lsn > 0) {
    Status wait = WaitForMinLsn(header.min_lsn);
    if (!wait.ok()) {
      if (header.idem != 0) DedupAbort(header);
      Respond(*job.session, header.id, header.type, header.trace_id, wait, {});
      FinishJob(job, wait);
      return;
    }
  }

  // The request's trace becomes this worker thread's ambient context, so
  // every span below (kernel derive-batch, scheduler tasks, operators)
  // parents into it.
  obs::ScopedContext trace_scope(obs::TraceContext{header.trace_id, 0});
  obs::SpanGuard request_span(
      std::string("request:") + MsgTypeName(header.type), "server");

  // Capacity-modeling stall for benchmarks (Options::service_floor_us):
  // occupies the worker exactly like a slow storage or external-procedure
  // call would, without burning CPU the client threads need.
  if (options_.service_floor_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.service_floor_us));
  }

  BinaryReader reader(std::string_view(job.payload).substr(job.body_offset));
  Status result = Status::OK();
  // The reply is built in one buffer: the body is encoded behind room for
  // an OK response header, which is filled in once the result is known, so
  // a large body (a GetObject raster) is never copied to be framed.
  BinaryWriter body(std::string(kOkResponseHeaderBytes, '\0'));
  switch (header.type) {
    case MsgType::kDdl: {
      if (options_.replica) {
        result = Status::FailedPrecondition(
            "replica is read-only; run ddl on the primary");
        break;
      }
      auto source = reader.GetString();
      if (!source.ok()) {
        result = source.status();
        break;
      }
      std::unique_lock<std::shared_mutex> lock(kernel_mu_);
      result = kernel_->ExecuteDdl(*source);
      break;
    }
    case MsgType::kDefineProcess: {
      if (options_.replica) {
        result = Status::FailedPrecondition(
            "replica is read-only; define processes on the primary");
        break;
      }
      auto def = ProcessDef::Deserialize(&reader);
      if (!def.ok()) {
        result = def.status();
        break;
      }
      std::unique_lock<std::shared_mutex> lock(kernel_mu_);
      auto version = kernel_->DefineProcess(*std::move(def));
      if (version.ok()) {
        body.PutI32(*version);
      } else {
        result = version.status();
      }
      break;
    }
    case MsgType::kDerive: {
      auto request = DecodeDeriveRequest(&reader);
      if (!request.ok()) {
        result = request.status();
        break;
      }
      std::shared_lock<std::shared_mutex> lock(kernel_mu_);
      if (options_.replica) {
        // Replicas only answer derivations that already ran somewhere:
        // a novel request is kNotFound and the client bounces it to the
        // primary, so history never forks.
        auto oid = kernel_->TryRecordedDerive(request->process,
                                              request->inputs,
                                              request->version);
        if (!oid.ok()) {
          result = oid.status();
        } else {
          body.PutU64(*oid);
          body.PutBool(true);
        }
        break;
      }
      auto outcomes = kernel_->DeriveBatch({*request});
      if (!outcomes.ok()) {
        result = outcomes.status();
      } else if (!(*outcomes)[0].status.ok()) {
        result = (*outcomes)[0].status;
      } else {
        body.PutU64((*outcomes)[0].oid);
        body.PutBool((*outcomes)[0].cache_hit);
      }
      break;
    }
    case MsgType::kDeriveBatch: {
      std::vector<DeriveRequest> requests;
      auto count = reader.GetU32();
      if (!count.ok()) {
        result = count.status();
        break;
      }
      // A DeriveRequest encodes to at least 12 bytes (process length prefix,
      // version, input count), bounding how many fit in the payload.
      result = CheckCount(reader, *count, 12);
      if (!result.ok()) break;
      requests.reserve(*count);
      for (uint32_t i = 0; i < *count && result.ok(); ++i) {
        auto request = DecodeDeriveRequest(&reader);
        if (!request.ok()) {
          result = request.status();
        } else {
          requests.push_back(*std::move(request));
        }
      }
      if (!result.ok()) break;
      std::shared_lock<std::shared_mutex> lock(kernel_mu_);
      if (options_.replica) {
        // All-or-nothing: one novel request bounces the whole batch to the
        // primary (the partial answers would be recomputed there anyway).
        body.PutU32(static_cast<uint32_t>(requests.size()));
        for (const DeriveRequest& request : requests) {
          auto oid = kernel_->TryRecordedDerive(request.process,
                                                request.inputs,
                                                request.version);
          if (!oid.ok()) {
            result = oid.status();
            break;
          }
          DeriveOutcome outcome;
          outcome.oid = *oid;
          outcome.cache_hit = true;
          EncodeDeriveOutcome(outcome, &body);
        }
        break;
      }
      auto outcomes = kernel_->DeriveBatch(requests);
      if (!outcomes.ok()) {
        result = outcomes.status();
        break;
      }
      body.PutU32(static_cast<uint32_t>(outcomes->size()));
      for (const DeriveOutcome& outcome : *outcomes) {
        EncodeDeriveOutcome(outcome, &body);
      }
      break;
    }
    case MsgType::kProvenance: {
      // Pure read over the provenance index — replica-servable: the index
      // is rebuilt from the same replicated task history the primary holds.
      auto request = DecodeProvenanceRequest(&reader);
      if (!request.ok()) {
        result = request.status();
        break;
      }
      std::shared_lock<std::shared_mutex> lock(kernel_mu_);
      auto reply = AnswerProvenance(kernel_, *request);
      if (!reply.ok()) {
        result = reply.status();
        break;
      }
      EncodeProvenanceReply(*reply, &body);
      break;
    }
    case MsgType::kLint: {
      // Read-only to callers, but LintCatalog memoizes into the kernel's
      // analysis cache, so it takes the exclusive lock like a DDL.
      std::unique_lock<std::shared_mutex> lock(kernel_mu_);
      EncodeLintReply(kernel_->LintCatalog(), &body);
      break;
    }
    case MsgType::kCheckpoint: {
      // Shared: checkpoints are fuzzy against derivations and inserts, and
      // the shared lock excludes exactly what they must not race — DDL
      // (process/experiment definition runs exclusive). Concurrent
      // checkpoint requests serialize on the kernel's internal mutex.
      std::shared_lock<std::shared_mutex> lock(kernel_mu_);
      auto info = kernel_->Checkpoint();
      if (!info.ok()) {
        result = info.status();
        break;
      }
      CheckpointReply reply;
      reply.seq = info->seq;
      reply.duration_us = info->duration_us;
      reply.snapshot_bytes = info->snapshot_bytes;
      reply.truncated_records = info->truncated_records;
      EncodeCheckpointReply(reply, &body);
      break;
    }
    case MsgType::kSubscribe:
      result = HandleSubscribe(&reader, &body);
      break;
    case MsgType::kShipBatch:
      result = HandleShipBatch(&reader, &body);
      break;
    case MsgType::kReplicaStatus:
      result = HandleReplicaStatus(&body);
      break;
    case MsgType::kInsertObject:
      result = HandleInsertObject(&reader, &body);
      break;
    case MsgType::kGetObject:
      result = HandleGetObject(&reader, &body);
      break;
    default:
      result = Status::Internal(std::string("request type ") +
                                MsgTypeName(header.type) +
                                " on the worker path");
      break;
  }
  std::string encoded = EncodeResponsePayload(header.id, header.type,
                                              header.trace_id, result, {});
  if (result.ok()) {
    // The body sits behind room for exactly this header.
    assert(encoded.size() == kOkResponseHeaderBytes);
    std::string reply = body.Release();
    std::memcpy(reply.data(), encoded.data(), encoded.size());
    encoded = std::move(reply);
  }
  // Record the response in the idempotency cache BEFORE it can reach the
  // client: once the client holds the reply it may retry immediately, and
  // that retry must find the completed entry, not the pending marker.
  if (header.idem != 0) DedupFinish(header, result, encoded);
  CountResponse(result);
  (void)job.session->Send(encoded);
  FinishJob(job, result);
}

void GaeaServer::FinishJob(const Job& job, const Status& result) {
  // Rejections (kUnavailable, e.g. deadline expiry) are excluded from the
  // latency counters: they measure queue wait, not request service time,
  // and the avg divides by requests_ok + requests_error which excludes them.
  if (result.code() != StatusCode::kUnavailable) {
    uint64_t now_us = env_->NowMicros();
    uint64_t latency = now_us > job.admitted_us ? now_us - job.admitted_us : 0;
    latency_micros_total_->Inc(latency);
    request_latency_us_->Observe(latency);
    uint64_t prev = latency_micros_max_.load(std::memory_order_relaxed);
    while (latency > prev && !latency_micros_max_.compare_exchange_weak(
                                 prev, latency, std::memory_order_relaxed)) {
    }
    latency_micros_max_gauge_->Set(
        static_cast<int64_t>(latency_micros_max_.load(std::memory_order_relaxed)));
  }
  in_flight_->Sub(1);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
  }
  drained_cv_.notify_all();
}

std::string GaeaServer::EncodeResponsePayload(uint64_t id,
                                              MsgType request_type,
                                              uint64_t trace_id,
                                              const Status& status,
                                              std::string_view body) const {
  ResponseHeader header;
  header.id = id;
  header.request_type = request_type;
  header.code = status.code();
  header.message = status.message();
  header.trace_id = trace_id;
  // Every response — even an error — carries the server's current cluster
  // LSN; clients max it into their read-your-writes token.
  header.applied_lsn = kernel_->ClusterLsn();
  BinaryWriter payload;
  EncodeResponseHeader(header, &payload);
  if (status.ok()) payload.PutRaw(body.data(), body.size());
  return payload.buffer();
}

Status GaeaServer::WithExclusiveKernel(const std::function<Status()>& fn) {
  std::unique_lock<std::shared_mutex> lock(kernel_mu_);
  return fn();
}

Status GaeaServer::WaitForMinLsn(uint64_t min_lsn) {
  if (kernel_->ClusterLsn() >= min_lsn) return Status::OK();
  int waited_ms = 0;
  while (waited_ms < options_.replica_wait_ms &&
         !draining_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    waited_ms += 5;
    if (kernel_->ClusterLsn() >= min_lsn) return Status::OK();
  }
  return Status::Unavailable(
      "behind: applied LSN " + std::to_string(kernel_->ClusterLsn()) +
      " < requested min_lsn " + std::to_string(min_lsn));
}

Status GaeaServer::HandleSubscribe(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(std::string replica_id, r->GetString());
  SubscribeReply reply;
  {
    std::shared_lock<std::shared_mutex> lock(kernel_mu_);
    reply.cluster_lsn = kernel_->ClusterLsn();
    for (const auto& [component, count] : kernel_->ReplicationCursors()) {
      reply.components.push_back(ShipCursor{component, count});
    }
  }
  if (!replica_id.empty()) {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peers_[replica_id].last_seen_us = env_->NowMicros();
  }
  EncodeSubscribeReply(reply, body);
  return Status::OK();
}

Status GaeaServer::HandleShipBatch(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(ShipRequest request, DecodeShipRequest(r));
  ShipReply reply;
  // The sum of the replica's cursors is its applied cluster LSN — what it
  // is acknowledging by asking for everything past them.
  uint64_t acked = 0;
  // Keep the whole reply under the frame bound even if every component's
  // per-component byte budget is maxed out.
  size_t budget = static_cast<size_t>(12) << 20;
  {
    std::shared_lock<std::shared_mutex> lock(kernel_mu_);
    reply.primary_lsn = kernel_->ClusterLsn();
    for (const ShipCursor& cursor : request.cursors) {
      acked += cursor.from;
      if (budget == 0) break;
      ShipSegment segment;
      segment.component = cursor.component;
      segment.from = cursor.from;
      uint64_t next = cursor.from;
      GAEA_RETURN_IF_ERROR(kernel_->ShipRange(
          cursor.component, cursor.from, request.max_records,
          std::min<size_t>(request.max_bytes, budget), &segment.records,
          &next));
      for (const std::string& record : segment.records) {
        budget -= std::min(budget, record.size());
      }
      if (!segment.records.empty()) {
        reply.segments.push_back(std::move(segment));
      }
    }
  }
  if (!request.replica_id.empty()) {
    std::lock_guard<std::mutex> lock(peers_mu_);
    PeerState& peer = peers_[request.replica_id];
    peer.acked_lsn = std::max(peer.acked_lsn, acked);
    peer.last_seen_us = env_->NowMicros();
  }
  EncodeShipReply(reply, body);
  return Status::OK();
}

Status GaeaServer::HandleReplicaStatus(BinaryWriter* body) {
  ReplicaStatusReply reply;
  reply.role = options_.replica ? 1 : 0;
  reply.primary = options_.primary;
  {
    std::shared_lock<std::shared_mutex> lock(kernel_mu_);
    reply.cluster_lsn = kernel_->ClusterLsn();
  }
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (const auto& [id, peer] : peers_) {
      reply.peers.push_back(
          ReplicaStatusReply::Peer{id, peer.acked_lsn, peer.last_seen_us});
    }
  }
  EncodeReplicaStatusReply(reply, body);
  return Status::OK();
}

Status GaeaServer::HandleInsertObject(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(InsertObjectRequest request,
                        DecodeInsertObjectRequest(r));
  if (options_.replica) {
    return Status::FailedPrecondition(
        "replica is read-only; insert objects on the primary");
  }
  // Shared, like a derive: object insertion serializes on the catalog's own
  // mutex; the shared kernel lock only excludes concurrent DDL.
  std::shared_lock<std::shared_mutex> lock(kernel_mu_);
  GAEA_ASSIGN_OR_RETURN(
      const ClassDef* def,
      kernel_->catalog().classes().LookupByName(request.class_name));
  DataObject obj(*def);
  for (const auto& [attr, value] : request.attrs) {
    GAEA_RETURN_IF_ERROR(obj.Set(*def, attr, value));
  }
  GAEA_ASSIGN_OR_RETURN(Oid oid, kernel_->Insert(std::move(obj)));
  body->PutU64(oid);
  return Status::OK();
}

Status GaeaServer::HandleGetObject(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(uint64_t oid, r->GetU64());
  std::shared_lock<std::shared_mutex> lock(kernel_mu_);
  // The object's bytes go from the heap pages straight into the reply,
  // behind a u32 length prefix that is patched once the size is known —
  // the same bytes PutString would have written.
  std::string* reply = body->mutable_buffer();
  size_t len_at = reply->size();
  body->PutU32(0);
  GAEA_RETURN_IF_ERROR(kernel_->catalog().store()->GetInto(oid, reply));
  uint32_t len = static_cast<uint32_t>(reply->size() - len_at - 4);
  std::memcpy(reply->data() + len_at, &len, 4);
  return Status::OK();
}

void GaeaServer::CountResponse(const Status& status) {
  if (status.ok()) {
    requests_ok_->Inc();
  } else if (status.code() != StatusCode::kUnavailable) {
    // kUnavailable answers are overload/deadline/drain rejections, already
    // tallied in rejected_*; counting them here too would double-book them.
    requests_error_->Inc();
  }
}

void GaeaServer::Respond(Session& session, uint64_t id, MsgType request_type,
                         uint64_t trace_id, const Status& status,
                         std::string_view body) {
  std::string payload =
      EncodeResponsePayload(id, request_type, trace_id, status, body);
  CountResponse(status);
  // A failed send means the peer vanished; its reader will notice and the
  // session gets reaped, so the error is intentionally not propagated.
  (void)session.Send(payload);
}

ServerStats GaeaServer::stats() const {
  ServerStats stats;
  stats.sessions_opened = sessions_opened_->value();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      if (!session->done()) ++stats.sessions_active;
    }
  }
  stats.requests_total = requests_total_->value();
  stats.requests_ok = requests_ok_->value();
  stats.requests_error = requests_error_->value();
  stats.rejected_overload = rejected_overload_->value();
  stats.rejected_deadline = rejected_deadline_->value();
  stats.dedup_hits = dedup_hits_->value();
  stats.in_flight = static_cast<uint64_t>(in_flight_->value());
  stats.bytes_in = bytes_in_->value();
  stats.bytes_out = bytes_out_->value();
  stats.latency_micros_total = latency_micros_total_->value();
  stats.latency_micros_max =
      latency_micros_max_.load(std::memory_order_relaxed);
  return stats;
}

std::string GaeaServer::StatsJson() const {
  std::string kernel_json;
  {
    std::shared_lock<std::shared_mutex> lock(kernel_mu_);
    kernel_json = kernel_->GetStats().ToJson();
  }
  return "{\"server\":" + stats().ToJson() + ",\"kernel\":" + kernel_json +
         "}";
}

void GaeaServer::Shutdown() {
  if (state_.load() == State::kIdle) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // Someone else is shutting down; wait for them to finish.
    while (state_.load() != State::kStopped) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  // Drain: every admitted request gets executed and answered.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait(lock, [this] {
      return queue_.empty() && in_flight_->value() == 0;
    });
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Definitions and tasks are on disk before any connection is torn down.
  {
    std::unique_lock<std::shared_mutex> lock(kernel_mu_);
    (void)kernel_->Flush();
  }

  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) sessions.push_back(session);
    sessions_.clear();
  }
  for (auto& session : sessions) session->Close();
  for (auto& session : sessions) session->Join();
  sessions.clear();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  state_.store(State::kStopped);
}

}  // namespace gaea::net
