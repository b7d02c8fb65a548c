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
#include <iterator>

#include "catalog/class_def.h"
#include "catalog/data_object.h"
#include "obs/trace.h"

namespace gaea::net {

namespace {

// Whether the idempotency cache remembers this request's reply: only
// replay rows, and only when the client sent a nonce.
bool Dedups(const Verb& verb, const RequestHeader& header) {
  return verb.retry == OnRetry::kReplay && header.idem != 0;
}

}  // namespace

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
  for (size_t i = 0; i < std::size(kVerbs); ++i) {
    if (kVerbs[i].runs != RunsOn::kWorker) continue;
    request_latency_us_[i] = reg.GetHistogram(obs::LabelledName(
        "gaead_request_latency_micros", "verb", kVerbs[i].name));
  }
  latency_micros_max_ = reg.GetGauge("gaead_request_latency_max_micros");
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
      session = std::make_shared<Session>(this, fd);
      sessions_[id] = session;
    }
    session->Start();
  }
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

StatusOr<Oid> AnswerInsert(GaeaKernel* kernel,
                           const InsertObjectRequest& request) {
  GAEA_ASSIGN_OR_RETURN(
      const ClassDef* def,
      kernel->catalog().classes().LookupByName(request.class_name));
  DataObject obj(*def);
  for (const auto& [attr, value] : request.attrs) {
    GAEA_RETURN_IF_ERROR(obj.Set(*def, attr, value));
  }
  return kernel->Insert(std::move(obj));
}

void GaeaServer::HandleFrame(std::shared_ptr<Session> session,
                             std::string payload) {
  BinaryReader reader(payload);
  auto header_or = DecodeRequestHeader(&reader);
  requests_total_->Inc();
  if (!header_or.ok()) {
    Respond(*session, RequestHeader{}, header_or.status());
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
  const bool hello = header.type == MsgType::kHello;
  if (!hello && !session->handshaken()) {
    Respond(*session, header,
            Status::FailedPrecondition("hello handshake required"));
    session->Close();
    return;
  }

  const Verb& verb = VerbOf(header.type);
  if (verb.runs == RunsOn::kReader) {
    BinaryWriter body(std::string(kOkResponseHeaderBytes, '\0'));
    Status result = Run(verb, &reader, &body);
    CountResponse(result);
    (void)session->Send(EncodeResponse(header, result, &body));
    if (hello) {
      if (result.ok()) {
        session->set_handshaken();
      } else {
        session->Close();
      }
    }
    return;
  }

  // Worker verb: idempotency check, bounded admission, then the pool.
  if (Dedups(verb, header) && DedupBegin(*session, header)) return;
  Job job;
  job.session = std::move(session);
  job.verb = &verb;
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
    if (Dedups(verb, header)) DedupAbort(header);
    Respond(*job.session, header, rejected);
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
    Respond(session, header,
            Status::Unavailable("request " + std::to_string(header.id) +
                                " is still executing; retry later"));
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
  const bool dedups = Dedups(*job.verb, header);
  if (header.deadline_ms > 0) {
    uint64_t now_us = env_->NowMicros();
    uint64_t waited_us = now_us > job.admitted_us ? now_us - job.admitted_us : 0;
    if (waited_us > static_cast<uint64_t>(header.deadline_ms) * 1000) {
      rejected_deadline_->Inc();
      Status expired = Status::Unavailable(
          "deadline of " + std::to_string(header.deadline_ms) +
          " ms expired before execution");
      if (dedups) DedupAbort(header);
      Respond(*job.session, header, expired);
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
      if (dedups) DedupAbort(header);
      Respond(*job.session, header, wait);
      FinishJob(job, wait);
      return;
    }
  }

  // The request's trace becomes this worker thread's ambient context, so
  // every span below (kernel derive-batch, scheduler tasks, operators)
  // parents into it.
  obs::ScopedContext trace_scope(obs::TraceContext{header.trace_id, 0});
  obs::SpanGuard request_span(std::string("request:") + job.verb->name,
                              "server");

  // Capacity-modeling stall for benchmarks (Options::service_floor_us):
  // occupies the worker exactly like a slow storage or external-procedure
  // call would, without burning CPU the client threads need.
  if (options_.service_floor_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.service_floor_us));
  }

  BinaryReader reader(std::string_view(job.payload).substr(job.body_offset));
  BinaryWriter body(std::string(kOkResponseHeaderBytes, '\0'));
  Status result = Run(*job.verb, &reader, &body);
  std::string encoded = EncodeResponse(header, result, &body);
  // Record the response in the idempotency cache BEFORE it can reach the
  // client: once the client holds the reply it may retry immediately, and
  // that retry must find the completed entry, not the pending marker.
  if (dedups) DedupFinish(header, result, encoded);
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
    request_latency_us_[job.verb - kVerbs]->Observe(latency);
    latency_micros_max_->SetMax(static_cast<int64_t>(latency));
  }
  in_flight_->Sub(1);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
  }
  drained_cv_.notify_all();
}

std::string GaeaServer::EncodeResponse(const RequestHeader& request,
                                       const Status& status,
                                       BinaryWriter* body) const {
  ResponseHeader header;
  header.id = request.id;
  header.request_type = request.type;
  header.code = status.code();
  header.message = status.message();
  header.trace_id = request.trace_id;
  // Every response — even an error — carries the server's current cluster
  // LSN; clients max it into their read-your-writes token.
  header.applied_lsn = kernel_->ClusterLsn();
  BinaryWriter encoded;
  EncodeResponseHeader(header, &encoded);
  if (!status.ok() || body == nullptr) return encoded.Release();
  // The body sits behind room for exactly this header.
  assert(encoded.size() == kOkResponseHeaderBytes);
  std::string reply = body->Release();
  std::memcpy(reply.data(), encoded.buffer().data(), kOkResponseHeaderBytes);
  return reply;
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

constexpr GaeaServer::Route GaeaServer::kRoutes[] = {
    {MsgType::kHello, &GaeaServer::HandleHello},
    {MsgType::kPing, &GaeaServer::HandlePing},
    {MsgType::kDdl, &GaeaServer::HandleDdl},
    {MsgType::kDerive, &GaeaServer::HandleDerive},
    {MsgType::kDeriveBatch, &GaeaServer::HandleDeriveBatch},
    {MsgType::kMetrics, &GaeaServer::HandleMetrics},
    {MsgType::kLint, &GaeaServer::HandleLint},
    {MsgType::kCheckpoint, &GaeaServer::HandleCheckpoint},
    {MsgType::kShipBatch, &GaeaServer::HandleShipBatch},
    {MsgType::kReplicaStatus, &GaeaServer::HandleReplicaStatus},
    {MsgType::kInsertObject, &GaeaServer::HandleInsertObject},
    {MsgType::kGetObject, &GaeaServer::HandleGetObject},
    {MsgType::kProvenance, &GaeaServer::HandleProvenance},
};

Status GaeaServer::Run(const Verb& verb, BinaryReader* r, BinaryWriter* body) {
  // kRoutes has exactly as many entries as kVerbs has rows; a missing
  // trailing route would be zero-filled, with type 0, and fail here too.
  static_assert(
      [] {
        for (size_t i = 0; i < std::size(kVerbs); ++i) {
          if (kRoutes[i].type != kVerbs[i].type) return false;
        }
        return true;
      }(),
      "kRoutes must hold one handler per kVerbs row, in row order");
  if (options_.replica && verb.replica == OnReplica::kRefuse) {
    return Status::FailedPrecondition(
        std::string("replica is read-only; send ") + verb.name +
        " to the primary");
  }
  const Handler handler = kRoutes[&verb - kVerbs].handler;
  switch (verb.lock) {
    case KernelLock::kShared: {
      std::shared_lock<std::shared_mutex> lock(kernel_mu_);
      return (this->*handler)(r, body);
    }
    case KernelLock::kExclusive: {
      std::unique_lock<std::shared_mutex> lock(kernel_mu_);
      return (this->*handler)(r, body);
    }
    case KernelLock::kNone:
      break;
  }
  return (this->*handler)(r, body);
}

Status GaeaServer::HandleHello(BinaryReader* r, BinaryWriter* body) {
  GAEA_RETURN_IF_ERROR(DecodeAndCheckHello(r));
  body->PutU16(kProtocolVersion);
  return Status::OK();
}

Status GaeaServer::HandlePing(BinaryReader*, BinaryWriter*) {
  return Status::OK();
}

Status GaeaServer::HandleDdl(BinaryReader* r, BinaryWriter*) {
  GAEA_ASSIGN_OR_RETURN(std::string source, r->GetString());
  return kernel_->ExecuteDdl(source);
}

Status GaeaServer::HandleDerive(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(DeriveRequest request, DecodeDeriveRequest(r));
  if (options_.replica) {
    // Replicas only answer derivations that already ran somewhere: a novel
    // request is kNotFound and the client bounces it to the primary, so
    // history never forks.
    GAEA_ASSIGN_OR_RETURN(Oid oid,
                          kernel_->TryRecordedDerive(request.process,
                                                     request.inputs,
                                                     request.version));
    body->PutU64(oid);
    body->PutBool(true);
    return Status::OK();
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes,
                        kernel_->DeriveBatch({request}));
  GAEA_RETURN_IF_ERROR(outcomes[0].status);
  body->PutU64(outcomes[0].oid);
  body->PutBool(outcomes[0].cache_hit);
  return Status::OK();
}

Status GaeaServer::HandleDeriveBatch(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
  // A DeriveRequest encodes to at least 12 bytes (process length prefix,
  // version, input count), bounding how many fit in the payload.
  GAEA_RETURN_IF_ERROR(CheckCount(*r, count, 12));
  std::vector<DeriveRequest> requests;
  requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    GAEA_ASSIGN_OR_RETURN(DeriveRequest request, DecodeDeriveRequest(r));
    requests.push_back(std::move(request));
  }
  body->PutU32(static_cast<uint32_t>(requests.size()));
  if (options_.replica) {
    // All-or-nothing: one novel request bounces the whole batch to the
    // primary (the partial answers would be recomputed there anyway).
    for (const DeriveRequest& request : requests) {
      DeriveOutcome outcome;
      GAEA_ASSIGN_OR_RETURN(outcome.oid,
                            kernel_->TryRecordedDerive(request.process,
                                                       request.inputs,
                                                       request.version));
      outcome.cache_hit = true;
      EncodeDeriveOutcome(outcome, body);
    }
    return Status::OK();
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes,
                        kernel_->DeriveBatch(requests));
  for (const DeriveOutcome& outcome : outcomes) {
    EncodeDeriveOutcome(outcome, body);
  }
  return Status::OK();
}

Status GaeaServer::HandleMetrics(BinaryReader*, BinaryWriter* body) {
  // Prometheus text exposition of every instrument in the kernel's
  // registry (gaea_* kernel metrics and gaead_* serving metrics).
  body->PutString(kernel_->metrics().Render());
  return Status::OK();
}

Status GaeaServer::HandleLint(BinaryReader*, BinaryWriter* body) {
  EncodeLintReply(kernel_->LintCatalog(), body);
  return Status::OK();
}

Status GaeaServer::HandleCheckpoint(BinaryReader*, BinaryWriter* body) {
  // Concurrent checkpoint requests serialize on the kernel's own mutex.
  GAEA_ASSIGN_OR_RETURN(auto info, kernel_->Checkpoint());
  CheckpointReply reply;
  reply.seq = info.seq;
  reply.duration_us = info.duration_us;
  reply.snapshot_bytes = info.snapshot_bytes;
  reply.truncated_records = info.truncated_records;
  EncodeCheckpointReply(reply, body);
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
        std::min<size_t>(request.max_bytes, budget), &segment.records, &next));
    for (const std::string& record : segment.records) {
      budget -= std::min(budget, record.size());
    }
    if (!segment.records.empty()) reply.segments.push_back(std::move(segment));
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

Status GaeaServer::HandleReplicaStatus(BinaryReader*, BinaryWriter* body) {
  ReplicaStatusReply reply;
  reply.role = options_.replica ? 1 : 0;
  reply.primary = options_.primary;
  reply.cluster_lsn = kernel_->ClusterLsn();
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
  GAEA_ASSIGN_OR_RETURN(Oid oid, AnswerInsert(kernel_, request));
  body->PutU64(oid);
  return Status::OK();
}

Status GaeaServer::HandleGetObject(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(uint64_t oid, r->GetU64());
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

Status GaeaServer::HandleProvenance(BinaryReader* r, BinaryWriter* body) {
  GAEA_ASSIGN_OR_RETURN(ProvenanceRequest request, DecodeProvenanceRequest(r));
  GAEA_ASSIGN_OR_RETURN(ProvenanceReply reply,
                        AnswerProvenance(kernel_, request));
  EncodeProvenanceReply(reply, body);
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

void GaeaServer::Respond(Session& session, const RequestHeader& request,
                         const Status& status) {
  CountResponse(status);
  // A failed send means the peer vanished; its reader will notice and the
  // session gets reaped, so the error is intentionally not propagated.
  (void)session.Send(EncodeResponse(request, status, nullptr));
}

ServerStats GaeaServer::stats() const {
  ServerStats stats;
  stats.sessions_opened = sessions_opened_->value();
  stats.requests_total = requests_total_->value();
  stats.requests_ok = requests_ok_->value();
  stats.requests_error = requests_error_->value();
  stats.rejected_overload = rejected_overload_->value();
  stats.rejected_deadline = rejected_deadline_->value();
  stats.dedup_hits = dedup_hits_->value();
  stats.in_flight = static_cast<uint64_t>(in_flight_->value());
  stats.bytes_in = bytes_in_->value();
  stats.bytes_out = bytes_out_->value();
  for (const obs::Histogram* latency : request_latency_us_) {
    if (latency != nullptr) stats.latency_micros_total += latency->sum();
  }
  return stats;
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
