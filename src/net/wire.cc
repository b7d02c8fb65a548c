#include "net/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "util/crc32.h"

namespace gaea::net {

FrameHeader EncodeFrameHeader(std::string_view payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload.data(), payload.size());
  FrameHeader header;
  std::memcpy(header.data(), &len, 4);
  std::memcpy(header.data() + 4, &crc, 4);
  return header;
}

void FrameBuffer::Reserve(size_t n) {
  if (pos_ > 0) {
    // Unparsed bytes (on a socket: the start of a partly received frame)
    // move to the front. A large frame is slid once, right after its
    // header is parsed, and then received in place.
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() < end_ + n) buf_.resize(end_ + n);
}

Status FrameBuffer::ParseHeader() {
  if (have_header_ || end_ - pos_ < sizeof(FrameHeader)) return Status::OK();
  uint32_t len, crc;
  std::memcpy(&len, buf_.data() + pos_, 4);
  std::memcpy(&crc, buf_.data() + pos_ + 4, 4);
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload of " + std::to_string(len) +
                              " bytes exceeds limit of " +
                              std::to_string(kMaxFramePayload));
  }
  pos_ += sizeof(FrameHeader);
  len_ = len;
  crc_ = crc;
  have_header_ = true;
  return Status::OK();
}

StatusOr<std::span<char>> FrameBuffer::RecvSpace() {
  GAEA_RETURN_IF_ERROR(ParseHeader());
  if (have_header_ && end_ - pos_ < len_) {
    // At most the rest of this frame, so it ends flush with the received
    // bytes. Room doubles with what has arrived instead of being sized
    // from the declared length, so memory follows traffic.
    size_t received = end_ - pos_;
    size_t want = len_ - received;
    Reserve(std::min(want, std::max(kRecvChunk, received)));
    return std::span<char>(buf_.data() + end_,
                           std::min(want, buf_.size() - end_));
  }
  Reserve(kRecvChunk);
  return std::span<char>(buf_.data() + end_, buf_.size() - end_);
}

StatusOr<bool> FrameBuffer::Next(std::string* payload) {
  GAEA_RETURN_IF_ERROR(ParseHeader());
  if (!have_header_ || end_ - pos_ < len_) return false;
  std::string_view body(buf_.data() + pos_, len_);
  if (Crc32(body.data(), body.size()) != crc_) {
    return Status::Corruption("frame CRC mismatch");
  }
  have_header_ = false;
  if (pos_ == 0 && end_ == len_ && len_ >= kRecvChunk) {
    // A large frame that fills the buffer changes owner instead of being
    // copied; the next frame gets a fresh buffer.
    buf_.resize(len_);
    *payload = std::move(buf_);
    buf_ = std::string();
    end_ = 0;
    return true;
  }
  payload->assign(body);
  pos_ += len_;
  if (pos_ == end_) pos_ = end_ = 0;
  return true;
}

namespace {

// One row per type, in type order: a second row for a type would never be
// found, and docs/NET.md lists the verbs in the same order.
constexpr bool VerbsAreSortedAndUnique() {
  for (size_t i = 1; i < std::size(kVerbs); ++i) {
    if (kVerbs[i - 1].type >= kVerbs[i].type) return false;
  }
  return true;
}
static_assert(VerbsAreSortedAndUnique(), "kVerbs rows must ascend by type");

}  // namespace

const Verb* FindVerb(uint8_t raw) {
  for (const Verb& verb : kVerbs) {
    if (static_cast<uint8_t>(verb.type) == raw) return &verb;
  }
  return nullptr;
}

const Verb& VerbOf(MsgType type) {
  const Verb* verb = FindVerb(static_cast<uint8_t>(type));
  assert(verb != nullptr);
  return *verb;
}

void EncodeRequestHeader(const RequestHeader& header, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(header.type));
  w->PutU64(header.id);
  w->PutU32(header.deadline_ms);
  w->PutU64(header.idem);
  w->PutU64(header.trace_id);
  w->PutU64(header.min_lsn);
}

StatusOr<RequestHeader> DecodeRequestHeader(BinaryReader* r) {
  GAEA_ASSIGN_OR_RETURN(uint8_t raw, r->GetU8());
  if (FindVerb(raw) == nullptr) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(raw));
  }
  RequestHeader header;
  header.type = static_cast<MsgType>(raw);
  GAEA_ASSIGN_OR_RETURN(header.id, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(header.deadline_ms, r->GetU32());
  GAEA_ASSIGN_OR_RETURN(header.idem, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(header.trace_id, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(header.min_lsn, r->GetU64());
  return header;
}

Status CheckCount(const BinaryReader& r, uint32_t count,
                  size_t min_element_size) {
  if (count > r.remaining() / min_element_size) {
    return Status::Corruption(
        "element count " + std::to_string(count) +
        " cannot fit in the remaining " + std::to_string(r.remaining()) +
        " payload bytes");
  }
  return Status::OK();
}

void EncodeResponseHeader(const ResponseHeader& header, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(MsgType::kResponse));
  w->PutU64(header.id);
  w->PutU8(static_cast<uint8_t>(header.request_type));
  w->PutU8(static_cast<uint8_t>(header.code));
  w->PutString(header.message);
  w->PutU64(header.trace_id);
  w->PutU64(header.applied_lsn);
}

StatusOr<ResponseHeader> DecodeResponseHeader(BinaryReader* r) {
  GAEA_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  if (tag != static_cast<uint8_t>(MsgType::kResponse)) {
    return Status::InvalidArgument("expected a response frame, got type " +
                                   std::to_string(tag));
  }
  ResponseHeader header;
  GAEA_ASSIGN_OR_RETURN(header.id, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(uint8_t req, r->GetU8());
  header.request_type = static_cast<MsgType>(req);
  GAEA_ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    // An unknown (future) code still transports: degrade to kInternal so
    // the caller sees the failure and the message text.
    code = static_cast<uint8_t>(StatusCode::kInternal);
  }
  header.code = static_cast<StatusCode>(code);
  GAEA_ASSIGN_OR_RETURN(header.message, r->GetString());
  GAEA_ASSIGN_OR_RETURN(header.trace_id, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(header.applied_lsn, r->GetU64());
  return header;
}

Status ResponseStatus(const ResponseHeader& header) {
  if (header.code == StatusCode::kOk) return Status::OK();
  return Status(header.code, header.message);
}

void EncodeHello(BinaryWriter* w) {
  w->PutU32(kMagic);
  w->PutU16(kProtocolVersion);
}

Status DecodeAndCheckHello(BinaryReader* r) {
  GAEA_ASSIGN_OR_RETURN(uint32_t magic, r->GetU32());
  if (magic != kMagic) {
    return Status::FailedPrecondition("bad protocol magic");
  }
  GAEA_ASSIGN_OR_RETURN(uint16_t version, r->GetU16());
  if (version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "protocol version " + std::to_string(version) +
        " unsupported; server speaks " + std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

void EncodeDeriveRequest(const DeriveRequest& request, BinaryWriter* w) {
  w->PutString(request.process);
  w->PutI32(request.version);
  w->PutU32(static_cast<uint32_t>(request.inputs.size()));
  for (const auto& [arg, oids] : request.inputs) {
    w->PutString(arg);
    w->PutU32(static_cast<uint32_t>(oids.size()));
    for (Oid oid : oids) w->PutU64(oid);
  }
}

StatusOr<DeriveRequest> DecodeDeriveRequest(BinaryReader* r) {
  DeriveRequest request;
  GAEA_ASSIGN_OR_RETURN(request.process, r->GetString());
  GAEA_ASSIGN_OR_RETURN(request.version, r->GetI32());
  GAEA_ASSIGN_OR_RETURN(uint32_t args, r->GetU32());
  for (uint32_t i = 0; i < args; ++i) {
    GAEA_ASSIGN_OR_RETURN(std::string arg, r->GetString());
    GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
    GAEA_RETURN_IF_ERROR(CheckCount(*r, n, sizeof(uint64_t)));
    std::vector<Oid>& oids = request.inputs[arg];
    oids.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      GAEA_ASSIGN_OR_RETURN(Oid oid, r->GetU64());
      oids.push_back(oid);
    }
  }
  return request;
}

void EncodeDeriveOutcome(const DeriveOutcome& outcome, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(outcome.status.code()));
  w->PutString(outcome.status.message());
  w->PutU64(outcome.oid);
  w->PutBool(outcome.cache_hit);
}

StatusOr<DeriveOutcome> DecodeDeriveOutcome(BinaryReader* r) {
  DeriveOutcome outcome;
  GAEA_ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  GAEA_ASSIGN_OR_RETURN(std::string message, r->GetString());
  outcome.status = Status(static_cast<StatusCode>(code), std::move(message));
  GAEA_ASSIGN_OR_RETURN(outcome.oid, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(outcome.cache_hit, r->GetBool());
  return outcome;
}

void EncodeProvenanceRequest(const ProvenanceRequest& request,
                             BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(request.kind));
  w->PutU64(request.oid);
  w->PutU64(request.oid_b);
  w->PutU32(request.max_depth);
}

StatusOr<ProvenanceRequest> DecodeProvenanceRequest(BinaryReader* r) {
  ProvenanceRequest request;
  GAEA_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(ProvenanceKind::kChain)) {
    return Status::Corruption("bad provenance kind tag");
  }
  request.kind = static_cast<ProvenanceKind>(kind);
  GAEA_ASSIGN_OR_RETURN(request.oid, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(request.oid_b, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(request.max_depth, r->GetU32());
  return request;
}

void EncodeProvenanceReply(const ProvenanceReply& reply, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(reply.kind));
  w->PutU32(static_cast<uint32_t>(reply.oids.size()));
  for (Oid oid : reply.oids) w->PutU64(oid);
  w->PutU32(static_cast<uint32_t>(reply.tasks.size()));
  for (uint64_t id : reply.tasks) w->PutU64(id);
  w->PutString(reply.text);
  w->PutString(reply.json);
}

StatusOr<ProvenanceReply> DecodeProvenanceReply(BinaryReader* r) {
  ProvenanceReply reply;
  GAEA_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(ProvenanceKind::kChain)) {
    return Status::Corruption("bad provenance kind tag");
  }
  reply.kind = static_cast<ProvenanceKind>(kind);
  GAEA_ASSIGN_OR_RETURN(uint32_t noids, r->GetU32());
  GAEA_RETURN_IF_ERROR(CheckCount(*r, noids, sizeof(uint64_t)));
  reply.oids.reserve(noids);
  for (uint32_t i = 0; i < noids; ++i) {
    GAEA_ASSIGN_OR_RETURN(Oid oid, r->GetU64());
    reply.oids.push_back(oid);
  }
  GAEA_ASSIGN_OR_RETURN(uint32_t ntasks, r->GetU32());
  GAEA_RETURN_IF_ERROR(CheckCount(*r, ntasks, sizeof(uint64_t)));
  reply.tasks.reserve(ntasks);
  for (uint32_t i = 0; i < ntasks; ++i) {
    GAEA_ASSIGN_OR_RETURN(uint64_t id, r->GetU64());
    reply.tasks.push_back(id);
  }
  GAEA_ASSIGN_OR_RETURN(reply.text, r->GetString());
  GAEA_ASSIGN_OR_RETURN(reply.json, r->GetString());
  return reply;
}

void EncodeCheckpointReply(const CheckpointReply& reply, BinaryWriter* w) {
  w->PutU64(reply.seq);
  w->PutU64(reply.duration_us);
  w->PutU64(reply.snapshot_bytes);
  w->PutU64(reply.truncated_records);
}

StatusOr<CheckpointReply> DecodeCheckpointReply(BinaryReader* r) {
  CheckpointReply reply;
  GAEA_ASSIGN_OR_RETURN(reply.seq, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(reply.duration_us, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(reply.snapshot_bytes, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(reply.truncated_records, r->GetU64());
  return reply;
}

void EncodeShipRequest(const ShipRequest& request, BinaryWriter* w) {
  w->PutString(request.replica_id);
  w->PutU32(static_cast<uint32_t>(request.cursors.size()));
  for (const ShipCursor& c : request.cursors) {
    w->PutString(c.component);
    w->PutU64(c.from);
  }
  w->PutU32(request.max_records);
  w->PutU32(request.max_bytes);
}

StatusOr<ShipRequest> DecodeShipRequest(BinaryReader* r) {
  ShipRequest request;
  GAEA_ASSIGN_OR_RETURN(request.replica_id, r->GetString());
  GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  GAEA_RETURN_IF_ERROR(CheckCount(*r, n, sizeof(uint32_t) + sizeof(uint64_t)));
  request.cursors.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ShipCursor c;
    GAEA_ASSIGN_OR_RETURN(c.component, r->GetString());
    GAEA_ASSIGN_OR_RETURN(c.from, r->GetU64());
    request.cursors.push_back(std::move(c));
  }
  GAEA_ASSIGN_OR_RETURN(request.max_records, r->GetU32());
  GAEA_ASSIGN_OR_RETURN(request.max_bytes, r->GetU32());
  return request;
}

void EncodeShipReply(const ShipReply& reply, BinaryWriter* w) {
  w->PutU64(reply.primary_lsn);
  w->PutU32(static_cast<uint32_t>(reply.segments.size()));
  for (const ShipSegment& s : reply.segments) {
    w->PutString(s.component);
    w->PutU64(s.from);
    w->PutU32(static_cast<uint32_t>(s.records.size()));
    for (const std::string& rec : s.records) w->PutString(rec);
  }
}

StatusOr<ShipReply> DecodeShipReply(BinaryReader* r) {
  ShipReply reply;
  GAEA_ASSIGN_OR_RETURN(reply.primary_lsn, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  GAEA_RETURN_IF_ERROR(CheckCount(*r, n, 2 * sizeof(uint32_t)));
  reply.segments.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ShipSegment s;
    GAEA_ASSIGN_OR_RETURN(s.component, r->GetString());
    GAEA_ASSIGN_OR_RETURN(s.from, r->GetU64());
    GAEA_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
    GAEA_RETURN_IF_ERROR(CheckCount(*r, count, sizeof(uint32_t)));
    s.records.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      GAEA_ASSIGN_OR_RETURN(std::string rec, r->GetString());
      s.records.push_back(std::move(rec));
    }
    reply.segments.push_back(std::move(s));
  }
  return reply;
}

void EncodeReplicaStatusReply(const ReplicaStatusReply& reply,
                              BinaryWriter* w) {
  w->PutU8(reply.role);
  w->PutU64(reply.cluster_lsn);
  w->PutString(reply.primary);
  w->PutU32(static_cast<uint32_t>(reply.peers.size()));
  for (const ReplicaStatusReply::Peer& p : reply.peers) {
    w->PutString(p.replica_id);
    w->PutU64(p.acked_lsn);
    w->PutU64(p.last_seen_us);
  }
}

StatusOr<ReplicaStatusReply> DecodeReplicaStatusReply(BinaryReader* r) {
  ReplicaStatusReply reply;
  GAEA_ASSIGN_OR_RETURN(reply.role, r->GetU8());
  GAEA_ASSIGN_OR_RETURN(reply.cluster_lsn, r->GetU64());
  GAEA_ASSIGN_OR_RETURN(reply.primary, r->GetString());
  GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  GAEA_RETURN_IF_ERROR(
      CheckCount(*r, n, sizeof(uint32_t) + 2 * sizeof(uint64_t)));
  reply.peers.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ReplicaStatusReply::Peer p;
    GAEA_ASSIGN_OR_RETURN(p.replica_id, r->GetString());
    GAEA_ASSIGN_OR_RETURN(p.acked_lsn, r->GetU64());
    GAEA_ASSIGN_OR_RETURN(p.last_seen_us, r->GetU64());
    reply.peers.push_back(std::move(p));
  }
  return reply;
}

void EncodeInsertObjectRequest(const InsertObjectRequest& request,
                               BinaryWriter* w) {
  w->PutString(request.class_name);
  w->PutU32(static_cast<uint32_t>(request.attrs.size()));
  for (const auto& [name, value] : request.attrs) {
    w->PutString(name);
    value.Serialize(w);
  }
}

StatusOr<InsertObjectRequest> DecodeInsertObjectRequest(BinaryReader* r) {
  InsertObjectRequest request;
  GAEA_ASSIGN_OR_RETURN(request.class_name, r->GetString());
  GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  GAEA_RETURN_IF_ERROR(CheckCount(*r, n, sizeof(uint32_t) + 1));
  request.attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GAEA_ASSIGN_OR_RETURN(std::string name, r->GetString());
    GAEA_ASSIGN_OR_RETURN(Value value, Value::Deserialize(r));
    request.attrs.emplace_back(std::move(name), std::move(value));
  }
  return request;
}

void EncodeLintReply(const std::vector<Diagnostic>& diags, BinaryWriter* w) {
  w->PutU32(static_cast<uint32_t>(diags.size()));
  for (const Diagnostic& d : diags) {
    w->PutString(d.code);
    w->PutU8(static_cast<uint8_t>(d.severity));
    w->PutString(d.file);
    w->PutU32(static_cast<uint32_t>(d.line < 0 ? 0 : d.line));
    w->PutString(d.location);
    w->PutString(d.message);
  }
}

StatusOr<std::vector<Diagnostic>> DecodeLintReply(BinaryReader* r) {
  GAEA_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
  // A diagnostic encodes to at least 17 bytes (four length prefixes, the
  // severity byte and the line), bounding how many fit in the payload.
  GAEA_RETURN_IF_ERROR(CheckCount(*r, count, 17));
  std::vector<Diagnostic> diags;
  diags.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Diagnostic d;
    GAEA_ASSIGN_OR_RETURN(d.code, r->GetString());
    GAEA_ASSIGN_OR_RETURN(uint8_t severity, r->GetU8());
    d.severity = static_cast<Severity>(severity);
    GAEA_ASSIGN_OR_RETURN(d.file, r->GetString());
    GAEA_ASSIGN_OR_RETURN(uint32_t line, r->GetU32());
    d.line = static_cast<int>(line);
    GAEA_ASSIGN_OR_RETURN(d.location, r->GetString());
    GAEA_ASSIGN_OR_RETURN(d.message, r->GetString());
    diags.push_back(std::move(d));
  }
  return diags;
}

Status SendFrame(int fd, const FrameHeader& header,
                 std::string_view payload) {
  iovec iovs[2];
  iovs[0].iov_base = const_cast<char*>(header.data());
  iovs[0].iov_len = header.size();
  iovs[1].iov_base = const_cast<char*>(payload.data());
  iovs[1].iov_len = payload.size();
  iovec* iov = iovs;
  size_t count = 2;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send: " + std::string(std::strerror(errno)));
    }
    // Short write: drop what went out, resume inside the first partial
    // iovec.
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status RecvInto(int fd, FrameBuffer* fb, bool* closed) {
  *closed = false;
  GAEA_ASSIGN_OR_RETURN(std::span<char> space, fb->RecvSpace());
  for (;;) {
    ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      *closed = true;
      return Status::OK();
    }
    fb->Commit(static_cast<size_t>(n));
    return Status::OK();
  }
}

}  // namespace gaea::net
