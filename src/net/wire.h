// Wire protocol for gaead, the Gaea network server (docs/NET.md).
//
// Framing reuses the journal's discipline: every message travels as
// [u32 payload_len][u32 crc32(payload)][payload], little-endian, so a
// corrupted or truncated stream is detected before any payload byte is
// parsed. Payloads are BinaryWriter/BinaryReader encodings (util/serialize.h)
// beginning with a RequestHeader or ResponseHeader; bodies follow per
// message type. Version negotiation happens once per connection via
// kHello/kHelloAck before any other traffic.

#ifndef GAEA_NET_WIRE_H_
#define GAEA_NET_WIRE_H_

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/scheduler.h"
#include "storage/object_store.h"
#include "types/value.h"
#include "util/serialize.h"
#include "util/status.h"

namespace gaea::net {

// Connection greeting constants. A server that cannot speak the client's
// major version refuses the Hello with kFailedPrecondition; unknown trailing
// bytes in any message body are ignored, which is how minor revisions add
// fields (see docs/NET.md "Versioning").
constexpr uint32_t kMagic = 0x47414541;  // "GAEA"
// v2 added RequestHeader.idem (client idempotency nonce) and the trace_id
// field on both headers (request trace propagation, echoed in replies).
// v3 added the replication verbs (Subscribe / ShipBatch / ReplicaStatus),
// remote object insert/get, RequestHeader.min_lsn (the read-your-writes
// LSN token a replica must reach before answering) and
// ResponseHeader.applied_lsn (the answering server's cluster LSN).
// v4 removed Lineage (type 7); ProvenanceKind::kChain answers it.
// v5 removed DefineProcess (type 4; Ddl's DEFINE PROCESS reaches the same
// kernel call) and Subscribe (type 13; no caller), and sends and honours
// `idem` only on the kVerbs rows that replay.
// v6 removed Stats (type 8); `stats --json` is a JSON view of the Metrics
// reply.
// Both sides of the protocol live in this tree, so the version is bumped
// rather than relying on trailing-byte tolerance for fields the server
// must act on.
constexpr uint16_t kProtocolVersion = 6;

// Upper bound on one frame's payload; anything larger is a protocol error
// (kCorruption) and the connection is dropped rather than buffered.
constexpr uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// The 8 bytes that precede `payload` on the wire: [u32 len][u32 crc].
using FrameHeader = std::array<char, 8>;
FrameHeader EncodeFrameHeader(std::string_view payload);

// Incremental frame decoder. Bytes are received straight into its buffer:
// write at most RecvSpace().size() bytes there, then Commit them (RecvInto
// does both for a socket). Pop complete payloads with Next. Survives
// arbitrary fragmentation (byte-at-a-time delivery) and reports
// kCorruption on CRC mismatch or an oversized length, after which the
// stream is unusable and the connection must close.
//
// Once a frame header has passed the kMaxFramePayload check, receives are
// limited to the frame's remaining bytes, so a large frame lands
// contiguously with nothing behind it and is handed to the caller by move
// rather than copied. The buffer grows toward the frame's size by doubling
// with the bytes already received, never from the declared length alone,
// so a peer cannot make it allocate much more than it has sent.
class FrameBuffer {
 public:
  // True + *payload when a complete frame was removed from the buffer;
  // false when more bytes are needed; error on a corrupt stream.
  StatusOr<bool> Next(std::string* payload);

  // Where the next receive should write. Within a frame whose header has
  // been parsed: room for the rest of the frame, or for as many bytes as
  // have already arrived (at least kRecvChunk), whichever is less.
  // Otherwise at least kRecvChunk bytes of spare room. An oversized length
  // in the buffered header is reported here, before anything is sized
  // from it.
  StatusOr<std::span<char>> RecvSpace();
  // Marks the first `n` bytes of the last RecvSpace() as received.
  void Commit(size_t n) { end_ += n; }

  // Bytes received but not yet returned by Next (frame headers included).
  size_t buffered() const {
    return end_ - pos_ + (have_header_ ? sizeof(FrameHeader) : 0);
  }
  // Receive space currently allocated. Exists for tests, which check that
  // the buffer grows with received bytes rather than declared lengths.
  size_t capacity() const { return buf_.size(); }

  static constexpr size_t kRecvChunk = 64u << 10;

 private:
  // Consumes a buffered frame header into len_/crc_, checking the length.
  Status ParseHeader();
  // Slides unparsed bytes to the front and ensures `n` bytes of room.
  void Reserve(size_t n);

  std::string buf_;  // [pos_, end_) received and unparsed; the rest is room
  size_t pos_ = 0;
  size_t end_ = 0;
  // When set, the header of the frame at pos_ has been consumed: buf_ from
  // pos_ on holds its payload of len_ bytes, checksummed crc_.
  bool have_header_ = false;
  uint32_t len_ = 0;
  uint32_t crc_ = 0;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// Request bodies and replies per type are in docs/NET.md; what each
// request type does on the server and client is its kVerbs row below.
enum class MsgType : uint8_t {
  kHello = 1,
  kPing = 2,
  kDdl = 3,
  // 4 was DefineProcess (protocol <= 4); Ddl's DEFINE PROCESS replaced it.
  kDerive = 5,
  kDeriveBatch = 6,
  // 7 was Lineage (protocol <= 3); ProvenanceKind::kChain replaced it.
  // 8 was Stats (protocol <= 5); the Metrics reply carries every number.
  kResponse = 9,  // tags every response payload; never a request
  kMetrics = 10,
  kLint = 11,
  kCheckpoint = 12,
  // 13 was Subscribe (protocol <= 4); nothing called it.
  kShipBatch = 14,
  kReplicaStatus = 15,
  kInsertObject = 16,
  kGetObject = 17,
  kProvenance = 18,
};

// The kernel lock a verb's handler runs under. Definitions take it
// exclusive, derivations and reads shared, so catalog mutation never races
// the process registry reads inside a derivation.
enum class KernelLock : uint8_t { kNone, kShared, kExclusive };

// Where the server runs a verb: inline on the connection's reader thread
// (cheap, lock-free or read-only probes that must answer even when the
// worker pool is saturated) or on the bounded worker pool.
enum class RunsOn : uint8_t { kReader, kWorker };

// What a replica does with a verb: serve it from its replicated state, or
// refuse it with kFailedPrecondition (a write, which only the primary may
// take; the cluster client sends these to the primary directly).
enum class OnReplica : uint8_t { kServe, kRefuse };

// Whether a retry of an executed request re-executes it or is answered
// with the recorded reply. kReplay verbs carry the client's idempotency
// nonce, and the server remembers (idem, id) -> reply for them, so a
// retried write lands exactly once. Every other verb is sent without a
// nonce and the server ignores one: re-running a read is harmless, and
// recording its reply would evict the writes' entries.
enum class OnRetry : uint8_t { kReexecute, kReplay };

// One wire verb: everything the server's dispatch, the client's nonce
// stamping and the cluster client's routing decide about a request type.
// `name` names the client's "rpc:<name>" and the server's
// "request:<name>" spans.
struct Verb {
  MsgType type;
  const char* name;
  KernelLock lock;
  RunsOn runs;
  OnReplica replica;
  OnRetry retry;
};

// Every request type the server answers, in type order. Adding a verb is
// one row here plus one GaeaServer handler (docs/NET.md).
inline constexpr Verb kVerbs[] = {
    {MsgType::kHello, "Hello", KernelLock::kNone, RunsOn::kReader,
     OnReplica::kServe, OnRetry::kReexecute},
    {MsgType::kPing, "Ping", KernelLock::kNone, RunsOn::kReader,
     OnReplica::kServe, OnRetry::kReexecute},
    {MsgType::kDdl, "Ddl", KernelLock::kExclusive, RunsOn::kWorker,
     OnReplica::kRefuse, OnRetry::kReplay},
    {MsgType::kDerive, "Derive", KernelLock::kShared, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReplay},
    {MsgType::kDeriveBatch, "DeriveBatch", KernelLock::kShared,
     RunsOn::kWorker, OnReplica::kServe, OnRetry::kReplay},
    {MsgType::kMetrics, "Metrics", KernelLock::kShared, RunsOn::kReader,
     OnReplica::kServe, OnRetry::kReexecute},
    // Read-only to callers, but LintCatalog memoizes into the kernel's
    // analysis cache, so it is exclusive like a definition.
    {MsgType::kLint, "Lint", KernelLock::kExclusive, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReexecute},
    // Checkpoints are fuzzy against derivations and inserts; the shared
    // lock fences out only definitions. A retry takes the next checkpoint.
    {MsgType::kCheckpoint, "Checkpoint", KernelLock::kShared, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReexecute},
    {MsgType::kShipBatch, "ShipBatch", KernelLock::kShared, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReexecute},
    {MsgType::kReplicaStatus, "ReplicaStatus", KernelLock::kShared,
     RunsOn::kWorker, OnReplica::kServe, OnRetry::kReexecute},
    // Shared, like a derive: object insertion serializes on the catalog's
    // own mutex.
    {MsgType::kInsertObject, "InsertObject", KernelLock::kShared,
     RunsOn::kWorker, OnReplica::kRefuse, OnRetry::kReplay},
    {MsgType::kGetObject, "GetObject", KernelLock::kShared, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReexecute},
    // The provenance index is rebuilt from the same replicated task history
    // the primary holds, so replicas answer it.
    {MsgType::kProvenance, "Provenance", KernelLock::kShared, RunsOn::kWorker,
     OnReplica::kServe, OnRetry::kReexecute},
};

// The row of request type `raw`; nullptr when no verb has that type (the
// response tag, a retired type, anything past the last row).
const Verb* FindVerb(uint8_t raw);

// The row of `type`, which must be a request type.
const Verb& VerbOf(MsgType type);

// Every request payload starts with this. `deadline_ms` (0 = none) bounds
// the time between the server admitting the request and a worker starting
// it; an expired request is answered kUnavailable without touching the
// kernel. `idem` (0 = none) is a client-chosen random nonce: for the verbs
// whose row says OnRetry::kReplay the server remembers (idem, id) ->
// response, so a client that retried after a lost response gets the
// recorded answer instead of a second execution (docs/ROBUSTNESS.md).
// `trace_id` (0 = none) names the distributed trace this request belongs
// to: the server parents all spans for the request under it and echoes it
// in the response, so one trace can follow a derivation from client call
// to per-operator execution (docs/OBSERVABILITY.md).
struct RequestHeader {
  MsgType type = MsgType::kPing;
  uint64_t id = 0;
  uint32_t deadline_ms = 0;
  uint64_t idem = 0;
  uint64_t trace_id = 0;
  // Read-your-writes token (0 = none): the smallest cluster LSN the
  // answering server must have applied before executing this request. A
  // replica that has not caught up waits briefly, then answers kUnavailable
  // so the client can bounce the read to the primary (docs/ROBUSTNESS.md).
  uint64_t min_lsn = 0;
};

void EncodeRequestHeader(const RequestHeader& header, BinaryWriter* w);
StatusOr<RequestHeader> DecodeRequestHeader(BinaryReader* r);

// Guards collection decoding against a hostile length prefix: a count whose
// elements (at least `min_element_size` encoded bytes each) could not fit in
// the reader's remaining payload is kCorruption, checked before any
// count-sized allocation happens.
Status CheckCount(const BinaryReader& r, uint32_t count,
                  size_t min_element_size);

// Every response payload starts with MsgType::kResponse, then this. A
// non-OK code carries no body. `request_type` echoes what is being answered
// so a client can sanity-check pipelined traffic. `trace_id` echoes the
// request's trace (the server-minted id when the request carried none), so
// the client can stitch its send/receive spans to the server's; a dedup
// replay echoes the *original* execution's trace id.
struct ResponseHeader {
  uint64_t id = 0;
  MsgType request_type = MsgType::kPing;
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t trace_id = 0;
  // The answering server's cluster LSN (sum of its component journal
  // lengths) at response time. Clients remember the largest value they have
  // seen and echo it as min_lsn on replica-bound reads, which is what makes
  // read-your-writes hold across the fleet. A dedup replay carries the
  // original execution's LSN — older, therefore still safe to max into the
  // client's token.
  uint64_t applied_lsn = 0;
};

void EncodeResponseHeader(const ResponseHeader& header, BinaryWriter* w);
// Encoded size of a ResponseHeader with an empty message, i.e. of every OK
// reply's header: tag, id, request type, code, message length, trace id,
// applied LSN. A server encodes a reply body behind this much room and
// fills the header in once the result is known.
constexpr size_t kOkResponseHeaderBytes = 1 + 8 + 1 + 1 + 4 + 8 + 8;
// Consumes the leading kResponse tag as well.
StatusOr<ResponseHeader> DecodeResponseHeader(BinaryReader* r);

// Status carried by a ResponseHeader (OK() when code is kOk).
Status ResponseStatus(const ResponseHeader& header);

// ---- bodies ----

void EncodeHello(BinaryWriter* w);  // magic + version
// Validates magic and version; kFailedPrecondition on mismatch.
Status DecodeAndCheckHello(BinaryReader* r);

void EncodeDeriveRequest(const DeriveRequest& request, BinaryWriter* w);
StatusOr<DeriveRequest> DecodeDeriveRequest(BinaryReader* r);

// DeriveOutcome rides in derive / derive-batch responses.
void EncodeDeriveOutcome(const DeriveOutcome& outcome, BinaryWriter* w);
StatusOr<DeriveOutcome> DecodeDeriveOutcome(BinaryReader* r);

// Provenance query request (GaeaKernel::Provenance* on the server; the
// index is replicated state, so replicas serve these without a bounce).
enum class ProvenanceKind : uint8_t {
  kAncestors = 0,
  kDescendants = 1,
  kWhy = 2,
  kWhere = 3,
  kDiff = 4,
  kChain = 5,
};

struct ProvenanceRequest {
  ProvenanceKind kind = ProvenanceKind::kAncestors;
  Oid oid = kInvalidOid;
  Oid oid_b = kInvalidOid;   // second operand, kDiff only
  uint32_t max_depth = 0;    // closure depth guard; 0 = unbounded
};

void EncodeProvenanceRequest(const ProvenanceRequest& request,
                             BinaryWriter* w);
StatusOr<ProvenanceRequest> DecodeProvenanceRequest(BinaryReader* r);

// Provenance response body. `oids`/`tasks` carry the closure for the
// traversal kinds, `oids` the base sources for kChain (empty otherwise);
// `text` and `json` carry both
// renderings for every kind, so shells and batch tools need no
// re-rendering logic client-side.
struct ProvenanceReply {
  ProvenanceKind kind = ProvenanceKind::kAncestors;
  std::vector<Oid> oids;
  std::vector<uint64_t> tasks;
  std::string text;
  std::string json;
};

void EncodeProvenanceReply(const ProvenanceReply& reply, BinaryWriter* w);
StatusOr<ProvenanceReply> DecodeProvenanceReply(BinaryReader* r);

// Checkpoint response body (GaeaKernel::Checkpoint on the server).
struct CheckpointReply {
  uint64_t seq = 0;
  uint64_t duration_us = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t truncated_records = 0;
};

void EncodeCheckpointReply(const CheckpointReply& reply, BinaryWriter* w);
StatusOr<CheckpointReply> DecodeCheckpointReply(BinaryReader* r);

// ---- replication bodies ----

// One component cursor: ship records of `component` starting at LSN `from`.
struct ShipCursor {
  std::string component;
  uint64_t from = 0;
};

// kShipBatch request: a replica asking the primary for every component's
// tail past its own journal lengths. The caps bound one reply frame; the
// shipper never exceeds kMaxFramePayload regardless.
struct ShipRequest {
  std::string replica_id;
  std::vector<ShipCursor> cursors;
  uint32_t max_records = 512;          // per component
  uint32_t max_bytes = 4u << 20;       // per component, soft (>= 1 record)
};

void EncodeShipRequest(const ShipRequest& request, BinaryWriter* w);
StatusOr<ShipRequest> DecodeShipRequest(BinaryReader* r);

// kShipBatch reply: per-component record runs, each contiguous from `from`.
struct ShipSegment {
  std::string component;
  uint64_t from = 0;
  std::vector<std::string> records;
};

struct ShipReply {
  uint64_t primary_lsn = 0;  // shipper's cluster LSN when the read started
  std::vector<ShipSegment> segments;
};

void EncodeShipReply(const ShipReply& reply, BinaryWriter* w);
StatusOr<ShipReply> DecodeShipReply(BinaryReader* r);

// kReplicaStatus reply. On a primary, `peers` lists every shipping
// replica with the cluster LSN its last ShipBatch acknowledged; on a
// replica, `peers` is empty and `primary` names the endpoint it ships from.
struct ReplicaStatusReply {
  uint8_t role = 0;  // 0 = primary, 1 = replica
  uint64_t cluster_lsn = 0;
  std::string primary;  // "host:port" (replicas only)
  struct Peer {
    std::string replica_id;
    uint64_t acked_lsn = 0;
    uint64_t last_seen_us = 0;
  };
  std::vector<Peer> peers;
};

void EncodeReplicaStatusReply(const ReplicaStatusReply& reply,
                              BinaryWriter* w);
StatusOr<ReplicaStatusReply> DecodeReplicaStatusReply(BinaryReader* r);

// kInsertObject request: a base object as class name + named attribute
// values; the server type-checks against the class definition and assigns
// the OID. Values absent from `attrs` stay null.
struct InsertObjectRequest {
  std::string class_name;
  std::vector<std::pair<std::string, Value>> attrs;
};

void EncodeInsertObjectRequest(const InsertObjectRequest& request,
                               BinaryWriter* w);
StatusOr<InsertObjectRequest> DecodeInsertObjectRequest(BinaryReader* r);

// Lint response body: the server kernel's full normalized diagnostic list
// (GaeaKernel::LintCatalog). Diagnostics from a remote lint carry no file
// (the catalog is not a file); `file`/`line` still travel so the format can
// serve future script-scoped lints unchanged.
void EncodeLintReply(const std::vector<Diagnostic>& diags, BinaryWriter* w);
StatusOr<std::vector<Diagnostic>> DecodeLintReply(BinaryReader* r);

// ---------------------------------------------------------------------------
// Socket helpers shared by client and server session
// ---------------------------------------------------------------------------

// Writes one frame: `header` (EncodeFrameHeader of `payload`) and then
// `payload`, gathered by sendmsg so the payload is neither copied nor
// prefixed in user space. MSG_NOSIGNAL (a vanished peer is an error, not a
// SIGPIPE); short writes and EINTR are retried.
Status SendFrame(int fd, const FrameHeader& header, std::string_view payload);

// One recv straight into `fb`'s RecvSpace. *closed is set when the peer
// performed an orderly shutdown; an error Status covers everything else,
// including an oversized frame length.
Status RecvInto(int fd, FrameBuffer* fb, bool* closed);

}  // namespace gaea::net

#endif  // GAEA_NET_WIRE_H_
