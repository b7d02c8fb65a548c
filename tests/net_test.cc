// gaead wire protocol and client/server behavior: framing, loopback RPC,
// concurrent sessions, deadlines, backpressure and graceful shutdown.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace gaea::net {
namespace {

using ::gaea::testing::PseudoRandomBytes;
using ::gaea::testing::TempDir;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// [len][crc][payload] as one string.
std::string Frame(std::string_view payload) {
  FrameHeader header = EncodeFrameHeader(payload);
  return std::string(header.data(), header.size()) + std::string(payload);
}

// Receives `bytes` into `fb` as RecvInto would, in as many pieces as its
// receive space asks for.
Status Feed(FrameBuffer* fb, std::string_view bytes) {
  while (!bytes.empty()) {
    GAEA_ASSIGN_OR_RETURN(std::span<char> space, fb->RecvSpace());
    size_t n = std::min(space.size(), bytes.size());
    std::memcpy(space.data(), bytes.data(), n);
    fb->Commit(n);
    bytes.remove_prefix(n);
  }
  return Status::OK();
}

// Sends one frame carrying `payload`.
Status SendPayload(int fd, std::string_view payload) {
  return SendFrame(fd, EncodeFrameHeader(payload), payload);
}

TEST(HostPortTest, DigitsOnlyPortInRangeAndNonEmptyHost) {
  struct Case {
    const char* text;
    bool ok;
  };
  for (const Case& c : {Case{"h:abc", false}, Case{"h:70000", false},
                        Case{"h:0", false}, Case{":1", false},
                        Case{"h:", false}, Case{"h:1x", false},
                        Case{"h", false}, Case{"h:-1", false},
                        Case{"h:65536", false}, Case{"h:65535", true},
                        Case{"localhost:4747", true}}) {
    std::string host = "unset";
    int port = -1;
    EXPECT_EQ(ParseHostPort(c.text, &host, &port), c.ok) << c.text;
    if (!c.ok) {
      EXPECT_EQ(host, "unset") << c.text;
      EXPECT_EQ(port, -1) << c.text;
    }
  }
  std::string host;
  int port = 0;
  ASSERT_TRUE(ParseHostPort("localhost:4747", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 4747);
  ASSERT_TRUE(ParseHostPort("::1:80", &host, &port));
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 80);
}

TEST(FrameTest, RoundTrip) {
  FrameBuffer fb;
  ASSERT_OK(Feed(&fb, Frame("hello, gaead")));
  std::string payload;
  ASSERT_OK_AND_ASSIGN(bool have, fb.Next(&payload));
  EXPECT_TRUE(have);
  EXPECT_EQ(payload, "hello, gaead");
  ASSERT_OK_AND_ASSIGN(have, fb.Next(&payload));
  EXPECT_FALSE(have);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(FrameTest, SurvivesByteAtATimeDelivery) {
  std::string wire =
      Frame("first") + Frame("") + Frame(std::string(3000, 'x'));
  FrameBuffer fb;
  std::vector<std::string> payloads;
  for (char c : wire) {
    ASSERT_OK(Feed(&fb, std::string_view(&c, 1)));
    for (;;) {
      std::string payload;
      ASSERT_OK_AND_ASSIGN(bool have, fb.Next(&payload));
      if (!have) break;
      payloads.push_back(std::move(payload));
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(3000, 'x'));
}

TEST(FrameTest, CorruptPayloadIsRejected) {
  std::string frame = Frame("pristine bytes");
  frame.back() ^= 0x40;  // flip a payload bit
  FrameBuffer fb;
  ASSERT_OK(Feed(&fb, frame));
  std::string payload;
  auto result = fb.Next(&payload);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// A 1 MiB payload (a GetObject raster reply's size) round-trips through
// EncodeFrameHeader, FrameBuffer and Next, and a one-bit flip anywhere in it
// fails the receiver's checksum.
TEST(FrameTest, MebibyteFrameRoundTripsAndRejectsABitFlip) {
  const std::string sent = PseudoRandomBytes(1u << 20, 3);
  const std::string frame = Frame(sent);
  {
    FrameBuffer fb;
    ASSERT_OK(Feed(&fb, frame));
    std::string payload;
    ASSERT_OK_AND_ASSIGN(bool have, fb.Next(&payload));
    ASSERT_TRUE(have);
    EXPECT_TRUE(payload == sent);
    EXPECT_EQ(fb.buffered(), 0u);
  }
  for (size_t at : {sizeof(FrameHeader), sizeof(FrameHeader) + (1u << 19),
                    frame.size() - 1}) {
    std::string flipped = frame;
    flipped[at] ^= 0x01;
    FrameBuffer fb;
    ASSERT_OK(Feed(&fb, flipped));
    std::string payload;
    auto result = fb.Next(&payload);
    ASSERT_FALSE(result.ok()) << "flip at " << at;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "flip at " << at;
  }
}

TEST(FrameTest, OversizedLengthIsRejected) {
  uint32_t len = kMaxFramePayload + 1;
  uint32_t crc = 0;
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  FrameBuffer fb;
  ASSERT_OK(Feed(&fb, frame));
  std::string payload;
  auto result = fb.Next(&payload);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// Two back-to-back frames over 1 MiB, delivered in irregular pieces of
// 1 B to 70 KiB through the receive window, as RecvInto fills it.
TEST(FrameTest, LargeFramesSurviveIrregularChunks) {
  std::vector<std::string> sent = {PseudoRandomBytes((1u << 20) + 17, 1),
                                   PseudoRandomBytes((1u << 20) + 4093, 2)};
  std::string wire = Frame(sent[0]) + Frame(sent[1]);
  FrameBuffer fb;
  std::vector<std::string> got;
  uint32_t rng = 7;
  size_t fed = 0;
  while (fed < wire.size()) {
    rng = rng * 1664525u + 1013904223u;
    size_t chunk = 1 + (rng >> 8) % (70u << 10);
    chunk = std::min(chunk, wire.size() - fed);
    ASSERT_OK_AND_ASSIGN(std::span<char> space, fb.RecvSpace());
    ASSERT_GT(space.size(), 0u);
    chunk = std::min(chunk, space.size());
    std::memcpy(space.data(), wire.data() + fed, chunk);
    fb.Commit(chunk);
    fed += chunk;
    for (;;) {
      std::string payload;
      ASSERT_OK_AND_ASSIGN(bool have, fb.Next(&payload));
      if (!have) break;
      got.push_back(std::move(payload));
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0] == sent[0]);
  EXPECT_TRUE(got[1] == sent[1]);
  EXPECT_EQ(fb.buffered(), 0u);
  // Each frame landed flush in a buffer of its own and was handed over by
  // move, leaving nothing allocated behind.
  EXPECT_EQ(fb.capacity(), 0u);
}

// A length within kMaxFramePayload still sizes nothing by itself: the
// buffer grows with the payload bytes that actually arrive, so a peer that
// declares 16 MiB in 8 bytes gets no more than two receive chunks.
TEST(FrameTest, BufferGrowsWithReceivedBytesNotDeclaredLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint32_t header[2] = {kMaxFramePayload, 0};
  ASSERT_EQ(::send(fds[1], header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  FrameBuffer fb;
  bool closed = false;
  ASSERT_OK(RecvInto(fds[0], &fb, &closed));
  ASSERT_FALSE(closed);
  ASSERT_OK_AND_ASSIGN(std::span<char> space, fb.RecvSpace());
  EXPECT_LE(space.size(), FrameBuffer::kRecvChunk);
  EXPECT_LE(fb.capacity(), 2 * FrameBuffer::kRecvChunk);

  // Growth stays proportional while the payload trickles in.
  std::string part = PseudoRandomBytes(3u << 20, 3);
  size_t received = 0;
  for (size_t step : {size_t{1000}, size_t{200} << 10, size_t{3} << 20}) {
    ASSERT_OK(Feed(&fb, std::string_view(part).substr(received,
                                                      step - received)));
    received = step;
    EXPECT_LE(fb.capacity(), 2 * std::max(FrameBuffer::kRecvChunk, received))
        << received;
  }
  std::string payload;
  ASSERT_OK_AND_ASSIGN(bool have, fb.Next(&payload));
  EXPECT_FALSE(have);
  ::close(fds[0]);
  ::close(fds[1]);
}

// A length over kMaxFramePayload is refused from the header alone: the
// receive buffer is never sized from it.
TEST(FrameTest, OversizedLengthIsRejectedBeforeSizingTheBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint32_t header[2] = {kMaxFramePayload + 1, 0};
  ASSERT_EQ(::send(fds[1], header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  FrameBuffer fb;
  bool closed = false;
  ASSERT_OK(RecvInto(fds[0], &fb, &closed));
  ASSERT_FALSE(closed);
  EXPECT_EQ(fb.buffered(), 8u);
  size_t capacity = fb.capacity();
  EXPECT_LE(capacity, FrameBuffer::kRecvChunk);
  EXPECT_EQ(RecvInto(fds[0], &fb, &closed).code(), StatusCode::kCorruption);
  std::string payload;
  EXPECT_EQ(fb.Next(&payload).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(fb.capacity(), capacity);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FrameTest, DeriveRequestCodecRoundTrip) {
  DeriveRequest request;
  request.process = "classify-scene";
  request.version = 3;
  request.inputs["image"] = {7, 8, 9};
  request.inputs["mask"] = {41};
  BinaryWriter w;
  EncodeDeriveRequest(request, &w);
  BinaryReader r(w.buffer());
  ASSERT_OK_AND_ASSIGN(DeriveRequest decoded, DecodeDeriveRequest(&r));
  EXPECT_EQ(decoded.process, "classify-scene");
  EXPECT_EQ(decoded.version, 3);
  EXPECT_EQ(decoded.inputs, request.inputs);
}

TEST(FrameTest, HostileElementCountIsRejectedBeforeAllocating) {
  // A count field claiming ~4 billion oids in a 12-byte payload must fail
  // as corruption instead of attempting a multi-GiB reserve().
  BinaryWriter w;
  w.PutString("p");       // process
  w.PutI32(1);            // version
  w.PutU32(1);            // one input arg
  w.PutString("image");   // arg name
  w.PutU32(0xFFFFFFFFu);  // hostile oid count, no oids follow
  BinaryReader r(w.buffer());
  auto request = DecodeDeriveRequest(&r);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kCorruption);
}

constexpr ProvenanceKind kAllProvenanceKinds[] = {
    ProvenanceKind::kAncestors, ProvenanceKind::kDescendants,
    ProvenanceKind::kWhy,       ProvenanceKind::kWhere,
    ProvenanceKind::kDiff,      ProvenanceKind::kChain,
};

TEST(FrameTest, ProvenanceRequestCodecRoundTrip) {
  for (ProvenanceKind kind : kAllProvenanceKinds) {
    ProvenanceRequest request;
    request.kind = kind;
    request.oid = 42;
    request.oid_b = 43;
    request.max_depth = 7;
    BinaryWriter w;
    EncodeProvenanceRequest(request, &w);
    BinaryReader r(w.buffer());
    ASSERT_OK_AND_ASSIGN(ProvenanceRequest decoded,
                         DecodeProvenanceRequest(&r));
    EXPECT_EQ(decoded.kind, kind);
    EXPECT_EQ(decoded.oid, 42u);
    EXPECT_EQ(decoded.oid_b, 43u);
    EXPECT_EQ(decoded.max_depth, 7u);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(FrameTest, ProvenanceReplyCodecRoundTrip) {
  for (ProvenanceKind kind : kAllProvenanceKinds) {
    ProvenanceReply reply;
    reply.kind = kind;
    reply.oids = {11, 12};
    reply.tasks = {3};
    reply.text = "chain: classify:v2 ndvi:v1\nbase sources: #11 #12\n";
    reply.json = "{\"query\":\"chain\"}";
    BinaryWriter w;
    EncodeProvenanceReply(reply, &w);
    BinaryReader r(w.buffer());
    ASSERT_OK_AND_ASSIGN(ProvenanceReply decoded, DecodeProvenanceReply(&r));
    EXPECT_EQ(decoded.kind, kind);
    EXPECT_EQ(decoded.oids, reply.oids);
    EXPECT_EQ(decoded.tasks, reply.tasks);
    EXPECT_EQ(decoded.text, reply.text);
    EXPECT_EQ(decoded.json, reply.json);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(FrameTest, ProvenanceCodecsRejectBadKindAndHostileCounts) {
  // The first kind tag past kChain.
  const uint8_t bad_kind = static_cast<uint8_t>(ProvenanceKind::kChain) + 1;
  BinaryWriter rw;
  rw.PutU8(bad_kind);
  rw.PutU64(1);
  rw.PutU64(0);
  rw.PutU32(0);
  BinaryReader rr(rw.buffer());
  EXPECT_EQ(DecodeProvenanceRequest(&rr).status().code(),
            StatusCode::kCorruption);

  BinaryWriter kw;
  kw.PutU8(bad_kind);
  kw.PutU32(0);
  kw.PutU32(0);
  kw.PutString("");
  kw.PutString("");
  BinaryReader kr(kw.buffer());
  EXPECT_EQ(DecodeProvenanceReply(&kr).status().code(),
            StatusCode::kCorruption);

  // ~4 billion oids claimed, none follow.
  BinaryWriter ow;
  ow.PutU8(static_cast<uint8_t>(ProvenanceKind::kChain));
  ow.PutU32(0xFFFFFFFFu);
  BinaryReader orr(ow.buffer());
  EXPECT_EQ(DecodeProvenanceReply(&orr).status().code(),
            StatusCode::kCorruption);

  // A valid oid list, then ~4 billion tasks claimed.
  BinaryWriter tw;
  tw.PutU8(static_cast<uint8_t>(ProvenanceKind::kAncestors));
  tw.PutU32(1);
  tw.PutU64(5);
  tw.PutU32(0xFFFFFFFFu);
  BinaryReader tr(tw.buffer());
  EXPECT_EQ(DecodeProvenanceReply(&tr).status().code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Client/server loopback
// ---------------------------------------------------------------------------

constexpr char kSchema[] = R"(
CLASS sample (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS ident_out (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: remote-ident
)
CLASS slow_out (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: slow-ident
)
CLASS nap_out (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: nap-ident
)
)";

// The slow operator parks on this gate instead of sleeping a tuned number
// of milliseconds: tests admit work, assert on queue state while the worker
// is provably blocked, then open the gate. No wall-clock coupling, so a
// loaded CI machine cannot turn the saturation tests flaky.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// The nap operator really sleeps — only the graceful-shutdown test uses it,
// where elapsed time is benign (shutdown waits however long it takes) and a
// genuine drain-while-executing overlap is the point.
constexpr int kNapMs = 50;

ProcessDef MakeIdentityProcess(const char* name, const char* output,
                               const char* op) {
  ProcessDef def(name, output);
  EXPECT_TRUE(def.AddArg({"in", "sample", false, 1}).ok());
  if (op == nullptr) {
    EXPECT_TRUE(def.AddMapping("v", Expr::AttrRef("in", "v")).ok());
  } else {
    std::vector<ExprPtr> args;
    args.push_back(Expr::AttrRef("in", "v"));
    EXPECT_TRUE(def.AddMapping("v", Expr::OpCall(op, std::move(args))).ok());
  }
  EXPECT_TRUE(
      def.AddMapping("spatialextent", Expr::AttrRef("in", "spatialextent"))
          .ok());
  EXPECT_TRUE(
      def.AddMapping("timestamp", Expr::AttrRef("in", "timestamp")).ok());
  return def;
}

class NetTest : public ::testing::Test {
 protected:
  // Opens a kernel (schema loaded, slow operator registered) and starts a
  // server on an ephemeral port.
  void StartServer(GaeaServer::Options options) {
    dir_ = std::make_unique<TempDir>("net");
    GaeaKernel::Options kernel_options;
    kernel_options.dir = dir_->path();
    kernel_options.user = "net_test";
    ASSERT_OK_AND_ASSIGN(kernel_, GaeaKernel::Open(kernel_options));
    kernel_->SetClock(AbsTime(1));
    kernel_->SetDeriveThreads(2);

    OperatorSignature slow;
    slow.params = {TypeId::kInt};
    slow.result = TypeId::kInt;
    slow.doc = "identity that blocks on the test gate";
    slow.fn = [this](const ValueList& args) -> StatusOr<Value> {
      gate_.Wait();
      return args[0];
    };
    ASSERT_OK(kernel_->operators().Register("net_test_slow", std::move(slow)));

    OperatorSignature nap;
    nap.params = {TypeId::kInt};
    nap.result = TypeId::kInt;
    nap.doc = "identity that sleeps briefly, modeling an external procedure";
    nap.fn = [](const ValueList& args) -> StatusOr<Value> {
      std::this_thread::sleep_for(std::chrono::milliseconds(kNapMs));
      return args[0];
    };
    ASSERT_OK(kernel_->operators().Register("net_test_nap", std::move(nap)));

    ASSERT_OK(kernel_->ExecuteDdl(kSchema));
    ASSERT_OK(kernel_->DefineProcess(
        MakeIdentityProcess("slow-ident", "slow_out", "net_test_slow")));
    ASSERT_OK(kernel_->DefineProcess(
        MakeIdentityProcess("nap-ident", "nap_out", "net_test_nap")));

    server_ = std::make_unique<GaeaServer>(kernel_.get(), options);
    ASSERT_OK(server_->Start());
  }

  // Any still-parked slow operator must be released before the server's
  // drain (and the kernel teardown) can finish.
  void TearDown() override { gate_.Open(); }

  Oid InsertSample(int v) {
    const ClassDef* cls =
        kernel_->catalog().classes().LookupByName("sample").value();
    DataObject obj(*cls);
    EXPECT_TRUE(obj.Set(*cls, "v", Value::Int(v)).ok());
    EXPECT_TRUE(
        obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))).ok());
    EXPECT_TRUE(obj.Set(*cls, "timestamp", Value::Time(AbsTime(v + 1))).ok());
    return kernel_->Insert(std::move(obj)).value();
  }

  std::unique_ptr<GaeaClient> Connect() {
    auto client = GaeaClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // Polls `pred` until it holds (bounded by the ctest timeout margin).
  void WaitUntil(const std::function<bool()>& pred, const char* what) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Waits until the server has admitted at least `n` worker requests.
  void WaitForInFlight(uint64_t n) {
    WaitUntil([this, n] { return server_->stats().in_flight >= n; },
              "in_flight never reached the expected count");
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<GaeaKernel> kernel_;
  std::unique_ptr<GaeaServer> server_;
  Gate gate_;
};

TEST_F(NetTest, LoopbackRoundTrip) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  ASSERT_OK(client->Ping());

  // Definitions travel over the wire: a new class and the process deriving
  // it both arrive in one Ddl request, then a derivation uses them.
  ASSERT_OK(client->ExecuteDdl(R"(
CLASS remote_out (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: remote-ident
)
DEFINE PROCESS remote-ident
OUTPUT remote_out
ARGUMENT ( sample in )
TEMPLATE {
  MAPPINGS:
    remote_out.v = in.v;
    remote_out.spatialextent = in.spatialextent;
    remote_out.timestamp = in.timestamp;
}
)"));

  Oid input = InsertSample(7);
  bool cache_hit = true;
  ASSERT_OK_AND_ASSIGN(Oid derived,
                       client->Derive("remote-ident", {{"in", {input}}},
                                      /*version=*/0, &cache_hit));
  EXPECT_NE(derived, kInvalidOid);
  EXPECT_FALSE(cache_hit);

  // The identical request is served from the derivation cache.
  ASSERT_OK_AND_ASSIGN(Oid again,
                       client->Derive("remote-ident", {{"in", {input}}},
                                      /*version=*/0, &cache_hit));
  EXPECT_EQ(again, derived);
  EXPECT_TRUE(cache_hit);

  ProvenanceRequest chain_request;
  chain_request.kind = ProvenanceKind::kChain;
  chain_request.oid = derived;
  ASSERT_OK_AND_ASSIGN(ProvenanceReply chain,
                       client->Provenance(chain_request));
  EXPECT_EQ(chain.kind, ProvenanceKind::kChain);
  EXPECT_EQ(chain.oids, std::vector<Oid>{input});  // the base sources
  EXPECT_EQ(chain.text, "chain: remote-ident:v1\nbase sources: #" +
                            std::to_string(input) + "\n");
  EXPECT_NE(chain.json.find("\"chain\":[\"remote-ident:v1\"]"),
            std::string::npos);

  // An OID never stored is an error over the wire too, not base data.
  for (ProvenanceKind kind : kAllProvenanceKinds) {
    ProvenanceRequest unknown;
    unknown.kind = kind;
    unknown.oid = 999999;
    unknown.oid_b = derived;
    auto reply = client->Provenance(unknown);
    ASSERT_FALSE(reply.ok()) << static_cast<int>(kind);
    EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(reply.status().message(), "object 999999 is not stored");
  }

  ASSERT_OK_AND_ASSIGN(std::string stats, client->StatsJson());
  EXPECT_NE(stats.find("\"server\":"), std::string::npos);
  EXPECT_NE(stats.find("\"kernel\":"), std::string::npos);
  EXPECT_NE(stats.find("\"requests_total\":"), std::string::npos);
  EXPECT_NE(stats.find("\"derivation_cache\":"), std::string::npos);
}

// Object bytes are read from the heap straight into the reply and received
// straight into the client's frame buffer; every size from an inline heap
// record to a multi-MiB overflow chain must come back byte-equal.
TEST_F(NetTest, GetObjectRawRoundTripsObjectsOfEverySize) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  // A heap record is the payload behind an 8-byte OID header, so payloads
  // of kMaxInline - 8 and - 7 straddle the inline/overflow boundary.
  const size_t max_inline = HeapFile::kMaxInline;
  std::vector<size_t> sizes = {0,          max_inline - 8, max_inline - 7,
                               max_inline, max_inline + 1, size_t{1} << 20,
                               size_t{3} << 20};
  ObjectStore* store = kernel_->catalog().store();
  std::vector<std::pair<Oid, std::string>> objects;
  for (size_t size : sizes) {
    std::string bytes = PseudoRandomBytes(size, size);
    ASSERT_OK_AND_ASSIGN(Oid oid, store->Put(bytes));
    objects.emplace_back(oid, std::move(bytes));
  }
  // Twice over, so frames of every size follow each other on one
  // connection.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [oid, bytes] : objects) {
      ASSERT_OK_AND_ASSIGN(std::string got, client->GetObjectRaw(oid));
      EXPECT_EQ(got.size(), bytes.size());
      EXPECT_TRUE(got == bytes) << "object of " << bytes.size() << " bytes";
    }
  }
  EXPECT_EQ(client->GetObjectRaw(store->next_oid() + 5).status().code(),
            StatusCode::kNotFound);
  ASSERT_OK(client->Ping());
}

TEST_F(NetTest, DeriveBatchOverTheWire) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));

  std::vector<DeriveRequest> requests;
  std::vector<Oid> inputs;
  for (int i = 0; i < 5; ++i) {
    DeriveRequest request;
    request.process = "remote-ident";
    request.inputs["in"] = {InsertSample(100 + i)};
    inputs.push_back(request.inputs["in"][0]);
    requests.push_back(std::move(request));
  }
  // One bad request does not poison the batch: per-request status.
  DeriveRequest bad;
  bad.process = "no-such-process";
  bad.inputs["in"] = {inputs[0]};
  requests.push_back(std::move(bad));

  ASSERT_OK_AND_ASSIGN(std::vector<DeriveOutcome> outcomes,
                       client->DeriveBatch(requests));
  ASSERT_EQ(outcomes.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(outcomes[i].status);
    EXPECT_NE(outcomes[i].oid, kInvalidOid);
  }
  EXPECT_FALSE(outcomes[5].status.ok());
}

TEST_F(NetTest, ErrorsCarryStatusCodeAcrossTheWire) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  Status bad_ddl = client->ExecuteDdl("CLASS oops oops oops");
  EXPECT_FALSE(bad_ddl.ok());
  auto missing = client->Derive("no-such-process", {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(NetTest, CheckpointOverTheWire) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  Oid input = InsertSample(1);
  ASSERT_OK(client->Derive("remote-ident", {{"in", {input}}}).status());

  ASSERT_OK_AND_ASSIGN(CheckpointReply first, client->Checkpoint());
  EXPECT_EQ(first.seq, 1u);
  EXPECT_GT(first.snapshot_bytes, 0u);

  // Checkpoints keep numbering across requests, and the stats RPC reports
  // the newest one.
  ASSERT_OK(client->Derive("remote-ident", {{"in", {InsertSample(2)}}})
                .status());
  ASSERT_OK_AND_ASSIGN(CheckpointReply second, client->Checkpoint());
  EXPECT_EQ(second.seq, 2u);
  ASSERT_OK_AND_ASSIGN(std::string stats, client->StatsJson());
  EXPECT_NE(stats.find("\"checkpoint\":{\"seq\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"recovery\":{"), std::string::npos);
}

TEST_F(NetTest, BackgroundCheckpointPolicyFires) {
  GaeaServer::Options options;
  options.checkpoint_poll_ms = 10;
  StartServer(options);
  kernel_->SetCheckpointPolicy({0, /*tasks=*/1});
  auto client = Connect();
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  ASSERT_OK(
      client->Derive("remote-ident", {{"in", {InsertSample(3)}}}).status());
  // The poll thread notices the one-task backlog and checkpoints on its own.
  WaitUntil([this] { return kernel_->GetStats().checkpoint_seq >= 1; },
            "background checkpoint never ran");
}

TEST_F(NetTest, ConcurrentSessions) {
  StartServer(GaeaServer::Options());
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  constexpr int kSessions = 6;
  std::vector<Oid> inputs;
  for (int i = 0; i < kSessions; ++i) inputs.push_back(InsertSample(200 + i));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, &failures, &inputs, i] {
      auto client = GaeaClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        if (!(*client)->Ping().ok()) failures.fetch_add(1);
        auto derived =
            (*client)->Derive("remote-ident", {{"in", {inputs[i]}}});
        if (!derived.ok() || *derived == kInvalidOid) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServerStats stats = server_->stats();
  EXPECT_GE(stats.sessions_opened, static_cast<uint64_t>(kSessions));
  EXPECT_GE(stats.requests_ok, static_cast<uint64_t>(kSessions * 6));
}

TEST_F(NetTest, DeadlineExpiryReturnsUnavailable) {
  GaeaServer::Options options;
  options.workers = 1;  // one worker: the gated job blocks the queue
  StartServer(options);

  Oid slow_input = InsertSample(1);
  std::thread blocker([this, slow_input] {
    auto client = GaeaClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(
        (*client)->Derive("slow-ident", {{"in", {slow_input}}}).ok());
  });
  WaitForInFlight(1);

  // Queued behind the gated job with a short deadline. The job stays queued
  // for as long as the gate is shut, so waiting out the deadline here is
  // deterministic: the worker cannot pick it up early.
  Oid input = InsertSample(2);
  Status expired = Status::OK();
  std::thread short_deadline([this, input, &expired] {
    GaeaClient::Options client_options;
    client_options.deadline_ms = 20;
    auto client =
        GaeaClient::Connect("127.0.0.1", server_->port(), client_options);
    ASSERT_TRUE(client.ok());
    expired = (*client)->Derive("slow-ident", {{"in", {input}}}).status();
  });
  WaitForInFlight(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate_.Open();
  short_deadline.join();
  blocker.join();

  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.code(), StatusCode::kUnavailable);
  ServerStats stats = server_->stats();
  EXPECT_GE(stats.rejected_deadline, 1u);
  // Rejections live only in rejected_*, not also in requests_error.
  EXPECT_EQ(stats.requests_error, 0u);
}

TEST_F(NetTest, BackpressureReturnsUnavailable) {
  GaeaServer::Options options;
  options.workers = 1;
  options.max_inflight = 1;  // the gated job saturates admission
  StartServer(options);

  Oid slow_input = InsertSample(1);
  std::thread blocker([this, slow_input] {
    auto client = GaeaClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(
        (*client)->Derive("slow-ident", {{"in", {slow_input}}}).ok());
  });
  WaitForInFlight(1);

  // Admission is synchronous: with the single slot provably held by the
  // parked job, this derive is rejected at the door.
  auto client = Connect();
  auto rejected = (*client).Derive("slow-ident", {{"in", {InsertSample(2)}}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  ServerStats stats = server_->stats();
  EXPECT_GE(stats.rejected_overload, 1u);
  // Rejections live only in rejected_*, not also in requests_error.
  EXPECT_EQ(stats.requests_error, 0u);

  // Light requests bypass the worker pool, so a saturated server still
  // answers pings and stats.
  ASSERT_OK(client->Ping());

  gate_.Open();
  blocker.join();
}

TEST_F(NetTest, RetriedDeriveWithSameIdempotencyKeyExecutesOnce) {
  StartServer(GaeaServer::Options());
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  Oid input = InsertSample(7);
  size_t tasks_before = kernel_->GetStats().tasks;

  // Two fresh connections with the same pinned nonce issue the same derive:
  // this is the shape of a retry whose first response was lost — the client
  // reconnected and sent the identical (nonce, request id) pair.
  GaeaClient::Options options;
  options.idem_nonce = 0xFEEDFACE;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GaeaClient> first,
      GaeaClient::Connect("127.0.0.1", server_->port(), options));
  bool cache_hit = true;
  ASSERT_OK_AND_ASSIGN(Oid derived,
                       first->Derive("remote-ident", {{"in", {input}}},
                                     /*version=*/0, &cache_hit));
  EXPECT_FALSE(cache_hit);

  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GaeaClient> retry,
      GaeaClient::Connect("127.0.0.1", server_->port(), options));
  cache_hit = true;
  ASSERT_OK_AND_ASSIGN(Oid replayed,
                       retry->Derive("remote-ident", {{"in", {input}}},
                                     /*version=*/0, &cache_hit));

  // Same OID, and cache_hit is still false: the response was replayed from
  // the idempotency cache, not re-derived (a re-execution would have hit the
  // derivation cache and reported cache_hit = true).
  EXPECT_EQ(replayed, derived);
  EXPECT_FALSE(cache_hit);
  EXPECT_EQ(kernel_->GetStats().tasks, tasks_before + 1);
  EXPECT_EQ(server_->stats().dedup_hits, 1u);
}

TEST_F(NetTest, RetryPolicyAbsorbsBackpressure) {
  GaeaServer::Options options;
  options.workers = 1;
  options.max_inflight = 1;  // the slow job saturates admission
  StartServer(options);

  Oid slow_input = InsertSample(1);
  std::thread blocker([this, slow_input] {
    auto client = GaeaClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(
        (*client)->Derive("slow-ident", {{"in", {slow_input}}}).ok());
  });
  WaitForInFlight(1);

  // Same saturation as BackpressureReturnsUnavailable, but this client is
  // allowed to retry: the kUnavailable rejections are absorbed by backoff
  // and the call succeeds once the parked job drains. The gate opens only
  // after at least one retry has provably met the saturated server.
  Oid input = InsertSample(2);
  Oid derived = kInvalidOid;
  std::thread retrying([this, input, &derived] {
    GaeaClient::Options client_options;
    client_options.retry.max_attempts = 50;
    client_options.retry.initial_backoff_ms = 20;
    client_options.retry.max_backoff_ms = 100;
    auto client =
        GaeaClient::Connect("127.0.0.1", server_->port(), client_options);
    ASSERT_TRUE(client.ok());
    auto oid = (*client)->Derive("slow-ident", {{"in", {input}}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    derived = *oid;
  });
  WaitUntil([this] { return server_->stats().rejected_overload >= 1; },
            "the retrying client never met the saturated server");
  gate_.Open();
  retrying.join();
  blocker.join();
  EXPECT_NE(derived, kInvalidOid);

  ServerStats stats = server_->stats();
  // The retries really did meet a saturated server...
  EXPECT_GE(stats.rejected_overload, 1u);
  // ...and none of that surfaced as an executed-request failure.
  EXPECT_EQ(stats.requests_error, 0u);
}

TEST_F(NetTest, GracefulShutdownDrainsInFlightWork) {
  StartServer(GaeaServer::Options());
  Oid slow_input = InsertSample(1);
  std::atomic<bool> derive_ok{false};
  std::thread in_flight([this, slow_input, &derive_ok] {
    auto client = GaeaClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    auto derived = (*client)->Derive("nap-ident", {{"in", {slow_input}}});
    derive_ok.store(derived.ok() && *derived != kInvalidOid);
  });
  WaitForInFlight(1);

  int port = server_->port();
  server_->Shutdown();
  in_flight.join();
  // The admitted derivation was answered, not dropped.
  EXPECT_TRUE(derive_ok.load());
  // And the listener is gone.
  auto late = GaeaClient::Connect("127.0.0.1", port);
  EXPECT_FALSE(late.ok());
}

// Opens a raw TCP connection to the loopback server — for frames the
// GaeaClient would never send.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Blocks for the next response frame and decodes its header.
ResponseHeader AwaitResponse(int fd) {
  FrameBuffer fb;
  std::string payload;
  for (;;) {
    auto have = fb.Next(&payload);
    EXPECT_TRUE(have.ok());
    if (have.ok() && *have) break;
    bool closed = false;
    Status recv = RecvInto(fd, &fb, &closed);
    EXPECT_TRUE(recv.ok()) << recv.ToString();
    EXPECT_FALSE(closed) << "connection closed before a response";
    if (!recv.ok() || closed) return ResponseHeader{};
  }
  BinaryReader reader(payload);
  auto header = DecodeResponseHeader(&reader);
  EXPECT_TRUE(header.ok());
  return header.ok() ? *header : ResponseHeader{};
}

// Sends one request with `body` on a raw connection and waits for the
// response.
ResponseHeader RawCall(int fd, const RequestHeader& header,
                       const BinaryWriter& body) {
  BinaryWriter w;
  EncodeRequestHeader(header, &w);
  w.PutRaw(body.buffer().data(), body.buffer().size());
  Status sent = SendPayload(fd, w.buffer());
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  return AwaitResponse(fd);
}

// Performs the hello handshake on a raw connection.
void RawHandshake(int fd) {
  RequestHeader hello;
  hello.type = MsgType::kHello;
  hello.id = 1;
  BinaryWriter w;
  EncodeRequestHeader(hello, &w);
  EncodeHello(&w);
  ASSERT_OK(SendPayload(fd, w.buffer()));
  EXPECT_EQ(AwaitResponse(fd).code, StatusCode::kOk);
}

TEST_F(NetTest, BadHelloAndHandshakeBypassAreRejected) {
  StartServer(GaeaServer::Options());

  // Wrong magic, or the protocol before DefineProcess and Subscribe
  // retired: kFailedPrecondition, then the server hangs up.
  RequestHeader hello;
  hello.type = MsgType::kHello;
  hello.id = 1;
  const std::pair<uint32_t, uint16_t> bad_hellos[] = {
      {0xDEADBEEF, kProtocolVersion}, {kMagic, 4}};
  for (auto [magic, version] : bad_hellos) {
    int fd = RawConnect(server_->port());
    BinaryWriter w;
    EncodeRequestHeader(hello, &w);
    w.PutU32(magic);
    w.PutU16(version);
    ASSERT_OK(SendPayload(fd, w.buffer()));
    EXPECT_EQ(AwaitResponse(fd).code, StatusCode::kFailedPrecondition)
        << "version " << version;
    ::close(fd);
  }

  // Skipping the handshake entirely is just as unacceptable.
  int fd = RawConnect(server_->port());
  RequestHeader ping;
  ping.type = MsgType::kPing;
  ping.id = 1;
  BinaryWriter w;
  EncodeRequestHeader(ping, &w);
  ASSERT_OK(SendPayload(fd, w.buffer()));
  EXPECT_EQ(AwaitResponse(fd).code, StatusCode::kFailedPrecondition);
  ::close(fd);
}

// Retired types (4 DefineProcess, 7 Lineage, 13 Subscribe), the response
// tag and the first type past the last verb have no kVerbs row: each is
// refused like any unknown type, and the connection closed, without
// reaching a worker.
TEST_F(NetTest, RetiredLineageTypeIsAnUnknownRequest) {
  StartServer(GaeaServer::Options());
  const int past_last = static_cast<int>(std::end(kVerbs)[-1].type) + 1;
  for (int type : {4, 7, 9, 13, past_last}) {
    SCOPED_TRACE("type " + std::to_string(type));
    int fd = RawConnect(server_->port());
    RawHandshake(fd);
    BinaryWriter w;
    w.PutU8(static_cast<uint8_t>(type));
    w.PutU64(2);  // request id
    w.PutU32(0);  // deadline
    w.PutU64(0);  // idem
    w.PutU64(0);  // trace id
    w.PutU64(0);  // min lsn
    w.PutU64(1);  // a body, as the retired verbs carried
    ASSERT_OK(SendPayload(fd, w.buffer()));
    ResponseHeader reply = AwaitResponse(fd);
    EXPECT_EQ(reply.code, StatusCode::kInvalidArgument);
    EXPECT_NE(
        reply.message.find("unknown request type " + std::to_string(type)),
        std::string::npos)
        << reply.message;
    ::close(fd);
  }
  EXPECT_EQ(server_->stats().requests_ok, 5u);  // the five handshakes
}

// ---------------------------------------------------------------------------
// Trace propagation over the wire (docs/OBSERVABILITY.md)
// ---------------------------------------------------------------------------

TEST(WireTest, OkResponseHeaderHasTheAdvertisedSize) {
  ResponseHeader header;
  header.id = ~0ull;
  header.request_type = MsgType::kGetObject;
  header.trace_id = 42;
  header.applied_lsn = 1u << 30;
  BinaryWriter w;
  EncodeResponseHeader(header, &w);
  EXPECT_EQ(w.size(), kOkResponseHeaderBytes);
}

TEST(WireTest, TraceIdSurvivesHeaderRoundTrip) {
  RequestHeader request;
  request.type = MsgType::kDerive;
  request.id = 9;
  request.deadline_ms = 250;
  request.idem = 0xAB;
  request.trace_id = 0x1122334455667788ull;
  BinaryWriter w;
  EncodeRequestHeader(request, &w);
  BinaryReader r(w.buffer());
  ASSERT_OK_AND_ASSIGN(RequestHeader decoded, DecodeRequestHeader(&r));
  EXPECT_EQ(decoded.trace_id, request.trace_id);

  ResponseHeader response;
  response.id = 9;
  response.request_type = MsgType::kDerive;
  response.code = StatusCode::kNotFound;
  response.message = "nope";
  response.trace_id = 0x8877665544332211ull;
  BinaryWriter rw;
  EncodeResponseHeader(response, &rw);
  BinaryReader rr(rw.buffer());
  ASSERT_OK_AND_ASSIGN(ResponseHeader rdecoded, DecodeResponseHeader(&rr));
  EXPECT_EQ(rdecoded.trace_id, response.trace_id);
  EXPECT_EQ(rdecoded.code, StatusCode::kNotFound);
}

TEST_F(NetTest, ServerEchoesRequestTraceId) {
  StartServer(GaeaServer::Options());
  int fd = RawConnect(server_->port());
  RawHandshake(fd);

  RequestHeader ping;
  ping.type = MsgType::kPing;
  ping.id = 2;
  ping.trace_id = 0xBEEFCAFE;
  BinaryWriter w;
  EncodeRequestHeader(ping, &w);
  ASSERT_OK(SendPayload(fd, w.buffer()));
  ResponseHeader reply = AwaitResponse(fd);
  EXPECT_EQ(reply.code, StatusCode::kOk);
  EXPECT_EQ(reply.trace_id, 0xBEEFCAFEu);
  ::close(fd);
}

TEST_F(NetTest, DedupReplayEchoesOriginalTraceAndCountsNothingTwice) {
  StartServer(GaeaServer::Options());
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  Oid input = InsertSample(7);

  BinaryWriter body;
  DeriveRequest derive;
  derive.process = "remote-ident";
  derive.inputs["in"] = {input};
  EncodeDeriveRequest(derive, &body);

  // One connection, one handshake: both sends share every counter baseline
  // except what the derive itself moves.
  int fd = RawConnect(server_->port());
  RawHandshake(fd);
  auto send_derive = [&](uint64_t trace_id) -> ResponseHeader {
    RequestHeader header;
    header.type = MsgType::kDerive;
    header.id = 2;
    header.idem = 0xFEEDFACE;  // same (idem, id) pair both times: a retry
    header.trace_id = trace_id;
    return RawCall(fd, header, body);
  };

  ResponseHeader original = send_derive(/*trace_id=*/101);
  EXPECT_EQ(original.code, StatusCode::kOk);
  EXPECT_EQ(original.trace_id, 101u);
  uint64_t completed_after_first =
      kernel_->metrics().GetCounter("gaea_derives_completed_total")->value();
  uint64_t ok_after_first = server_->stats().requests_ok;

  // The retry carries its own (different) trace id, but the replayed bytes
  // are the original execution's response — original trace id included —
  // and no execution metric moves.
  ResponseHeader replay = send_derive(/*trace_id=*/202);
  EXPECT_EQ(replay.code, StatusCode::kOk);
  EXPECT_EQ(replay.trace_id, 101u);
  EXPECT_EQ(server_->stats().dedup_hits, 1u);
  EXPECT_EQ(
      kernel_->metrics().GetCounter("gaea_derives_completed_total")->value(),
      completed_after_first);
  EXPECT_EQ(server_->stats().requests_ok, ok_after_first);
  ::close(fd);
}

// Only the verbs whose row replays are remembered: reads sent with the
// same nonce neither evict a recorded write nor get replayed themselves.
TEST_F(NetTest, ReadsDoNotCrowdWritesOutOfTheReplayCache) {
  GaeaServer::Options options;
  options.dedup_capacity = 4;
  StartServer(options);
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  Oid input = InsertSample(7);

  int fd = RawConnect(server_->port());
  RawHandshake(fd);
  constexpr uint64_t kIdem = 0xFEEDFACE;
  auto send = [&](MsgType type, uint64_t id, uint64_t trace_id,
                  const BinaryWriter& body) -> ResponseHeader {
    RequestHeader header;
    header.type = type;
    header.id = id;
    header.idem = kIdem;
    header.trace_id = trace_id;
    return RawCall(fd, header, body);
  };
  BinaryWriter derive;
  DeriveRequest request;
  request.process = "remote-ident";
  request.inputs["in"] = {input};
  EncodeDeriveRequest(request, &derive);
  BinaryWriter ancestors;
  ProvenanceRequest why;
  why.kind = ProvenanceKind::kAncestors;
  why.oid = input;
  EncodeProvenanceRequest(why, &ancestors);

  EXPECT_EQ(send(MsgType::kDerive, 1, 0, derive).code, StatusCode::kOk);
  // As many reads as the cache has entries, all under the same nonce.
  for (uint64_t id = 2; id <= 5; ++id) {
    EXPECT_EQ(send(MsgType::kProvenance, id, 0, ancestors).code,
              StatusCode::kOk);
  }
  // The derive's entry survived them: its retry is a replay.
  EXPECT_EQ(send(MsgType::kDerive, 1, 0, derive).code, StatusCode::kOk);
  EXPECT_EQ(server_->stats().dedup_hits, 1u);

  // A read sent twice under the same (idem, id) executes twice: the
  // second reply echoes the retry's own trace id, not the first one's.
  uint64_t ok_before = server_->stats().requests_ok;
  EXPECT_EQ(send(MsgType::kProvenance, 6, 301, ancestors).trace_id, 301u);
  EXPECT_EQ(send(MsgType::kProvenance, 6, 302, ancestors).trace_id, 302u);
  EXPECT_EQ(server_->stats().requests_ok, ok_before + 2);
  EXPECT_EQ(server_->stats().dedup_hits, 1u);
  ::close(fd);
}

// Every kVerbs row gets one OK round trip through GaeaClient. A verb
// added to the table without a case here fails the test.
TEST_F(NetTest, EveryVerbRoundTrips) {
  StartServer(GaeaServer::Options());
  ASSERT_OK(kernel_->DefineProcess(
      MakeIdentityProcess("remote-ident", "ident_out", nullptr)));
  Oid input = InsertSample(3);
  auto client = Connect();
  DeriveRequest derive;
  derive.process = "remote-ident";
  derive.inputs["in"] = {input};
  InsertObjectRequest insert;
  insert.class_name = "sample";
  insert.attrs = {{"v", Value::Int(4)},
                  {"spatialextent", Value::OfBox(Box(0, 0, 1, 1))},
                  {"timestamp", Value::Time(AbsTime(5))}};
  ProvenanceRequest ancestors;
  ancestors.oid = input;
  const std::map<MsgType, std::function<Status()>> cases = {
      {MsgType::kHello,
       [&] {
         return GaeaClient::Connect("127.0.0.1", server_->port()).status();
       }},
      {MsgType::kPing, [&] { return client->Ping(); }},
      {MsgType::kDdl,
       [&] {
         return client->ExecuteDdl("CLASS extra ( ATTRIBUTES: v = int4; )");
       }},
      {MsgType::kDerive,
       [&] { return client->Derive("remote-ident", derive.inputs).status(); }},
      {MsgType::kDeriveBatch,
       [&] { return client->DeriveBatch({derive}).status(); }},
      {MsgType::kStats, [&] { return client->StatsJson().status(); }},
      {MsgType::kMetrics, [&] { return client->Metrics().status(); }},
      {MsgType::kLint, [&] { return client->Lint().status(); }},
      {MsgType::kCheckpoint, [&] { return client->Checkpoint().status(); }},
      {MsgType::kShipBatch,
       [&] { return client->ShipBatch(ShipRequest{}).status(); }},
      {MsgType::kReplicaStatus,
       [&] { return client->ReplicaStatus().status(); }},
      {MsgType::kInsertObject,
       [&] { return client->InsertObject(insert).status(); }},
      {MsgType::kGetObject,
       [&] { return client->GetObjectRaw(input).status(); }},
      {MsgType::kProvenance,
       [&] { return client->Provenance(ancestors).status(); }},
  };
  // Each worker verb's request adds exactly one sample to its own
  // gaead_request_latency_micros{verb=...} series. The sample lands just
  // after the reply is sent, so wait for the request to leave in_flight.
  obs::MetricsRegistry& metrics = kernel_->metrics();
  auto latency = [&](const Verb& verb) {
    return metrics.GetHistogram(obs::LabelledName(
        "gaead_request_latency_micros", "verb", verb.name));
  };
  uint64_t sum_of_sums = 0;
  for (const Verb& verb : kVerbs) {
    auto it = cases.find(verb.type);
    ASSERT_NE(it, cases.end()) << "no round-trip case for " << verb.name;
    const bool worker = verb.runs == RunsOn::kWorker;
    uint64_t before = worker ? latency(verb)->count() : 0;
    Status status = it->second();
    EXPECT_TRUE(status.ok()) << verb.name << ": " << status.ToString();
    WaitUntil([this] { return server_->stats().in_flight == 0; },
              "the request never left in_flight");
    if (worker) {
      EXPECT_EQ(latency(verb)->count(), before + 1) << verb.name;
      sum_of_sums += latency(verb)->sum();
    }
  }
  EXPECT_EQ(cases.size(), std::size(kVerbs));
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests_error, 0u);
  EXPECT_EQ(stats.latency_micros_total, sum_of_sums);
  // Reader-thread verbs are not timed, and every series of the family is
  // a per-verb histogram series: the stats total is derived from them, not
  // kept beside them.
  std::string text = metrics.Render();
  EXPECT_EQ(text.find("verb=\"Ping\""), std::string::npos);
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with("gaead_request_latency_micros")) continue;
    EXPECT_TRUE(line.starts_with("gaead_request_latency_micros_bucket{verb=") ||
                line.starts_with("gaead_request_latency_micros_sum{verb=") ||
                line.starts_with("gaead_request_latency_micros_count{verb="))
        << line;
  }
}

TEST_F(NetTest, MetricsEndpointServesPrometheusText) {
  StartServer(GaeaServer::Options());
  auto client = Connect();
  ASSERT_OK(client->Ping());
  ASSERT_OK_AND_ASSIGN(std::string text, client->Metrics());
  EXPECT_NE(text.find("# TYPE gaead_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gaead_requests_total "), std::string::npos);
  EXPECT_NE(text.find("gaea_derivation_cache_hits"), std::string::npos);
  EXPECT_NE(text.find("gaead_request_latency_micros_bucket"),
            std::string::npos);
}

TEST_F(NetTest, LintRoundTripsDiagnostics) {
  StartServer(GaeaServer::Options());
  auto client = Connect();

  // A class derived by a process that does not exist yet: a known warning
  // (GA101) the remote lint must surface with its full anchor intact.
  ASSERT_OK(client->ExecuteDdl(
      "CLASS ghost ( ATTRIBUTES: x = int4; DERIVED BY: later )"));

  ASSERT_OK_AND_ASSIGN(std::vector<Diagnostic> diags, client->Lint());
  const Diagnostic* ga101 = nullptr;
  for (const Diagnostic& d : diags) {
    if (d.code == "GA101" && d.location.find("ghost") != std::string::npos) {
      ga101 = &d;
    }
  }
  ASSERT_NE(ga101, nullptr) << FormatDiagnostics(diags);
  EXPECT_EQ(ga101->severity, FindDiagnosticCode("GA101")->severity);
  EXPECT_NE(ga101->message.find("later"), std::string::npos)
      << ga101->ToString();

  // The reply is normalized (sorted by file/line/code) and identical to
  // what an in-process lint of the same kernel reports.
  std::vector<Diagnostic> sorted = diags;
  NormalizeDiagnostics(&sorted);
  EXPECT_EQ(FormatDiagnostics(diags), FormatDiagnostics(sorted));
  EXPECT_EQ(FormatDiagnostics(diags),
            FormatDiagnostics(kernel_->LintCatalog()));
}

}  // namespace
}  // namespace gaea::net
