#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <thread>

#include "harness.h"
#include "raster/scene.h"
#include "util/serialize.h"

namespace perfbench {

using gaea::ClassDef;
using gaea::DataObject;
using gaea::DeriveOutcome;
using gaea::DeriveRequest;
using gaea::GaeaKernel;
using gaea::Image;
using gaea::ImagePtr;
using gaea::Oid;
using gaea::Status;
using gaea::StatusOr;
using gaea::Value;
using gaea::net::GaeaClient;

const char* OpName(Op op) {
  switch (op) {
    case Op::kDeriveCold: return "derive_cold";
    case Op::kDeriveCached: return "derive_cached";
    case Op::kGetSmall: return "get_small";
    case Op::kGetLarge: return "get_large";
    case Op::kGetDerived: return "get_derived";
    case Op::kWhy: return "why";
    case Op::kInsert: return "insert";
  }
  return "?";
}

void ClientLog::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

uint64_t ClientLog::completed() const {
  uint64_t n = 0;
  for (const std::vector<double>& v : us) n += v.size();
  return n;
}

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void CheckOk(const Status& s, const std::string& what) {
  if (s.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

namespace {

template <typename T>
T Must(StatusOr<T> v, const std::string& what) {
  CheckOk(v.status(), what);
  return *std::move(v);
}

// Figure 3's unsupervised classification (12 classes) and Figure 5's change
// detection, plus a threshold stage so lineage reaches depth 3:
// bands -> landcover -> landcover_changes -> change_mask.
constexpr char kSchema[] = R"(
CLASS landsat_tm_rectified (
  ATTRIBUTES:
    band = int4;
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS raster_chip (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS landcover (
  ATTRIBUTES:
    numclass = int4;
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: unsupervised-classification
)
CLASS landcover_changes (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: detect-change
)
CLASS change_mask (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: mask-change
)
DEFINE PROCESS unsupervised-classification
OUTPUT landcover
ARGUMENT ( SETOF landsat_tm_rectified bands MIN 3 )
PARAMETERS { numclass = 12; }
TEMPLATE {
  ASSERTIONS:
    card(bands) >= 3;
    common(bands.spatialextent);
    common(bands.timestamp);
  MAPPINGS:
    landcover.data = unsuperclassify(composite(bands.data), $numclass);
    landcover.numclass = $numclass;
    landcover.spatialextent = ANYOF bands.spatialextent;
    landcover.timestamp = ANYOF bands.timestamp;
}
DEFINE PROCESS detect-change
OUTPUT landcover_changes
ARGUMENT ( landcover before, landcover after )
TEMPLATE {
  ASSERTIONS:
    common(before.spatialextent, after.spatialextent);
  MAPPINGS:
    landcover_changes.data = changemap(before.data, after.data, 12);
    landcover_changes.spatialextent = after.spatialextent;
    landcover_changes.timestamp = after.timestamp;
}
DEFINE PROCESS mask-change
OUTPUT change_mask
ARGUMENT ( landcover_changes changes )
TEMPLATE {
  MAPPINGS:
    change_mask.data = img_threshold(changes.data, 0.5);
    change_mask.spatialextent = changes.spatialextent;
    change_mask.timestamp = changes.timestamp;
}
)";

constexpr char kClassify[] = "unsupervised-classification";

// Most serialized bytes a workload inserts or derives in one run. The
// object heap is a single file that grows with every write, so a run stops
// writing here rather than grow it past a file-size limit on a faster
// machine; at the sizes below a run ends by time, well under the budget.
constexpr uint64_t kWriteBudgetBytes = 256ull << 20;

using Inputs = std::map<std::string, std::vector<Oid>>;

const ClassDef& LookupClass(GaeaKernel& kernel, const std::string& name) {
  return *Must(kernel.catalog().classes().LookupByName(name), "class " + name);
}

Oid InsertImage(GaeaKernel& kernel, const ClassDef& cls, ImagePtr image,
                int band, int64_t timestamp) {
  DataObject obj(cls);
  if (band >= 0) CheckOk(obj.Set(cls, "band", Value::Int(band)), "set band");
  CheckOk(obj.Set(cls, "data", Value::OfImage(std::move(image))), "set data");
  CheckOk(obj.Set(cls, "spatialextent", Value::OfBox(gaea::Box(0, 0, 1, 1))),
          "set extent");
  CheckOk(obj.Set(cls, "timestamp", Value::Time(gaea::AbsTime(timestamp))),
          "set timestamp");
  return Must(kernel.Insert(std::move(obj)), "insert");
}

std::string StoredBytes(GaeaKernel& kernel, Oid oid) {
  return Must(kernel.catalog().store()->Get(oid), "stored bytes");
}

// A stored object's bytes without its leading u64 OID: what two kernels
// that ran the same derivation must agree on byte for byte.
std::string WithoutOid(const std::string& payload) {
  return payload.size() < 8 ? std::string() : payload.substr(8);
}

std::vector<ImagePtr> Scene(int rows, int cols, int bands, uint64_t seed) {
  gaea::SceneSpec spec;
  spec.nrow = rows;
  spec.ncol = cols;
  spec.nbands = bands;
  spec.seed = seed;
  std::vector<ImagePtr> out;
  for (Image& band : Must(gaea::GenerateScene(spec), "scene")) {
    out.push_back(std::make_shared<const Image>(std::move(band)));
  }
  return out;
}

// A scene as 8-bit digital numbers, the way a Landsat TM band is delivered:
// reflectances in [0,1] scaled to 0..255, one byte per pixel.
std::vector<ImagePtr> DigitalNumbers(const std::vector<ImagePtr>& bands) {
  std::vector<ImagePtr> out;
  for (const ImagePtr& band : bands) {
    std::vector<double> values;
    values.reserve(band->PixelCount());
    for (int r = 0; r < band->nrow(); ++r) {
      for (int c = 0; c < band->ncol(); ++c) {
        values.push_back(std::round(255.0 * band->Get(r, c)));
      }
    }
    out.push_back(std::make_shared<const Image>(
        Must(Image::FromValues(band->nrow(), band->ncol(), values,
                               gaea::PixelType::kUInt8),
             "digital numbers")));
  }
  return out;
}

// Runs one batch of derivations in process, all expected to compute.
std::vector<Oid> DeriveAll(GaeaKernel& kernel,
                           const std::vector<DeriveRequest>& requests) {
  std::vector<DeriveOutcome> outcomes =
      Must(kernel.DeriveBatch(requests), "derive batch");
  std::vector<Oid> oids;
  for (const DeriveOutcome& outcome : outcomes) {
    CheckOk(outcome.status, "derive " + requests[oids.size()].process);
    oids.push_back(outcome.oid);
  }
  return oids;
}

std::unique_ptr<GaeaKernel> OpenReference(const std::string& dir) {
  std::filesystem::remove_all(dir);
  GaeaKernel::Options options;
  options.dir = dir;
  options.durability = gaea::DurabilityMode::kOs;
  auto kernel = Must(GaeaKernel::Open(options), "open reference kernel");
  kernel->SetDeriveThreads(HardwareThreads());
  CheckOk(kernel->ExecuteDdl(kSchema), "reference ddl");
  return kernel;
}

// Expected why-provenance of one derived object: its witness per argument
// (argument order, input order) and its base witness set.
struct WhyExpect {
  std::string witnesses;      // JSON object, exactly as the reply renders it
  std::vector<Oid> base;      // sorted
};

std::string WitnessJson(const Inputs& inputs) {
  std::string out = "{";
  for (const auto& [arg, oids] : inputs) {
    if (out.size() > 1) out += ',';
    out += "\"" + arg + "\":[";
    for (size_t i = 0; i < oids.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(oids[i]);
    }
    out += ']';
  }
  return out + "}";
}

// Checks a why reply's JSON against `expect`; empty string when it matches.
std::string CheckWhy(const std::string& json, Oid oid,
                     const WhyExpect& expect) {
  const std::string output = "\"output\":" + std::to_string(oid) + ",";
  if (json.find(output) == std::string::npos) {
    return "why names another output";
  }
  if (json.find("\"witnesses\":" + expect.witnesses) == std::string::npos) {
    return "why witness differs";
  }
  const std::string key = "\"base_witnesses\":[";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return "why reply has no base witness";
  std::vector<Oid> base;
  const char* p = json.c_str() + pos + key.size();
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    base.push_back(std::strtoull(p, &end, 10));
    if (end == p) return "why base witness unparsable";
    p = *end == ',' ? end + 1 : end;
  }
  std::sort(base.begin(), base.end());
  return base == expect.base ? std::string() : "why base witness differs";
}

gaea::net::ProvenanceRequest WhyRequest(Oid oid) {
  gaea::net::ProvenanceRequest request;
  request.kind = gaea::net::ProvenanceKind::kWhy;
  request.oid = oid;
  return request;
}

// Remote why on `oid`, timed and checked.
void TimedWhy(GaeaClient& client, Oid oid, const WhyExpect& expect,
              ClientLog& log) {
  auto t0 = Clock::now();
  auto reply = client.Provenance(WhyRequest(oid));
  auto t1 = Clock::now();
  ++log.attempted;
  if (!reply.ok()) return log.Fail("why: " + reply.status().ToString());
  std::string wrong = CheckWhy(reply->json, oid, expect);
  if (!wrong.empty()) return log.Fail(wrong);
  log.Ok(Op::kWhy, MicrosBetween(t0, t1));
}

void ProbeWhy(GaeaKernel& kernel, const std::vector<Oid>& oids, int n,
              Probes* out) {
  for (int i = 0; i < n && !oids.empty(); ++i) {
    gaea::obs::SpanGuard span("bench:why", "bench");
    auto t0 = Clock::now();
    CheckOk(kernel.ProvenanceWhy(oids[i % oids.size()]).status(), "probe why");
    out->why_us.push_back(MicrosBetween(t0, Clock::now()));
  }
}

// ---------------------------------------------------------------------------
// classify_cold: one client, remote Figure 3 derivations that all compute.
// ---------------------------------------------------------------------------

class ClassifyCold : public Workload {
 public:
  static constexpr int kRows = 256;
  static constexpr int kCols = 256;
  static constexpr int kPoolBands = 16;  // 16*15*14 = 3360 ordered triples

  explicit ClassifyCold(uint64_t seed) : seed_(seed) {}

  int clients() const override { return 1; }
  int warmup_steps() const override { return 2; }

  void Load(GaeaKernel& kernel, const std::string& scratch_dir) override {
    // A fixed pool of co-registered bands; each request classifies a
    // distinct ordered triple, so no request can hit the cache while the
    // inputs stay bounded (16 bands of 512 KiB, far past the 1 MiB pool).
    std::vector<ImagePtr> pool = Scene(kRows, kCols, kPoolBands, seed_);
    const ClassDef& cls = LookupClass(kernel, "landsat_tm_rectified");
    for (int b = 0; b < kPoolBands; ++b) {
      bands_.push_back(InsertImage(kernel, cls, pool[b], b, 1));
      user_bytes_ += StoredBytes(kernel, bands_.back()).size();
    }
    for (int a = 0; a < kPoolBands; ++a) {
      for (int b = 0; b < kPoolBands; ++b) {
        for (int c = 0; c < kPoolBands; ++c) {
          if (a != b && b != c && a != c) triples_.push_back({a, b, c});
        }
      }
    }
    std::mt19937_64 rng(seed_);
    std::shuffle(triples_.begin(), triples_.end(), rng);
    outputs_.assign(triples_.size(), gaea::kInvalidOid);

    // Reference outputs for a sample of positions, derived in process on a
    // second kernel that holds the same bands under the same OIDs.
    auto ref = OpenReference(scratch_dir);
    const ClassDef& ref_cls = LookupClass(*ref, "landsat_tm_rectified");
    for (int b = 0; b < kPoolBands; ++b) {
      Oid oid = InsertImage(*ref, ref_cls, pool[b], b, 1);
      if (oid != bands_[b]) CheckOk(Status::Internal("oid skew"), "reference");
    }
    std::vector<DeriveRequest> requests;
    for (size_t pos : kSamples) requests.push_back(Request(pos));
    std::vector<Oid> outs = DeriveAll(*ref, requests);
    for (size_t i = 0; i < outs.size(); ++i) {
      reference_[kSamples[i]] = WithoutOid(StoredBytes(*ref, outs[i]));
    }
    output_bytes_ = reference_.begin()->second.size() + 8;
    ref.reset();
    std::filesystem::remove_all(scratch_dir);
  }

  bool Step(GaeaClient& client, int c, ClientLog& log) override {
    (void)c;
    if (user_bytes() >= kWriteBudgetBytes) return false;
    size_t pos = next_.fetch_add(1);
    if (pos >= triples_.size()) return false;
    DeriveRequest request = Request(pos);
    bool hit = true;
    auto t0 = Clock::now();
    auto oid = client.Derive(request.process, request.inputs, 0, &hit);
    auto t1 = Clock::now();
    ++log.attempted;
    if (!oid.ok()) {
      log.Fail("derive: " + oid.status().ToString());
    } else if (hit) {
      log.Fail("derive of a new triple was a cache hit");
    } else {
      outputs_[pos] = *oid;
      done_.fetch_add(1);
      log.Ok(Op::kDeriveCold, MicrosBetween(t0, t1));
    }
    return true;
  }

  void Verify(GaeaClient& client, ClientLog& log) override {
    int checked = 0;
    for (const auto& [pos, expected] : reference_) {
      if (pos >= triples_.size() || outputs_[pos] == gaea::kInvalidOid) {
        continue;
      }
      ++log.attempted;
      ++checked;
      auto raw = client.GetObjectRaw(outputs_[pos]);
      if (!raw.ok()) {
        log.Fail("sample get: " + raw.status().ToString());
      } else if (WithoutOid(*raw) != expected) {
        log.Fail("derived bytes differ from the reference kernel at triple " +
                 std::to_string(pos));
      }
    }
    if (checked == 0) log.Fail("no reference sample was derived");
  }

  void Probe(GaeaKernel& kernel, Probes* out) override {
    std::vector<Oid> derived;
    for (Oid oid : outputs_) {
      if (oid != gaea::kInvalidOid) derived.push_back(oid);
    }
    ProbeWhy(kernel, derived, 500, out);
  }

  uint64_t cold_derives() const override { return done_.load(); }
  uint64_t user_bytes() const override {
    return user_bytes_ + done_.load() * output_bytes_;
  }

 private:
  static constexpr size_t kSamples[] = {2, 3, 5, 64, 257};

  DeriveRequest Request(size_t pos) const {
    DeriveRequest request;
    request.process = kClassify;
    const auto& t = triples_[pos];
    request.inputs["bands"] = {bands_[t[0]], bands_[t[1]], bands_[t[2]]};
    return request;
  }

  const uint64_t seed_;
  std::vector<Oid> bands_;
  std::vector<std::array<int, 3>> triples_;
  std::vector<Oid> outputs_;  // by triple position; written once each
  std::map<size_t, std::string> reference_;
  uint64_t user_bytes_ = 0;
  uint64_t output_bytes_ = 0;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> done_{0};
};

// ---------------------------------------------------------------------------
// read_hot: two clients, a read-only mix over a database built in set-up.
// ---------------------------------------------------------------------------

class ReadHot : public Workload {
 public:
  static constexpr int kSmall = 128;       // 4 KiB chips: 512 KiB, fits
  static constexpr int kLarge = 32;        // 1 MiB rasters: 32 MiB, does not
  static constexpr int kGroups = 128;      // scenes; 3 derivations each
  static constexpr int kGroupSide = 32;
  // 8 small, 8 cached, 8 why, 2 large: 1 MiB reads are 7.7% of requests,
  // so the p95 latency falls inside their distribution, not at its edge.
  static constexpr int kCycle = 26;
  static constexpr int kClients = 2;

  explicit ReadHot(uint64_t seed) : seed_(seed), steps_(kClients, 0) {
    for (uint64_t c = 1; c <= kClients; ++c) {
      rngs_.emplace_back(seed ^ (0x9E3779B97F4A7C15ull * c));
    }
  }

  int clients() const override { return kClients; }
  int warmup_steps() const override { return 400; }

  void Load(GaeaKernel& kernel, const std::string& scratch_dir) override {
    (void)scratch_dir;
    std::mt19937_64 rng(seed_);
    std::uniform_real_distribution<double> pixel(0.0, 1.0);
    const ClassDef& chip = LookupClass(kernel, "raster_chip");
    auto random_image = [&](int rows, int cols) {
      std::vector<double> values(static_cast<size_t>(rows) * cols);
      for (double& v : values) v = pixel(rng);
      return std::make_shared<const Image>(
          Must(Image::FromValues(rows, cols, values), "image"));
    };
    auto insert = [&](ImagePtr image, int64_t ts, std::vector<Stored>* into) {
      Oid oid = InsertImage(kernel, chip, std::move(image), -1, ts);
      std::string bytes = StoredBytes(kernel, oid);
      user_bytes_ += bytes.size();
      into->push_back({oid, Crc32c(bytes.data(), bytes.size())});
    };
    for (int i = 0; i < kSmall; ++i) {
      insert(random_image(16, 30), i + 1, &small_);
    }
    for (int i = 0; i < kLarge; ++i) {
      insert(random_image(128, 1024), i + 1, &large_);
    }

    // Recorded history: per scene g, classify its bands, detect change
    // against scene g+1, then mask the change — 3 * kGroups derivations.
    const ClassDef& band_cls = LookupClass(kernel, "landsat_tm_rectified");
    std::vector<std::vector<Oid>> bands(kGroups);
    std::vector<DeriveRequest> classify;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<ImagePtr> scene =
          Scene(kGroupSide, kGroupSide, 3, seed_ * 1000003 + g);
      for (int b = 0; b < 3; ++b) {
        bands[g].push_back(InsertImage(kernel, band_cls, scene[b], b, g + 1));
        user_bytes_ += StoredBytes(kernel, bands[g].back()).size();
      }
      DeriveRequest request;
      request.process = kClassify;
      request.inputs["bands"] = bands[g];
      classify.push_back(std::move(request));
    }
    std::vector<Oid> covers = DeriveAll(kernel, classify);
    std::vector<DeriveRequest> change;
    for (int g = 0; g < kGroups; ++g) {
      DeriveRequest request;
      request.process = "detect-change";
      request.inputs["before"] = {covers[g]};
      request.inputs["after"] = {covers[(g + 1) % kGroups]};
      change.push_back(std::move(request));
    }
    std::vector<Oid> changes = DeriveAll(kernel, change);
    std::vector<DeriveRequest> mask;
    for (int g = 0; g < kGroups; ++g) {
      DeriveRequest request;
      request.process = "mask-change";
      request.inputs["changes"] = {changes[g]};
      mask.push_back(std::move(request));
    }
    std::vector<Oid> masks = DeriveAll(kernel, mask);

    auto record = [&](const std::vector<DeriveRequest>& batch,
                      const std::vector<Oid>& outs) {
      for (size_t i = 0; i < batch.size(); ++i) {
        recorded_.push_back({batch[i], outs[i]});
        user_bytes_ += StoredBytes(kernel, outs[i]).size();
      }
    };
    record(classify, covers);
    record(change, changes);
    record(mask, masks);
    for (int g = 0; g < kGroups; ++g) {
      WhyExpect expect;
      expect.witnesses = WitnessJson(mask[g].inputs);
      expect.base = bands[g];
      const std::vector<Oid>& next = bands[(g + 1) % kGroups];
      expect.base.insert(expect.base.end(), next.begin(), next.end());
      std::sort(expect.base.begin(), expect.base.end());
      why_.push_back({masks[g], std::move(expect)});
    }
  }

  bool Step(GaeaClient& client, int c, ClientLog& log) override {
    std::mt19937_64& rng = rngs_[c];
    int slot = static_cast<int>(steps_[c]++ % kCycle);
    if (slot >= kCycle - 2) {
      GetChecked(client, large_[rng() % large_.size()], Op::kGetLarge, log);
    } else if (slot % 3 == 0) {
      GetChecked(client, small_[rng() % small_.size()], Op::kGetSmall, log);
    } else if (slot % 3 == 1) {
      const Recorded& r = recorded_[rng() % recorded_.size()];
      bool hit = false;
      auto t0 = Clock::now();
      auto oid = client.Derive(r.request.process, r.request.inputs, 0, &hit);
      auto t1 = Clock::now();
      ++log.attempted;
      if (!oid.ok()) {
        log.Fail("cached derive: " + oid.status().ToString());
      } else if (*oid != r.output || !hit) {
        log.Fail("cached derive returned another object or missed the cache");
      } else {
        log.Ok(Op::kDeriveCached, MicrosBetween(t0, t1));
      }
    } else {
      const auto& [oid, expect] = why_[rng() % why_.size()];
      TimedWhy(client, oid, expect, log);
    }
    return true;
  }

  void Probe(GaeaKernel& kernel, Probes* out) override {
    for (int i = 0; i < 2000; ++i) {
      gaea::obs::SpanGuard span("bench:get_small", "bench");
      auto t0 = Clock::now();
      CheckOk(kernel.Get(small_[i % small_.size()].oid).status(), "probe get");
      out->get_small_us.push_back(MicrosBetween(t0, Clock::now()));
    }
    for (int i = 0; i < 2 * kLarge; ++i) {
      gaea::obs::SpanGuard span("bench:get_large", "bench");
      auto t0 = Clock::now();
      CheckOk(kernel.Get(large_[i % large_.size()].oid).status(), "probe get");
      out->get_large_us.push_back(MicrosBetween(t0, Clock::now()));
    }
    std::vector<Oid> masks;
    for (const auto& [oid, expect] : why_) masks.push_back(oid);
    ProbeWhy(kernel, masks, 2000, out);
  }

  uint64_t cold_derives() const override { return 0; }
  uint64_t user_bytes() const override { return user_bytes_; }

 private:
  struct Stored {
    Oid oid;
    uint32_t crc;
  };
  struct Recorded {
    DeriveRequest request;
    Oid output;
  };

  void GetChecked(GaeaClient& client, const Stored& s, Op op, ClientLog& log) {
    auto t0 = Clock::now();
    auto raw = client.GetObjectRaw(s.oid);
    auto t1 = Clock::now();
    ++log.attempted;
    if (!raw.ok()) return log.Fail("get: " + raw.status().ToString());
    if (Crc32c(raw->data(), raw->size()) != s.crc) {
      return log.Fail("get returned bytes whose CRC differs from the insert");
    }
    log.Ok(op, MicrosBetween(t0, t1));
  }

  const uint64_t seed_;
  std::vector<Stored> small_, large_;
  std::vector<Recorded> recorded_;
  std::vector<std::pair<Oid, WhyExpect>> why_;
  std::vector<uint64_t> steps_;        // per client
  std::vector<std::mt19937_64> rngs_;  // per client
  uint64_t user_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// ingest_mixed: two clients; insert a scene, derive it, read it, ask why.
// ---------------------------------------------------------------------------

class IngestMixed : public Workload {
 public:
  static constexpr int kSide = 64;
  static constexpr int kScenes = 128;  // classification cost varies by scene
  static constexpr int kClients = 2;

  explicit IngestMixed(uint64_t seed)
      : seed_(seed),
        iterations_(kClients, 0),
        user_bytes_(kClients, 0),
        outputs_(kClients) {}

  int clients() const override { return kClients; }
  int warmup_steps() const override { return 20; }
  GaeaKernel::CheckpointPolicy checkpoint_policy() const override {
    GaeaKernel::CheckpointPolicy policy;
    policy.tasks = 1000;
    return policy;
  }
  int checkpoint_poll_ms() const override { return 20; }

  void Load(GaeaKernel& kernel, const std::string& scratch_dir) override {
    cover_ = &LookupClass(kernel, "landcover");
    // The scene pool and its reference classifications; every insert is a
    // fresh object (new OID and timestamp) over one of these rasters.
    auto ref = OpenReference(scratch_dir);
    const ClassDef& cls = LookupClass(*ref, "landsat_tm_rectified");
    const ClassDef& cover = LookupClass(*ref, "landcover");
    std::vector<DeriveRequest> requests;
    for (int s = 0; s < kScenes; ++s) {
      scenes_.push_back(
          DigitalNumbers(Scene(kSide, kSide, 3, seed_ * 7919 + s)));
      DeriveRequest request;
      request.process = kClassify;
      for (int b = 0; b < 3; ++b) {
        Oid oid = InsertImage(*ref, cls, scenes_[s][b], b, 1);
        insert_bytes_[s] += StoredBytes(*ref, oid).size();
        request.inputs["bands"].push_back(oid);
      }
      requests.push_back(std::move(request));
    }
    std::vector<Oid> outs = DeriveAll(*ref, requests);
    for (Oid oid : outs) {
      expected_data_.push_back(DataBytes(StoredBytes(*ref, oid), cover));
    }
    ref.reset();
    std::filesystem::remove_all(scratch_dir);
  }

  bool Step(GaeaClient& client, int c, ClientLog& log) override {
    if (user_bytes_[c] >= kWriteBudgetBytes / kClients) return false;
    uint64_t it = iterations_[c]++;
    int scene = static_cast<int>((it * 2 + c) % kScenes);
    int64_t timestamp = 1 + static_cast<int64_t>(c) * 100000000 +
                        static_cast<int64_t>(it);
    Inputs inputs;
    for (int b = 0; b < 3; ++b) {
      gaea::net::InsertObjectRequest request;
      request.class_name = "landsat_tm_rectified";
      request.attrs = {
          {"band", Value::Int(b)},
          {"data", Value::OfImage(scenes_[scene][b])},
          {"spatialextent", Value::OfBox(gaea::Box(0, 0, 1, 1))},
          {"timestamp", Value::Time(gaea::AbsTime(timestamp))}};
      auto t0 = Clock::now();
      auto oid = client.InsertObject(request);
      auto t1 = Clock::now();
      ++log.attempted;
      if (!oid.ok()) {
        log.Fail("insert: " + oid.status().ToString());
        return true;
      }
      log.Ok(Op::kInsert, MicrosBetween(t0, t1));
      inputs["bands"].push_back(*oid);
    }
    user_bytes_[c] += insert_bytes_[scene];

    bool hit = true;
    auto t0 = Clock::now();
    auto out = client.Derive(kClassify, inputs, 0, &hit);
    auto t1 = Clock::now();
    ++log.attempted;
    if (!out.ok()) {
      log.Fail("derive: " + out.status().ToString());
      return true;
    }
    if (hit) {
      log.Fail("derive over fresh inserts was a cache hit");
      return true;
    }
    log.Ok(Op::kDeriveCold, MicrosBetween(t0, t1));
    outputs_[c].push_back(*out);

    t0 = Clock::now();
    auto raw = client.GetObjectRaw(*out);
    t1 = Clock::now();
    ++log.attempted;
    if (!raw.ok()) {
      log.Fail("get derived: " + raw.status().ToString());
    } else if (DataBytes(*raw, *cover_) != expected_data_[scene]) {
      log.Fail("derived raster differs from the reference classification");
    } else {
      log.Ok(Op::kGetDerived, MicrosBetween(t0, t1));
      user_bytes_[c] += raw->size();
    }

    WhyExpect expect;
    expect.witnesses = WitnessJson(inputs);
    expect.base = inputs["bands"];
    std::sort(expect.base.begin(), expect.base.end());
    TimedWhy(client, *out, expect, log);
    return true;
  }

  void Probe(GaeaKernel& kernel, Probes* out) override {
    std::vector<Oid> derived = outputs_[0];
    derived.insert(derived.end(), outputs_[1].begin(), outputs_[1].end());
    ProbeWhy(kernel, derived, 2000, out);
  }

  uint64_t cold_derives() const override {
    return outputs_[0].size() + outputs_[1].size();
  }
  uint64_t user_bytes() const override {
    return user_bytes_[0] + user_bytes_[1];
  }

 private:
  // Serialized `data` attribute of a stored landcover object.
  static std::string DataBytes(const std::string& payload,
                               const ClassDef& cover) {
    gaea::BinaryReader reader(payload);
    auto obj = DataObject::Deserialize(&reader);
    if (!obj.ok()) return std::string();
    auto data = obj->Get(cover, "data");
    if (!data.ok()) return std::string();
    gaea::BinaryWriter w;
    data->Serialize(&w);
    return w.buffer();
  }

  const uint64_t seed_;
  const ClassDef* cover_ = nullptr;  // served kernel's, for decoding replies
  std::vector<std::vector<ImagePtr>> scenes_;
  std::map<int, uint64_t> insert_bytes_;  // per scene, all three bands
  std::vector<std::string> expected_data_;
  std::vector<uint64_t> iterations_;          // per client
  std::vector<uint64_t> user_bytes_;          // per client
  std::vector<std::vector<Oid>> outputs_;     // per client
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "classify_cold") return std::make_unique<ClassifyCold>(seed);
  if (name == "read_hot") return std::make_unique<ReadHot>(seed);
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>(seed);
  return nullptr;
}

Rig::Rig(const std::string& dir, Workload& workload) : dir_(dir) {
  std::filesystem::remove_all(dir);
  GaeaKernel::Options options;
  options.dir = dir;
  options.durability = gaea::DurabilityMode::kOs;
  kernel_ = Must(GaeaKernel::Open(options), "open kernel");
  kernel_->SetClock(gaea::AbsTime(1));
  kernel_->SetDeriveThreads(HardwareThreads());
  CheckOk(kernel_->ExecuteDdl(kSchema), "ddl");
  kernel_->SetCheckpointPolicy(workload.checkpoint_policy());
  workload.Load(*kernel_, dir + ".ref");

  gaea::net::GaeaServer::Options server_options;
  server_options.port = 0;
  server_options.workers = HardwareThreads();
  server_options.checkpoint_poll_ms = workload.checkpoint_poll_ms();
  server_ = std::make_unique<gaea::net::GaeaServer>(kernel_.get(),
                                                    server_options);
  CheckOk(server_->Start(), "server start");
  for (int c = 0; c < workload.clients(); ++c) {
    clients_.push_back(
        Must(GaeaClient::Connect("127.0.0.1", server_->port()), "connect"));
  }
}

Rig::~Rig() { Close(); }

void Rig::Close() {
  clients_.clear();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  if (kernel_ != nullptr) CheckOk(kernel_->Flush(), "flush");
  kernel_.reset();
}

}  // namespace perfbench
