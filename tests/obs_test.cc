// Tests for the observability layer (src/obs/): histogram bucketing edge
// cases, registry concurrency (run under TSan via GAEA_SANITIZE=thread),
// span parenting and ordering, and exact end-to-end counter and labelled
// histogram values for a scripted three-task derive workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gaea/kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raster/scene.h"
#include "test_util.h"
#include "util/env.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

// ---------------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexEdgeCases) {
  constexpr int kLast = obs::Histogram::kNumFiniteBuckets - 1;  // 27
  const uint64_t max_bound = obs::Histogram::BucketUpperBound(kLast);

  // Bucket i counts v <= 2^i; 0 and 1 both land in bucket 0.
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(5), 3);

  // Exact powers of two sit in their own bucket; one past goes up.
  for (int i = 1; i <= kLast; ++i) {
    uint64_t bound = obs::Histogram::BucketUpperBound(i);
    EXPECT_EQ(obs::Histogram::BucketIndex(bound), i) << "bound 2^" << i;
    EXPECT_EQ(obs::Histogram::BucketIndex(bound - 1), i == 1 ? 0 : i)
        << "just under 2^" << i;
  }

  // The largest finite bound is still finite; anything above overflows.
  EXPECT_EQ(max_bound, uint64_t{1} << kLast);
  EXPECT_EQ(obs::Histogram::BucketIndex(max_bound), kLast);
  EXPECT_EQ(obs::Histogram::BucketIndex(max_bound + 1),
            obs::Histogram::kNumFiniteBuckets);
  EXPECT_EQ(obs::Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            obs::Histogram::kNumFiniteBuckets);
}

TEST(HistogramTest, ObserveEdgeValues) {
  constexpr int kLast = obs::Histogram::kNumFiniteBuckets - 1;
  const uint64_t max_bound = obs::Histogram::BucketUpperBound(kLast);
  const uint64_t huge = std::numeric_limits<uint64_t>::max();

  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(max_bound);
  h.Observe(max_bound + 1);
  h.Observe(huge);

  obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[kLast], 1u);
  EXPECT_EQ(snap.buckets[obs::Histogram::kNumFiniteBuckets], 2u);
  EXPECT_EQ(snap.count, 5u);
  // Sum uses wrapping uint64 arithmetic, same as the instrument.
  uint64_t want_sum = 0 + 1 + max_bound + (max_bound + 1) + huge;
  EXPECT_EQ(snap.sum, want_sum);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), want_sum);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, PointersAreStableAndPerName) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("a_total");
  EXPECT_EQ(reg.GetCounter("a_total"), a);
  EXPECT_NE(reg.GetCounter("b_total"), a);
  // A name registered as one kind cannot be fetched as another.
  EXPECT_EQ(reg.GetGauge("a_total"), nullptr);
  EXPECT_EQ(reg.GetHistogram("a_total"), nullptr);
  obs::Gauge* g = reg.GetGauge("g");
  EXPECT_EQ(reg.GetGauge("g"), g);
  EXPECT_EQ(reg.GetCounter("g"), nullptr);
}

TEST(MetricsRegistryTest, RenderPrometheusText) {
  obs::MetricsRegistry reg;
  reg.GetCounter("foo_total")->Inc(3);
  reg.GetGauge("bar{shard=\"a\"}")->Set(-2);
  reg.GetGauge("bar{shard=\"b\"}")->Set(7);
  obs::Histogram* lat = reg.GetHistogram("lat");
  lat->Observe(1);
  lat->Observe(3);

  std::string text = reg.Render();
  EXPECT_NE(text.find("# TYPE foo_total counter\nfoo_total 3\n"),
            std::string::npos);
  // Labelled gauges share one # TYPE line for the base name.
  EXPECT_NE(text.find("# TYPE bar gauge\nbar{shard=\"a\"} -2\nbar{shard=\"b\"} 7\n"),
            std::string::npos);
  // Histogram buckets are cumulative: le="1" has the 1, le="4" has both.
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorsRefreshGaugesAtRenderTime) {
  obs::MetricsRegistry reg;
  int64_t external_state = 10;
  obs::Gauge* mirror = reg.GetGauge("mirror");
  reg.AddCollector([&] { mirror->Set(external_state); });

  EXPECT_NE(reg.Render().find("mirror 10\n"), std::string::npos);
  external_state = 42;
  EXPECT_NE(reg.Render().find("mirror 42\n"), std::string::npos);
}

// 8 writer threads hammer one counter/gauge/histogram while also racing
// instrument creation and Render. Exact totals prove no lost updates; TSan
// (GAEA_SANITIZE=thread) proves the locking discipline.
TEST(MetricsRegistryTest, ConcurrentWritersExactTotals) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;

  obs::MetricsRegistry reg;
  obs::Counter* counter = reg.GetCounter("hits_total");
  obs::Gauge* gauge = reg.GetGauge("level");
  obs::Gauge* high = reg.GetGauge("high_water");
  obs::Histogram* hist = reg.GetHistogram("lat");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Inc();
        gauge->Add(1);
        high->SetMax(int64_t{t} * kOpsPerThread + i);
        hist->Observe(static_cast<uint64_t>(i));
        if (i % 1000 == 0) {
          // Race instrument creation (same and fresh names) and rendering
          // against the writers.
          reg.GetCounter("hits_total");
          reg.GetCounter("born_late_total_" + std::to_string(t));
          std::string text = reg.Render();
          EXPECT_FALSE(text.empty());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter->value(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(gauge->value(), int64_t{kThreads} * kOpsPerThread);
  // The high-water mark is the largest value any thread offered, and a
  // lower one never lowers it.
  EXPECT_EQ(high->value(), int64_t{kThreads} * kOpsPerThread - 1);
  high->SetMax(0);
  EXPECT_EQ(high->value(), int64_t{kThreads} * kOpsPerThread - 1);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kOpsPerThread);
  // Each thread observed 0..4999 once: sum = 8 * (4999*5000/2).
  EXPECT_EQ(hist->sum(),
            uint64_t{kThreads} * (uint64_t{kOpsPerThread - 1} * kOpsPerThread / 2));
  // 0 and 1 land in bucket 0, per thread.
  EXPECT_EQ(hist->snapshot().buckets[0], uint64_t{kThreads} * 2);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

// Each test gets a clean, enabled tracer with a deterministic clock that
// advances 10us per reading, and leaves the global tracer disabled again.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Reset();
    tracer.SetClock([this] { return clock_.NowMicros(); });
    tracer.Enable(true);
  }

  void TearDown() override {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Enable(false);
    tracer.SetClock({});
    tracer.Reset();
  }

  FakeClockEnv clock_{Env::Default(), /*start_us=*/1000, /*auto_step_us=*/10};
};

TEST_F(TracerTest, SpanParentingAndOrdering) {
  {
    obs::SpanGuard a("a", "test");
    {
      obs::SpanGuard b("b", "test");
    }
    {
      obs::SpanGuard c("c", "test");
    }
  }

  // Spans are recorded on close: b, c, a.
  std::vector<obs::Span> spans = obs::Tracer::Global().spans();
  ASSERT_EQ(spans.size(), 3u);
  const obs::Span& b = spans[0];
  const obs::Span& c = spans[1];
  const obs::Span& a = spans[2];
  EXPECT_EQ(b.name, "b");
  EXPECT_EQ(c.name, "c");
  EXPECT_EQ(a.name, "a");

  // One trace; a is the root; b and c are siblings under a.
  EXPECT_EQ(a.trace_id, 1u);
  EXPECT_EQ(b.trace_id, 1u);
  EXPECT_EQ(c.trace_id, 1u);
  EXPECT_EQ(a.parent_id, 0u);
  EXPECT_EQ(b.parent_id, a.span_id);
  EXPECT_EQ(c.parent_id, a.span_id);
  // Span ids are dense in open order.
  EXPECT_EQ(a.span_id, 1u);
  EXPECT_EQ(b.span_id, 2u);
  EXPECT_EQ(c.span_id, 3u);
  // Fake clock: open/close each consume one 10us tick.
  EXPECT_EQ(a.start_us, 1000u);
  EXPECT_EQ(b.start_us, 1010u);
  EXPECT_EQ(b.duration_us, 10u);
  EXPECT_EQ(c.start_us, 1030u);
  EXPECT_EQ(c.duration_us, 10u);
  EXPECT_EQ(a.duration_us, 50u);
}

TEST_F(TracerTest, ScopedContextCarriesTraceAcrossThreads) {
  uint64_t parent_span = 0;
  {
    obs::SpanGuard parent("request", "test");
    parent_span = parent.span_id();
    obs::TraceContext ctx = obs::Tracer::CurrentContext();
    std::thread worker([ctx] {
      obs::ScopedContext scope(ctx);
      obs::SpanGuard child("task", "test");
    });
    worker.join();
    // The hop must not leak the worker's context back into this thread.
    EXPECT_EQ(obs::Tracer::CurrentContext().parent_id, parent_span);
  }

  std::vector<obs::Span> spans = obs::Tracer::Global().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "task");
  EXPECT_EQ(spans[0].parent_id, parent_span);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  // Distinct threads get distinct ordinals.
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST_F(TracerTest, TopLevelSpansMintFreshTraces) {
  {
    obs::SpanGuard first("first", "test");
  }
  {
    obs::SpanGuard second("second", "test");
  }
  std::vector<obs::Span> spans = obs::Tracer::Global().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 1u);
  EXPECT_EQ(spans[1].trace_id, 2u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer::Global().Enable(false);
  {
    obs::SpanGuard span("ignored", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(obs::Tracer::Global().spans().empty());
}

TEST_F(TracerTest, ResetRestartsIdAllocation) {
  {
    obs::SpanGuard span("one", "test");
  }
  obs::Tracer::Global().Reset();
  {
    obs::SpanGuard span("two", "test");
  }
  std::vector<obs::Span> spans = obs::Tracer::Global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, 1u);
  EXPECT_EQ(spans[0].trace_id, 1u);
}

TEST_F(TracerTest, DumpChromeJsonShape) {
  {
    obs::SpanGuard span("derive \"x\"", "kernel");
  }
  std::string json = obs::Tracer::Global().DumpChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"derive \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":1,\"span\":1,\"parent\":0}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Scripted derive workload: exact end-to-end counter values
// ---------------------------------------------------------------------------

constexpr char kWorkloadSchema[] = R"(
CLASS landsat_tm_rectified (
  ATTRIBUTES:
    band = int4;
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
)

CLASS ndvi_map (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: compute-ndvi
)

CLASS veg_change_sub (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: change-by-subtraction
)

DEFINE PROCESS compute-ndvi
OUTPUT ndvi_map
ARGUMENT ( landsat_tm_rectified nir, landsat_tm_rectified red )
TEMPLATE {
  ASSERTIONS:
    common(nir.spatialextent, red.spatialextent);
  MAPPINGS:
    ndvi_map.data = ndvi(nir.data, red.data);
    ndvi_map.spatialextent = nir.spatialextent;
    ndvi_map.timestamp = nir.timestamp;
}

DEFINE PROCESS change-by-subtraction
OUTPUT veg_change_sub
ARGUMENT ( ndvi_map earlier, ndvi_map later )
TEMPLATE {
  MAPPINGS:
    veg_change_sub.data = img_sub(later.data, earlier.data);
    veg_change_sub.spatialextent = later.spatialextent;
    veg_change_sub.timestamp = later.timestamp;
}
)";

class DeriveWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("obs_workload");
    GaeaKernel::Options options;
    options.dir = dir_->path();
    options.user = "observer";
    auto kernel = GaeaKernel::Open(options);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    kernel_ = *std::move(kernel);
    kernel_->SetClock(AbsTime(123456));
    ASSERT_OK(kernel_->ExecuteDdl(kWorkloadSchema));
  }

  Oid InsertBand(int band, AbsTime t, const Box& extent, int side = 8) {
    const ClassDef* def =
        kernel_->catalog().classes().LookupByName("landsat_tm_rectified")
            .value();
    SceneSpec spec;
    spec.nrow = side;
    spec.ncol = side;
    spec.nbands = 3;
    auto bands = GenerateScene(spec).value();
    DataObject obj(*def);
    EXPECT_TRUE(obj.Set(*def, "band", Value::Int(band)).ok());
    EXPECT_TRUE(
        obj.Set(*def, "data", Value::OfImage(std::move(bands[band]))).ok());
    EXPECT_TRUE(obj.Set(*def, "spatialextent", Value::OfBox(extent)).ok());
    EXPECT_TRUE(obj.Set(*def, "timestamp", Value::Time(t)).ok());
    return kernel_->Insert(std::move(obj)).value();
  }

  uint64_t Count(const std::string& name) {
    return kernel_->metrics().GetCounter(name)->value();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<GaeaKernel> kernel_;
};

TEST_F(DeriveWorkloadTest, ThreeTaskWorkloadCountsExactly) {
  Box region(0, 0, 10, 10);
  Oid red88 = InsertBand(0, AbsTime(100), region);
  Oid nir88 = InsertBand(1, AbsTime(100), region);
  Oid red89 = InsertBand(0, AbsTime(200), region);
  Oid nir89 = InsertBand(1, AbsTime(200), region);

  // Task 1 + 2: NDVI for each epoch. Task 3: change map.
  ASSERT_OK_AND_ASSIGN(
      Oid ndvi88, kernel_->Derive("compute-ndvi",
                                  {{"nir", {nir88}}, {"red", {red88}}}));
  ASSERT_OK_AND_ASSIGN(
      Oid ndvi89, kernel_->Derive("compute-ndvi",
                                  {{"nir", {nir89}}, {"red", {red89}}}));
  ASSERT_OK_AND_ASSIGN(
      Oid change, kernel_->Derive("change-by-subtraction",
                                  {{"earlier", {ndvi88}}, {"later", {ndvi89}}}));
  (void)change;

  // Exact counter values: three commits, no failures, no batch/compound
  // entry points touched.
  EXPECT_EQ(Count("gaea_derives_completed_total"), 3u);
  EXPECT_EQ(Count("gaea_derives_failed_total"), 0u);
  EXPECT_EQ(Count("gaea_derive_batches_total"), 0u);
  EXPECT_EQ(Count("gaea_compound_runs_total"), 0u);

  // The labelled histograms saw exactly one sample per executed process
  // instance and one per operator invocation (one op call per data
  // mapping), and the rendered exposition carries the same numbers.
  std::string text = kernel_->metrics().Render();
  EXPECT_NE(text.find("gaea_derives_completed_total 3\n"), std::string::npos);
  for (const char* series :
       {"gaea_derive_latency_micros_count{process=\"compute-ndvi\"} 2\n",
        "gaea_derive_latency_micros_count{process=\"change-by-subtraction\"} "
        "1\n",
        "gaea_operator_micros_count{op=\"ndvi\"} 2\n",
        "gaea_operator_micros_count{op=\"img_sub\"} 1\n"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series << text;
  }
  // Every series of the family names its process.
  EXPECT_EQ(text.find("gaea_derive_latency_micros_count "), std::string::npos);
  EXPECT_EQ(kernel_->metrics()
                .GetHistogram(obs::LabelledName("gaea_derive_latency_micros",
                                                "process", "compute-ndvi"))
                ->count(),
            2u);
  // Collector-backed gauges are present (catalog object count: 4 bands +
  // 2 ndvi maps + 1 change map).
  EXPECT_NE(text.find("gaea_catalog_objects 7\n"), std::string::npos);
}

// A band past one page is stored as an overflow chain, which bypasses the
// heap pool; its traffic shows in the chain gauges and the stats JSON.
TEST_F(DeriveWorkloadTest, HeapChainTrafficIsCounted) {
  Oid small = InsertBand(0, AbsTime(100), Box(0, 0, 10, 10));
  GaeaKernel::Stats before = kernel_->GetStats();
  EXPECT_EQ(before.heap_chains.writes, 0u);
  Oid big = InsertBand(1, AbsTime(100), Box(0, 0, 10, 10), /*side=*/32);
  ASSERT_OK(kernel_->Get(big).status());
  ASSERT_OK(kernel_->Get(small).status());
  GaeaKernel::Stats stats = kernel_->GetStats();
  EXPECT_EQ(stats.heap_chains.writes, 1u);
  EXPECT_GE(stats.heap_chains.write_pages, 2u);  // 32x32 doubles: 8 KiB
  EXPECT_GE(stats.heap_chains.reads, 1u);
  EXPECT_EQ(stats.heap_chains.read_pages,
            stats.heap_chains.reads * stats.heap_chains.write_pages);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"chain_writes\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chain_read_pages\":"), std::string::npos);
  std::string text = kernel_->metrics().Render();
  EXPECT_NE(text.find("gaea_heap_chain_writes 1\n"), std::string::npos);
  EXPECT_NE(text.find("gaea_heap_chain_read_pages "), std::string::npos);
}

TEST_F(DeriveWorkloadTest, FailedDeriveCountsAsFailureOnly) {
  Oid red = InsertBand(0, AbsTime(100), Box(0, 0, 10, 10));
  Oid nir = InsertBand(1, AbsTime(100), Box(50, 50, 60, 60));  // disjoint

  // The common() assertion rejects the disjoint extents.
  auto result =
      kernel_->Derive("compute-ndvi", {{"nir", {nir}}, {"red", {red}}});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(Count("gaea_derives_completed_total"), 0u);
  EXPECT_EQ(Count("gaea_derives_failed_total"), 1u);
  // No process sample for a failed run; the assertion never ran the op.
  std::string text = kernel_->metrics().Render();
  EXPECT_EQ(text.find("gaea_derive_latency_micros"), std::string::npos);
  EXPECT_EQ(text.find("gaea_operator_micros"), std::string::npos);
}

}  // namespace
}  // namespace gaea
