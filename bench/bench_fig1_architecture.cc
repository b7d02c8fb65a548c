// F1 — Figure 1 (system architecture): round-trip costs through the Gaea
// kernel's layers — DDL parsing (interpreter front end), object insertion
// (Postgres-substitute backend), derivation dispatch (metadata manager),
// and query answering.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ddl/parser.h"
#include "gaea/kernel.h"
#include "raster/scene.h"

namespace gaea {
namespace {

constexpr char kSchema[] = R"(
CLASS band (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS ndvi_map (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: compute-ndvi
)
DEFINE PROCESS compute-ndvi
OUTPUT ndvi_map
ARGUMENT ( band nir, band red )
TEMPLATE {
  ASSERTIONS: common(nir.spatialextent, red.spatialextent);
  MAPPINGS:
    ndvi_map.data = ndvi(nir.data, red.data);
    ndvi_map.spatialextent = nir.spatialextent;
    ndvi_map.timestamp = nir.timestamp;
}
)";

struct Fixture {
  std::unique_ptr<GaeaKernel> kernel;
  const ClassDef* band_class = nullptr;
  Oid nir = kInvalidOid, red = kInvalidOid;

  Fixture() {
    GaeaKernel::Options options;
    options.dir = bench::FreshDir("fig1");
    auto k = GaeaKernel::Open(options);
    BENCH_CHECK_OK(k.status());
    kernel = *std::move(k);
    kernel->SetClock(AbsTime(1000));
    BENCH_CHECK_OK(kernel->ExecuteDdl(kSchema));
    band_class = kernel->catalog().classes().LookupByName("band").value();
    nir = InsertBand(1, AbsTime(1));
    red = InsertBand(0, AbsTime(1));
  }

  Oid InsertBand(uint64_t seed, AbsTime t) {
    SceneSpec spec;
    spec.nrow = 32;
    spec.ncol = 32;
    spec.nbands = 1;
    spec.seed = seed;
    DataObject obj(*band_class);
    BENCH_CHECK_OK(obj.Set(*band_class, "data",
                           Value::OfImage(std::move(
                               GenerateScene(spec).value()[0]))));
    BENCH_CHECK_OK(
        obj.Set(*band_class, "spatialextent", Value::OfBox(Box(0, 0, 10, 10))));
    BENCH_CHECK_OK(obj.Set(*band_class, "timestamp", Value::Time(t)));
    auto oid = kernel->Insert(std::move(obj));
    BENCH_CHECK_OK(oid.status());
    return *oid;
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Front end: tokenize + parse the full schema script.
void BM_DdlParse(benchmark::State& state) {
  for (auto _ : state) {
    auto stmts = ParseScript(kSchema);
    BENCH_CHECK_OK(stmts.status());
    benchmark::DoNotOptimize(stmts->size());
  }
}
BENCHMARK(BM_DdlParse);

// Backend: store one 32x32 raster object (serialize + heap + 2 indexes).
void BM_InsertObject(benchmark::State& state) {
  Fixture& f = SharedFixture();
  uint64_t seed = 100;
  for (auto _ : state) {
    // A far-future timestamp keeps these out of the retrieval bench's window.
    benchmark::DoNotOptimize(f.InsertBand(seed++, AbsTime(999999)));
  }
}
BENCHMARK(BM_InsertObject);

// Metadata manager: full derivation dispatch (load inputs, check guards,
// evaluate mappings, store output, record task).
void BM_DeriveNdvi(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    auto oid = f.kernel->Derive("compute-ndvi",
                                {{"nir", {f.nir}}, {"red", {f.red}}});
    BENCH_CHECK_OK(oid.status());
    benchmark::DoNotOptimize(*oid);
  }
}
BENCHMARK(BM_DeriveNdvi);

// Query layer: retrieval path on a warm catalog.
void BM_QueryRetrieve(benchmark::State& state) {
  Fixture& f = SharedFixture();
  QueryRequest req;
  req.target = "band";
  req.filter.window.time = TimeInterval(AbsTime(0), AbsTime(10));
  req.strategy = {QueryStep::kRetrieve};
  for (auto _ : state) {
    auto result = f.kernel->Query(req);
    BENCH_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->answers.size());
  }
}
BENCHMARK(BM_QueryRetrieve);

// Lineage: how-was-this-produced over the accumulated task log.
void BM_LineageChain(benchmark::State& state) {
  Fixture& f = SharedFixture();
  Oid derived =
      f.kernel->Derive("compute-ndvi", {{"nir", {f.nir}}, {"red", {f.red}}})
          .value();
  for (auto _ : state) {
    auto chain = f.kernel->ProvenanceChain(derived);
    BENCH_CHECK_OK(chain.status());
    benchmark::DoNotOptimize(chain->chain.size());
  }
}
BENCHMARK(BM_LineageChain);

}  // namespace
}  // namespace gaea

GAEA_BENCHMARK_MAIN(bench_fig1_architecture);
