// F3 — Figure 3 (the unsupervised-classification process P20): cost of
// instantiating the process as tasks over 3-band scenes, swept by image
// size, and decomposed into guard checking vs full derivation, plus the
// `unsuperclassify` operator (k-means) on its own.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "core/tile_pool.h"
#include "gaea/kernel.h"
#include "raster/classify.h"
#include "raster/scene.h"

namespace gaea {
namespace {

constexpr char kSchema[] = R"(
CLASS landsat_tm_rectified (
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
)";

struct Fixture {
  std::unique_ptr<GaeaKernel> kernel;
  std::map<int, std::vector<Oid>> bands_by_size;

  Fixture() {
    GaeaKernel::Options options;
    options.dir = bench::FreshDir("fig3");
    kernel = std::move(GaeaKernel::Open(options)).value();
    kernel->SetClock(AbsTime(1));
    BENCH_CHECK_OK(kernel->ExecuteDdl(kSchema));
    const ClassDef* band_class =
        kernel->catalog().classes().LookupByName("landsat_tm_rectified")
            .value();
    for (int size : {16, 32, 64, 128}) {
      SceneSpec spec;
      spec.nrow = size;
      spec.ncol = size;
      spec.nbands = 3;
      auto scene = GenerateScene(spec).value();
      for (int i = 0; i < 3; ++i) {
        DataObject obj(*band_class);
        BENCH_CHECK_OK(obj.Set(*band_class, "data",
                               Value::OfImage(std::move(scene[i]))));
        BENCH_CHECK_OK(obj.Set(*band_class, "spatialextent",
                               Value::OfBox(Box(size, 0, size + 10, 10))));
        BENCH_CHECK_OK(obj.Set(*band_class, "timestamp",
                               Value::Time(AbsTime(size))));
        bands_by_size[size].push_back(kernel->Insert(std::move(obj)).value());
      }
    }
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Full P20 instantiation: guards + k-means classification + store + task.
void BM_InstantiateP20(benchmark::State& state) {
  Fixture& f = SharedFixture();
  int size = static_cast<int>(state.range(0));
  const std::vector<Oid>& bands = f.bands_by_size[size];
  for (auto _ : state) {
    auto oid = f.kernel->Derive("unsupervised-classification",
                                {{"bands", bands}});
    BENCH_CHECK_OK(oid.status());
    benchmark::DoNotOptimize(*oid);
  }
  state.counters["pixels"] = static_cast<double>(size) * size;
}
BENCHMARK(BM_InstantiateP20)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The `unsuperclassify` operator alone, k = 12, on the end-to-end
// benchmark's two inputs: a 64x64 scene of 8-bit digital numbers (one tile)
// and a 256x256 float64 scene (four tiles), at tile-pool widths 1 and 4.
// Items are pixels labelled per call.
void BM_UnsupervisedClassify(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  SceneSpec spec;
  spec.nrow = size;
  spec.ncol = size;
  spec.nbands = 3;
  std::vector<Image> bands = GenerateScene(spec).value();
  if (size == 64) {  // ingest_mixed's scenes; classify_cold's are float64
    for (Image& band : bands) {
      std::vector<double> dn;
      for (int r = 0; r < size; ++r) {
        for (int c = 0; c < size; ++c) {
          dn.push_back(std::round(255.0 * band.Get(r, c)));
        }
      }
      band = Image::FromValues(size, size, dn, PixelType::kUInt8).value();
    }
  }
  std::vector<const Image*> ptrs;
  for (const Image& band : bands) ptrs.push_back(&band);
  TilePool& pool = TilePool::Global();
  const int before = pool.max_parallel();
  pool.SetMaxParallel(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto labels = UnsupervisedClassify(ptrs, 12);
    BENCH_CHECK_OK(labels.status());
    benchmark::DoNotOptimize(&*labels);
  }
  pool.SetMaxParallel(before);
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_UnsupervisedClassify)
    ->ArgNames({"size", "threads"})
    ->Args({64, 1})->Args({64, 4})->Args({256, 1})->Args({256, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Guard checking alone: evaluate the three ASSERTIONS against bound
// objects, without running the mappings.
void BM_AssertionCheck(benchmark::State& state) {
  Fixture& f = SharedFixture();
  int size = 64;
  const ProcessDef* proc =
      f.kernel->processes().Latest("unsupervised-classification").value();
  const ClassDef* band_class =
      f.kernel->catalog().classes().LookupByName("landsat_tm_rectified")
          .value();
  std::vector<DataObject> objects;
  for (Oid oid : f.bands_by_size[size]) {
    objects.push_back(f.kernel->Get(oid).value());
  }
  EvalContext ctx;
  ctx.ops = &f.kernel->operators();
  ctx.params = &proc->params();
  ArgBinding binding;
  binding.class_def = band_class;
  binding.setof = true;
  for (DataObject& obj : objects) binding.objects.push_back(&obj);
  ctx.args["bands"] = binding;

  for (auto _ : state) {
    for (const ExprPtr& assertion : proc->assertions()) {
      auto truth = assertion->Eval(ctx);
      BENCH_CHECK_OK(truth.status());
      benchmark::DoNotOptimize(*truth);
    }
  }
}
BENCHMARK(BM_AssertionCheck);

// The DDL front end on the Figure 3 definition alone.
void BM_ParseProcessDefinition(benchmark::State& state) {
  std::string process_only = std::string(kSchema).substr(
      std::string(kSchema).find("DEFINE PROCESS"));
  for (auto _ : state) {
    auto stmt = ParseStatement(process_only);
    BENCH_CHECK_OK(stmt.status());
    benchmark::DoNotOptimize(&*stmt);
  }
}
BENCHMARK(BM_ParseProcessDefinition);

// Type-checking the process against the catalog (Validate).
void BM_ValidateProcess(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const ProcessDef* proc =
      f.kernel->processes().Latest("unsupervised-classification").value();
  for (auto _ : state) {
    BENCH_CHECK_OK(
        proc->Validate(f.kernel->catalog().classes(), f.kernel->operators()));
  }
}
BENCHMARK(BM_ValidateProcess);

}  // namespace
}  // namespace gaea

GAEA_BENCHMARK_MAIN(bench_fig3_process);
