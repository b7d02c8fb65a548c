// Quickstart: open a Gaea database, define a schema in the paper's DDL,
// insert base imagery, derive a product, and inspect its lineage.
//
//   ./quickstart [db_dir]

#include <cstdio>
#include <cstdlib>

#include "gaea/kernel.h"
#include "raster/scene.h"

namespace {

constexpr char kSchema[] = R"(
CLASS avhrr_band (
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

DEFINE PROCESS compute-ndvi
OUTPUT ndvi_map
ARGUMENT ( avhrr_band nir, avhrr_band red )
TEMPLATE {
  ASSERTIONS:
    common(nir.spatialextent, red.spatialextent);
    common(nir.timestamp, red.timestamp);
  MAPPINGS:
    ndvi_map.data = ndvi(nir.data, red.data);
    ndvi_map.spatialextent = nir.spatialextent;
    ndvi_map.timestamp = nir.timestamp;
}
)";

#define CHECK_OK(expr)                                          \
  do {                                                          \
    auto _s = (expr);                                           \
    if (!_s.ok()) {                                             \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,       \
                   __LINE__, _s.ToString().c_str());            \
      std::exit(1);                                             \
    }                                                           \
  } while (0)

}  // namespace

int main(int argc, char** argv) {
  using namespace gaea;

  std::string dir = argc > 1 ? argv[1] : "/tmp/gaea_quickstart";
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "quickstart";
  auto kernel_or = GaeaKernel::Open(options);
  CHECK_OK(kernel_or.status());
  GaeaKernel& gaea = **kernel_or;
  gaea.SetClock(AbsTime::FromDate(1993, 8, 24).value());

  // 1. Define the schema (skip if this database already has it).
  if (!gaea.catalog().classes().Contains("avhrr_band")) {
    CHECK_OK(gaea.ExecuteDdl(kSchema));
  }
  std::printf("defined classes:\n");
  for (const ClassDef* def : gaea.catalog().classes().List()) {
    std::printf("  %s (%s)\n", def->name().c_str(),
                def->kind() == ClassKind::kDerived ? "derived" : "base");
  }

  // 2. Insert two synthetic AVHRR bands over the Sahel, July 1988.
  SceneSpec spec;
  spec.nrow = 64;
  spec.ncol = 64;
  spec.nbands = 2;
  auto bands = GenerateScene(spec);
  CHECK_OK(bands.status());
  const ClassDef* band_class =
      gaea.catalog().classes().LookupByName("avhrr_band").value();
  Box sahel(-17.0, 12.0, 40.0, 18.0);
  AbsTime july88 = AbsTime::FromDate(1988, 7, 15).value();

  std::vector<Oid> band_oids;
  for (int i = 0; i < 2; ++i) {
    DataObject obj(*band_class);
    CHECK_OK(obj.Set(*band_class, "band", Value::Int(i)));
    CHECK_OK(obj.Set(*band_class, "data",
                     Value::OfImage(std::move((*bands)[i]))));
    CHECK_OK(obj.Set(*band_class, "spatialextent", Value::OfBox(sahel)));
    CHECK_OK(obj.Set(*band_class, "timestamp", Value::Time(july88)));
    auto oid = gaea.Insert(std::move(obj));
    CHECK_OK(oid.status());
    band_oids.push_back(*oid);
  }
  std::printf("inserted %zu base band objects\n", band_oids.size());

  // 3. Derive the NDVI map (band 1 = NIR, band 0 = red).
  auto ndvi_oid = gaea.Derive(
      "compute-ndvi", {{"nir", {band_oids[1]}}, {"red", {band_oids[0]}}});
  CHECK_OK(ndvi_oid.status());
  auto ndvi_obj = gaea.Get(*ndvi_oid);
  CHECK_OK(ndvi_obj.status());
  const ClassDef* ndvi_class =
      gaea.catalog().classes().LookupByName("ndvi_map").value();
  ImagePtr ndvi_img =
      ndvi_obj->Get(*ndvi_class, "data").value().AsImage().value();
  Image::Stats stats = ndvi_img->ComputeStats();
  std::printf("derived ndvi_map object #%llu: %dx%d, mean NDVI %.3f\n",
              static_cast<unsigned long long>(*ndvi_oid), ndvi_img->nrow(),
              ndvi_img->ncol(), stats.mean);

  // 4. Inspect the derivation history ("how was this produced?").
  auto chain = gaea.ProvenanceChain(*ndvi_oid);
  CHECK_OK(chain.status());
  std::printf("derivation chain:");
  for (const std::string& step : chain->chain) std::printf(" %s", step.c_str());
  std::printf("\nbase sources:");
  for (Oid oid : chain->base_sources) {
    std::printf(" #%llu", static_cast<unsigned long long>(oid));
  }
  std::printf("\n");

  // 5. The same request again is answered by retrieval, not recomputation.
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(july88, july88);
  auto result = gaea.Query(req);
  CHECK_OK(result.status());
  std::printf("query on ndvi_map answered by: %s (%zu object(s))\n",
              QueryStepName(result->answers[0].method),
              result->answers[0].oids.size());

  CHECK_OK(gaea.Flush());
  std::printf("database persisted in %s\n", dir.c_str());
  return 0;
}
