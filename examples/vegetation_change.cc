// The paper's §1 motivating scenario, end to end:
//
//   "Two scientists are working on detecting the changes in vegetation
//    index in Africa between 1988 and 1989. One may subtract the NDVI of
//    1988 from that of 1989, while another divides the NDVI of 1989 by
//    that of 1988. In this case, if only the resultant images are stored
//    (as in common GIS such as IDRISI and GRASS), there is no way to share
//    and compare the produced data unless the derivation procedures are
//    known to both scientists."
//
// This example runs both derivations, shows that Gaea can (a) name the
// exact procedural divergence, (b) trace both products to identical base
// imagery, and (c) reproduce either result — while the file-based baseline
// can do none of the three.
//
//   ./vegetation_change [db_dir]

#include <cstdio>
#include <cstdlib>

#include "baseline/file_gis.h"
#include "gaea/kernel.h"
#include "raster/image_ops.h"
#include "raster/scene.h"

namespace {

constexpr char kSchema[] = R"(
CLASS avhrr_band (
  ATTRIBUTES:
    band = int4;
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
CLASS veg_change_sub (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: change-by-subtraction
)
CLASS veg_change_div (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: change-by-division
)

DEFINE PROCESS compute-ndvi
OUTPUT ndvi_map
ARGUMENT ( avhrr_band nir, avhrr_band red )
TEMPLATE {
  ASSERTIONS: common(nir.spatialextent, red.spatialextent);
  MAPPINGS:
    ndvi_map.data = ndvi(nir.data, red.data);
    ndvi_map.spatialextent = nir.spatialextent;
    ndvi_map.timestamp = nir.timestamp;
}

DEFINE PROCESS change-by-subtraction
OUTPUT veg_change_sub
ARGUMENT ( ndvi_map earlier, ndvi_map later )
TEMPLATE {
  ASSERTIONS: common(earlier.spatialextent, later.spatialextent);
  MAPPINGS:
    veg_change_sub.data = img_sub(later.data, earlier.data);
    veg_change_sub.spatialextent = later.spatialextent;
    veg_change_sub.timestamp = later.timestamp;
}

DEFINE PROCESS change-by-division
OUTPUT veg_change_div
ARGUMENT ( ndvi_map earlier, ndvi_map later )
TEMPLATE {
  ASSERTIONS: common(earlier.spatialextent, later.spatialextent);
  MAPPINGS:
    veg_change_div.data = img_div(later.data, earlier.data);
    veg_change_div.spatialextent = later.spatialextent;
    veg_change_div.timestamp = later.timestamp;
}

DEFINE CONCEPT vegetation_change
  DOC "change in vegetation index between two epochs; derivation varies"
  MEMBERS (veg_change_sub, veg_change_div)
)";

#define CHECK_OK(expr)                                    \
  do {                                                    \
    auto _s = (expr);                                     \
    if (!_s.ok()) {                                       \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, \
                   __LINE__, _s.ToString().c_str());      \
      std::exit(1);                                       \
    }                                                     \
  } while (0)

}  // namespace

int main(int argc, char** argv) {
  using namespace gaea;
  std::string dir = argc > 1 ? argv[1] : "/tmp/gaea_vegchange";

  GaeaKernel::Options options;
  options.dir = dir + "/gaea";
  options.user = "scientist";
  auto kernel_or = GaeaKernel::Open(options);
  CHECK_OK(kernel_or.status());
  GaeaKernel& gaea = **kernel_or;
  gaea.SetClock(AbsTime::FromDate(1993, 1, 10).value());
  if (!gaea.catalog().classes().Contains("avhrr_band")) {
    CHECK_OK(gaea.ExecuteDdl(kSchema));
  }

  // ---- base data: red + NIR for Africa, July 1988 and July 1989 ----
  Box africa(-20, -35, 52, 38);
  const ClassDef* band_class =
      gaea.catalog().classes().LookupByName("avhrr_band").value();
  auto insert_epoch = [&](int year, double drift) -> std::pair<Oid, Oid> {
    SceneSpec spec;
    spec.nrow = 96;
    spec.ncol = 96;
    spec.nbands = 2;
    spec.epoch_drift = drift;
    auto bands = GenerateScene(spec).value();
    AbsTime t = AbsTime::FromDate(year, 7, 15).value();
    Oid oids[2];
    for (int i = 0; i < 2; ++i) {
      DataObject obj(*band_class);
      CHECK_OK(obj.Set(*band_class, "band", Value::Int(i)));
      CHECK_OK(obj.Set(*band_class, "data",
                       Value::OfImage(std::move(bands[i]))));
      CHECK_OK(obj.Set(*band_class, "spatialextent", Value::OfBox(africa)));
      CHECK_OK(obj.Set(*band_class, "timestamp", Value::Time(t)));
      oids[i] = gaea.Insert(std::move(obj)).value();
    }
    return {oids[0], oids[1]};  // (red, nir)
  };
  auto [red88, nir88] = insert_epoch(1988, 0.0);
  auto [red89, nir89] = insert_epoch(1989, 0.5);

  Oid ndvi88 = gaea.Derive("compute-ndvi",
                           {{"nir", {nir88}}, {"red", {red88}}})
                   .value();
  Oid ndvi89 = gaea.Derive("compute-ndvi",
                           {{"nir", {nir89}}, {"red", {red89}}})
                   .value();
  std::printf("NDVI maps derived: 1988 -> #%llu, 1989 -> #%llu\n",
              static_cast<unsigned long long>(ndvi88),
              static_cast<unsigned long long>(ndvi89));

  // ---- two scientists, two procedures ----
  Oid by_sub = gaea.Derive("change-by-subtraction",
                           {{"earlier", {ndvi88}}, {"later", {ndvi89}}})
                   .value();
  Oid by_div = gaea.Derive("change-by-division",
                           {{"earlier", {ndvi88}}, {"later", {ndvi89}}})
                   .value();

  // Without metadata, the two images look like arbitrary rasters. With the
  // derivation layer, Gaea explains their relationship precisely:
  provenance::ChainResult chain_sub = gaea.ProvenanceChain(by_sub).value();
  provenance::DerivationComparison cmp = provenance::Compare(
      chain_sub, gaea.ProvenanceChain(by_div).value());
  std::printf("\ncomparing #%llu and #%llu (both 'vegetation_change'):\n",
              static_cast<unsigned long long>(by_sub),
              static_cast<unsigned long long>(by_div));
  std::printf("  same procedure? %s\n  %s\n",
              cmp.same_procedure ? "yes" : "no", cmp.explanation.c_str());
  std::printf("  shared base imagery: %zu objects\n",
              chain_sub.base_sources.size());

  // Dump the derivation diagram for scientist A's product.
  std::printf("\nderivation diagram (Graphviz):\n%s\n",
              gaea.ProvenanceDot(by_sub).value().c_str());

  // ---- reproducibility: replay scientist A's full pipeline ----
  Experiment exp;
  exp.name = "africa-veg-change-88-89";
  exp.doc = "NDVI change in Africa, 1988-1989, by subtraction";
  exp.user = "scientist-a";
  exp.concepts = {"vegetation_change"};
  exp.tasks = {gaea.tasks().Producer(ndvi88).value()->id,
               gaea.tasks().Producer(ndvi89).value()->id,
               gaea.tasks().Producer(by_sub).value()->id};
  if (!gaea.experiments().Get(exp.name).ok()) {
    CHECK_OK(gaea.DefineExperiment(exp).status());
  }
  ReproductionReport report = gaea.Reproduce(exp.name).value();
  std::printf("reproduction of '%s': %zu tasks, all identical: %s\n",
              exp.name.c_str(), report.entries.size(),
              report.all_identical ? "YES" : "no");

  // ---- the file-based baseline fails the same request ----
  auto gis_or = FileGis::Open(dir + "/idrisi");
  CHECK_OK(gis_or.status());
  FileGis& gis = **gis_or;
  SceneSpec spec;
  spec.nrow = 96;
  spec.ncol = 96;
  spec.nbands = 2;
  auto imgs = GenerateScene(spec).value();
  CHECK_OK(gis.Import("red88", imgs[0]));
  CHECK_OK(gis.Import("nir88", imgs[1]));
  CHECK_OK(gis.Run("overlay ndvi nir88 red88", {"nir88", "red88"}, "ndvi88",
                   [](const std::vector<Image>& in) {
                     return Ndvi(in[0], in[1]);
                   }));
  Status repro = gis.Reproduce("ndvi88");
  std::printf("\nfile-based GIS baseline reproduce('ndvi88'):\n  %s\n",
              repro.ToString().c_str());

  CHECK_OK(gaea.Flush());
  return 0;
}
