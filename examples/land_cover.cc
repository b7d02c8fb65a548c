// Figures 3 & 5: the unsupervised land-cover classification process and the
// land-change-detection *compound* process, plus the Petri-net queries of
// §2.1.6 (can the data be derived? what initial marking is needed?).
//
//   ./land_cover [db_dir]

#include <cstdio>
#include <cstdlib>

#include "gaea/kernel.h"
#include "raster/classify.h"
#include "raster/scene.h"

namespace {

constexpr char kSchema[] = R"(
CLASS landsat_tm_rectified (
  ATTRIBUTES:
    band = int4;
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

// Figure 3, process P20 — verbatim structure.
DEFINE PROCESS unsupervised-classification
OUTPUT landcover
ARGUMENT ( SETOF landsat_tm_rectified bands MIN 3 )
PARAMETERS { numclass = 12; }
TEMPLATE {
  ASSERTIONS:
    card(bands) >= 3;                  // need three bands
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

DEFINE CONCEPT land_cover MEMBERS (landcover)
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
  std::string dir = argc > 1 ? argv[1] : "/tmp/gaea_landcover";
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "land-analyst";
  auto kernel_or = GaeaKernel::Open(options);
  CHECK_OK(kernel_or.status());
  GaeaKernel& gaea = **kernel_or;
  gaea.SetClock(AbsTime::FromDate(1992, 6, 1).value());
  if (!gaea.catalog().classes().Contains("landcover")) {
    CHECK_OK(gaea.ExecuteDdl(kSchema));
  }

  const ClassDef* band_class =
      gaea.catalog().classes().LookupByName("landsat_tm_rectified").value();
  Box region(300000, 4500000, 330000, 4530000);  // UTM-ish extent

  auto insert_scene = [&](int year, double drift) -> std::vector<Oid> {
    SceneSpec spec;
    spec.nrow = 48;
    spec.ncol = 48;
    spec.nbands = 3;
    spec.epoch_drift = drift;
    auto bands = GenerateScene(spec).value();
    AbsTime t = AbsTime::FromDate(year, 1, 15).value();
    std::vector<Oid> oids;
    for (int i = 0; i < 3; ++i) {
      DataObject obj(*band_class);
      CHECK_OK(obj.Set(*band_class, "band", Value::Int(i)));
      CHECK_OK(obj.Set(*band_class, "data",
                       Value::OfImage(std::move(bands[i]))));
      CHECK_OK(obj.Set(*band_class, "spatialextent", Value::OfBox(region)));
      CHECK_OK(obj.Set(*band_class, "timestamp", Value::Time(t)));
      oids.push_back(gaea.Insert(std::move(obj)).value());
    }
    return oids;
  };

  // ---- Petri-net feasibility before and after loading data ----
  std::printf("before loading imagery: can derive landcover? %s\n",
              gaea.CanDerive("landcover").value() ? "yes" : "no");
  std::vector<Oid> scene86 = insert_scene(1986, 0.0);
  std::printf("after loading the Jan-1986 scene: can derive landcover? %s\n",
              gaea.CanDerive("landcover").value() ? "yes" : "no");

  // Backward query: what base data would land-change detection need?
  DerivationNet net = gaea.BuildDerivationNet().value();
  const ClassDef* changes_class =
      gaea.catalog().classes().LookupByName("landcover_changes").value();
  DerivationNet::Marking required =
      net.RequiredInitialMarking(changes_class->id()).value();
  std::printf("initial marking required for landcover_changes:\n");
  for (const auto& [class_id, tokens] : required) {
    const ClassDef* def = gaea.catalog().classes().LookupById(class_id).value();
    std::printf("  %lld objects of %s\n", static_cast<long long>(tokens),
                def->name().c_str());
  }

  // ---- Figure 3: the task "land use classification for January 1986" ----
  // Issued as a query: nothing is stored, so Gaea plans and fires P20.
  QueryRequest req;
  req.target = "landcover";
  AbsTime jan86 = AbsTime::FromDate(1986, 1, 1).value();
  AbsTime feb86 = AbsTime::FromDate(1986, 2, 1).value();
  req.filter.window.time = TimeInterval(jan86, feb86);
  QueryResult result = gaea.Query(req).value();
  CHECK_OK(result.answers.empty()
               ? Status::Internal("query returned nothing")
               : Status::OK());
  Oid landcover86 = result.answers[0].oids[0];
  std::printf("\nlandcover for Jan 1986 answered by '%s' -> object #%llu\n",
              QueryStepName(result.answers[0].method),
              static_cast<unsigned long long>(landcover86));

  // ---- Figure 5: compound land-change detection over two epochs ----
  std::vector<Oid> scene87 = insert_scene(1987, 0.7);
  CompoundProcessDef compound = BuildFigure5LandChange(
      "unsupervised-classification", "detect-change", "before_scene",
      "after_scene");
  std::printf("\ncompound process definition:\n%s\n",
              compound.ToDdl().c_str());
  Oid change_map = gaea.DeriveCompound(compound, {{"before_scene", scene86},
                                                  {"after_scene", scene87}})
                       .value();
  const ClassDef* lc_class =
      gaea.catalog().classes().LookupByName("landcover_changes").value();
  DataObject change_obj = gaea.Get(change_map).value();
  ImagePtr change_img =
      change_obj.Get(*lc_class, "data").value().AsImage().value();
  double frac = ChangedFraction(*change_img).value();
  std::printf("land-change map #%llu: %.1f%% of pixels changed class\n",
              static_cast<unsigned long long>(change_map), 100.0 * frac);

  // ---- lineage of the compound product ----
  provenance::ChainResult chain = gaea.ProvenanceChain(change_map).value();
  provenance::ClosureResult history =
      gaea.ProvenanceAncestors(change_map).value();
  std::printf("derivation tree depth %zu, %zu tasks, %zu base scenes\n",
              chain.chain.size(), history.tasks.size(),
              chain.base_sources.size());

  CHECK_OK(gaea.Flush());
  return 0;
}
