// Figure 2's high-level semantics layer: the DESERT concept hierarchy with
// imprecise definitions, where "the same derivation method with different
// parameters represents different processes" — one scientist calls a region
// desertic below 250 mm/year of rainfall, another below 200 mm/year.
//
//   ./desert_concepts [db_dir]

#include <cstdio>
#include <cstdlib>

#include "gaea/kernel.h"
#include "raster/scene.h"

namespace {

constexpr char kSchema[] = R"(
CLASS rainfall_grid (
  ATTRIBUTES:
    data = image;         // mm/year per cell
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)

CLASS desert_mask_250 (
  ATTRIBUTES:
    data = image;         // 1 = desertic
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: desert-by-rainfall-250
)

CLASS desert_mask_200 (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: desert-by-rainfall-200
)

// Same method, different parameter => a different process (paper §2.1.2).
DEFINE PROCESS desert-by-rainfall-250
OUTPUT desert_mask_250
ARGUMENT ( rainfall_grid rain )
PARAMETERS { max_rainfall = 250.0; }
TEMPLATE {
  MAPPINGS:
    desert_mask_250.data = img_threshold(img_scale(rain.data, -1.0), mul($max_rainfall, -1.0));
    desert_mask_250.spatialextent = rain.spatialextent;
    desert_mask_250.timestamp = rain.timestamp;
}

DEFINE PROCESS desert-by-rainfall-200
OUTPUT desert_mask_200
ARGUMENT ( rainfall_grid rain )
PARAMETERS { max_rainfall = 200.0; }
TEMPLATE {
  MAPPINGS:
    desert_mask_200.data = img_threshold(img_scale(rain.data, -1.0), mul($max_rainfall, -1.0));
    desert_mask_200.spatialextent = rain.spatialextent;
    desert_mask_200.timestamp = rain.timestamp;
}

DEFINE CONCEPT desert
  DOC "an entity set whose definition may differ from one user to another"

DEFINE CONCEPT hot_trade_wind_desert
  DOC "areas of high pressure with rainfall less than ~250 mm/year"
  ISA desert
  MEMBERS (desert_mask_250, desert_mask_200)

DEFINE CONCEPT ice_snow_desert
  DOC "polar lands such as Greenland and Antarctica"
  ISA desert
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
  std::string dir = argc > 1 ? argv[1] : "/tmp/gaea_desert";
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "climatologist";
  auto kernel_or = GaeaKernel::Open(options);
  CHECK_OK(kernel_or.status());
  GaeaKernel& gaea = **kernel_or;
  gaea.SetClock(AbsTime::FromDate(1992, 3, 3).value());

  if (!gaea.catalog().classes().Contains("rainfall_grid")) {
    CHECK_OK(gaea.ExecuteDdl(kSchema));
  }

  // ---- browse the concept hierarchy (Figure 2, high-level layer) ----
  const ConceptRegistry& concepts = gaea.catalog().concepts();
  std::printf("concept hierarchy:\n");
  for (const ConceptDef* def : concepts.List()) {
    std::printf("  %s", def->name.c_str());
    std::vector<ConceptId> parents = concepts.Parents(def->id);
    if (!parents.empty()) {
      std::printf("  ISA");
      for (ConceptId parent : parents) {
        std::printf(" %s", concepts.LookupById(parent).value()->name.c_str());
      }
    }
    if (!def->doc.empty()) std::printf("\n      \"%s\"", def->doc.c_str());
    std::printf("\n");
  }

  // ---- insert a rainfall grid (100..500 mm/year gradient + structure) ----
  const ClassDef* rain_class =
      gaea.catalog().classes().LookupByName("rainfall_grid").value();
  SceneSpec spec;
  spec.nrow = 64;
  spec.ncol = 64;
  spec.nbands = 1;
  Image base = std::move(GenerateScene(spec).value()[0]);
  Image rain = Image::Create(64, 64, PixelType::kFloat64).value();
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      rain.Set(r, c, 100.0 + 400.0 * base.Get(r, c));
    }
  }
  DataObject rain_obj(*rain_class);
  CHECK_OK(rain_obj.Set(*rain_class, "data", Value::OfImage(std::move(rain))));
  CHECK_OK(rain_obj.Set(*rain_class, "spatialextent",
                        Value::OfBox(Box(10, 15, 35, 32))));
  CHECK_OK(rain_obj.Set(*rain_class, "timestamp",
                        Value::Time(AbsTime::FromDate(1990, 1, 1).value())));
  Oid rain_oid = gaea.Insert(std::move(rain_obj)).value();

  // ---- query the CONCEPT: both users' derivations materialize ----
  QueryRequest req;
  req.target = "hot_trade_wind_desert";
  QueryResult result = gaea.Query(req).value();
  std::printf("\nquery on concept 'hot_trade_wind_desert' answered:\n");
  for (const ClassAnswer& answer : result.answers) {
    if (answer.oids.empty()) continue;  // unanswered class (see .attempts)
    DataObject obj = gaea.Get(answer.oids[0]).value();
    const ClassDef* def =
        gaea.catalog().classes().LookupById(answer.class_id).value();
    ImagePtr mask = obj.Get(*def, "data").value().AsImage().value();
    double desert_frac = mask->ComputeStats().mean;
    std::printf("  %s via %s: %.1f%% of cells desertic\n",
                answer.class_name.c_str(), QueryStepName(answer.method),
                100.0 * desert_frac);
  }

  // The 200 mm definition is strictly stricter than the 250 mm one.
  // (Fewer or equal cells classified desertic.)
  if (result.answers.size() == 2) {
    auto frac_of = [&](const ClassAnswer& a) {
      DataObject obj = gaea.Get(a.oids[0]).value();
      const ClassDef* def =
          gaea.catalog().classes().LookupById(a.class_id).value();
      return obj.Get(*def, "data").value().AsImage().value()
          ->ComputeStats().mean;
    };
    double f250 = 0, f200 = 0;
    for (const ClassAnswer& a : result.answers) {
      (a.class_name == "desert_mask_250" ? f250 : f200) = frac_of(a);
    }
    std::printf("  stricter cut classifies %s area (200mm: %.1f%% <= "
                "250mm: %.1f%%)\n",
                f200 <= f250 ? "less or equal" : "MORE (unexpected!)",
                100 * f200, 100 * f250);
  }

  // ---- the derivation layer remembers which parameters were used ----
  for (const ClassAnswer& answer : result.answers) {
    if (answer.oids.empty()) continue;
    const Task* task = gaea.tasks().Producer(answer.oids[0]).value();
    const ProcessDef* proc =
        gaea.processes().Version(task->process_name, task->process_version)
            .value();
    std::printf("  %s derived by %s with max_rainfall = %s\n",
                answer.class_name.c_str(), proc->name().c_str(),
                proc->params().at("max_rainfall").ToString().c_str());
  }
  (void)rain_oid;

  CHECK_OK(gaea.Flush());
  return 0;
}
