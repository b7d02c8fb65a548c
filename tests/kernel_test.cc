// End-to-end tests of the Gaea kernel: the paper's flagship scenarios run
// through the public API — the §1 two-scientists NDVI story, Figure 3's
// classification process from DDL, Figure 5's compound process, the Figure 2
// concept hierarchy, Petri-net feasibility, and full persistence.

#include <gtest/gtest.h>

#include <filesystem>

#include "gaea/kernel.h"
#include "raster/scene.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kGisSchema[] = R"(
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

CLASS veg_change_div (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: change-by-division
)

CLASS landcover (
  ATTRIBUTES:
    numclass = int4;
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: unsupervised-classification
)

CLASS landcover_changes (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: detect-change
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

DEFINE PROCESS change-by-division
OUTPUT veg_change_div
ARGUMENT ( ndvi_map earlier, ndvi_map later )
TEMPLATE {
  MAPPINGS:
    veg_change_div.data = img_div(later.data, earlier.data);
    veg_change_div.spatialextent = later.spatialextent;
    veg_change_div.timestamp = later.timestamp;
}

DEFINE PROCESS unsupervised-classification
OUTPUT landcover
ARGUMENT ( SETOF landsat_tm_rectified bands MIN 3 )
PARAMETERS { numclass = 4; }
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
    landcover_changes.data = changemap(before.data, after.data, 4);
    landcover_changes.spatialextent = after.spatialextent;
    landcover_changes.timestamp = after.timestamp;
}

DEFINE CONCEPT vegetation_change
  DOC "change in vegetation index between two epochs"
  MEMBERS (veg_change_sub, veg_change_div)

DEFINE CONCEPT desert
  DOC "imprecise: arid regions of various definitions"

DEFINE CONCEPT hot_trade_wind_desert
  DOC "high pressure, rainfall < 250 mm/year"
  ISA desert

DEFINE CONCEPT ice_snow_desert
  DOC "polar lands such as Greenland and Antarctica"
  ISA desert
)";

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("kernel");
    Open();
    ASSERT_OK(kernel_->ExecuteDdl(kGisSchema));
  }

  void Open() {
    GaeaKernel::Options options;
    options.dir = dir_->path();
    options.user = "scientist-a";
    auto kernel = GaeaKernel::Open(options);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    kernel_ = *std::move(kernel);
    kernel_->SetClock(AbsTime(123456));
  }

  // Inserts one rectified band object; band index selects scene band.
  Oid InsertBand(int band, AbsTime t, const Box& extent, double drift = 0.0) {
    const ClassDef* def =
        kernel_->catalog().classes().LookupByName("landsat_tm_rectified")
            .value();
    SceneSpec spec;
    spec.nrow = 8;
    spec.ncol = 8;
    spec.nbands = 3;
    spec.epoch_drift = drift;
    auto bands = GenerateScene(spec).value();
    DataObject obj(*def);
    EXPECT_TRUE(obj.Set(*def, "band", Value::Int(band)).ok());
    EXPECT_TRUE(
        obj.Set(*def, "data", Value::OfImage(std::move(bands[band]))).ok());
    EXPECT_TRUE(obj.Set(*def, "spatialextent", Value::OfBox(extent)).ok());
    EXPECT_TRUE(obj.Set(*def, "timestamp", Value::Time(t)).ok());
    return kernel_->Insert(std::move(obj)).value();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<GaeaKernel> kernel_;
};

TEST_F(KernelTest, DdlPopulatedAllThreeLayers) {
  // System layer.
  EXPECT_TRUE(kernel_->primitive_classes().Contains("image"));
  EXPECT_TRUE(kernel_->operators().Contains("unsuperclassify"));
  // Derivation layer.
  EXPECT_TRUE(kernel_->processes().Contains("compute-ndvi"));
  EXPECT_EQ(kernel_->processes().ListLatest().size(), 5u);
  // Experiment layer.
  EXPECT_TRUE(kernel_->catalog().concepts().Contains("desert"));
  ASSERT_OK_AND_ASSIGN(const ConceptDef* veg,
                       kernel_->catalog().concepts().LookupByName(
                           "vegetation_change"));
  EXPECT_EQ(veg->member_classes.size(), 2u);
}

TEST_F(KernelTest, TwoScientistsScenarioFromSection1) {
  // NDVI of Africa 1988 and 1989 from red+NIR bands.
  Box africa(-20, -35, 52, 38);
  ASSERT_OK_AND_ASSIGN(AbsTime t88, AbsTime::FromDate(1988, 7, 1));
  ASSERT_OK_AND_ASSIGN(AbsTime t89, AbsTime::FromDate(1989, 7, 1));
  Oid red88 = InsertBand(0, t88, africa, 0.0);
  Oid nir88 = InsertBand(1, t88, africa, 0.0);
  Oid red89 = InsertBand(0, t89, africa, 0.6);
  Oid nir89 = InsertBand(1, t89, africa, 0.6);

  ASSERT_OK_AND_ASSIGN(
      Oid ndvi88, kernel_->Derive("compute-ndvi",
                                  {{"nir", {nir88}}, {"red", {red88}}}));
  ASSERT_OK_AND_ASSIGN(
      Oid ndvi89, kernel_->Derive("compute-ndvi",
                                  {{"nir", {nir89}}, {"red", {red89}}}));

  // Scientist A subtracts; scientist B divides.
  ASSERT_OK_AND_ASSIGN(
      Oid by_sub, kernel_->Derive("change-by-subtraction",
                                  {{"earlier", {ndvi88}}, {"later", {ndvi89}}}));
  ASSERT_OK_AND_ASSIGN(
      Oid by_div, kernel_->Derive("change-by-division",
                                  {{"earlier", {ndvi88}}, {"later", {ndvi89}}}));

  // Both are members of the vegetation_change concept, yet Gaea can tell
  // exactly how their derivations differ — the paper's data-sharing fix.
  ASSERT_OK_AND_ASSIGN(provenance::ChainResult chain_sub,
                       kernel_->ProvenanceChain(by_sub));
  ASSERT_OK_AND_ASSIGN(provenance::ChainResult chain_div,
                       kernel_->ProvenanceChain(by_div));
  provenance::DerivationComparison cmp =
      provenance::Compare(chain_sub, chain_div);
  EXPECT_FALSE(cmp.same_procedure);
  EXPECT_NE(cmp.explanation.find("change-by-subtraction:v1 vs "
                                 "change-by-division:v1"),
            std::string::npos);
  // Both rest on the same base imagery.
  std::set<Oid> bases(chain_sub.base_sources.begin(),
                      chain_sub.base_sources.end());
  EXPECT_EQ(bases, (std::set<Oid>{red88, nir88, red89, nir89}));
  EXPECT_EQ(chain_sub.base_sources, chain_div.base_sources);
  // Querying the concept returns instances of both classes.
  QueryRequest req;
  req.target = "vegetation_change";
  req.strategy = {QueryStep::kRetrieve};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  EXPECT_EQ(result.answers.size(), 2u);
}

TEST_F(KernelTest, Figure5CompoundProcessEndToEnd) {
  Box region(0, 0, 100, 100);
  ASSERT_OK_AND_ASSIGN(AbsTime t0, AbsTime::FromDate(1986, 1, 1));
  ASSERT_OK_AND_ASSIGN(AbsTime t1, AbsTime::FromDate(1987, 1, 1));
  std::vector<Oid> before = {InsertBand(0, t0, region, 0.0),
                             InsertBand(1, t0, region, 0.0),
                             InsertBand(2, t0, region, 0.0)};
  std::vector<Oid> after = {InsertBand(0, t1, region, 0.8),
                            InsertBand(1, t1, region, 0.8),
                            InsertBand(2, t1, region, 0.8)};
  CompoundProcessDef compound = BuildFigure5LandChange(
      "unsupervised-classification", "detect-change", "before_scene",
      "after_scene");
  ASSERT_OK_AND_ASSIGN(
      Oid changes,
      kernel_->DeriveCompound(compound, {{"before_scene", before},
                                         {"after_scene", after}}));
  ASSERT_OK_AND_ASSIGN(DataObject obj, kernel_->Get(changes));
  ASSERT_OK_AND_ASSIGN(
      const ClassDef* def,
      kernel_->catalog().classes().LookupByName("landcover_changes"));
  EXPECT_EQ(obj.class_id(), def->id());
  // Expansion ran three primitive tasks (two classify + one detect).
  EXPECT_EQ(kernel_->tasks().size(), 3u);
  // Lineage depth: changes <- landcover <- landsat.
  ASSERT_OK_AND_ASSIGN(provenance::ChainResult chain,
                       kernel_->ProvenanceChain(changes));
  EXPECT_EQ(chain.chain.size(), 2u);
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult history,
                       kernel_->ProvenanceAncestors(changes));
  EXPECT_EQ(history.depth, 2);
  EXPECT_EQ(history.tasks.size(), 3u);
}

TEST_F(KernelTest, ConceptHierarchyQueries) {
  // Figure 2's desert specialization: ISA edges captured, browsable.
  const ConceptRegistry& concepts = kernel_->catalog().concepts();
  ASSERT_OK_AND_ASSIGN(const ConceptDef* desert,
                       concepts.LookupByName("desert"));
  ASSERT_OK_AND_ASSIGN(const ConceptDef* hot,
                       concepts.LookupByName("hot_trade_wind_desert"));
  ASSERT_OK_AND_ASSIGN(std::set<ConceptId> descendants,
                       concepts.Descendants(desert->id));
  EXPECT_EQ(descendants.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::set<ConceptId> ancestors,
                       concepts.Ancestors(hot->id));
  EXPECT_EQ(ancestors, std::set<ConceptId>{desert->id});
}

TEST_F(KernelTest, PetriNetFeasibilityThroughKernel) {
  // With no data: nothing derivable.
  ASSERT_OK_AND_ASSIGN(bool can, kernel_->CanDerive("landcover"));
  EXPECT_FALSE(can);
  // With two bands: still below the threshold of 3.
  Box region(0, 0, 10, 10);
  InsertBand(0, AbsTime(1), region);
  InsertBand(1, AbsTime(1), region);
  ASSERT_OK_AND_ASSIGN(can, kernel_->CanDerive("landcover"));
  EXPECT_FALSE(can);
  // Third band enables classification AND transitively change detection
  // (the detect transition needs 2 landcover tokens; classification can
  // fire repeatedly thanks to non-consumption).
  InsertBand(2, AbsTime(1), region);
  ASSERT_OK_AND_ASSIGN(can, kernel_->CanDerive("landcover"));
  EXPECT_TRUE(can);
  ASSERT_OK_AND_ASSIGN(can, kernel_->CanDerive("landcover_changes"));
  EXPECT_TRUE(can);
  // The backward query reports the base requirement.
  ASSERT_OK_AND_ASSIGN(DerivationNet net, kernel_->BuildDerivationNet());
  ASSERT_OK_AND_ASSIGN(
      const ClassDef* changes,
      kernel_->catalog().classes().LookupByName("landcover_changes"));
  ASSERT_OK_AND_ASSIGN(DerivationNet::Marking required,
                       net.RequiredInitialMarking(changes->id()));
  ASSERT_OK_AND_ASSIGN(
      const ClassDef* landsat,
      kernel_->catalog().classes().LookupByName("landsat_tm_rectified"));
  EXPECT_EQ(required.at(landsat->id()), 3);
}

TEST_F(KernelTest, EverythingPersistsAcrossReopen) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  ASSERT_OK_AND_ASSIGN(
      Oid landcover,
      kernel_->Derive("unsupervised-classification", {{"bands", bands}}));
  ASSERT_OK(kernel_->Flush());
  kernel_.reset();

  Open();
  // Classes, processes, concepts, objects, tasks all replayed.
  EXPECT_TRUE(kernel_->processes().Contains("unsupervised-classification"));
  EXPECT_TRUE(kernel_->catalog().concepts().Contains("desert"));
  ASSERT_OK_AND_ASSIGN(DataObject obj, kernel_->Get(landcover));
  ASSERT_OK_AND_ASSIGN(const ClassDef* def,
                       kernel_->catalog().classes().LookupByName("landcover"));
  EXPECT_EQ(obj.class_id(), def->id());
  ASSERT_OK_AND_ASSIGN(const Task* task, kernel_->tasks().Producer(landcover));
  EXPECT_EQ(task->process_name, "unsupervised-classification");
  // And the old task replays to an identical object.
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult ancestors,
                       kernel_->ProvenanceAncestors(landcover));
  EXPECT_EQ(std::set<Oid>(ancestors.oids.begin(), ancestors.oids.end()),
            std::set<Oid>(bands.begin(), bands.end()));
}

TEST_F(KernelTest, DdlIsRejectedNotPartiallyReplayedOnConflict) {
  // Re-executing the same schema collides on the first class and stops.
  Status s = kernel_->ExecuteDdl(kGisSchema);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(KernelTest, ProcessEditCreatesNewVersionInJournal) {
  std::string v2 = R"(
DEFINE PROCESS compute-ndvi
OUTPUT ndvi_map
ARGUMENT ( landsat_tm_rectified nir, landsat_tm_rectified red )
TEMPLATE {
  MAPPINGS:
    ndvi_map.data = img_div(img_sub(nir.data, red.data), img_add(nir.data, red.data));
    ndvi_map.spatialextent = nir.spatialextent;
    ndvi_map.timestamp = nir.timestamp;
}
)";
  ASSERT_OK(kernel_->ExecuteDdl(v2));
  EXPECT_EQ(kernel_->processes().Latest("compute-ndvi").value()->version(), 2);
  // Both versions survive a reopen.
  ASSERT_OK(kernel_->Flush());
  kernel_.reset();
  Open();
  ASSERT_OK_AND_ASSIGN(auto history,
                       kernel_->processes().History("compute-ndvi"));
  EXPECT_EQ(history.size(), 2u);
}

TEST_F(KernelTest, CompareConceptInstancesAcrossProcedures) {
  Box africa(-20, -35, 52, 38);
  ASSERT_OK_AND_ASSIGN(AbsTime t88, AbsTime::FromDate(1988, 7, 1));
  ASSERT_OK_AND_ASSIGN(AbsTime t89, AbsTime::FromDate(1989, 7, 1));
  Oid red88 = InsertBand(0, t88, africa);
  Oid nir88 = InsertBand(1, t88, africa);
  Oid red89 = InsertBand(0, t89, africa, 0.6);
  Oid nir89 = InsertBand(1, t89, africa, 0.6);
  ASSERT_OK_AND_ASSIGN(Oid ndvi88,
                       kernel_->Derive("compute-ndvi", {{"nir", {nir88}},
                                                        {"red", {red88}}}));
  ASSERT_OK_AND_ASSIGN(Oid ndvi89,
                       kernel_->Derive("compute-ndvi", {{"nir", {nir89}},
                                                        {"red", {red89}}}));
  ASSERT_OK_AND_ASSIGN(Oid by_sub,
                       kernel_->Derive("change-by-subtraction",
                                       {{"earlier", {ndvi88}},
                                        {"later", {ndvi89}}}));
  ASSERT_OK_AND_ASSIGN(Oid by_div,
                       kernel_->Derive("change-by-division",
                                       {{"earlier", {ndvi88}},
                                        {"later", {ndvi89}}}));
  ASSERT_OK_AND_ASSIGN(auto comparisons,
                       kernel_->CompareConceptInstances("vegetation_change"));
  ASSERT_EQ(comparisons.size(), 1u);  // one pair across the two classes
  EXPECT_EQ(comparisons[0].a, std::min(by_sub, by_div));
  EXPECT_EQ(comparisons[0].b, std::max(by_sub, by_div));
  EXPECT_FALSE(comparisons[0].same_procedure);
  EXPECT_NE(comparisons[0].explanation.find("diverge"), std::string::npos);
  // Unknown concept errors; empty concept yields no pairs.
  EXPECT_FALSE(kernel_->CompareConceptInstances("ghost").ok());
  ASSERT_OK_AND_ASSIGN(auto none, kernel_->CompareConceptInstances("desert"));
  EXPECT_TRUE(none.empty());
}

TEST_F(KernelTest, StatsReflectCatalogState) {
  GaeaKernel::Stats before = kernel_->GetStats();
  EXPECT_EQ(before.classes, 6u);
  EXPECT_EQ(before.processes, 5u);
  EXPECT_EQ(before.concepts, 4u);
  EXPECT_EQ(before.objects, 0u);
  EXPECT_EQ(before.tasks, 0u);
  Box region(0, 0, 10, 10);
  InsertBand(0, AbsTime(1), region);
  GaeaKernel::Stats after = kernel_->GetStats();
  EXPECT_EQ(after.objects, 1u);
}

TEST_F(KernelTest, DeriveOrReuseAvoidsDuplicateExperiments) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  ASSERT_OK_AND_ASSIGN(
      Oid first, kernel_->DeriveOrReuse("unsupervised-classification",
                                        {{"bands", bands}}));
  size_t tasks_after_first = kernel_->tasks().size();
  // Identical request: same object back, no new task.
  ASSERT_OK_AND_ASSIGN(
      Oid second, kernel_->DeriveOrReuse("unsupervised-classification",
                                         {{"bands", bands}}));
  EXPECT_EQ(second, first);
  EXPECT_EQ(kernel_->tasks().size(), tasks_after_first);
  // Different inputs derive anew.
  std::vector<Oid> other = {InsertBand(0, AbsTime(2), region, 0.3),
                            InsertBand(1, AbsTime(2), region, 0.3),
                            InsertBand(2, AbsTime(2), region, 0.3)};
  ASSERT_OK_AND_ASSIGN(
      Oid third, kernel_->DeriveOrReuse("unsupervised-classification",
                                        {{"bands", other}}));
  EXPECT_NE(third, first);
  // Plain Derive still recomputes (reproducibility checks depend on it).
  ASSERT_OK_AND_ASSIGN(
      Oid fourth, kernel_->Derive("unsupervised-classification",
                                  {{"bands", bands}}));
  EXPECT_NE(fourth, first);
  // After evicting the reused output, DeriveOrReuse recomputes.
  ASSERT_OK(kernel_->Evict(fourth));
  ASSERT_OK(kernel_->Evict(first));
  ASSERT_OK_AND_ASSIGN(
      Oid fresh, kernel_->DeriveOrReuse("unsupervised-classification",
                                        {{"bands", bands}}));
  EXPECT_NE(fresh, first);
  EXPECT_TRUE(kernel_->catalog().ContainsObject(fresh).value());
}

TEST_F(KernelTest, ReuseFallsBackToOlderStoredRun) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  std::map<std::string, std::vector<Oid>> inputs{{"bands", bands}};
  // Two plain runs of the same experiment; only the older one stays stored.
  ASSERT_OK_AND_ASSIGN(
      Oid older, kernel_->Derive("unsupervised-classification", inputs));
  ASSERT_OK_AND_ASSIGN(
      Oid newer, kernel_->Derive("unsupervised-classification", inputs));
  ASSERT_NE(older, newer);
  ASSERT_OK(kernel_->Evict(newer));
  size_t tasks_before = kernel_->tasks().size();

  // Both lookups skip the evicted newest run, find the older one in the
  // task log and record no new task.
  ASSERT_OK_AND_ASSIGN(
      Oid recorded,
      kernel_->TryRecordedDerive("unsupervised-classification", inputs));
  EXPECT_EQ(recorded, older);
  kernel_->derivation_cache().Clear();  // make the next lookup scan too
  ASSERT_OK_AND_ASSIGN(
      Oid reused, kernel_->DeriveOrReuse("unsupervised-classification", inputs));
  EXPECT_EQ(reused, older);
  EXPECT_EQ(kernel_->tasks().size(), tasks_before);
}

TEST_F(KernelTest, EvictedDerivedDataIsRederivedOnDemand) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  QueryRequest req;
  req.target = "landcover";
  ASSERT_OK_AND_ASSIGN(QueryResult first, kernel_->Query(req));
  ASSERT_EQ(first.answers.size(), 1u);
  Oid original = first.answers[0].oids[0];
  EXPECT_EQ(first.answers[0].method, QueryStep::kDerive);

  // Evict the derived map: bytes gone, task kept.
  ASSERT_OK(kernel_->Evict(original));
  EXPECT_FALSE(kernel_->catalog().ContainsObject(original).value());
  EXPECT_TRUE(kernel_->tasks().Producer(original).ok());

  // The same query regenerates an attribute-identical object.
  ASSERT_OK_AND_ASSIGN(QueryResult second, kernel_->Query(req));
  ASSERT_EQ(second.answers.size(), 1u);
  EXPECT_EQ(second.answers[0].method, QueryStep::kDerive);
  Oid regenerated = second.answers[0].oids[0];
  EXPECT_NE(regenerated, original);
  // Compare against a direct replay of the original task.
  ASSERT_OK_AND_ASSIGN(DataObject obj, kernel_->Get(regenerated));
  const ClassDef* def =
      kernel_->catalog().classes().LookupByName("landcover").value();
  EXPECT_EQ(obj.Get(*def, "numclass").value(), Value::Int(4));
}

// An OID the database never held is not base data: every provenance view
// answers kNotFound for it. An evicted derived object keeps its producing
// task, so it still answers.
TEST_F(KernelTest, ProvenanceOfAnOidNeverStoredIsNotFound) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  QueryRequest req;
  req.target = "landcover";
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  const Oid derived = result.answers[0].oids[0];

  const Oid unknown = 999999;
  const std::string message = "object 999999 is not stored";
  auto expect_not_stored = [&](const Status& status, const char* view) {
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << view;
    EXPECT_EQ(status.message(), message) << view;
  };
  expect_not_stored(kernel_->ProvenanceAncestors(unknown).status(),
                    "ancestors");
  expect_not_stored(kernel_->ProvenanceDescendants(unknown).status(),
                    "descendants");
  expect_not_stored(kernel_->ProvenanceWhy(unknown).status(), "why");
  expect_not_stored(kernel_->ProvenanceWhere(unknown).status(), "where");
  expect_not_stored(kernel_->ProvenanceChain(unknown).status(), "chain");
  expect_not_stored(kernel_->ProvenanceDot(unknown).status(), "dot");
  expect_not_stored(kernel_->ProvenanceDiff(unknown, derived).status(),
                    "diff, first oid");
  expect_not_stored(kernel_->ProvenanceDiff(derived, unknown).status(),
                    "diff, second oid");

  // Stored base data still answers as base data.
  ASSERT_OK_AND_ASSIGN(provenance::ChainResult base_chain,
                       kernel_->ProvenanceChain(bands[0]));
  EXPECT_TRUE(base_chain.chain.empty());
  EXPECT_EQ(base_chain.base_sources, std::vector<Oid>{bands[0]});

  // Evicted: bytes gone, producer kept, every view still answers.
  ASSERT_OK(kernel_->Evict(derived));
  ASSERT_FALSE(kernel_->catalog().ContainsObject(derived).value());
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult ancestors,
                       kernel_->ProvenanceAncestors(derived));
  EXPECT_EQ(ancestors.tasks.size(), 1u);
  EXPECT_OK(kernel_->ProvenanceWhy(derived).status());
  EXPECT_OK(kernel_->ProvenanceWhere(derived).status());
  EXPECT_OK(kernel_->ProvenanceChain(derived).status());
  EXPECT_OK(kernel_->ProvenanceDot(derived).status());
  EXPECT_OK(kernel_->ProvenanceDiff(derived, derived).status());
}

TEST_F(KernelTest, EvictRefusesBaseAndConsumedObjects) {
  Box region(0, 0, 10, 10);
  std::vector<Oid> bands = {InsertBand(0, AbsTime(1), region),
                            InsertBand(1, AbsTime(1), region),
                            InsertBand(2, AbsTime(1), region)};
  // Base data cannot be evicted.
  EXPECT_EQ(kernel_->Evict(bands[0]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(kernel_->Evict(424242).code(), StatusCode::kNotFound);
  // An object consumed by a later derivation cannot be evicted either.
  ASSERT_OK_AND_ASSIGN(
      Oid landcover,
      kernel_->Derive("unsupervised-classification", {{"bands", bands}}));
  ASSERT_OK_AND_ASSIGN(
      Oid landcover2,
      kernel_->Derive("unsupervised-classification", {{"bands", bands}}));
  ASSERT_OK_AND_ASSIGN(
      Oid changes, kernel_->Derive("detect-change",
                                   {{"before", {landcover}},
                                    {"after", {landcover2}}}));
  EXPECT_EQ(kernel_->Evict(landcover).code(), StatusCode::kFailedPrecondition);
  // The terminal product is evictable.
  ASSERT_OK(kernel_->Evict(changes));

  // After a reopen the consumer check answers from the provenance index
  // that CatchUp rebuilt from the task log: its files are removed first, so
  // nothing carries over from the previous session.
  ASSERT_OK(kernel_->Flush());
  kernel_.reset();
  for (const char* name : {"prov_in.idx", "prov_out.idx", "prov.meta"}) {
    ASSERT_TRUE(std::filesystem::remove(dir_->file(name))) << name;
  }
  Open();
  EXPECT_EQ(kernel_->provenance_index().indexed_through(),
            kernel_->tasks().size());
  EXPECT_EQ(kernel_->Evict(landcover).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(kernel_->Evict(bands[0]).code(), StatusCode::kFailedPrecondition);
}

TEST_F(KernelTest, OpenValidatesOptions) {
  GaeaKernel::Options bad;
  bad.dir = "";
  EXPECT_FALSE(GaeaKernel::Open(bad).ok());
}

}  // namespace
}  // namespace gaea
