#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/deriver.h"
#include "core/planner.h"
#include "core/process_registry.h"
#include "core/scheduler.h"
#include "raster/scene.h"
#include "test_util.h"
#include "types/op_registry.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

// Full derivation stack over a temp catalog: landsat bands -> landcover
// (classification) -> landcover_changes (change detection).
class DeriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("deriver");
    ASSERT_OK(RegisterBuiltinOperators(&ops_));
    ASSERT_OK_AND_ASSIGN(catalog_, Catalog::Open(dir_->path()));

    // Classes.
    ClassDef landsat("landsat_tm", ClassKind::kBase);
    ASSERT_OK(landsat.AddAttribute({"data", TypeId::kImage, "image", ""}));
    ASSERT_OK(landsat.AddAttribute({"spatialextent", TypeId::kBox, "box", ""}));
    ASSERT_OK(
        landsat.AddAttribute({"timestamp", TypeId::kTime, "abstime", ""}));
    ASSERT_OK(landsat.SetSpatialExtent("spatialextent"));
    ASSERT_OK(landsat.SetTemporalExtent("timestamp"));
    ASSERT_OK_AND_ASSIGN(landsat_id_, catalog_->DefineClass(std::move(landsat)));

    ClassDef landcover("landcover", ClassKind::kDerived);
    ASSERT_OK(landcover.AddAttribute({"numclass", TypeId::kInt, "int4", ""}));
    ASSERT_OK(landcover.AddAttribute({"data", TypeId::kImage, "image", ""}));
    ASSERT_OK(
        landcover.AddAttribute({"spatialextent", TypeId::kBox, "box", ""}));
    ASSERT_OK(
        landcover.AddAttribute({"timestamp", TypeId::kTime, "abstime", ""}));
    ASSERT_OK(landcover.SetSpatialExtent("spatialextent"));
    ASSERT_OK(landcover.SetTemporalExtent("timestamp"));
    ASSERT_OK(landcover.SetDerivedBy("classify"));
    ASSERT_OK_AND_ASSIGN(landcover_id_,
                         catalog_->DefineClass(std::move(landcover)));

    // Process P20.
    ProcessDef classify("classify", "landcover");
    ASSERT_OK(classify.AddArg({"bands", "landsat_tm", true, 3}));
    ASSERT_OK(classify.AddParam("numclass", Value::Int(4)));
    ASSERT_OK(classify.AddAssertion(Expr::OpCall(
        "ge", {Expr::Card("bands"), Expr::Literal(Value::Int(3))})));
    ASSERT_OK(classify.AddAssertion(
        Expr::Common(Expr::AttrRef("bands", "spatialextent"))));
    ASSERT_OK(classify.AddAssertion(
        Expr::Common(Expr::AttrRef("bands", "timestamp"))));
    ASSERT_OK(classify.AddMapping(
        "data", Expr::OpCall("unsuperclassify",
                             {Expr::OpCall("composite",
                                           {Expr::AttrRef("bands", "data")}),
                              Expr::Param("numclass")})));
    ASSERT_OK(classify.AddMapping("numclass", Expr::Param("numclass")));
    ASSERT_OK(classify.AddMapping(
        "spatialextent", Expr::AnyOf(Expr::AttrRef("bands", "spatialextent"))));
    ASSERT_OK(classify.AddMapping(
        "timestamp", Expr::AnyOf(Expr::AttrRef("bands", "timestamp"))));
    ASSERT_OK(classify.Validate(catalog_->classes(), ops_));
    ASSERT_OK(processes_.Register(std::move(classify)).status());

    log_ = TaskLog::InMemory();
    deriver_ = std::make_unique<Deriver>(catalog_.get(), &processes_, &ops_,
                                         log_.get());
    deriver_->set_user("scientist-a");
    deriver_->set_clock(AbsTime(5000));
  }

  // Runs `plan` the way a query does: on the scheduler with no derivation
  // cache. Returns each step's output, or the first failure.
  StatusOr<std::vector<Oid>> RunPlan(const DerivationPlan& plan) {
    TaskScheduler scheduler(deriver_.get(), catalog_.get(), &processes_,
                            nullptr);
    GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes,
                          scheduler.Execute(plan));
    std::vector<Oid> produced;
    for (const DeriveOutcome& outcome : outcomes) {
      GAEA_RETURN_IF_ERROR(outcome.status);
      produced.push_back(outcome.oid);
    }
    return produced;
  }

  // Inserts `n` co-registered band objects at `t` over `extent`.
  std::vector<Oid> InsertBands(int n, AbsTime t, const Box& extent,
                               uint64_t seed = 7) {
    std::vector<Oid> oids;
    SceneSpec spec;
    spec.nrow = 8;
    spec.ncol = 8;
    spec.nbands = n;
    spec.seed = seed;
    auto bands = GenerateScene(spec).value();
    const ClassDef* def = catalog_->classes().LookupById(landsat_id_).value();
    for (int i = 0; i < n; ++i) {
      DataObject obj(*def);
      EXPECT_TRUE(
          obj.Set(*def, "data", Value::OfImage(std::move(bands[i]))).ok());
      EXPECT_TRUE(obj.Set(*def, "spatialextent", Value::OfBox(extent)).ok());
      EXPECT_TRUE(obj.Set(*def, "timestamp", Value::Time(t)).ok());
      oids.push_back(catalog_->InsertObject(std::move(obj)).value());
    }
    return oids;
  }

  std::unique_ptr<TempDir> dir_;
  OperatorRegistry ops_;
  std::unique_ptr<Catalog> catalog_;
  ProcessRegistry processes_;
  std::unique_ptr<TaskLog> log_;
  std::unique_ptr<Deriver> deriver_;
  ClassId landsat_id_ = kInvalidClassId;
  ClassId landcover_id_ = kInvalidClassId;
};

TEST_F(DeriverTest, DeriveProducesObjectAndTask) {
  std::vector<Oid> bands = InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  ASSERT_OK_AND_ASSIGN(Oid out, deriver_->Derive("classify", {{"bands", bands}}));
  // Output object stored with evaluated mappings.
  ASSERT_OK_AND_ASSIGN(DataObject obj, catalog_->GetObject(out));
  const ClassDef* def = catalog_->classes().LookupById(landcover_id_).value();
  EXPECT_EQ(obj.class_id(), landcover_id_);
  EXPECT_EQ(obj.Get(*def, "numclass").value(), Value::Int(4));
  EXPECT_EQ(obj.SpatialExtent(*def).value(), Box(0, 0, 10, 10));
  EXPECT_EQ(obj.Timestamp(*def).value(), AbsTime(100));
  ASSERT_OK_AND_ASSIGN(Value data, obj.Get(*def, "data"));
  EXPECT_EQ(data.AsImage().value()->nrow(), 8);
  // Task recorded with full bindings.
  ASSERT_OK_AND_ASSIGN(const Task* task, log_->Producer(out));
  EXPECT_EQ(task->process_name, "classify");
  EXPECT_EQ(task->inputs.at("bands"), bands);
  EXPECT_EQ(task->user, "scientist-a");
  EXPECT_EQ(task->status, TaskStatus::kCompleted);
  EXPECT_EQ(task->started, AbsTime(5000));
}

TEST_F(DeriverTest, AssertionViolationFailsAndLogs) {
  // Bands with mismatched timestamps violate common(bands.timestamp).
  std::vector<Oid> bands = InsertBands(2, AbsTime(100), Box(0, 0, 10, 10));
  std::vector<Oid> later = InsertBands(1, AbsTime(999), Box(0, 0, 10, 10));
  bands.push_back(later[0]);
  auto result = deriver_->Derive("classify", {{"bands", bands}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("common(bands.timestamp)"),
            std::string::npos);
  // The failed attempt is itself history.
  ASSERT_EQ(log_->size(), 1u);
  EXPECT_EQ(log_->tasks()[0].status, TaskStatus::kFailed);
  // No landcover object was stored.
  EXPECT_TRUE(catalog_->ObjectsOfClass(landcover_id_).value().empty());
}

TEST_F(DeriverTest, CardinalityBelowThresholdFails) {
  std::vector<Oid> bands = InsertBands(2, AbsTime(100), Box(0, 0, 10, 10));
  auto result = deriver_->Derive("classify", {{"bands", bands}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeriverTest, BindingValidation) {
  std::vector<Oid> bands = InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  // Missing argument.
  EXPECT_FALSE(deriver_->Derive("classify", {}).ok());
  // Unknown argument name.
  EXPECT_FALSE(
      deriver_->Derive("classify", {{"bands", bands}, {"ghost", {1}}}).ok());
  // Unknown process.
  EXPECT_EQ(deriver_->Derive("nope", {{"bands", bands}}).status().code(),
            StatusCode::kNotFound);
  // Wrong-class object bound.
  ASSERT_OK_AND_ASSIGN(Oid out,
                       deriver_->Derive("classify", {{"bands", bands}}));
  std::vector<Oid> with_wrong = {bands[0], bands[1], out};
  EXPECT_FALSE(deriver_->Derive("classify", {{"bands", with_wrong}}).ok());
}

TEST_F(DeriverTest, ReplayReproducesIdenticalObject) {
  std::vector<Oid> bands = InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  ASSERT_OK_AND_ASSIGN(Oid out, deriver_->Derive("classify", {{"bands", bands}}));
  ASSERT_OK_AND_ASSIGN(const Task* task, log_->Producer(out));
  ASSERT_OK_AND_ASSIGN(Oid replayed, deriver_->Replay(*task));
  EXPECT_NE(replayed, out);
  ASSERT_OK_AND_ASSIGN(DataObject a, catalog_->GetObject(out));
  ASSERT_OK_AND_ASSIGN(DataObject b, catalog_->GetObject(replayed));
  EXPECT_EQ(a.values(), b.values());  // deterministic derivation
}

TEST_F(DeriverTest, OldVersionRemainsExecutable) {
  // Edit the process (new numclass): v2. Old tasks replay against v1.
  std::vector<Oid> bands = InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  ASSERT_OK_AND_ASSIGN(Oid v1_out,
                       deriver_->Derive("classify", {{"bands", bands}}));
  ProcessDef v2("classify", "landcover");
  ASSERT_OK(v2.AddArg({"bands", "landsat_tm", true, 3}));
  ASSERT_OK(v2.AddParam("numclass", Value::Int(8)));
  ASSERT_OK(v2.AddMapping(
      "data", Expr::OpCall("unsuperclassify",
                           {Expr::OpCall("composite",
                                         {Expr::AttrRef("bands", "data")}),
                            Expr::Param("numclass")})));
  ASSERT_OK(v2.AddMapping("numclass", Expr::Param("numclass")));
  ASSERT_OK(v2.AddMapping("spatialextent",
                          Expr::AnyOf(Expr::AttrRef("bands", "spatialextent"))));
  ASSERT_OK(v2.AddMapping("timestamp",
                          Expr::AnyOf(Expr::AttrRef("bands", "timestamp"))));
  ASSERT_OK(processes_.Register(std::move(v2)).status());

  ASSERT_OK_AND_ASSIGN(Oid v2_out,
                       deriver_->Derive("classify", {{"bands", bands}}));
  const ClassDef* def = catalog_->classes().LookupById(landcover_id_).value();
  ASSERT_OK_AND_ASSIGN(DataObject v2_obj, catalog_->GetObject(v2_out));
  EXPECT_EQ(v2_obj.Get(*def, "numclass").value(), Value::Int(8));
  // Explicit old version still runs with old parameters.
  ASSERT_OK_AND_ASSIGN(Oid old_out,
                       deriver_->Derive("classify", {{"bands", bands}}, 1));
  ASSERT_OK_AND_ASSIGN(DataObject old_obj, catalog_->GetObject(old_out));
  EXPECT_EQ(old_obj.Get(*def, "numclass").value(), Value::Int(4));
  ASSERT_OK_AND_ASSIGN(DataObject v1_obj, catalog_->GetObject(v1_out));
  EXPECT_EQ(old_obj.values(), v1_obj.values());
}

// ---- planner ----

TEST_F(DeriverTest, PlannerRetrievesWhenStored) {
  InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  Window window;
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan, planner.Plan(landsat_id_, window));
  EXPECT_TRUE(plan.steps.empty());  // nothing to derive
}

TEST_F(DeriverTest, PlannerPlansClassification) {
  std::vector<Oid> bands = InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  Window window;
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan,
                       planner.Plan(landcover_id_, window));
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].process_name, "classify");
  ASSERT_EQ(plan.steps[0].bindings.at("bands").size(), 3u);
  // Executing the plan produces the landcover object.
  ASSERT_OK_AND_ASSIGN(std::vector<Oid> produced, RunPlan(plan));
  ASSERT_EQ(produced.size(), 1u);
  ASSERT_OK_AND_ASSIGN(DataObject obj, catalog_->GetObject(produced[0]));
  EXPECT_EQ(obj.class_id(), landcover_id_);
}

TEST_F(DeriverTest, PlannerHonorsSpatioTemporalWindow) {
  InsertBands(3, AbsTime(100), Box(0, 0, 10, 10), /*seed=*/1);
  InsertBands(3, AbsTime(900), Box(100, 100, 110, 110), /*seed=*/2);
  Planner planner(catalog_.get(), &processes_);
  Window window;
  window.time = TimeInterval(AbsTime(800), AbsTime(1000));
  window.region = Box(105, 105, 108, 108);
  ASSERT_OK_AND_ASSIGN(std::vector<Oid> matches,
                       planner.MatchingObjects(landsat_id_, window));
  EXPECT_EQ(matches.size(), 3u);  // only the second epoch
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan,
                       planner.Plan(landcover_id_, window));
  ASSERT_EQ(plan.steps.size(), 1u);
  for (const BoundInput& input : plan.steps[0].bindings.at("bands")) {
    EXPECT_EQ(input.kind, BoundInput::Kind::kStored);
    EXPECT_NE(std::find(matches.begin(), matches.end(), input.oid),
              matches.end());
  }
}

TEST_F(DeriverTest, PlannerReportsUnderivable) {
  // Only 2 bands stored; classification needs 3 and landsat has no producer.
  InsertBands(2, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  auto plan = planner.Plan(landcover_id_, Window{});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnderivable);
}

TEST_F(DeriverTest, PlannerBindsScalarArgsToExactlyOneObject) {
  // A process with two scalar args of the band class; even with many
  // matching objects stored, each scalar argument receives exactly one.
  ClassDef diff("band_diff", ClassKind::kDerived);
  ASSERT_OK(diff.AddAttribute({"data", TypeId::kImage, "image", ""}));
  ASSERT_OK(diff.SetDerivedBy("band-sub"));
  ASSERT_OK_AND_ASSIGN(ClassId diff_id, catalog_->DefineClass(std::move(diff)));
  ProcessDef sub("band-sub", "band_diff");
  ASSERT_OK(sub.AddArg({"a", "landsat_tm", false, 1}));
  ASSERT_OK(sub.AddArg({"b", "landsat_tm", false, 1}));
  ASSERT_OK(sub.AddMapping(
      "data", Expr::OpCall("img_sub", {Expr::AttrRef("a", "data"),
                                       Expr::AttrRef("b", "data")})));
  ASSERT_OK(sub.Validate(catalog_->classes(), ops_));
  ASSERT_OK(processes_.Register(std::move(sub)).status());

  InsertBands(4, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan, planner.Plan(diff_id, Window{}));
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].bindings.at("a").size(), 1u);
  EXPECT_EQ(plan.steps[0].bindings.at("b").size(), 1u);
  ASSERT_OK_AND_ASSIGN(std::vector<Oid> produced, RunPlan(plan));
  EXPECT_EQ(produced.size(), 1u);
}

TEST_F(DeriverTest, PlannerPrefersCheaperProducer) {
  // Two ways to make a landcover2: directly from bands (1 step) or by
  // refining an existing landcover (which itself must first be classified:
  // 2 steps). The cheaper single-step route must win regardless of
  // registration order, and the expensive route must still be usable when
  // it is the only viable one.
  ClassDef lc2("landcover2", ClassKind::kDerived);
  ASSERT_OK(lc2.AddAttribute({"data", TypeId::kImage, "image", ""}));
  ASSERT_OK(lc2.SetDerivedBy("refine"));
  ASSERT_OK_AND_ASSIGN(ClassId lc2_id, catalog_->DefineClass(std::move(lc2)));

  // Expensive route registered FIRST: refine(landcover) -> landcover2.
  ProcessDef refine("refine", "landcover2");
  ASSERT_OK(refine.AddArg({"in", "landcover", false, 1}));
  ASSERT_OK(refine.AddMapping("data", Expr::AttrRef("in", "data")));
  ASSERT_OK(refine.Validate(catalog_->classes(), ops_));
  ASSERT_OK(processes_.Register(std::move(refine)).status());
  // Cheap route second: classify2(bands) -> landcover2.
  ProcessDef direct("classify2", "landcover2");
  ASSERT_OK(direct.AddArg({"bands", "landsat_tm", true, 3}));
  ASSERT_OK(direct.AddMapping(
      "data", Expr::OpCall("unsuperclassify",
                           {Expr::OpCall("composite",
                                         {Expr::AttrRef("bands", "data")}),
                            Expr::Literal(Value::Int(4))})));
  ASSERT_OK(direct.Validate(catalog_->classes(), ops_));
  ASSERT_OK(processes_.Register(std::move(direct)).status());

  InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan, planner.Plan(lc2_id, Window{}));
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].process_name, "classify2");

  // With a landcover already stored, refine becomes a 1-step plan too; any
  // 1-step answer is acceptable, but the plan must execute.
  ASSERT_OK_AND_ASSIGN(std::vector<Oid> produced, RunPlan(plan));
  EXPECT_EQ(produced.size(), 1u);
}

TEST_F(DeriverTest, MultiStepPlanChainsThroughIntermediate) {
  // Add changes class + detect process; with only bands stored, deriving
  // changes requires classify twice? No — change detection needs two
  // landcover objects; the planner fires classify for them.
  ClassDef changes("landcover_changes", ClassKind::kDerived);
  ASSERT_OK(changes.AddAttribute({"data", TypeId::kImage, "image", ""}));
  ASSERT_OK(changes.SetDerivedBy("detect"));
  ASSERT_OK_AND_ASSIGN(ClassId changes_id,
                       catalog_->DefineClass(std::move(changes)));
  ProcessDef detect("detect", "landcover_changes");
  ASSERT_OK(detect.AddArg({"maps", "landcover", true, 2}));
  ASSERT_OK(detect.AddMapping(
      "data",
      Expr::OpCall("changemap",
                   {Expr::AnyOf(Expr::AttrRef("maps", "data")),
                    Expr::AnyOf(Expr::AttrRef("maps", "data")),
                    Expr::Literal(Value::Int(4))})));
  ASSERT_OK(detect.Validate(catalog_->classes(), ops_));
  ASSERT_OK(processes_.Register(std::move(detect)).status());

  InsertBands(3, AbsTime(100), Box(0, 0, 10, 10));
  Planner planner(catalog_.get(), &processes_);
  ASSERT_OK_AND_ASSIGN(DerivationPlan plan, planner.Plan(changes_id, Window{}));
  // Two classify firings feed one detect firing.
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].process_name, "classify");
  EXPECT_EQ(plan.steps[1].process_name, "classify");
  EXPECT_EQ(plan.steps[2].process_name, "detect");
  ASSERT_OK_AND_ASSIGN(std::vector<Oid> produced, RunPlan(plan));
  EXPECT_EQ(produced.size(), 3u);
  ASSERT_OK_AND_ASSIGN(DataObject final_obj, catalog_->GetObject(produced[2]));
  EXPECT_EQ(final_obj.class_id(), changes_id);
  EXPECT_EQ(log_->size(), 3u);
}

}  // namespace
}  // namespace gaea
