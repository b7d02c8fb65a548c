#include <gtest/gtest.h>

#include "gaea/kernel.h"
#include "raster/scene.h"
#include "test_util.h"
#include "util/serialize.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kSchema[] = R"(
CLASS landsat_tm (
  ATTRIBUTES:
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
ARGUMENT ( SETOF landsat_tm bands MIN 2 )
TEMPLATE {
  ASSERTIONS:
    card(bands) >= 2;
    common(bands.spatialextent);
    common(bands.timestamp);
  MAPPINGS:
    ndvi_map.data = ndvi(ANYOF bands.data, ANYOF bands.data);
    ndvi_map.spatialextent = ANYOF bands.spatialextent;
    ndvi_map.timestamp = ANYOF bands.timestamp;
}

DEFINE CONCEPT vegetation_index
  DOC "qualitative measure of vegetation"
  MEMBERS (ndvi_map)
)";

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("query");
    GaeaKernel::Options options;
    options.dir = dir_->path();
    options.user = "tester";
    ASSERT_OK_AND_ASSIGN(kernel_, GaeaKernel::Open(options));
    kernel_->SetClock(AbsTime(10000));
    ASSERT_OK(kernel_->ExecuteDdl(kSchema));
    ASSERT_OK_AND_ASSIGN(const ClassDef* landsat,
                         kernel_->catalog().classes().LookupByName(
                             "landsat_tm"));
    landsat_ = landsat;
    ASSERT_OK_AND_ASSIGN(const ClassDef* ndvi,
                         kernel_->catalog().classes().LookupByName("ndvi_map"));
    ndvi_ = ndvi;
  }

  Oid InsertBand(AbsTime t, const Box& extent, uint64_t seed,
                 const ClassDef* def = nullptr, double fill = -1) {
    if (def == nullptr) def = landsat_;
    DataObject obj(*def);
    SceneSpec spec;
    spec.nrow = 4;
    spec.ncol = 4;
    spec.nbands = 1;
    spec.seed = seed;
    Image img = fill < 0 ? std::move(GenerateScene(spec).value()[0])
                         : Image::FromValues(4, 4, std::vector<double>(16, fill))
                               .value();
    EXPECT_TRUE(obj.Set(*def, "data", Value::OfImage(std::move(img))).ok());
    EXPECT_TRUE(obj.Set(*def, "spatialextent", Value::OfBox(extent)).ok());
    EXPECT_TRUE(obj.Set(*def, "timestamp", Value::Time(t)).ok());
    return kernel_->Insert(std::move(obj)).value();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<GaeaKernel> kernel_;
  const ClassDef* landsat_ = nullptr;
  const ClassDef* ndvi_ = nullptr;
};

TEST_F(QueryTest, RetrieveStoredObjects) {
  Oid a = InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
  InsertBand(AbsTime(900), Box(50, 50, 60, 60), 2);
  QueryRequest req;
  req.target = "landsat_tm";
  req.filter.window.time = TimeInterval(AbsTime(0), AbsTime(500));
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].method, QueryStep::kRetrieve);
  EXPECT_EQ(result.answers[0].oids, std::vector<Oid>{a});
  EXPECT_EQ(result.answers[0].class_name, "landsat_tm");
}

TEST_F(QueryTest, UnknownTargetRejected) {
  QueryRequest req;
  req.target = "no_such_thing";
  EXPECT_EQ(kernel_->Query(req).status().code(), StatusCode::kNotFound);
  QueryRequest empty_strategy;
  empty_strategy.target = "landsat_tm";
  empty_strategy.strategy.clear();
  EXPECT_EQ(kernel_->Query(empty_strategy).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryTest, DeriveWhenNotStored) {
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 2);
  QueryRequest req;
  req.target = "ndvi_map";
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].method, QueryStep::kDerive);
  ASSERT_EQ(result.answers[0].oids.size(), 1u);
  // A task was recorded for the derivation.
  EXPECT_EQ(kernel_->tasks().size(), 1u);
  // The derived object is now stored: same query again retrieves.
  ASSERT_OK_AND_ASSIGN(QueryResult again, kernel_->Query(req));
  ASSERT_EQ(again.answers.size(), 1u);
  EXPECT_EQ(again.answers[0].method, QueryStep::kRetrieve);
  EXPECT_EQ(again.answers[0].oids, result.answers[0].oids);
  EXPECT_EQ(kernel_->tasks().size(), 1u);  // no second derivation
}

TEST_F(QueryTest, QueryOnConceptExpandsToClasses) {
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 2);
  QueryRequest req;
  req.target = "vegetation_index";
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].class_name, "ndvi_map");
  EXPECT_EQ(result.answers[0].method, QueryStep::kDerive);
}

TEST_F(QueryTest, InterpolatePreferredWhenOrderedFirst) {
  // Two stored NDVI snapshots; request an instant between them with
  // interpolation prioritized over derivation (paper: "steps 2 and 3 are
  // prioritized according to the user's needs").
  InsertBand(AbsTime(0), Box(0, 0, 10, 10), 1, ndvi_, 0.0);
  InsertBand(AbsTime(1000), Box(0, 0, 10, 10), 2, ndvi_, 1.0);
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(AbsTime(250), AbsTime(250));
  req.strategy = {QueryStep::kRetrieve, QueryStep::kInterpolate,
                  QueryStep::kDerive};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].method, QueryStep::kInterpolate);
  ASSERT_EQ(result.answers[0].oids.size(), 1u);
  ASSERT_OK_AND_ASSIGN(DataObject obj,
                       kernel_->Get(result.answers[0].oids[0]));
  EXPECT_EQ(obj.Timestamp(*ndvi_).value(), AbsTime(250));
  ASSERT_OK_AND_ASSIGN(Value data, obj.Get(*ndvi_, "data"));
  // Linear blend: 0.25 between the all-0 and all-1 snapshots.
  EXPECT_NEAR(data.AsImage().value()->Get(2, 2), 0.25, 1e-12);
  // The synthetic interpolation task is in the log.
  ASSERT_OK_AND_ASSIGN(const Task* task,
                       kernel_->tasks().Producer(result.answers[0].oids[0]));
  EXPECT_EQ(task->process_name, "interpolate:ndvi_map");
  EXPECT_EQ(task->process_version, 0);
}

TEST_F(QueryTest, InterpolationNeedsBothBrackets) {
  InsertBand(AbsTime(0), Box(0, 0, 10, 10), 1, ndvi_, 0.0);
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(AbsTime(500), AbsTime(500));
  req.strategy = {QueryStep::kInterpolate};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  EXPECT_TRUE(result.empty());  // graceful miss, not an error
}

TEST_F(QueryTest, InterpolationBracketsRespectRegion) {
  // Brackets must come from the queried region: snapshots of a different
  // area may not be blended in.
  InsertBand(AbsTime(0), Box(0, 0, 10, 10), 1, ndvi_, 0.0);
  InsertBand(AbsTime(1000), Box(0, 0, 10, 10), 2, ndvi_, 1.0);
  // Distractor snapshots elsewhere with very different values.
  InsertBand(AbsTime(0), Box(100, 100, 110, 110), 3, ndvi_, -5.0);
  InsertBand(AbsTime(1000), Box(100, 100, 110, 110), 4, ndvi_, 5.0);
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(AbsTime(500), AbsTime(500));
  req.filter.window.region = Box(2, 2, 8, 8);
  req.strategy = {QueryStep::kInterpolate};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  ASSERT_OK_AND_ASSIGN(DataObject obj,
                       kernel_->Get(result.answers[0].oids[0]));
  ASSERT_OK_AND_ASSIGN(Value data, obj.Get(*ndvi_, "data"));
  // Midpoint of the in-region pair (0 and 1), not of the distractors.
  EXPECT_NEAR(data.AsImage().value()->Get(0, 0), 0.5, 1e-12);
  // The interpolation task consumed the in-region snapshots only.
  ASSERT_OK_AND_ASSIGN(const Task* task,
                       kernel_->tasks().Producer(result.answers[0].oids[0]));
  std::vector<Oid> all_inputs = task->AllInputs();
  for (Oid input : all_inputs) {
    ASSERT_OK_AND_ASSIGN(DataObject in_obj, kernel_->Get(input));
    ASSERT_OK_AND_ASSIGN(Box extent, in_obj.SpatialExtent(*ndvi_));
    EXPECT_TRUE(extent.Overlaps(Box(2, 2, 8, 8)));
  }
}

TEST_F(QueryTest, StrategyOrderControlsMethod) {
  InsertBand(AbsTime(0), Box(0, 0, 10, 10), 1, ndvi_, 0.0);
  InsertBand(AbsTime(1000), Box(0, 0, 10, 10), 2, ndvi_, 1.0);
  // Bands available too, so derivation is possible.
  InsertBand(AbsTime(500), Box(0, 0, 10, 10), 3);
  InsertBand(AbsTime(500), Box(0, 0, 10, 10), 4);
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(AbsTime(400), AbsTime(600));
  // Derive listed before interpolate.
  req.strategy = {QueryStep::kRetrieve, QueryStep::kDerive,
                  QueryStep::kInterpolate};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].method, QueryStep::kDerive);
}

TEST_F(QueryTest, FailedDeriveStepFallsThroughToNextStep) {
  InsertBand(AbsTime(0), Box(0, 0, 10, 10), 1, ndvi_, 0.0);
  InsertBand(AbsTime(1000), Box(0, 0, 10, 10), 2, ndvi_, 1.0);
  // Bands that plan but were not acquired together: the derive step fails
  // on its common(bands.timestamp) assertion while the plan runs.
  InsertBand(AbsTime(450), Box(0, 0, 10, 10), 3);
  InsertBand(AbsTime(550), Box(0, 0, 10, 10), 4);
  QueryRequest req;
  req.target = "ndvi_map";
  req.filter.window.time = TimeInterval(AbsTime(400), AbsTime(600));
  req.strategy = {QueryStep::kDerive, QueryStep::kInterpolate};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  const ClassAnswer& answer = result.answers[0];
  EXPECT_EQ(answer.method, QueryStep::kInterpolate);
  ASSERT_EQ(answer.oids.size(), 1u);
  ASSERT_EQ(answer.attempts.size(), 2u);
  EXPECT_EQ(answer.attempts[0].rfind("derive: FailedPrecondition: ", 0), 0u)
      << answer.attempts[0];
  EXPECT_NE(answer.attempts[0].find("assertion violated"), std::string::npos);
  EXPECT_EQ(answer.attempts[1], "interpolate: 1 object(s)");
  // The failed derivation attempt is experiment history too.
  ASSERT_GE(kernel_->tasks().size(), 1u);
  EXPECT_EQ(kernel_->tasks().tasks().front().process_name, "compute-ndvi");
  EXPECT_EQ(kernel_->tasks().tasks().front().status, TaskStatus::kFailed);
}

TEST_F(QueryTest, AttributePredicatesFilter) {
  Oid a = InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1, ndvi_, 0.2);
  InsertBand(AbsTime(200), Box(0, 0, 10, 10), 2, ndvi_, 0.9);
  QueryRequest req;
  req.target = "ndvi_map";
  AttrPredicate pred;
  pred.attr = "timestamp";
  pred.op = CompareOp::kLe;
  pred.value = Value::Time(AbsTime(150));
  req.filter.predicates.push_back(pred);
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].oids, std::vector<Oid>{a});
}

TEST_F(QueryTest, SpatialWindowFilters) {
  Oid in = InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
  InsertBand(AbsTime(100), Box(100, 100, 110, 110), 2);
  QueryRequest req;
  req.target = "landsat_tm";
  req.filter.window.region = Box(5, 5, 8, 8);
  req.strategy = {QueryStep::kRetrieve};
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].oids, std::vector<Oid>{in});
}

TEST_F(QueryTest, EmptyResultWhenUnderivable) {
  // No bands stored at all: retrieval, interpolation and derivation all
  // miss; the query returns OK with no objects (no data != bad request),
  // and the per-step EXPLAIN trace records why each step failed.
  QueryRequest req;
  req.target = "ndvi_map";
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  EXPECT_TRUE(result.empty());
  ASSERT_EQ(result.answers.size(), 1u);  // the miss is explained
  const ClassAnswer& miss = result.answers[0];
  EXPECT_TRUE(miss.oids.empty());
  ASSERT_EQ(miss.attempts.size(), 3u);
  EXPECT_EQ(miss.attempts[0], "retrieve: 0 object(s)");
  EXPECT_NE(miss.attempts[1].find("interpolate:"), std::string::npos);
  EXPECT_NE(miss.attempts[2].find("Underivable"), std::string::npos);
}

TEST_F(QueryTest, AttemptsTraceRecordedOnSuccess) {
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
  InsertBand(AbsTime(100), Box(0, 0, 10, 10), 2);
  QueryRequest req;
  req.target = "ndvi_map";
  ASSERT_OK_AND_ASSIGN(QueryResult result, kernel_->Query(req));
  ASSERT_EQ(result.answers.size(), 1u);
  const ClassAnswer& answer = result.answers[0];
  // retrieve missed, interpolate missed, derive hit — all three recorded.
  ASSERT_EQ(answer.attempts.size(), 3u);
  EXPECT_EQ(answer.attempts[0], "retrieve: 0 object(s)");
  EXPECT_EQ(answer.attempts[2], "derive: 1 object(s)");
}

// A change class over two ndvi maps: with only bands stored, its plan fires
// compute-ndvi twice (independent steps) and ndvi-change on both outputs.
constexpr char kChangeSchema[] = R"(
CLASS ndvi_change (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: ndvi-change
)

DEFINE PROCESS ndvi-change
OUTPUT ndvi_change
ARGUMENT ( SETOF ndvi_map maps MIN 2 )
TEMPLATE {
  MAPPINGS:
    ndvi_change.data = img_sub(ANYOF maps.data, ANYOF maps.data);
    ndvi_change.spatialextent = ANYOF maps.spatialextent;
    ndvi_change.timestamp = ANYOF maps.timestamp;
}
)";

// What a derive-by-plan query leaves behind: the answer, every task-log
// line (durations excluded) and the serialized bytes of every output.
struct PlanRun {
  std::vector<Oid> answer;
  std::vector<std::string> tasks;
  std::vector<std::string> objects;
};

// The query engine runs its plan at the pool's width and still commits in
// plan order: width 4 matches width 1 exactly.
TEST_F(QueryTest, DeriveByPlanMatchesAcrossPoolWidths) {
  auto run = [&](int threads) {
    PlanRun out;
    EXPECT_OK(kernel_->ExecuteDdl(kChangeSchema));
    InsertBand(AbsTime(100), Box(0, 0, 10, 10), 1);
    InsertBand(AbsTime(100), Box(0, 0, 10, 10), 2);
    kernel_->SetDeriveThreads(threads);
    QueryRequest req;
    req.target = "ndvi_change";
    auto result = kernel_->Query(req);
    kernel_->SetDeriveThreads(1);
    EXPECT_OK(result.status());
    if (!result.ok() || result->answers.size() != 1) return out;
    EXPECT_EQ(result->answers[0].method, QueryStep::kDerive);
    out.answer = result->answers[0].oids;
    for (const Task& task : kernel_->tasks().tasks()) {
      std::string line =
          task.process_name + "#" + std::to_string(task.process_version) +
          (task.status == TaskStatus::kCompleted ? " ok" : " fail");
      for (const auto& [arg, oids] : task.inputs) {
        line += " " + arg + "=";
        for (Oid oid : oids) line += std::to_string(oid) + ",";
      }
      line += " ->";
      for (Oid oid : task.outputs) {
        line += " " + std::to_string(oid);
        BinaryWriter w;
        kernel_->Get(oid).value().Serialize(&w);
        out.objects.push_back(w.buffer());
      }
      out.tasks.push_back(std::move(line));
    }
    return out;
  };
  PlanRun serial = run(1);
  kernel_.reset();
  dir_.reset();
  SetUp();
  PlanRun parallel = run(4);

  ASSERT_EQ(serial.tasks.size(), 3u);
  EXPECT_EQ(parallel.answer, serial.answer);
  EXPECT_EQ(parallel.tasks, serial.tasks);
  EXPECT_EQ(parallel.objects, serial.objects);
}

TEST(PredicateTest, CompareOpsOverTypes) {
  ClassDef def("c", ClassKind::kBase);
  ASSERT_OK(def.AddAttribute({"n", TypeId::kInt, "int4", ""}));
  ASSERT_OK(def.AddAttribute({"s", TypeId::kString, "char16", ""}));
  def.set_id(1);
  DataObject obj(def);
  ASSERT_OK(obj.Set(def, "n", Value::Int(12)));
  ASSERT_OK(obj.Set(def, "s", Value::String("africa")));

  AttrPredicate eq{"n", CompareOp::kEq, Value::Int(12)};
  EXPECT_TRUE(eq.Matches(def, obj).value());
  AttrPredicate ne{"n", CompareOp::kNe, Value::Int(12)};
  EXPECT_FALSE(ne.Matches(def, obj).value());
  AttrPredicate lt{"n", CompareOp::kLt, Value::Double(12.5)};
  EXPECT_TRUE(lt.Matches(def, obj).value());
  AttrPredicate sgt{"s", CompareOp::kGe, Value::String("abc")};
  EXPECT_TRUE(sgt.Matches(def, obj).value());
  // Ordered comparison across incompatible types errors.
  AttrPredicate bad{"s", CompareOp::kLt, Value::Int(3)};
  EXPECT_FALSE(bad.Matches(def, obj).ok());
  // Unknown attribute errors.
  AttrPredicate ghost{"ghost", CompareOp::kEq, Value::Int(1)};
  EXPECT_FALSE(ghost.Matches(def, obj).ok());
}

}  // namespace
}  // namespace gaea
