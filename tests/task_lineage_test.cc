#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "core/task.h"
#include "provenance/prov_index.h"
#include "provenance/prov_query.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

Task MakeTask(const std::string& process, int version,
              std::map<std::string, std::vector<Oid>> inputs,
              std::vector<Oid> outputs) {
  Task t;
  t.process_name = process;
  t.process_version = version;
  t.inputs = std::move(inputs);
  t.outputs = std::move(outputs);
  t.user = "tester";
  t.started = AbsTime(1000);
  return t;
}

TEST(TaskTest, AllInputsFlattensAndDedups) {
  Task t = MakeTask("p", 1, {{"a", {1, 2}}, {"b", {2, 3}}}, {9});
  EXPECT_EQ(t.AllInputs(), (std::vector<Oid>{1, 2, 3}));
}

TEST(TaskTest, SerializationRoundTrip) {
  Task t = MakeTask("ndvi-sub", 2, {{"x", {4}}, {"y", {5}}}, {6});
  t.id = 17;
  t.status = TaskStatus::kFailed;
  t.error = "assertion violated";
  t.duration_us = 1234;
  BinaryWriter w;
  t.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_OK_AND_ASSIGN(Task back, Task::Deserialize(&r));
  EXPECT_EQ(back.id, 17u);
  EXPECT_EQ(back.process_name, "ndvi-sub");
  EXPECT_EQ(back.process_version, 2);
  EXPECT_EQ(back.inputs, t.inputs);
  EXPECT_EQ(back.outputs, t.outputs);
  EXPECT_EQ(back.status, TaskStatus::kFailed);
  EXPECT_EQ(back.error, "assertion violated");
  EXPECT_EQ(back.user, "tester");
  EXPECT_EQ(back.duration_us, 1234);
}

TEST(TaskLogTest, AppendAssignsSequentialIds) {
  auto log = TaskLog::InMemory();
  ASSERT_OK_AND_ASSIGN(TaskId a, log->Append(MakeTask("p", 1, {}, {10})));
  ASSERT_OK_AND_ASSIGN(TaskId b, log->Append(MakeTask("q", 1, {}, {11})));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log->Get(a).value()->process_name, "p");
  EXPECT_EQ(log->Get(99).status().code(), StatusCode::kNotFound);
}

TEST(TaskLogTest, ProducerUniquePerObject) {
  auto log = TaskLog::InMemory();
  ASSERT_OK(log->Append(MakeTask("p", 1, {{"in", {1}}}, {10})).status());
  EXPECT_EQ(log->Producer(10).value()->process_name, "p");
  EXPECT_EQ(log->Producer(1).status().code(), StatusCode::kNotFound);
  // A second task claiming to produce object 10 is rejected.
  EXPECT_EQ(log->Append(MakeTask("q", 1, {}, {10})).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(TaskLogTest, DurableReplayAcrossReopen) {
  TempDir dir("tasklog");
  std::string path = dir.file("tasks.journal");
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TaskLog> log, TaskLog::Open(path));
    ASSERT_OK(log->Append(MakeTask("p", 1, {{"in", {1}}}, {10})).status());
    ASSERT_OK(log->Append(MakeTask("q", 2, {{"in", {10}}}, {11})).status());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TaskLog> log, TaskLog::Open(path));
  EXPECT_EQ(log->size(), 2u);
  EXPECT_EQ(log->Producer(11).value()->process_name, "q");
  // Appends continue with the right id.
  ASSERT_OK_AND_ASSIGN(TaskId next,
                       log->Append(MakeTask("r", 1, {{"in", {11}}}, {12})));
  EXPECT_EQ(next, 3u);
}

TEST(TaskLogTest, FindCompletedMatchesExactBindings) {
  auto log = TaskLog::InMemory();
  ASSERT_OK(log->Append(MakeTask("p", 1, {{"in", {1, 2}}}, {10})).status());
  ASSERT_OK(log->Append(MakeTask("p", 2, {{"in", {1, 2}}}, {11})).status());
  Task failed = MakeTask("p", 1, {{"in", {3}}}, {});
  failed.status = TaskStatus::kFailed;
  ASSERT_OK(log->Append(std::move(failed)).status());

  EXPECT_EQ(log->FindCompleted("p", 1, {{"in", {1, 2}}}),
            std::vector<Oid>{10});
  // Version-sensitive and binding-sensitive.
  EXPECT_EQ(log->FindCompleted("p", 2, {{"in", {1, 2}}}),
            std::vector<Oid>{11});
  EXPECT_TRUE(log->FindCompleted("p", 3, {{"in", {1, 2}}}).empty());
  EXPECT_TRUE(log->FindCompleted("p", 1, {{"in", {2, 1}}}).empty());
  EXPECT_TRUE(log->FindCompleted("q", 1, {{"in", {1, 2}}}).empty());
  // Failed tasks never match.
  EXPECT_TRUE(log->FindCompleted("p", 1, {{"in", {3}}}).empty());
  // Multi-output tasks never match: reuse answers with exactly one object.
  ASSERT_OK(
      log->Append(MakeTask("p", 1, {{"in", {4}}}, {20, 21})).status());
  EXPECT_TRUE(log->FindCompleted("p", 1, {{"in", {4}}}).empty());
  // Every equivalent run, newest first.
  ASSERT_OK(log->Append(MakeTask("p", 1, {{"in", {1, 2}}}, {12})).status());
  EXPECT_EQ(log->FindCompleted("p", 1, {{"in", {1, 2}}}),
            (std::vector<Oid>{12, 10}));
}

// Counts fetches per task id on top of another source.
class CountingSource : public provenance::TaskSource {
 public:
  explicit CountingSource(const provenance::TaskSource* inner)
      : inner_(inner) {}

  StatusOr<Task> Fetch(TaskId id) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++fetches_[id];
    }
    return inner_->Fetch(id);
  }
  uint64_t MaxTaskId() const override { return inner_->MaxTaskId(); }

  std::map<TaskId, int> fetches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetches_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    fetches_.clear();
  }

 private:
  const provenance::TaskSource* const inner_;
  mutable std::mutex mu_;
  mutable std::map<TaskId, int> fetches_;
};

// An in-memory task log with a provenance index in a temp dir, kept current
// by the log's commit hook, and an engine over both.
class IndexedLog {
 public:
  IndexedLog() : dir_("lineage"), log_(TaskLog::InMemory()) {
    auto index = provenance::ProvenanceIndex::Open(dir_.path());
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    index_ = *std::move(index);
    EXPECT_TRUE(index_->CatchUp(*log_).ok());
    provenance::ProvenanceIndex* raw = index_.get();
    log_->SetCommitHook(
        [raw](const Task& task) { return raw->IndexTask(task); });
    source_ = std::make_unique<provenance::DbTaskSource>(
        Env::Default(), dir_.path(), log_.get());
  }

  TaskLog* log() { return log_.get(); }
  const provenance::ProvenanceIndex* index() const { return index_.get(); }
  const provenance::TaskSource* source() const { return source_.get(); }
  provenance::ProvenanceEngine engine() const {
    return provenance::ProvenanceEngine(index_.get(), source_.get());
  }

 private:
  TempDir dir_;
  std::unique_ptr<TaskLog> log_;
  std::unique_ptr<provenance::ProvenanceIndex> index_;
  std::unique_ptr<provenance::DbTaskSource> source_;
};

// Lineage fixture: the paper's §1 two-scientists scenario.
//   base NDVI 1988 = oid 1, NDVI 1989 = oid 2
//   scientist A: veg change by subtraction  -> oid 3
//   scientist B: veg change by division     -> oid 4
//   further analysis on A's result          -> oid 5
class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(
        log()->Append(MakeTask("ndvi-subtract", 1, {{"a", {1}}, {"b", {2}}},
                               {3}))
            .status());
    ASSERT_OK(
        log()->Append(MakeTask("ndvi-divide", 1, {{"a", {1}}, {"b", {2}}}, {4}))
            .status());
    ASSERT_OK(
        log()->Append(MakeTask("threshold", 1, {{"x", {3}}}, {5})).status());
  }

  TaskLog* log() { return db_.log(); }

  std::vector<Oid> Ancestors(Oid oid) const {
    return db_.engine().Ancestors(oid).value().oids;
  }
  std::vector<Oid> Descendants(Oid oid) const {
    return db_.engine().Descendants(oid).value().oids;
  }
  provenance::ChainResult Chain(Oid oid) const {
    return db_.engine().Chain(oid).value();
  }
  provenance::DerivationComparison Compare(Oid a, Oid b) const {
    return provenance::Compare(Chain(a), Chain(b));
  }

  IndexedLog db_;
};

TEST_F(LineageTest, AncestorsAndDescendants) {
  EXPECT_EQ(Ancestors(5), (std::vector<Oid>{1, 2, 3}));
  EXPECT_EQ(Ancestors(3), (std::vector<Oid>{1, 2}));
  EXPECT_TRUE(Ancestors(1).empty());
  EXPECT_EQ(Descendants(1), (std::vector<Oid>{3, 4, 5}));
  EXPECT_EQ(Descendants(3), std::vector<Oid>{5});
  EXPECT_TRUE(Descendants(5).empty());
}

TEST_F(LineageTest, BaseClassification) {
  EXPECT_TRUE(Chain(1).chain.empty());
  EXPECT_FALSE(Chain(3).chain.empty());
  EXPECT_EQ(Chain(5).base_sources, (std::vector<Oid>{1, 2}));
  EXPECT_EQ(Chain(1).base_sources, std::vector<Oid>{1});
  // The chain's base sources are why-provenance's base witness.
  ASSERT_OK_AND_ASSIGN(provenance::WhyResult why, db_.engine().Why(5));
  EXPECT_EQ(why.base_witnesses, Chain(5).base_sources);
}

TEST_F(LineageTest, DerivationHistoryStructure) {
  // 5 <- threshold <- 3 <- ndvi-subtract <- {1, 2}: two tasks, depth 2.
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult history,
                       db_.engine().Ancestors(5));
  EXPECT_EQ(history.tasks, (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(history.depth, 2);
  EXPECT_EQ(Chain(5).chain.size(), 2u);
  ASSERT_OK_AND_ASSIGN(provenance::WhyResult why, db_.engine().Why(5));
  EXPECT_EQ(why.process, "threshold");
  ASSERT_EQ(why.witnesses.size(), 1u);
  EXPECT_EQ(why.witnesses[0].second, std::vector<Oid>{3});
  // A base object's history is empty.
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult base,
                       db_.engine().Ancestors(1));
  EXPECT_TRUE(base.tasks.empty());
  EXPECT_EQ(base.depth, 0);
}

TEST_F(LineageTest, ProcessChains) {
  EXPECT_EQ(Chain(5).chain,
            (std::vector<std::string>{"threshold:v1", "ndvi-subtract:v1"}));
  EXPECT_EQ(Chain(4).chain, (std::vector<std::string>{"ndvi-divide:v1"}));
  EXPECT_TRUE(Chain(1).chain.empty());
  EXPECT_EQ(Chain(5).ToText(),
            "chain: threshold:v1 ndvi-subtract:v1\nbase sources: #1 #2\n");
  EXPECT_EQ(Chain(4).ToJson(),
            "{\"query\":\"chain\",\"root\":4,\"chain\":[\"ndvi-divide:v1\"],"
            "\"base_sources\":[1,2]}");
}

TEST_F(LineageTest, CompareResolvesTwoScientistsScenario) {
  // "if only the resultant images are stored ... there is no way to share
  // and compare the produced data unless the derivation procedures are
  // known": with the task log, Compare names the exact divergence.
  provenance::DerivationComparison cmp = Compare(3, 4);
  EXPECT_FALSE(cmp.same_procedure);
  EXPECT_NE(cmp.explanation.find("ndvi-subtract:v1 vs ndvi-divide:v1"),
            std::string::npos);
  // Same object compared with itself.
  provenance::DerivationComparison same = Compare(3, 3);
  EXPECT_TRUE(same.same_procedure);
  // Two base objects.
  provenance::DerivationComparison bases = Compare(1, 2);
  EXPECT_TRUE(bases.same_procedure);
  EXPECT_NE(bases.explanation.find("base data"), std::string::npos);
}

TEST_F(LineageTest, CompareDetectsDepthDivergence) {
  provenance::DerivationComparison cmp = Compare(5, 3);
  EXPECT_FALSE(cmp.same_procedure);
  EXPECT_EQ(cmp.chain_a.size(), 2u);
  EXPECT_EQ(cmp.chain_b.size(), 1u);
}

TEST_F(LineageTest, SameProcedureDifferentInputsCompareEqual) {
  // A second subtraction over different epochs: same procedure.
  ASSERT_OK(
      log()->Append(MakeTask("ndvi-subtract", 1, {{"a", {2}}, {"b", {1}}}, {6}))
          .status());
  EXPECT_TRUE(Compare(3, 6).same_procedure);
}

TEST_F(LineageTest, DifferentVersionsCompareUnequal) {
  ASSERT_OK(
      log()->Append(MakeTask("ndvi-subtract", 2, {{"a", {1}}, {"b", {2}}}, {7}))
          .status());
  EXPECT_FALSE(Compare(3, 7).same_procedure);  // v1 vs v2: edited process
}

TEST_F(LineageTest, DotRendering) {
  ASSERT_OK_AND_ASSIGN(std::string dot, db_.engine().Dot(5));
  EXPECT_NE(dot.find("digraph lineage"), std::string::npos);
  EXPECT_NE(dot.find("threshold v1"), std::string::npos);
  EXPECT_NE(dot.find("obj 1 (base)"), std::string::npos);
  // Object 4 (the other scientist's result) is not in 5's history.
  EXPECT_EQ(dot.find("obj 4"), std::string::npos);
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// out_k = p(a: out_{k-1}, b: out_{k-2}): every object below the tip is
// reachable along exponentially many paths. Unfolding the DAG into a tree
// costs ~1.6^k; the engine must walk it once.
TEST(LineageScaleTest, SharedInputHistoryFetchesEachTaskOnce) {
  constexpr int kTasks = 40;
  IndexedLog db;
  // Base objects 1 and 2; task k produces object k + 2.
  for (Oid k = 1; k <= kTasks; ++k) {
    ASSERT_OK(db.log()
                  ->Append(MakeTask("p", 1, {{"a", {k + 1}}, {"b", {k}}},
                                    {k + 2}))
                  .status());
  }
  const Oid tip = kTasks + 2;
  CountingSource counting(db.source());
  provenance::ProvenanceEngine engine(db.index(), &counting);

  ASSERT_OK_AND_ASSIGN(provenance::ChainResult chain, engine.Chain(tip));
  EXPECT_EQ(chain.chain.size(), static_cast<size_t>(kTasks));
  EXPECT_EQ(chain.base_sources, (std::vector<Oid>{1, 2}));
  std::map<TaskId, int> fetches = counting.fetches();
  EXPECT_EQ(fetches.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : fetches) EXPECT_EQ(n, 1) << "task #" << id;

  counting.Reset();
  ASSERT_OK_AND_ASSIGN(std::string dot, engine.Dot(tip));
  EXPECT_EQ(CountOf(dot, "[shape=box"), static_cast<size_t>(kTasks));
  EXPECT_EQ(CountOf(dot, "[shape=ellipse"), static_cast<size_t>(kTasks + 2));
  EXPECT_EQ(CountOf(dot, "(base)"), 2u);
  fetches = counting.fetches();
  EXPECT_EQ(fetches.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : fetches) EXPECT_EQ(n, 1) << "task #" << id;
}

// Serves a fixed set of tasks, whatever they say.
class FixedSource : public provenance::TaskSource {
 public:
  explicit FixedSource(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}
  StatusOr<Task> Fetch(TaskId id) const override {
    if (id == kInvalidTaskId || id > tasks_.size()) {
      return Status::NotFound("no task " + std::to_string(id));
    }
    return tasks_[id - 1];
  }
  uint64_t MaxTaskId() const override { return tasks_.size(); }

 private:
  std::vector<Task> tasks_;
};

TEST(LineageScaleTest, CycleInDamagedIndexEndsInError) {
  // Task 1 makes 10 from 11 and task 2 makes 11 from 10: no well-formed log
  // holds this, but a damaged index can.
  TempDir dir("lineage_cycle");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<provenance::ProvenanceIndex> index,
                       provenance::ProvenanceIndex::Open(dir.path()));
  std::vector<Task> tasks = {MakeTask("p", 1, {{"in", {11}}}, {10}),
                             MakeTask("q", 1, {{"in", {10}}}, {11})};
  tasks[0].id = 1;
  tasks[1].id = 2;
  for (const Task& task : tasks) ASSERT_OK(index->IndexTask(task));
  FixedSource source(tasks);
  provenance::ProvenanceEngine engine(index.get(), &source);
  EXPECT_EQ(engine.Chain(10).status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine.Dot(11).status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gaea
