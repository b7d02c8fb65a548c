#include <gtest/gtest.h>

#include "core/lineage.h"
#include "core/task.h"
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

TEST(TaskLogTest, ConsumersTracked) {
  auto log = TaskLog::InMemory();
  ASSERT_OK(log->Append(MakeTask("p", 1, {{"in", {1}}}, {10})).status());
  ASSERT_OK(log->Append(MakeTask("q", 1, {{"in", {1, 10}}}, {11})).status());
  EXPECT_EQ(log->Consumers(1).size(), 2u);
  EXPECT_EQ(log->Consumers(10).size(), 1u);
  EXPECT_TRUE(log->Consumers(999).empty());
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
  EXPECT_EQ(log->Consumers(10).size(), 1u);
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

// Lineage fixture: the paper's §1 two-scientists scenario.
//   base NDVI 1988 = oid 1, NDVI 1989 = oid 2
//   scientist A: veg change by subtraction  -> oid 3
//   scientist B: veg change by division     -> oid 4
//   further analysis on A's result          -> oid 5
class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_ = TaskLog::InMemory();
    ASSERT_OK(
        log_->Append(MakeTask("ndvi-subtract", 1, {{"a", {1}}, {"b", {2}}},
                              {3}))
            .status());
    ASSERT_OK(
        log_->Append(MakeTask("ndvi-divide", 1, {{"a", {1}}, {"b", {2}}}, {4}))
            .status());
    ASSERT_OK(
        log_->Append(MakeTask("threshold", 1, {{"x", {3}}}, {5})).status());
  }

  std::unique_ptr<TaskLog> log_;
};

TEST_F(LineageTest, AncestorsAndDescendants) {
  LineageGraph g(log_.get());
  EXPECT_EQ(g.Ancestors(5), (std::set<Oid>{1, 2, 3}));
  EXPECT_EQ(g.Ancestors(3), (std::set<Oid>{1, 2}));
  EXPECT_TRUE(g.Ancestors(1).empty());
  EXPECT_EQ(g.Descendants(1), (std::set<Oid>{3, 4, 5}));
  EXPECT_EQ(g.Descendants(3), std::set<Oid>{5});
  EXPECT_TRUE(g.Descendants(5).empty());
}

TEST_F(LineageTest, BaseClassification) {
  LineageGraph g(log_.get());
  EXPECT_TRUE(g.IsBase(1));
  EXPECT_FALSE(g.IsBase(3));
  EXPECT_EQ(g.BaseSources(5), (std::set<Oid>{1, 2}));
  EXPECT_EQ(g.BaseSources(1), std::set<Oid>{1});
}

TEST_F(LineageTest, DerivationTreeStructure) {
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DerivationNode> tree, g.Tree(5));
  EXPECT_EQ(tree->oid, 5u);
  ASSERT_NE(tree->task, nullptr);
  EXPECT_EQ(tree->task->process_name, "threshold");
  ASSERT_EQ(tree->inputs.size(), 1u);
  EXPECT_EQ(tree->inputs[0]->oid, 3u);
  EXPECT_EQ(tree->inputs[0]->inputs.size(), 2u);
  EXPECT_EQ(tree->Depth(), 2);
  EXPECT_EQ(tree->TaskCount(), 2);
  // Base object tree is a leaf.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DerivationNode> base, g.Tree(1));
  EXPECT_EQ(base->task, nullptr);
  EXPECT_EQ(base->Depth(), 0);
}

TEST_F(LineageTest, ProcessChains) {
  LineageGraph g(log_.get());
  EXPECT_EQ(g.ProcessChain(5).value(),
            (std::vector<std::string>{"threshold:v1", "ndvi-subtract:v1"}));
  EXPECT_EQ(g.ProcessChain(4).value(),
            (std::vector<std::string>{"ndvi-divide:v1"}));
  EXPECT_TRUE(g.ProcessChain(1).value().empty());
}

TEST_F(LineageTest, CompareResolvesTwoScientistsScenario) {
  // "if only the resultant images are stored ... there is no way to share
  // and compare the produced data unless the derivation procedures are
  // known": with the task log, Compare names the exact divergence.
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(DerivationComparison cmp, g.Compare(3, 4));
  EXPECT_FALSE(cmp.same_procedure);
  EXPECT_NE(cmp.explanation.find("ndvi-subtract:v1 vs ndvi-divide:v1"),
            std::string::npos);
  // Same object compared with itself.
  ASSERT_OK_AND_ASSIGN(DerivationComparison same, g.Compare(3, 3));
  EXPECT_TRUE(same.same_procedure);
  // Two base objects.
  ASSERT_OK_AND_ASSIGN(DerivationComparison bases, g.Compare(1, 2));
  EXPECT_TRUE(bases.same_procedure);
  EXPECT_NE(bases.explanation.find("base data"), std::string::npos);
}

TEST_F(LineageTest, CompareDetectsDepthDivergence) {
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(DerivationComparison cmp, g.Compare(5, 3));
  EXPECT_FALSE(cmp.same_procedure);
  EXPECT_EQ(cmp.chain_a.size(), 2u);
  EXPECT_EQ(cmp.chain_b.size(), 1u);
}

TEST_F(LineageTest, SameProcedureDifferentInputsCompareEqual) {
  // A second subtraction over different epochs: same procedure.
  ASSERT_OK(
      log_->Append(MakeTask("ndvi-subtract", 1, {{"a", {2}}, {"b", {1}}}, {6}))
          .status());
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(DerivationComparison cmp, g.Compare(3, 6));
  EXPECT_TRUE(cmp.same_procedure);
}

TEST_F(LineageTest, DifferentVersionsCompareUnequal) {
  ASSERT_OK(
      log_->Append(MakeTask("ndvi-subtract", 2, {{"a", {1}}, {"b", {2}}}, {7}))
          .status());
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(DerivationComparison cmp, g.Compare(3, 7));
  EXPECT_FALSE(cmp.same_procedure);  // v1 vs v2: edited process
}

TEST_F(LineageTest, DotRendering) {
  LineageGraph g(log_.get());
  ASSERT_OK_AND_ASSIGN(std::string dot, g.ToDot(5));
  EXPECT_NE(dot.find("digraph lineage"), std::string::npos);
  EXPECT_NE(dot.find("threshold v1"), std::string::npos);
  EXPECT_NE(dot.find("obj 1 (base)"), std::string::npos);
  // Object 4 (the other scientist's result) is not in 5's tree.
  EXPECT_EQ(dot.find("obj 4"), std::string::npos);
}

}  // namespace
}  // namespace gaea
