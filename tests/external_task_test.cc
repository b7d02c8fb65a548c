// Tests for non-applicative (external) derivation records — the paper's §5
// future-work item: "a process may consist of a mapping which is described
// by experimental procedures that do not follow a well known algorithm".

#include <gtest/gtest.h>

#include "gaea/kernel.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kSchema[] = R"(
CLASS field_sample (
  ATTRIBUTES:
    site = char16;
    measurement = float8;
  TEMPORAL EXTENT: timestamp = abstime;
)
)";

class ExternalTaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("external");
    GaeaKernel::Options options;
    options.dir = dir_->path();
    options.user = "field-team";
    ASSERT_OK_AND_ASSIGN(kernel_, GaeaKernel::Open(options));
    kernel_->SetClock(AbsTime(777));
    ASSERT_OK(kernel_->ExecuteDdl(kSchema));
    ASSERT_OK_AND_ASSIGN(
        sample_class_,
        kernel_->catalog().classes().LookupByName("field_sample"));
  }

  Oid InsertSample(const std::string& site, double value) {
    DataObject obj(*sample_class_);
    EXPECT_TRUE(obj.Set(*sample_class_, "site", Value::String(site)).ok());
    EXPECT_TRUE(
        obj.Set(*sample_class_, "measurement", Value::Double(value)).ok());
    EXPECT_TRUE(
        obj.Set(*sample_class_, "timestamp", Value::Time(AbsTime(1))).ok());
    return kernel_->Insert(std::move(obj)).value();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<GaeaKernel> kernel_;
  const ClassDef* sample_class_ = nullptr;
};

TEST_F(ExternalTaskTest, RecordsLineageForManualProcedure) {
  Oid raw_a = InsertSample("sahel-12", 3.4);
  Oid raw_b = InsertSample("sahel-13", 3.9);
  // The corrected value was produced by hand in the lab.
  Oid corrected = InsertSample("sahel-12-corrected", 3.55);

  ASSERT_OK_AND_ASSIGN(
      TaskId task_id,
      kernel_->RecordExternalTask(
          "manual-calibration", {{"raw", {raw_a, raw_b}}}, {corrected},
          "cross-calibrated against field notebook p.47"));
  ASSERT_OK_AND_ASSIGN(const Task* task, kernel_->tasks().Get(task_id));
  EXPECT_EQ(task->process_version, GaeaKernel::kExternalTaskVersion);
  EXPECT_EQ(task->user, "field-team");
  EXPECT_EQ(task->note, "cross-calibrated against field notebook p.47");
  EXPECT_EQ(task->started, AbsTime(777));

  // Lineage works exactly as for template-derived objects.
  ASSERT_OK_AND_ASSIGN(provenance::ChainResult chain,
                       kernel_->ProvenanceChain(corrected));
  EXPECT_FALSE(chain.chain.empty());  // not base data
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult ancestors,
                       kernel_->ProvenanceAncestors(corrected));
  EXPECT_EQ(std::set<Oid>(ancestors.oids.begin(), ancestors.oids.end()),
            (std::set<Oid>{raw_a, raw_b}));
  EXPECT_EQ(chain.chain,
            std::vector<std::string>{"manual-calibration:v-1"});
}

TEST_F(ExternalTaskTest, Validation) {
  Oid sample = InsertSample("x", 1.0);
  // Outputs required; objects must exist; name must be an identifier.
  EXPECT_FALSE(
      kernel_->RecordExternalTask("p", {{"in", {sample}}}, {}, "").ok());
  EXPECT_EQ(kernel_->RecordExternalTask("p", {{"in", {9999}}}, {sample}, "")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(kernel_->RecordExternalTask("p", {}, {9999}, "").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      kernel_->RecordExternalTask("not a name", {}, {sample}, "").ok());
}

TEST_F(ExternalTaskTest, CannotBeReplayed) {
  Oid in = InsertSample("in", 1.0);
  Oid out = InsertSample("out", 2.0);
  ASSERT_OK_AND_ASSIGN(
      TaskId task_id,
      kernel_->RecordExternalTask("lab-run", {{"in", {in}}}, {out}, ""));
  ASSERT_OK_AND_ASSIGN(const Task* task, kernel_->tasks().Get(task_id));
  // Experiments that include external tasks report non-reproducibility
  // instead of failing outright.
  Experiment exp;
  exp.name = "with-external";
  exp.tasks = {task_id};
  ASSERT_OK(kernel_->DefineExperiment(std::move(exp)).status());
  ASSERT_OK_AND_ASSIGN(ReproductionReport report,
                       kernel_->Reproduce("with-external"));
  EXPECT_FALSE(report.all_identical);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_NE(report.entries[0].note.find("replay failed"), std::string::npos);
  (void)task;
}

TEST_F(ExternalTaskTest, PersistsAcrossReopen) {
  Oid in = InsertSample("in", 1.0);
  Oid out = InsertSample("out", 2.0);
  ASSERT_OK_AND_ASSIGN(TaskId task_id,
                       kernel_->RecordExternalTask(
                           "lab-run", {{"in", {in}}}, {out}, "notes"));
  ASSERT_OK(kernel_->Flush());
  kernel_.reset();
  GaeaKernel::Options options;
  options.dir = dir_->path();
  ASSERT_OK_AND_ASSIGN(kernel_, GaeaKernel::Open(options));
  ASSERT_OK_AND_ASSIGN(const Task* task, kernel_->tasks().Get(task_id));
  EXPECT_EQ(task->note, "notes");
  EXPECT_EQ(task->process_version, GaeaKernel::kExternalTaskVersion);
  EXPECT_EQ(kernel_->tasks().Producer(out).value()->id, task_id);
}

TEST_F(ExternalTaskTest, QueryTextEndToEnd) {
  InsertSample("a", 1.0);
  InsertSample("b", 5.0);
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      kernel_->QueryText("SELECT FROM field_sample WHERE measurement > 2.0 "
                         "USING RETRIEVE"));
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].oids.size(), 1u);
  ASSERT_OK_AND_ASSIGN(DataObject obj, kernel_->Get(result.answers[0].oids[0]));
  EXPECT_EQ(obj.Get(*sample_class_, "site").value(), Value::String("b"));
  // Parse errors surface cleanly.
  EXPECT_FALSE(kernel_->QueryText("SELECT garbage").ok());
}

}  // namespace
}  // namespace gaea
