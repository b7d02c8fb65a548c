// Regression test: lineage queries across a checkpoint+truncation boundary
// (docs/PROVENANCE.md "Truncated histories").
//
// A checkpoint's Journal::TruncatePrefix moves the task journal's prefix
// into archive segments; index entries for those tasks survive, but a
// fetch through the live journal alone would come back kOutOfRange.
// DbTaskSource must fall through to the archive chain — exercised here
// with prefer_resident=false, which disables the in-memory fast path and
// forces every fetch through the durable chain the way a fresh process
// with a cold log would read it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gaea/kernel.h"
#include "provenance/prov_query.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kChainSchema[] = R"(
CLASS link_a (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS link_b (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: a2b
)
CLASS link_c (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: b2c
)
DEFINE PROCESS a2b
OUTPUT link_b
ARGUMENT ( link_a src )
TEMPLATE {
  MAPPINGS:
    link_b.value = src.value;
    link_b.spatialextent = src.spatialextent;
    link_b.timestamp = src.timestamp;
}
DEFINE PROCESS b2c
OUTPUT link_c
ARGUMENT ( link_b src )
TEMPLATE {
  MAPPINGS:
    link_c.value = src.value;
    link_c.spatialextent = src.spatialextent;
    link_c.timestamp = src.timestamp;
}
DEFINE PROCESS c2b
OUTPUT link_b
ARGUMENT ( link_c src )
TEMPLATE {
  MAPPINGS:
    link_b.value = src.value;
    link_b.spatialextent = src.spatialextent;
    link_b.timestamp = src.timestamp;
}
)";

StatusOr<std::unique_ptr<GaeaKernel>> OpenKernel(const std::string& dir) {
  GaeaKernel::Options options;
  options.dir = dir;
  options.user = "prov_trunc";
  auto kernel = GaeaKernel::Open(options);
  if (kernel.ok()) (*kernel)->SetClock(AbsTime(1));
  return kernel;
}

Oid InsertBase(GaeaKernel* kernel) {
  const ClassDef* cls =
      kernel->catalog().classes().LookupByName("link_a").value();
  DataObject obj(*cls);
  EXPECT_OK(obj.Set(*cls, "value", Value::Int(1)));
  EXPECT_OK(obj.Set(*cls, "spatialextent", Value::OfBox(Box(0, 0, 1, 1))));
  EXPECT_OK(obj.Set(*cls, "timestamp", Value::Time(AbsTime(2))));
  return kernel->Insert(std::move(obj)).value();
}

// Extends the alternating chain by `levels`, returning the new head.
Oid GrowChain(GaeaKernel* kernel, Oid head, int start_level, int levels) {
  for (int level = start_level; level < start_level + levels; ++level) {
    const char* process =
        level == 0 ? "a2b" : (level % 2 == 1 ? "b2c" : "c2b");
    auto derived = kernel->Derive(process, {{"src", {head}}});
    EXPECT_OK(derived);
    head = *derived;
  }
  return head;
}

// Builds a 16-deep chain with two checkpoints in the middle, so the second
// checkpoint truncates the task-journal prefix the first one covered. The
// full ancestry of the final head then spans live journal + archives.
struct TruncatedHistory {
  Oid base = kInvalidOid;
  Oid head = kInvalidOid;
  int depth = 0;
};

TruncatedHistory BuildTruncatedHistory(GaeaKernel* kernel) {
  TruncatedHistory h;
  h.base = InsertBase(kernel);
  h.head = GrowChain(kernel, h.base, 0, 10);
  EXPECT_OK(kernel->Checkpoint());
  h.head = GrowChain(kernel, h.head, 10, 6);
  // The second checkpoint truncates the prefix covered by the first.
  EXPECT_OK(kernel->Checkpoint());
  h.depth = 16;
  EXPECT_GT(kernel->tasks().journal()->base_lsn(), 0u)
      << "task journal prefix never truncated; the test exercises nothing";
  return h;
}

void ExpectFullAncestry(const provenance::ClosureResult& closure,
                        const TruncatedHistory& h) {
  // The closure walks the whole chain: every intermediate link plus the
  // base object, one task per level.
  EXPECT_EQ(closure.oids.size(), static_cast<size_t>(h.depth));
  EXPECT_EQ(closure.tasks.size(), static_cast<size_t>(h.depth));
  EXPECT_EQ(closure.oids.front(), h.base);
  EXPECT_EQ(closure.depth, h.depth);
}

TEST(ProvenanceTruncationTest, AncestryCrossesTruncationBoundary) {
  TempDir dir("prov_trunc");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       OpenKernel(dir.path()));
  ASSERT_OK(kernel->ExecuteDdl(kChainSchema));
  TruncatedHistory h = BuildTruncatedHistory(kernel.get());

  // The resident fast path answers without touching archives.
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult resident,
                       kernel->ProvenanceAncestors(h.head));
  ExpectFullAncestry(resident, h);
  EXPECT_EQ(kernel->provenance_archive_fetches(), 0u);

  // The durable chain: skip the resident log, so fetches of the truncated
  // prefix must fall through live journal -> archive segments.
  provenance::DbTaskSource durable(kernel->env(), dir.path(),
                                   &kernel->tasks(),
                                   /*prefer_resident=*/false);
  provenance::ProvenanceEngine engine(&kernel->provenance_index(), &durable);
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult archived,
                       engine.Ancestors(h.head));
  EXPECT_EQ(archived.oids, resident.oids);
  EXPECT_EQ(archived.tasks, resident.tasks);
  EXPECT_GT(durable.archive_fetches(), 0u)
      << "no fetch crossed into the archive chain";

  // Why-provenance of the head also resolves through the durable chain
  // (its base-witness walk crosses the truncated prefix too).
  ASSERT_OK_AND_ASSIGN(provenance::WhyResult why, engine.Why(h.head));
  EXPECT_EQ(why.base_witnesses, std::vector<Oid>{h.base});
}

TEST(ProvenanceTruncationTest, SurvivesRestartAfterTruncation) {
  TempDir dir("prov_trunc_restart");
  TruncatedHistory h;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                         OpenKernel(dir.path()));
    ASSERT_OK(kernel->ExecuteDdl(kChainSchema));
    h = BuildTruncatedHistory(kernel.get());
  }
  // Recovery comes up from the second checkpoint; the index watermark was
  // flushed with it, so no rebuild — and queries still span the truncated
  // history, both through the resident log and the durable chain.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<GaeaKernel> kernel,
                       OpenKernel(dir.path()));
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult resident,
                       kernel->ProvenanceAncestors(h.head));
  ExpectFullAncestry(resident, h);

  provenance::DbTaskSource durable(kernel->env(), dir.path(),
                                   &kernel->tasks(),
                                   /*prefer_resident=*/false);
  provenance::ProvenanceEngine engine(&kernel->provenance_index(), &durable);
  ASSERT_OK_AND_ASSIGN(provenance::ClosureResult archived,
                       engine.Ancestors(h.head));
  EXPECT_EQ(archived.oids, resident.oids);
  EXPECT_GT(durable.archive_fetches(), 0u);
}

}  // namespace
}  // namespace gaea
