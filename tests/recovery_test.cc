// Checkpoint / backup / restore suite (src/recovery/, docs/ROBUSTNESS.md):
// manifest self-checking, journal prefix truncation, the atomic rename
// install primitive, recover-from-checkpoint vs full-replay equivalence,
// corrupt-snapshot fallback, the background checkpoint policy, incremental
// backup, restore-to-point, and checkpoints racing live derivations.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gaea/kernel.h"
#include "recovery/backup.h"
#include "recovery/checkpoint.h"
#include "storage/journal.h"
#include "test_util.h"
#include "util/env.h"
#include "util/serialize.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

constexpr char kSchema[] = R"(
CLASS reading (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
)

CLASS reading_copy (
  ATTRIBUTES:
    value = int4;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: copy-reading
)

DEFINE PROCESS copy-reading
OUTPUT reading_copy
ARGUMENT ( reading src )
TEMPLATE {
  MAPPINGS:
    reading_copy.value = src.value;
    reading_copy.spatialextent = src.spatialextent;
    reading_copy.timestamp = src.timestamp;
}
)";

StatusOr<Oid> InsertReading(GaeaKernel* kernel, int64_t value) {
  GAEA_ASSIGN_OR_RETURN(const ClassDef* def,
                        kernel->catalog().classes().LookupByName("reading"));
  DataObject obj(*def);
  GAEA_RETURN_IF_ERROR(obj.Set(*def, "value", Value::Int(value)));
  GAEA_RETURN_IF_ERROR(
      obj.Set(*def, "spatialextent", Value::OfBox(Box(0, 0, 10, 10))));
  GAEA_RETURN_IF_ERROR(
      obj.Set(*def, "timestamp", Value::Time(AbsTime(1000 + value))));
  return kernel->Insert(std::move(obj));
}

// Opens a kernel on `dir`, loads the schema if absent, and runs `derives`
// insert+derive rounds (each adds one task); flushes before returning.
StatusOr<std::unique_ptr<GaeaKernel>> OpenAndDerive(const std::string& dir,
                                                    int derives,
                                                    int64_t value_base = 0,
                                                    bool replicated = false) {
  GaeaKernel::Options options;
  options.dir = dir;
  options.replicated = replicated;
  GAEA_ASSIGN_OR_RETURN(auto kernel, GaeaKernel::Open(options));
  kernel->SetClock(AbsTime(1000));
  if (!kernel->processes().Contains("copy-reading")) {
    GAEA_RETURN_IF_ERROR(kernel->ExecuteDdl(kSchema));
  }
  for (int i = 0; i < derives; ++i) {
    GAEA_ASSIGN_OR_RETURN(Oid src,
                          InsertReading(kernel.get(), value_base + i));
    GAEA_RETURN_IF_ERROR(
        kernel->Derive("copy-reading", {{"src", {src}}}).status());
  }
  GAEA_RETURN_IF_ERROR(kernel->Flush());
  return kernel;
}

std::string SerializeObject(const DataObject& obj) {
  BinaryWriter w;
  obj.Serialize(&w);
  return w.buffer();
}

std::string SerializeTask(const Task& task) {
  BinaryWriter w;
  task.Serialize(&w);
  return w.buffer();
}

// Byte-level equivalence of two kernels' recovered state: every task record
// and every stored object must serialize identically.
void ExpectSameState(GaeaKernel* a, GaeaKernel* b) {
  const auto& ta = a->tasks().tasks();
  const auto& tb = b->tasks().tasks();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(SerializeTask(ta[i]), SerializeTask(tb[i])) << "task " << i;
  }
  GaeaKernel::Stats sa = a->GetStats();
  GaeaKernel::Stats sb = b->GetStats();
  EXPECT_EQ(sa.classes, sb.classes);
  EXPECT_EQ(sa.processes, sb.processes);
  EXPECT_EQ(sa.objects, sb.objects);
  EXPECT_EQ(sa.experiments, sb.experiments);
  for (const Task& task : ta) {
    for (Oid oid : task.outputs) {
      ASSERT_OK_AND_ASSIGN(DataObject oa, a->Get(oid));
      ASSERT_OK_AND_ASSIGN(DataObject ob, b->Get(oid));
      EXPECT_EQ(SerializeObject(oa), SerializeObject(ob)) << "oid " << oid;
    }
  }
}

void FlipByteInMiddle(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  std::streamoff size = f.tellg();
  ASSERT_GT(size, 0);
  std::streamoff pos = size / 2;
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(pos);
  f.write(&byte, 1);
}

// ---------------------------------------------------------------------------
// Manifest + snapshot file formats
// ---------------------------------------------------------------------------

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  recovery::Manifest m;
  m.seq = 7;
  m.created_us = 123456;
  m.next_oid = 42;
  m.entries.push_back({"catalog", "00000007.catalog.snap", 11, 5, 900, 77});
  m.entries.push_back({"tasks", "00000007.tasks.snap", 6, 6, 1200, 88});

  std::string bytes = m.Encode();
  ASSERT_OK_AND_ASSIGN(recovery::Manifest decoded,
                       recovery::Manifest::Decode(bytes));
  EXPECT_EQ(decoded.seq, 7u);
  EXPECT_EQ(decoded.created_us, 123456u);
  EXPECT_EQ(decoded.next_oid, 42u);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].component, "catalog");
  EXPECT_EQ(decoded.entries[0].covered_lsn, 11u);
  EXPECT_EQ(decoded.entries[1].size_bytes, 1200u);
  const recovery::SnapshotEntry* tasks = decoded.Find("tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->records, 6u);
  EXPECT_EQ(decoded.Find("nope"), nullptr);

  // Any flipped byte must fail the trailing CRC (or the magic check).
  std::string damaged = bytes;
  damaged[damaged.size() / 2] ^= 0x40;
  EXPECT_FALSE(recovery::Manifest::Decode(damaged).ok());
}

TEST(ManifestTest, FileNamesParse) {
  EXPECT_EQ(recovery::ManifestFileName(3), "MANIFEST-00000003");
  uint64_t seq = 0;
  EXPECT_TRUE(recovery::ParseManifestFileName("MANIFEST-00000042", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(recovery::ParseManifestFileName("MANIFEST-xyz", &seq));
  EXPECT_FALSE(recovery::ParseManifestFileName("00000042", &seq));

  std::string component;
  uint64_t base = 0, upto = 0;
  std::string name = recovery::ArchiveSegmentName("tasks", 5, 17);
  EXPECT_TRUE(
      recovery::ParseArchiveSegmentName(name, &component, &base, &upto));
  EXPECT_EQ(component, "tasks");
  EXPECT_EQ(base, 5u);
  EXPECT_EQ(upto, 17u);
  EXPECT_FALSE(recovery::ParseArchiveSegmentName("tasks.seg", &component,
                                                 &base, &upto));
}

// ---------------------------------------------------------------------------
// Journal prefix truncation (the archive primitive)
// ---------------------------------------------------------------------------

TEST(JournalTruncateTest, TruncatePrefixArchivesAndReplaysTail) {
  TempDir dir("journal_trunc");
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(auto journal,
                       Journal::Open(dir.file("j.journal"), env));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(journal->Append("rec" + std::to_string(i)));
  }
  ASSERT_OK(journal->Replay([](const std::string&) { return Status::OK(); }));
  EXPECT_EQ(journal->record_count(), 10u);
  EXPECT_EQ(journal->base_lsn(), 0u);

  const std::string archive = dir.file("j.0-4.seg");
  ASSERT_OK(journal->TruncatePrefix(4, archive));
  EXPECT_EQ(journal->base_lsn(), 4u);
  EXPECT_EQ(journal->record_count(), 10u);

  // The live file holds only the tail; replay from the base yields it.
  std::vector<std::string> tail;
  ASSERT_OK(journal->Replay(
      [&](const std::string& rec) {
        tail.push_back(rec);
        return Status::OK();
      },
      /*start_lsn=*/4));
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(tail.front(), "rec4");
  EXPECT_EQ(tail.back(), "rec9");

  // Replaying from below the base must refuse: those records are gone.
  // (start_lsn 0 is the "whatever the file holds" default, so probe with a
  // nonzero LSN inside the truncated prefix.)
  Status below = journal->Replay(
      [](const std::string&) { return Status::OK(); }, /*start_lsn=*/2);
  EXPECT_EQ(below.code(), StatusCode::kCorruption);

  // The archive segment carries the dropped prefix with true LSNs.
  std::vector<std::pair<uint64_t, std::string>> archived;
  ASSERT_OK(Journal::ReplayFile(
      env, archive, /*strict=*/true,
      [&](uint64_t lsn, const std::string& rec) {
        archived.emplace_back(lsn, rec);
        return Status::OK();
      }));
  ASSERT_EQ(archived.size(), 4u);
  EXPECT_EQ(archived[0], (std::pair<uint64_t, std::string>{0, "rec0"}));
  EXPECT_EQ(archived[3], (std::pair<uint64_t, std::string>{3, "rec3"}));

  // Appends continue at the right LSN and survive a reopen.
  ASSERT_OK(journal->Append("rec10"));
  EXPECT_EQ(journal->record_count(), 11u);
  journal.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       Journal::Open(dir.file("j.journal"), env));
  std::vector<std::string> all;
  ASSERT_OK(reopened->Replay(
      [&](const std::string& rec) {
        all.push_back(rec);
        return Status::OK();
      },
      /*start_lsn=*/4));
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all.back(), "rec10");
  EXPECT_EQ(reopened->base_lsn(), 4u);
}

TEST(JournalTruncateTest, ArchiveChainDedupsOverlapAndRejectsGaps) {
  TempDir dir("chain");
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(auto journal,
                       Journal::Open(dir.file("j.journal"), env));
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(journal->Append("rec" + std::to_string(i)));
  }
  ASSERT_OK(journal->Replay([](const std::string&) { return Status::OK(); }));
  const std::string seg1 = dir.file("j.0-3.seg");
  const std::string seg2 = dir.file("j.0-6.seg");
  ASSERT_OK(journal->TruncatePrefix(3, seg1));
  // Second truncation archives [3, 6); replaying seg1 + seg2 must not
  // double-apply the overlap a crash between renames could leave behind.
  ASSERT_OK(journal->TruncatePrefix(6, seg2));

  std::vector<std::string> records;
  ASSERT_OK_AND_ASSIGN(uint64_t cursor,
                       recovery::ReplayArchiveChain(
                           env, {seg1, seg2}, [&](const std::string& rec) {
                             records.push_back(rec);
                             return Status::OK();
                           }));
  EXPECT_EQ(cursor, 6u);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0], "rec0");
  EXPECT_EQ(records[5], "rec5");

  // A chain missing its first segment leaves a gap and must be rejected.
  auto broken = recovery::ReplayArchiveChain(
      env, {seg2}, [](const std::string&) { return Status::OK(); });
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kCorruption);
}

// Segments delivered out of order or more than once — the shapes a crashed
// checkpoint, a re-listed archive directory, or a retried ship can produce.
TEST(JournalTruncateTest, ArchiveChainOutOfOrderAndDuplicateSegments) {
  TempDir dir("chain_edges");
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(auto journal,
                       Journal::Open(dir.file("j.journal"), env));
  for (int i = 0; i < 9; ++i) {
    ASSERT_OK(journal->Append("rec" + std::to_string(i)));
  }
  ASSERT_OK(journal->Replay([](const std::string&) { return Status::OK(); }));
  const std::string seg_a = dir.file("j.0-3.seg");   // records [0, 3)
  const std::string seg_b = dir.file("j.3-6.seg");   // records [3, 6)
  const std::string seg_c = dir.file("j.6-9.seg");   // records [6, 9)
  ASSERT_OK(journal->TruncatePrefix(3, seg_a));
  ASSERT_OK(journal->TruncatePrefix(6, seg_b));
  ASSERT_OK(journal->TruncatePrefix(9, seg_c));

  auto collect = [&](const std::vector<std::string>& chain,
                     std::vector<std::string>* out) {
    return recovery::ReplayArchiveChain(env, chain,
                                        [out](const std::string& rec) {
                                          out->push_back(rec);
                                          return Status::OK();
                                        });
  };

  // Duplicated segments are fully skipped wherever they reappear: every
  // record of the duplicate is below the cursor by the time it replays.
  std::vector<std::string> records;
  ASSERT_OK_AND_ASSIGN(uint64_t cursor,
                       collect({seg_a, seg_a, seg_b, seg_c, seg_a}, &records));
  EXPECT_EQ(cursor, 9u);
  ASSERT_EQ(records.size(), 9u);
  EXPECT_EQ(records.front(), "rec0");
  EXPECT_EQ(records.back(), "rec8");

  // Out-of-order delivery that jumps ahead is a hole at replay time, not a
  // silently reordered history: the chain refuses at the first gap.
  records.clear();
  auto swapped = collect({seg_b, seg_a, seg_c}, &records);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(records.empty()) << "no record may apply past a gap";

  // A gap in the middle (lost segment) is refused even when everything
  // before and after is pristine.
  records.clear();
  auto holey = collect({seg_a, seg_c}, &records);
  ASSERT_FALSE(holey.ok());
  EXPECT_EQ(holey.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(records.size(), 3u) << "the intact prefix replays, the hole stops";

  // A wider segment arriving after a narrower one (re-archive after a crash
  // between checkpoint steps) continues exactly where the overlap ends.
  ASSERT_OK_AND_ASSIGN(auto journal2,
                       Journal::Open(dir.file("k.journal"), env));
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(journal2->Append("k" + std::to_string(i)));
  }
  ASSERT_OK(journal2->Replay([](const std::string&) { return Status::OK(); }));
  const std::string k_narrow = dir.file("k.0-2.seg");
  const std::string k_wide = dir.file("k.2-6.seg");
  ASSERT_OK(journal2->TruncatePrefix(2, k_narrow));
  ASSERT_OK(journal2->TruncatePrefix(6, k_wide));
  records.clear();
  ASSERT_OK_AND_ASSIGN(cursor, collect({k_narrow, k_narrow, k_wide}, &records));
  EXPECT_EQ(cursor, 6u);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[2], "k2");
}

// ---------------------------------------------------------------------------
// Env: the rename install primitive and its crash point
// ---------------------------------------------------------------------------

TEST(EnvRenameTest, RenameReplacesAtomically) {
  TempDir dir("rename");
  Env* env = Env::Default();
  {
    ASSERT_OK_AND_ASSIGN(auto f, env->NewWritableFile(dir.file("a.tmp")));
    ASSERT_OK(f->Append("payload"));
    ASSERT_OK(f->Sync());
  }
  ASSERT_OK(env->RenameFile(dir.file("a.tmp"), dir.file("a")));
  EXPECT_FALSE(env->FileExists(dir.file("a.tmp")));
  ASSERT_TRUE(env->FileExists(dir.file("a")));
  ASSERT_OK_AND_ASSIGN(uint64_t size, env->FileSize(dir.file("a")));
  EXPECT_EQ(size, 7u);
  EXPECT_FALSE(env->RenameFile(dir.file("missing"), dir.file("b")).ok());
}

TEST(EnvRenameTest, FaultInjectionCrashesAtRename) {
  TempDir dir("rename_fault");
  FaultInjectingEnv env(Env::Default());
  {
    ASSERT_OK_AND_ASSIGN(auto f, env.NewWritableFile(dir.file("a.tmp")));
    ASSERT_OK(f->Append("payload"));
  }
  uint64_t before = env.write_ops();
  FaultInjectingEnv::FaultPlan plan;
  plan.crash_after_writes = before + 1;  // the rename is the next write op
  env.set_plan(plan);
  Status renamed = env.RenameFile(dir.file("a.tmp"), dir.file("a"));
  EXPECT_FALSE(renamed.ok());
  EXPECT_TRUE(env.crashed());
  // All-or-nothing: a crashed rename leaves the old state, never a partial.
  env.Reset();
  env.set_plan(FaultInjectingEnv::FaultPlan());
  EXPECT_TRUE(env.FileExists(dir.file("a.tmp")));
  EXPECT_FALSE(env.FileExists(dir.file("a")));
}

// ---------------------------------------------------------------------------
// Checkpoint round trip vs full replay
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RecoverFromCheckpointEqualsFullReplay) {
  TempDir dir("ckpt_roundtrip");
  uint64_t seq = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 6));
    ASSERT_OK_AND_ASSIGN(recovery::CheckpointInfo info, kernel->Checkpoint());
    seq = info.seq;
    EXPECT_EQ(seq, 1u);
    EXPECT_GT(info.snapshot_bytes, 0u);
    EXPECT_EQ(kernel->GetStats().checkpoints_taken, 1u);
  }
  // Post-checkpoint tail: three more tasks land only in the live journals.
  { ASSERT_OK(OpenAndDerive(dir.path(), 3, /*value_base=*/100).status()); }

  // A sibling copy with the checkpoints directory removed can only recover
  // by full replay (archive chain + live journals).
  TempDir full_dir("ckpt_fullreplay");
  std::filesystem::copy(dir.path(), full_dir.path(),
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  std::filesystem::remove_all(recovery::CheckpointDirPath(full_dir.path()));

  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto from_ckpt, GaeaKernel::Open(options));
  options.dir = full_dir.path();
  ASSERT_OK_AND_ASSIGN(auto from_replay, GaeaKernel::Open(options));

  EXPECT_GE(from_ckpt->recovered_checkpoint_seq(), seq);
  EXPECT_EQ(from_replay->recovered_checkpoint_seq(), 0u);
  // Tail-only replay is the point of the subsystem.
  EXPECT_LT(from_ckpt->records_replayed(), from_replay->records_replayed());
  EXPECT_EQ(from_ckpt->recovery_fallbacks(), 0u);

  ExpectSameState(from_ckpt.get(), from_replay.get());

  // Both recovered databases stay fully usable.
  from_ckpt->SetClock(AbsTime(2000));
  ASSERT_OK_AND_ASSIGN(Oid fresh, InsertReading(from_ckpt.get(), 999));
  ASSERT_OK(from_ckpt->Derive("copy-reading", {{"src", {fresh}}}).status());
}

TEST(CheckpointTest, SecondCheckpointTruncatesJournalPrefix) {
  TempDir dir("ckpt_truncate");
  ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 4));
  ASSERT_OK_AND_ASSIGN(recovery::CheckpointInfo first, kernel->Checkpoint());
  // Lag-by-one: the first checkpoint has no predecessor, so nothing is
  // archived yet and full replay from live journals alone must still work.
  EXPECT_EQ(first.truncated_records, 0u);

  kernel.reset();
  ASSERT_OK(OpenAndDerive(dir.path(), 2, 50).status());
  ASSERT_OK_AND_ASSIGN(kernel, OpenAndDerive(dir.path(), 0));
  ASSERT_OK_AND_ASSIGN(recovery::CheckpointInfo second, kernel->Checkpoint());
  EXPECT_EQ(second.seq, first.seq + 1);
  // Now the prefix covered by checkpoint 1 moved into archive segments.
  EXPECT_GT(second.truncated_records, 0u);
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(auto segs,
                       env->ListDir(recovery::ArchiveDirPath(dir.path())));
  EXPECT_FALSE(segs.empty());

  // Both checkpoint plans and the full-replay plan still come up.
  kernel.reset();
  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto reopened, GaeaKernel::Open(options));
  EXPECT_EQ(reopened->recovered_checkpoint_seq(), second.seq);
  EXPECT_EQ(reopened->tasks().tasks().size(), 6u);
}

// ---------------------------------------------------------------------------
// Corrupt snapshot -> fallback chain
// ---------------------------------------------------------------------------

TEST(CheckpointTest, CorruptSnapshotFallsBackToPreviousCheckpoint) {
  TempDir dir("ckpt_fallback");
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 3));
    ASSERT_OK(kernel->Checkpoint().status());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 2, 10));
    ASSERT_OK_AND_ASSIGN(recovery::CheckpointInfo info, kernel->Checkpoint());
    EXPECT_EQ(info.seq, 2u);
  }

  // Damage checkpoint 2's tasks snapshot in place (size preserved, so the
  // shallow plan validation accepts it and the CRC check at load rejects
  // it).
  Env* env = Env::Default();
  const std::string snap2 = recovery::CheckpointDirPath(dir.path()) + "/" +
                            recovery::SnapshotFileName(2, "tasks");
  ASSERT_TRUE(env->FileExists(snap2));
  FlipByteInMiddle(snap2);

  GaeaKernel::Options options;
  options.dir = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    EXPECT_EQ(kernel->recovered_checkpoint_seq(), 1u);
    EXPECT_GE(kernel->recovery_fallbacks(), 1u);
    EXPECT_EQ(kernel->tasks().tasks().size(), 5u);
    GaeaKernel::Stats stats = kernel->GetStats();
    EXPECT_EQ(stats.recovery_fallbacks, kernel->recovery_fallbacks());
    EXPECT_NE(kernel->metrics().Render().find(
                  "\ngaea_recovery_fallbacks " +
                  std::to_string(stats.recovery_fallbacks) + "\n"),
              std::string::npos);
  }

  // Damage checkpoint 1 too: only the full-replay plan remains.
  const std::string snap1 = recovery::CheckpointDirPath(dir.path()) + "/" +
                            recovery::SnapshotFileName(1, "catalog");
  ASSERT_TRUE(env->FileExists(snap1));
  FlipByteInMiddle(snap1);
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    EXPECT_EQ(kernel->recovered_checkpoint_seq(), 0u);
    EXPECT_GE(kernel->recovery_fallbacks(), 2u);
    EXPECT_EQ(kernel->tasks().tasks().size(), 5u);
    // Still fully usable after the double fallback.
    kernel->SetClock(AbsTime(3000));
    ASSERT_OK_AND_ASSIGN(Oid fresh, InsertReading(kernel.get(), 77));
    ASSERT_OK(kernel->Derive("copy-reading", {{"src", {fresh}}}).status());
  }
}

TEST(CheckpointTest, CorruptManifestIsSkipped) {
  TempDir dir("ckpt_badmanifest");
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 3));
    ASSERT_OK(kernel->Checkpoint().status());
  }
  FlipByteInMiddle(recovery::CheckpointDirPath(dir.path()) + "/" +
                   recovery::ManifestFileName(1));
  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
  EXPECT_EQ(kernel->recovered_checkpoint_seq(), 0u);  // full replay
  EXPECT_EQ(kernel->tasks().tasks().size(), 3u);
}

// ---------------------------------------------------------------------------
// Quarantined tasks survive a checkpoint
// ---------------------------------------------------------------------------

TEST(CheckpointTest, QuarantinedTaskSurvivesCheckpoint) {
  TempDir dir("ckpt_quarantine");
  GaeaKernel::Options options;
  options.dir = dir.path();
  TaskId external = kInvalidTaskId;
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 1));
    ASSERT_OK_AND_ASSIGN(Oid input, InsertReading(kernel.get(), 7));
    ASSERT_OK_AND_ASSIGN(Oid scanned, InsertReading(kernel.get(), 8));
    ASSERT_OK_AND_ASSIGN(
        external, kernel->RecordExternalTask("lab-scan", {{"in", {input}}},
                                             {scanned}, "manual"));
    ASSERT_OK(kernel->Evict(scanned));
    ASSERT_OK(kernel->Flush());
  }
  {
    // This open quarantines the external task, then checkpoints on top.
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    ASSERT_EQ(kernel->recovery_report().quarantined.size(), 1u);
    ASSERT_OK(kernel->Checkpoint().status());
  }
  // Recovery from the checkpoint must re-report the same task, exactly once.
  ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
  EXPECT_GE(kernel->recovered_checkpoint_seq(), 1u);
  ASSERT_EQ(kernel->recovery_report().quarantined.size(), 1u);
  EXPECT_EQ(kernel->recovery_report().quarantined[0], external);
  EXPECT_EQ(kernel->GetStats().quarantined_tasks, 1u);
}

// ---------------------------------------------------------------------------
// Background checkpoint policy
// ---------------------------------------------------------------------------

TEST(CheckpointTest, PolicyTriggersOnTaskCount) {
  TempDir dir("ckpt_policy");
  ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 0));

  // Disabled policy never fires.
  ASSERT_OK_AND_ASSIGN(bool ran, kernel->MaybeCheckpoint());
  EXPECT_FALSE(ran);

  kernel->SetCheckpointPolicy({0, 3});
  GaeaKernel::CheckpointPolicy policy = kernel->checkpoint_policy();
  EXPECT_EQ(policy.journal_bytes, 0u);
  EXPECT_EQ(policy.tasks, 3u);

  ASSERT_OK_AND_ASSIGN(Oid src, InsertReading(kernel.get(), 1));
  ASSERT_OK(kernel->Derive("copy-reading", {{"src", {src}}}).status());
  ASSERT_OK_AND_ASSIGN(ran, kernel->MaybeCheckpoint());
  EXPECT_FALSE(ran) << "one task must not trip a threshold of three";

  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(Oid more, InsertReading(kernel.get(), 10 + i));
    ASSERT_OK(kernel->Derive("copy-reading", {{"src", {more}}}).status());
  }
  ASSERT_OK_AND_ASSIGN(ran, kernel->MaybeCheckpoint());
  EXPECT_TRUE(ran);
  EXPECT_EQ(kernel->GetStats().checkpoint_seq, 1u);

  // The trigger resets: no new tasks, no new checkpoint.
  ASSERT_OK_AND_ASSIGN(ran, kernel->MaybeCheckpoint());
  EXPECT_FALSE(ran);
}

TEST(CheckpointTest, PolicyTriggersOnJournalBytes) {
  TempDir dir("ckpt_policy_bytes");
  ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 0));
  kernel->SetCheckpointPolicy({16, 0});
  ASSERT_OK_AND_ASSIGN(bool ran, kernel->MaybeCheckpoint());
  // The schema DDL alone already appended well past 16 journal bytes.
  EXPECT_TRUE(ran);
  ASSERT_OK_AND_ASSIGN(ran, kernel->MaybeCheckpoint());
  EXPECT_FALSE(ran) << "byte floor must reset after a checkpoint";
}

// ---------------------------------------------------------------------------
// Checkpoints racing live derivations (TSan coverage)
// ---------------------------------------------------------------------------

TEST(CheckpointTest, ConcurrentWithDerivations) {
  TempDir dir("ckpt_concurrent");
  ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 1));
  kernel->SetDeriveThreads(4);

  std::vector<Oid> sources;
  for (int i = 0; i < 24; ++i) {
    ASSERT_OK_AND_ASSIGN(Oid src, InsertReading(kernel.get(), 100 + i));
    sources.push_back(src);
  }

  std::thread checkpointer([&] {
    for (int i = 0; i < 6; ++i) {
      auto info = kernel->Checkpoint();
      EXPECT_TRUE(info.ok()) << info.status().ToString();
    }
  });
  for (Oid src : sources) {
    std::vector<DeriveRequest> batch;
    DeriveRequest request;
    request.process = "copy-reading";
    request.inputs = {{"src", {src}}};
    batch.push_back(request);
    ASSERT_OK_AND_ASSIGN(auto outcomes, kernel->DeriveBatch(batch));
    ASSERT_OK(outcomes[0].status);
  }
  checkpointer.join();

  ASSERT_OK(kernel->Flush());
  kernel.reset();

  // Everything recovered: 1 + 24 tasks, every output present.
  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto reopened, GaeaKernel::Open(options));
  EXPECT_GE(reopened->recovered_checkpoint_seq(), 1u);
  EXPECT_EQ(reopened->tasks().tasks().size(), 25u);
  EXPECT_TRUE(reopened->recovery_report().quarantined.empty());
  for (const Task& task : reopened->tasks().tasks()) {
    for (Oid oid : task.outputs) {
      EXPECT_TRUE(reopened->catalog().ContainsObject(oid).value()) << oid;
    }
  }
}

// ---------------------------------------------------------------------------
// Backup + restore
// ---------------------------------------------------------------------------

TEST(BackupTest, IncrementalBackupSkipsImmutableFiles) {
  TempDir dir("backup_incr");
  TempDir backup("backup_incr_dst");
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 3));
    ASSERT_OK(kernel->Checkpoint().status());
  }
  Env* env = Env::Default();
  ASSERT_OK_AND_ASSIGN(recovery::BackupInfo first,
                       recovery::CreateBackup(env, dir.path(), backup.path()));
  EXPECT_GT(first.files_copied, 0u);
  EXPECT_EQ(first.files_skipped, 0u);

  // Nothing changed: the manifest and snapshots are already in the backup.
  ASSERT_OK_AND_ASSIGN(recovery::BackupInfo second,
                       recovery::CreateBackup(env, dir.path(), backup.path()));
  EXPECT_GT(second.files_skipped, 0u);
  EXPECT_LT(second.bytes_copied, first.bytes_copied + 1);

  // Restore is a faithful mirror: the restored database recovers to the
  // same state as the original.
  TempDir restored("backup_incr_restore");
  ASSERT_OK(
      recovery::RestoreBackup(env, backup.path(), restored.path()).status());
  GaeaKernel::Options options;
  options.dir = dir.path();
  ASSERT_OK_AND_ASSIGN(auto original, GaeaKernel::Open(options));
  options.dir = restored.path();
  ASSERT_OK_AND_ASSIGN(auto mirrored, GaeaKernel::Open(options));
  ExpectSameState(original.get(), mirrored.get());
}

TEST(BackupTest, RestoreToPointCutsTaskHistory) {
  TempDir dir("rtp");
  TempDir backup("rtp_backup");
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 3));
    ASSERT_OK(kernel->Checkpoint().status());
  }
  // Two more tasks after the checkpoint, so the cut crosses the
  // archive/live boundary in both directions.
  { ASSERT_OK(OpenAndDerive(dir.path(), 2, 40).status()); }

  Env* env = Env::Default();
  ASSERT_OK(recovery::CreateBackup(env, dir.path(), backup.path()).status());

  // Collect every task's outputs from the source of truth.
  GaeaKernel::Options options;
  options.dir = dir.path();
  std::vector<std::vector<Oid>> outputs_by_task;
  {
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    for (const Task& task : kernel->tasks().tasks()) {
      outputs_by_task.push_back(task.outputs);
    }
    ASSERT_EQ(outputs_by_task.size(), 5u);
  }

  for (uint64_t cut : {0ull, 2ull, 4ull, 5ull}) {
    TempDir dest("rtp_at_" + std::to_string(cut));
    ASSERT_OK_AND_ASSIGN(
        recovery::RestoreToPointReport report,
        recovery::RestoreToPoint(env, backup.path(), dest.path(), cut));
    EXPECT_EQ(report.tasks_kept, cut);
    EXPECT_EQ(report.tasks_dropped, 5u - cut);

    options.dir = dest.path();
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    ASSERT_EQ(kernel->tasks().tasks().size(), cut);
    EXPECT_TRUE(kernel->recovery_report().quarantined.empty());
    for (uint64_t t = 0; t < outputs_by_task.size(); ++t) {
      for (Oid oid : outputs_by_task[t]) {
        EXPECT_EQ(kernel->catalog().ContainsObject(oid).value(), t < cut)
            << "cut " << cut << " task " << t << " oid " << oid;
      }
    }
    // The definitions survive whole; the database accepts new work.
    kernel->SetClock(AbsTime(4000));
    ASSERT_OK_AND_ASSIGN(Oid fresh, InsertReading(kernel.get(), 500));
    ASSERT_OK(kernel->Derive("copy-reading", {{"src", {fresh}}}).status());
  }

  // A cut beyond history is refused.
  TempDir dest("rtp_beyond");
  auto beyond = recovery::RestoreToPoint(env, backup.path(), dest.path(), 99);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Stats surface
// ---------------------------------------------------------------------------

TEST(CheckpointTest, StatsAndMetricsReportCheckpointState) {
  TempDir dir("ckpt_stats");
  ASSERT_OK_AND_ASSIGN(auto kernel, OpenAndDerive(dir.path(), 2));
  ASSERT_OK(kernel->Checkpoint().status());
  GaeaKernel::Stats stats = kernel->GetStats();
  EXPECT_EQ(stats.checkpoint_seq, 1u);
  EXPECT_EQ(stats.checkpoints_taken, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_GT(stats.last_checkpoint_bytes, 0u);
  EXPECT_GT(stats.cluster_lsn, 0u);
  // The registry carries the same figures under their series names.
  std::string metrics = kernel->metrics().Render();
  auto sample = [](const std::string& series, uint64_t value) {
    return "\n" + series + " " + std::to_string(value) + "\n";
  };
  for (const std::string& want :
       {sample("gaea_checkpoint_seq", 1), sample("gaea_checkpoints_total", 1),
        sample("gaea_checkpoint_failures_total", 0),
        sample("gaea_checkpoint_last_snapshot_bytes",
               stats.last_checkpoint_bytes),
        sample("gaea_checkpoint_last_duration_micros",
               stats.last_checkpoint_duration_us),
        sample("gaea_cluster_lsn", stats.cluster_lsn),
        sample("gaea_recovery_records_replayed", stats.records_replayed),
        sample("gaea_recovery_checkpoint_seq", 0),
        sample("gaea_recovery_fallbacks", 0)}) {
    EXPECT_NE(metrics.find(want), std::string::npos) << want << metrics;
  }
  // Every journal's append gauge: the four checkpointed journals always,
  // the object journal only on a replicated kernel (it has none otherwise).
  auto appends = [](const std::string& journal) {
    return "gaea_journal_appends{journal=\"" + journal + "\"}";
  };
  for (const char* journal : {"catalog", "process", "tasks", "experiments"}) {
    EXPECT_NE(metrics.find(appends(journal)), std::string::npos) << journal;
  }
  EXPECT_EQ(metrics.find(appends("objects")), std::string::npos);

  TempDir replicated_dir("ckpt_stats_repl");
  ASSERT_OK_AND_ASSIGN(auto replicated,
                       OpenAndDerive(replicated_dir.path(), 2,
                                     /*value_base=*/0, /*replicated=*/true));
  metrics = replicated->metrics().Render();
  for (const char* journal :
       {"catalog", "process", "objects", "tasks", "experiments"}) {
    EXPECT_NE(metrics.find(appends(journal)), std::string::npos) << journal;
  }
  // The cluster LSN sums every live journal's length: two inserts journal
  // two object records on top of the standalone sum.
  EXPECT_EQ(replicated->GetStats().cluster_lsn,
            kernel->GetStats().cluster_lsn + 2);
}

// gaea_checkpoints_total counts installed checkpoints: a checkpoint that
// fails (here, every fsync fails) counts once, as a failure.
TEST(CheckpointTest, FailedCheckpointCountsOnlyAsFailure) {
  TempDir dir("ckpt_failed");
  FaultInjectingEnv env(Env::Default());
  GaeaKernel::Options options;
  options.dir = dir.path();
  options.env = &env;
  ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
  kernel->SetClock(AbsTime(1000));
  ASSERT_OK(kernel->ExecuteDdl(kSchema));
  ASSERT_OK_AND_ASSIGN(Oid src, InsertReading(kernel.get(), 1));
  ASSERT_OK(kernel->Derive("copy-reading", {{"src", {src}}}).status());

  FaultInjectingEnv::FaultPlan fail_sync;
  fail_sync.fail_sync = true;
  env.set_plan(fail_sync);
  EXPECT_FALSE(kernel->Checkpoint().ok());
  env.set_plan(FaultInjectingEnv::FaultPlan());

  std::string metrics = kernel->metrics().Render();
  EXPECT_NE(metrics.find("\ngaea_checkpoints_total 0\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\ngaea_checkpoint_failures_total 1\n"),
            std::string::npos)
      << metrics;
  GaeaKernel::Stats stats = kernel->GetStats();
  EXPECT_EQ(stats.checkpoints_taken, 0u);
  EXPECT_EQ(stats.checkpoint_failures, 1u);
  EXPECT_EQ(stats.checkpoint_seq, 0u);

  // The next checkpoint installs and is the first one counted.
  ASSERT_OK(kernel->Checkpoint().status());
  EXPECT_EQ(kernel->GetStats().checkpoints_taken, 1u);
  EXPECT_EQ(kernel->GetStats().checkpoint_failures, 1u);
}

// Forwards to the default Env and records the file name of every
// WritableFile (journal) that is Synced.
class SyncRecordingEnv : public FaultInjectingEnv {
 public:
  SyncRecordingEnv() : FaultInjectingEnv(Env::Default()) {}

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                          FaultInjectingEnv::NewWritableFile(path));
    return std::unique_ptr<WritableFile>(new File(
        this, std::filesystem::path(path).filename().string(),
        std::move(base)));
  }

  std::set<std::string> TakeSynced() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(synced_, {});
  }

 private:
  class File : public WritableFile {
   public:
    File(SyncRecordingEnv* env, std::string name,
         std::unique_ptr<WritableFile> base)
        : env_(env), name_(std::move(name)), base_(std::move(base)) {}
    StatusOr<size_t> AppendSome(std::string_view data) override {
      return base_->AppendSome(data);
    }
    Status Sync() override {
      {
        std::lock_guard<std::mutex> lock(env_->mu_);
        env_->synced_.insert(name_);
      }
      return base_->Sync();
    }

   private:
    SyncRecordingEnv* env_;
    std::string name_;
    std::unique_ptr<WritableFile> base_;
  };

  std::mutex mu_;
  std::set<std::string> synced_;
};

// Flush is the kOs durability point (kernel Flush, server shutdown): it
// syncs every component's journal, not only the catalog and process ones.
TEST(FlushTest, SyncsEveryJournal) {
  for (bool replicated : {false, true}) {
    TempDir dir("flush_syncs");
    SyncRecordingEnv env;
    GaeaKernel::Options options;
    options.dir = dir.path();
    options.env = &env;
    options.replicated = replicated;
    ASSERT_OK_AND_ASSIGN(auto kernel, GaeaKernel::Open(options));
    kernel->SetClock(AbsTime(1000));
    ASSERT_OK(kernel->ExecuteDdl(kSchema));
    ASSERT_OK_AND_ASSIGN(Oid src, InsertReading(kernel.get(), 1));
    ASSERT_OK(kernel->Derive("copy-reading", {{"src", {src}}}).status());
    env.TakeSynced();

    ASSERT_OK(kernel->Flush());
    std::set<std::string> synced = env.TakeSynced();
    std::vector<std::string> want = {"catalog.journal", "process.journal",
                                     "tasks.journal", "experiments.journal"};
    if (replicated) want.push_back("objects.journal");
    for (const std::string& name : want) {
      EXPECT_EQ(synced.count(name), 1u)
          << name << (replicated ? " (replicated)" : "");
    }
  }
}

}  // namespace
}  // namespace gaea
