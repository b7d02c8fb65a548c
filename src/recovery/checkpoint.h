// Fuzzy checkpoints: bounded-time recovery for the journal-backed state.
//
// Gaea persists definitions and tasks as append-only journals, so recovery
// was a full-history replay — restart cost grew without bound. A checkpoint
// snapshots each journal-backed component (catalog definitions, process
// registry, task log, experiments) together with the journal LSN the
// snapshot covers, installs the set atomically behind a versioned MANIFEST
// (write-to-tmp, fsync, rename, parent-dir fsync), then truncates the
// journal prefixes already covered by the *previous* checkpoint into
// archive segments. Recovery loads the newest valid checkpoint and replays
// only the journal tails; a corrupt snapshot falls back to the previous
// checkpoint, and finally to a full replay over the archive chain.
//
// The checkpoint is "fuzzy" in the sense that derivations keep running
// while it is taken: each component's (state, LSN) pair is captured
// atomically under that component's own lock, and cross-component skew is
// repaired the same way a crash is — by per-journal tail replay plus the
// kernel's startup invariant check. Nothing stops the world.
//
// On-disk layout under the database directory:
//   checkpoints/MANIFEST-<seq>            install marker + integrity data
//   checkpoints/<seq>.<component>.snap    journal-framed state snapshots
//   archive/<component>.<base>-<upto>.seg truncated journal prefixes
//
// See docs/ROBUSTNESS.md for the full install protocol and the recovery
// decision tree.

#ifndef GAEA_RECOVERY_CHECKPOINT_H_
#define GAEA_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "storage/journal.h"
#include "util/env.h"
#include "util/status.h"

namespace gaea {
namespace recovery {

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

// One snapshot file's identity and integrity data within a manifest.
struct SnapshotEntry {
  std::string component;   // the journaled component's name
  std::string file;        // file name within the checkpoints directory
  uint64_t covered_lsn = 0;  // journal records [0, covered_lsn) captured
  uint64_t records = 0;      // records in the snapshot file
  uint64_t size_bytes = 0;   // exact snapshot file size
  uint32_t crc32 = 0;        // CRC-32 of the whole snapshot file
};

// A checkpoint's install marker. The manifest is the unit of atomicity:
// until MANIFEST-<seq> is renamed into place, the checkpoint does not
// exist; once it is, every snapshot it names was already durable.
struct Manifest {
  uint64_t seq = 0;         // monotonically increasing checkpoint number
  uint64_t created_us = 0;  // Env::NowMicros at capture
  uint64_t next_oid = 0;    // object-store allocator floor at capture
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* Find(std::string_view component) const;

  // Self-checking binary encoding (magic + version + trailing CRC).
  std::string Encode() const;
  static StatusOr<Manifest> Decode(const std::string& bytes);
};

// ---- paths & names ----
std::string CheckpointDirPath(const std::string& db_dir);
std::string ArchiveDirPath(const std::string& db_dir);
std::string ManifestFileName(uint64_t seq);
bool ParseManifestFileName(const std::string& name, uint64_t* seq);
std::string SnapshotFileName(uint64_t seq, const std::string& component);
std::string ArchiveSegmentName(const std::string& component, uint64_t base,
                               uint64_t upto);
bool ParseArchiveSegmentName(const std::string& name, std::string* component,
                             uint64_t* base, uint64_t* upto);

// Writes `m` to MANIFEST-<seq> via tmp + fsync + atomic rename.
Status WriteManifest(Env* env, const std::string& db_dir, const Manifest& m);
// Reads and validates (magic, version, CRC) one manifest file.
StatusOr<Manifest> ReadManifest(Env* env, const std::string& path);
// Sequence numbers of installed manifests, newest first. An absent
// checkpoints directory is an empty list, not an error.
StatusOr<std::vector<uint64_t>> ListCheckpointSeqs(Env* env,
                                                   const std::string& db_dir);

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

// Accumulates journal-framed records in memory, then installs the file
// atomically (tmp + fsync + rename). Snapshots are bounded by *live* state
// (definitions + task records), not by journal history, so buffering the
// file is the simple and sufficient choice.
class SnapshotWriter {
 public:
  void Add(const std::string& record);
  uint64_t records() const { return records_; }
  uint64_t size_bytes() const { return buf_.size(); }

  // Writes the buffered frames to <checkpoints>/<file>.tmp, syncs, renames
  // to <checkpoints>/<file>, and returns the filled-in manifest entry.
  StatusOr<SnapshotEntry> Install(Env* env, const std::string& db_dir,
                                  uint64_t seq, const std::string& component,
                                  uint64_t covered_lsn);

 private:
  std::string buf_;
  uint64_t records_ = 0;
};

// Verifies the snapshot file against its manifest entry — exact size,
// whole-file CRC, record count, and strict frame parse — then applies each
// record through `apply`. Any deviation is kCorruption: snapshot files are
// written whole and renamed into place, so a damaged one must trigger
// fallback, never a partial load.
Status ReadSnapshot(Env* env, const std::string& db_dir,
                    const SnapshotEntry& entry,
                    const std::function<Status(const std::string&)>& apply);

// ---------------------------------------------------------------------------
// Taking a checkpoint
// ---------------------------------------------------------------------------

// How the checkpointer reaches one journal-backed component. All hooks are
// supplied by the kernel so this module stays independent of the component
// types; each `capture` must deliver an atomic (records, covered LSN) pair
// under the component's own lock.
struct CheckpointSource {
  std::string component;
  // Streams the component's current state as journal-format records into
  // the sink and sets *covered_lsn to the journal LSN the stream covers.
  std::function<Status(const std::function<Status(const std::string&)>& sink,
                       uint64_t* covered_lsn)>
      capture;
  // The component's journal. Its tail is synced before the manifest is
  // installed, so an installed checkpoint never covers records the journal
  // could still lose; its base_lsn() bounds the truncation.
  Journal* journal = nullptr;
  // Journal::TruncatePrefix on that journal, under the component's lock.
  std::function<Status(uint64_t upto_lsn, const std::string& archive_path)>
      truncate_prefix;
};

struct CheckpointInfo {
  uint64_t seq = 0;
  uint64_t duration_us = 0;
  uint64_t snapshot_bytes = 0;   // total bytes across snapshot files
  uint64_t truncated_records = 0;  // journal records moved to archive
  std::map<std::string, uint64_t> covered;  // component -> covered LSN
};

// Runs one checkpoint: capture every source, sync journals, install
// snapshots + manifest, truncate prefixes covered by the *previous*
// checkpoint (lag-by-one: both the new checkpoint and its predecessor must
// remain recoverable from the live journals alone), and garbage-collect
// all but the latest two checkpoints. Not itself serialized — the caller
// (GaeaKernel::Checkpoint) holds a checkpoint mutex.
StatusOr<CheckpointInfo> RunCheckpoint(Env* env, const std::string& db_dir,
                                       const std::vector<CheckpointSource>& sources,
                                       uint64_t next_oid);

// ---------------------------------------------------------------------------
// Planning recovery
// ---------------------------------------------------------------------------

// How one component should be brought up under a given plan.
struct ComponentPlan {
  bool has_snapshot = false;
  SnapshotEntry entry;     // valid when has_snapshot
  uint64_t start_lsn = 0;  // live-journal replay starts here
  // Full-replay fallback only: archive segments to replay before the live
  // journal, ordered by base LSN. Overlaps (from a crash between the two
  // truncation renames) are expected; replay dedups with an LSN cursor.
  std::vector<std::string> archives;
};

struct RecoveryPlan {
  uint64_t checkpoint_seq = 0;  // 0 = full replay
  uint64_t next_oid = 0;        // OID allocator floor (0 = none recorded)
  std::map<std::string, ComponentPlan> components;
};

// Candidate plans, best first: the newest manifest that decodes and whose
// snapshot files exist with the recorded sizes, then older ones, then the
// unconditional full-replay plan (archive chain + live journals). Deep
// validation (CRC, frame parse) happens at load time — a plan that fails
// mid-load makes GaeaKernel::Open move to the next candidate.
StatusOr<std::vector<RecoveryPlan>> BuildRecoveryPlans(
    Env* env, const std::string& db_dir);

// Replays a component's archive segments (oldest first) followed by — via
// the returned cursor — the live journal. Records below the cursor are
// skipped, which both dedups overlapping segments and anchors the live
// replay: call Journal::Replay(fn, cursor) afterwards.
StatusOr<uint64_t> ReplayArchiveChain(
    Env* env, const std::vector<std::string>& archives,
    const std::function<Status(const std::string&)>& apply);

}  // namespace recovery
}  // namespace gaea

#endif  // GAEA_RECOVERY_CHECKPOINT_H_
