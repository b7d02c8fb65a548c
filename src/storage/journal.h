// Append-only journal with per-record CRC32.
//
// Gaea's catalog (class/process/concept definitions) and task log are
// persisted as a journal of self-describing records: definitions are never
// overwritten (the paper: "In no case is the old process overwritten"), so
// an append-only log is the natural durable representation. Replay stops
// cleanly at the first torn/corrupt record, tolerating a crash mid-append.
//
// All file I/O goes through an Env (util/env.h), so the journal can be
// exercised under injected faults; see docs/ROBUSTNESS.md for the crash
// matrix this layer is tested against.

#ifndef GAEA_STORAGE_JOURNAL_H_
#define GAEA_STORAGE_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.h"
#include "util/status.h"

namespace gaea {

// One journal frame ([u32 len][u32 crc][payload]) as bytes. Snapshot files
// and archive segments (src/recovery/) share the journal's on-disk framing,
// so one reader — Journal::ReplayFile — parses all three.
std::string EncodeJournalFrame(std::string_view record);

// When appended records become durable (journal Sync policy):
//   kNone  — never fsynced; a crash may lose anything since open.
//   kOs    — fsynced at Sync() points (kernel Flush, server shutdown); a
//            crash may lose records appended since the last Sync. Default.
//   kFsync — fsynced on every Append; a crash loses at most a torn tail.
enum class DurabilityMode : uint8_t { kNone = 0, kOs = 1, kFsync = 2 };

const char* DurabilityModeName(DurabilityMode mode);
StatusOr<DurabilityMode> ParseDurabilityMode(std::string_view text);

// Optional recovery override for a journal-backed component's Open: first
// `load_snapshot` streams checkpoint records through the component's normal
// replay path, then the live journal replays only from `start_lsn`. The
// component stays ignorant of checkpoint file formats — the kernel builds
// one of these per component from a RecoveryPlan (src/recovery/).
struct JournalRecovery {
  std::function<Status(const std::function<Status(const std::string&)>& apply)>
      load_snapshot;
  uint64_t start_lsn = 0;
};

class Journal {
 public:
  // Opens (creating if needed) the journal file for appending. Creating the
  // file also fsyncs its parent directory, so a crash immediately after
  // first open cannot lose the directory entry itself.
  static StatusOr<std::unique_ptr<Journal>> Open(const std::string& path,
                                                 Env* env = Env::Default());
  ~Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends one record (length + crc + payload), looping over short writes.
  // A failed append that left a partial frame on disk is healed in place by
  // truncating back to the last good record boundary; if even that fails,
  // the journal refuses further appends (kFailedPrecondition) rather than
  // bury a torn frame under new records.
  Status Append(const std::string& record);

  // Replays every intact record with LSN >= `start_lsn` in order, reading
  // the file in fixed-size chunks (startup memory stays flat no matter how
  // large the log grew). A record's LSN is its index in the journal's full
  // history: the file's base LSN (0 for a never-truncated journal, recorded
  // in a leading control record after TruncatePrefix) plus its position in
  // the file. A torn tail (truncated frame or CRC mismatch on the final
  // record) ends replay without error and is truncated away, so subsequent
  // appends continue a clean log; corruption before the tail is reported
  // and leaves the file untouched. start_lsn below the file's base is
  // kCorruption — those records were truncated away and cannot be replayed.
  // Holds the append lock for the duration, so `fn` must not Append to
  // this journal. Also (re)computes base_lsn()/record_count().
  Status Replay(const std::function<Status(const std::string&)>& fn,
                uint64_t start_lsn = 0) const;

  // Replays any journal-format file (snapshot, archive segment, or a
  // journal not opened for append) without taking ownership of it. `fn`
  // receives each record's LSN (file base + position) and payload. With
  // `strict` set, a torn or truncated tail is kCorruption instead of a
  // clean stop — snapshot files are written whole and renamed into place,
  // so any deviation means the file is damaged. A missing file is
  // kNotFound either way.
  static Status ReplayFile(
      Env* env, const std::string& path, bool strict,
      const std::function<Status(uint64_t lsn, const std::string&)>& fn);

  // Reads intact records with LSN >= `from` into `out`, stopping after
  // `max_records` records or roughly `max_bytes` payload bytes (at least one
  // record is returned when any qualifies). `*next` is set to one past the
  // last record delivered (== `from` when the journal holds nothing at or
  // after it — the caller is at the tail). Built for the replication
  // shipper: unlike Replay, a `from` below base_lsn() is kOutOfRange, not
  // kCorruption — the prefix was moved to an archive segment by a concurrent
  // TruncatePrefix, and the caller must ship from the archive chain instead.
  // Holds the append lock for the duration, so the read never observes a
  // half-truncated file.
  Status ReadRange(uint64_t from, size_t max_records, size_t max_bytes,
                   std::vector<std::string>* out, uint64_t* next) const;

  // Archives and drops the frame prefix [base_lsn(), upto_lsn): the dropped
  // frames are streamed into a fresh journal-format file at `archive_path`
  // (control record carrying the old base, written to `archive_path`.tmp,
  // then atomically renamed), and the live file is rewritten — also via
  // tmp + rename — to a control record with base `upto_lsn` followed by
  // the surviving tail. The append handle is reopened on the new file.
  // No-op when upto_lsn <= base_lsn(); requires a fully replayed journal
  // (Replay computes the record accounting this depends on).
  Status TruncatePrefix(uint64_t upto_lsn, const std::string& archive_path);

  // First LSN still present in the file (0 until a TruncatePrefix).
  uint64_t base_lsn() const {
    return base_lsn_.load(std::memory_order_acquire);
  }
  // One past the last record's LSN — the journal's total logical length.
  // Valid after Replay; kept current by Append and TruncatePrefix.
  uint64_t record_count() const {
    return record_count_.load(std::memory_order_acquire);
  }
  // Bytes of intact records currently in the file.
  uint64_t size_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  // Number of records appended through this handle (not total in file).
  int64_t appended() const { return appended_.load(std::memory_order_acquire); }

  // Forces data to disk per the durability mode (no-op under kNone).
  Status Sync();

  void set_durability(DurabilityMode mode) {
    durability_.store(mode, std::memory_order_release);
  }
  DurabilityMode durability() const {
    return durability_.load(std::memory_order_acquire);
  }

 private:
  Journal(std::unique_ptr<WritableFile> file, std::string path, Env* env,
          uint64_t size)
      : env_(env), file_(std::move(file)), path_(std::move(path)),
        size_(size) {}

  // Serializes appends so concurrent records never interleave in the file.
  mutable std::mutex mu_;
  Env* env_;
  std::unique_ptr<WritableFile> file_;
  std::string path_;
  mutable uint64_t size_ = 0;   // bytes of intact records (guarded by mu_)
  mutable bool broken_ = false; // torn tail on disk that could not be healed
  mutable std::atomic<uint64_t> base_lsn_{0};  // set by Replay/TruncatePrefix
  mutable std::atomic<uint64_t> record_count_{0};
  std::atomic<int64_t> appended_{0};
  std::atomic<DurabilityMode> durability_{DurabilityMode::kOs};
};

}  // namespace gaea

#endif  // GAEA_STORAGE_JOURNAL_H_
