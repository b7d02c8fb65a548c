#include "storage/journal.h"

#include <cstring>

#include "util/crc32.h"

namespace gaea {

std::string EncodeJournalFrame(std::string_view record) {
  uint32_t len = static_cast<uint32_t>(record.size());
  uint32_t crc = Crc32(record.data(), record.size());
  std::string frame;
  frame.reserve(8 + record.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame.append(record);
  return frame;
}

namespace {

// A truncated journal starts with a control record carrying the LSN of its
// first data record. The magic is only honored in the FIRST record of a
// file: data payloads begin with a tag byte or a binary id, so nothing the
// components journal can collide with it there, and records later in the
// file are never inspected for it.
constexpr std::string_view kBaseMagic = "gaea.journal.base.v1";

std::string EncodeBaseRecord(uint64_t base_lsn) {
  std::string payload(kBaseMagic);
  payload.append(reinterpret_cast<const char*>(&base_lsn), 8);
  return payload;
}

bool DecodeBaseRecord(const std::string& record, uint64_t* base_lsn) {
  if (record.size() != kBaseMagic.size() + 8) return false;
  if (std::string_view(record).substr(0, kBaseMagic.size()) != kBaseMagic) {
    return false;
  }
  std::memcpy(base_lsn, record.data() + kBaseMagic.size(), 8);
  return true;
}

struct ScanState {
  uint64_t good_end = 0;  // file offset just past the last intact frame
  bool torn = false;      // partial/corrupt tail after good_end
  uint64_t base = 0;      // LSN of the file's first data record
  uint64_t records = 0;   // data records delivered (control excluded)
};

// The one chunked frame parser behind Replay, ReplayFile and
// TruncatePrefix: walks `path` frame by frame, decodes the leading control
// record if present, and hands every intact data record (with its LSN) to
// `fn`. A torn tail ends the scan cleanly with state->torn set; corruption
// before the tail is kCorruption. The rolling buffer holds at most one
// record plus one chunk, so replaying an arbitrarily large log keeps
// memory flat.
Status ScanJournal(
    Env* env, const std::string& path,
    const std::function<Status(uint64_t lsn, const std::string&)>& fn,
    ScanState* state) {
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> rf,
                        env->NewSequentialFile(path));

  constexpr size_t kChunk = 64 * 1024;
  std::string buf;
  size_t pos = 0;         // parse cursor within buf
  uint64_t consumed = 0;  // file offset of buf[0]
  bool eof = false;

  // Ensures buf holds at least `need` unparsed bytes or EOF was reached.
  auto fill = [&](size_t need) -> Status {
    while (!eof && buf.size() - pos < need) {
      if (pos >= kChunk) {
        consumed += pos;
        buf.erase(0, pos);
        pos = 0;
      }
      char chunk[kChunk];
      GAEA_ASSIGN_OR_RETURN(size_t n, rf->Read(sizeof(chunk), chunk));
      if (n == 0) {
        eof = true;
        break;
      }
      buf.append(chunk, n);
    }
    return Status::OK();
  };

  bool first = true;
  Status result = Status::OK();
  for (;;) {
    result = fill(8);
    if (!result.ok()) break;
    size_t avail = buf.size() - pos;
    if (avail < 8) {
      state->torn = avail > 0;  // truncated length/crc header
      break;
    }
    uint32_t len, crc;
    std::memcpy(&len, buf.data() + pos, 4);
    std::memcpy(&crc, buf.data() + pos + 4, 4);
    result = fill(8 + static_cast<size_t>(len));
    if (!result.ok()) break;
    if (buf.size() - pos < 8 + static_cast<size_t>(len)) {
      state->torn = true;  // truncated payload
      break;
    }
    std::string record = buf.substr(pos + 8, len);
    if (Crc32(record.data(), record.size()) != crc) {
      // Peek one byte further: a mismatch on the very last record is a torn
      // append; anything followed by more data is real corruption.
      result = fill(8 + static_cast<size_t>(len) + 1);
      if (!result.ok()) break;
      if (buf.size() - pos == 8 + static_cast<size_t>(len) && eof) {
        state->torn = true;
        break;
      }
      result = Status::Corruption("journal " + path +
                                  ": CRC mismatch at offset " +
                                  std::to_string(consumed + pos));
      break;
    }
    uint64_t base = 0;
    if (first && DecodeBaseRecord(record, &base)) {
      state->base = base;
    } else {
      result = fn(state->base + state->records, record);
      if (!result.ok()) break;
      state->records++;
    }
    first = false;
    pos += 8 + static_cast<size_t>(len);
    state->good_end = consumed + pos;
  }
  return result;
}

}  // namespace

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone: return "none";
    case DurabilityMode::kOs: return "os";
    case DurabilityMode::kFsync: return "fsync";
  }
  return "unknown";
}

StatusOr<DurabilityMode> ParseDurabilityMode(std::string_view text) {
  if (text == "none") return DurabilityMode::kNone;
  if (text == "os") return DurabilityMode::kOs;
  if (text == "fsync") return DurabilityMode::kFsync;
  return Status::InvalidArgument("unknown durability mode '" +
                                 std::string(text) +
                                 "' (want none, os or fsync)");
}

StatusOr<std::unique_ptr<Journal>> Journal::Open(const std::string& path,
                                                 Env* env) {
  bool existed = env->FileExists(path);
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env->NewWritableFile(path));
  if (!existed) {
    // The file's directory entry must survive a crash too, or recovery
    // reopens an empty directory and silently starts a fresh history.
    GAEA_RETURN_IF_ERROR(env->SyncParentDir(path));
  }
  uint64_t size = 0;
  if (existed) {
    GAEA_ASSIGN_OR_RETURN(size, env->FileSize(path));
  }
  return std::unique_ptr<Journal>(
      new Journal(std::move(file), path, env, size));
}

Status Journal::Append(const std::string& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::FailedPrecondition(
        "journal " + path_ + " has an unhealed torn tail; appends refused");
  }
  std::string frame = EncodeJournalFrame(record);
  Status written = file_->Append(frame);
  if (!written.ok()) {
    // A prefix of the frame may be on disk. Heal in place: truncate back to
    // the last good record boundary so the log stays appendable. Replay
    // would do the same, but a live server should not have to reopen.
    Status healed = env_->Truncate(path_, size_);
    if (!healed.ok()) broken_ = true;
    return Status::IOError("journal append at offset " +
                           std::to_string(size_) + ": " + written.message() +
                           (healed.ok() ? " (torn tail truncated)"
                                        : "; tail truncation also failed: " +
                                              healed.message()));
  }
  size_ += frame.size();
  if (durability() == DurabilityMode::kFsync) {
    GAEA_RETURN_IF_ERROR(file_->Sync());
  }
  appended_++;
  record_count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Journal::Replay(const std::function<Status(const std::string&)>& fn,
                       uint64_t start_lsn) const {
  // Held for the whole replay: a torn tail is truncated by path below, and
  // doing that concurrently with an in-progress Append would mistake the
  // half-written record for the tail and truncate live data.
  std::lock_guard<std::mutex> lock(mu_);
  ScanState scan;
  Status result = ScanJournal(
      env_, path_,
      [&](uint64_t lsn, const std::string& record) -> Status {
        if (lsn < start_lsn) return Status::OK();  // covered by the snapshot
        return fn(record);
      },
      &scan);
  if (result.code() == StatusCode::kNotFound) {
    if (start_lsn > 0) {
      // A checkpoint claims to cover records this journal no longer has —
      // the file vanished underneath it. Surface as corruption so the
      // recovery planner falls back instead of silently losing the tail.
      return Status::Corruption("journal " + path_ + " missing but replay " +
                                "was requested from LSN " +
                                std::to_string(start_lsn));
    }
    size_ = 0;
    base_lsn_.store(0, std::memory_order_release);
    record_count_.store(0, std::memory_order_release);
    return Status::OK();  // nothing persisted yet
  }
  if (!result.ok()) return result;
  if (start_lsn > 0 && (start_lsn < scan.base ||
                        start_lsn > scan.base + scan.records)) {
    // Either the prefix was truncated beyond the requested start (records
    // the caller needs are gone) or the file ends before the checkpoint's
    // coverage (a tail the snapshot has was lost). Both mean this file
    // cannot reproduce the requested range.
    return Status::Corruption(
        "journal " + path_ + " holds LSNs [" + std::to_string(scan.base) +
        ", " + std::to_string(scan.base + scan.records) +
        ") which does not include replay start " + std::to_string(start_lsn));
  }
  if (scan.torn) {
    // Crash mid-append: drop the partial tail so the next Append continues
    // a clean log instead of burying new records behind garbage.
    Status truncated = env_->Truncate(path_, scan.good_end);
    if (!truncated.ok()) {
      return Status::IOError("journal truncate after torn tail: " +
                             truncated.message());
    }
  }
  size_ = scan.good_end;
  broken_ = false;
  base_lsn_.store(scan.base, std::memory_order_release);
  record_count_.store(scan.base + scan.records, std::memory_order_release);
  return Status::OK();
}

Status Journal::ReadRange(uint64_t from, size_t max_records, size_t max_bytes,
                          std::vector<std::string>* out,
                          uint64_t* next) const {
  std::lock_guard<std::mutex> lock(mu_);
  *next = from;
  uint64_t base = base_lsn_.load(std::memory_order_acquire);
  uint64_t count = record_count_.load(std::memory_order_acquire);
  if (from < base) {
    return Status::OutOfRange(
        "journal " + path_ + " holds LSNs [" + std::to_string(base) + ", " +
        std::to_string(count) + "); LSN " + std::to_string(from) +
        " was truncated into the archive chain");
  }
  if (from >= count) return Status::OK();  // caller is at the tail
  size_t bytes = 0;
  ScanState scan;
  Status result = ScanJournal(
      env_, path_,
      [&](uint64_t lsn, const std::string& record) -> Status {
        if (lsn < from) return Status::OK();
        if (out->size() >= max_records ||
            (bytes > 0 && bytes + record.size() > max_bytes)) {
          return Status::OK();  // full; keep scanning the accounting only
        }
        bytes += record.size();
        out->push_back(record);
        *next = lsn + 1;
        return Status::OK();
      },
      &scan);
  if (result.code() == StatusCode::kNotFound) return Status::OK();
  return result;
}

Status Journal::ReplayFile(
    Env* env, const std::string& path, bool strict,
    const std::function<Status(uint64_t lsn, const std::string&)>& fn) {
  ScanState scan;
  GAEA_RETURN_IF_ERROR(ScanJournal(env, path, fn, &scan));
  if (strict && scan.torn) {
    return Status::Corruption("journal-format file " + path +
                              ": torn tail at offset " +
                              std::to_string(scan.good_end) +
                              " in a file that must be complete");
  }
  return Status::OK();
}

Status Journal::TruncatePrefix(uint64_t upto_lsn,
                               const std::string& archive_path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::FailedPrecondition(
        "journal " + path_ + " has an unhealed torn tail; refusing to "
        "truncate its prefix");
  }
  uint64_t base = base_lsn_.load(std::memory_order_acquire);
  uint64_t count = record_count_.load(std::memory_order_acquire);
  if (upto_lsn <= base) return Status::OK();  // prefix already gone
  if (upto_lsn > count) {
    return Status::InvalidArgument(
        "journal " + path_ + ": cannot truncate to LSN " +
        std::to_string(upto_lsn) + ", file ends at " + std::to_string(count));
  }

  // Stream the file once, splitting frames into the archive segment (the
  // dropped prefix, still replayable for restore-to-point and full-replay
  // fallback) and the rewritten live file. Both are written to tmp names;
  // the archive is renamed into place FIRST, so no instant exists at which
  // a record is neither in the live journal nor in a durable archive. A
  // crash between the two renames leaves the prefix in both places —
  // benign, because archive-chain replay dedups by LSN cursor.
  const std::string archive_tmp = archive_path + ".tmp";
  const std::string live_tmp = path_ + ".tmp";
  // Writable files open in append mode: clear leftovers of a crashed
  // earlier attempt before writing.
  GAEA_RETURN_IF_ERROR(env_->RemoveFile(archive_tmp));
  GAEA_RETURN_IF_ERROR(env_->RemoveFile(live_tmp));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> archive,
                        env_->NewWritableFile(archive_tmp));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> live,
                        env_->NewWritableFile(live_tmp));
  GAEA_RETURN_IF_ERROR(
      archive->Append(EncodeJournalFrame(EncodeBaseRecord(base))));
  std::string live_head = EncodeJournalFrame(EncodeBaseRecord(upto_lsn));
  GAEA_RETURN_IF_ERROR(live->Append(live_head));
  uint64_t live_bytes = live_head.size();
  ScanState scan;
  GAEA_RETURN_IF_ERROR(ScanJournal(
      env_, path_,
      [&](uint64_t lsn, const std::string& record) -> Status {
        std::string frame = EncodeJournalFrame(record);
        if (lsn < upto_lsn) return archive->Append(frame);
        live_bytes += frame.size();
        return live->Append(frame);
      },
      &scan));
  // The archive must be durable before the live prefix disappears,
  // whatever the journal's durability mode: prefix truncation is rare and
  // must never be the reason a record ceases to exist.
  GAEA_RETURN_IF_ERROR(archive->Sync());
  GAEA_RETURN_IF_ERROR(live->Sync());
  archive.reset();
  live.reset();
  GAEA_RETURN_IF_ERROR(env_->RenameFile(archive_tmp, archive_path));
  GAEA_RETURN_IF_ERROR(env_->RenameFile(live_tmp, path_));
  // The append handle still points at the renamed-away inode; reopen on
  // the rewritten file.
  GAEA_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(path_));
  size_ = live_bytes;
  base_lsn_.store(upto_lsn, std::memory_order_release);
  return Status::OK();
}

Status Journal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (durability() == DurabilityMode::kNone) return Status::OK();
  return file_->Sync();
}

}  // namespace gaea
