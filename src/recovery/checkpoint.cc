#include "recovery/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "util/crc32.h"
#include "util/serialize.h"

namespace gaea {
namespace recovery {

namespace {

constexpr std::string_view kManifestMagic = "GAEACKPT";
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestPrefix[] = "MANIFEST-";

// Reads a whole file through the Env (snapshots and manifests are bounded
// by live state, not history, so slurping is fine).
StatusOr<std::string> ReadWholeFile(Env* env, const std::string& path) {
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> file,
                        env->NewSequentialFile(path));
  std::string out;
  char chunk[64 * 1024];
  for (;;) {
    GAEA_ASSIGN_OR_RETURN(size_t n, file->Read(sizeof(chunk), chunk));
    if (n == 0) break;
    out.append(chunk, n);
  }
  return out;
}

// Writes `bytes` to `path`.tmp, syncs, and renames into place.
Status InstallFile(Env* env, const std::string& path,
                   const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  // Writable files open in append mode: clear a crashed earlier attempt.
  GAEA_RETURN_IF_ERROR(env->RemoveFile(tmp));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env->NewWritableFile(tmp));
  GAEA_RETURN_IF_ERROR(file->Append(bytes));
  GAEA_RETURN_IF_ERROR(file->Sync());
  file.reset();
  return env->RenameFile(tmp, path);
}

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

const SnapshotEntry* Manifest::Find(std::string_view component) const {
  for (const SnapshotEntry& entry : entries) {
    if (entry.component == component) return &entry;
  }
  return nullptr;
}

std::string Manifest::Encode() const {
  BinaryWriter w;
  w.PutRaw(kManifestMagic.data(), kManifestMagic.size());
  w.PutU32(kManifestVersion);
  w.PutU64(seq);
  w.PutU64(created_us);
  w.PutU64(next_oid);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const SnapshotEntry& entry : entries) {
    w.PutString(entry.component);
    w.PutString(entry.file);
    w.PutU64(entry.covered_lsn);
    w.PutU64(entry.records);
    w.PutU64(entry.size_bytes);
    w.PutU32(entry.crc32);
  }
  uint32_t crc = Crc32(w.buffer().data(), w.buffer().size());
  w.PutU32(crc);
  return w.Release();
}

StatusOr<Manifest> Manifest::Decode(const std::string& bytes) {
  if (bytes.size() < kManifestMagic.size() + 8) {
    return Status::Corruption("manifest too short");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::Corruption("manifest CRC mismatch");
  }
  BinaryReader r(std::string_view(bytes).substr(0, bytes.size() - 4));
  GAEA_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(kManifestMagic.size()));
  if (magic != kManifestMagic) {
    return Status::Corruption("manifest magic mismatch");
  }
  GAEA_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported manifest version " +
                              std::to_string(version));
  }
  Manifest m;
  GAEA_ASSIGN_OR_RETURN(m.seq, r.GetU64());
  GAEA_ASSIGN_OR_RETURN(m.created_us, r.GetU64());
  GAEA_ASSIGN_OR_RETURN(m.next_oid, r.GetU64());
  GAEA_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  for (uint32_t i = 0; i < count; ++i) {
    SnapshotEntry entry;
    GAEA_ASSIGN_OR_RETURN(entry.component, r.GetString());
    GAEA_ASSIGN_OR_RETURN(entry.file, r.GetString());
    GAEA_ASSIGN_OR_RETURN(entry.covered_lsn, r.GetU64());
    GAEA_ASSIGN_OR_RETURN(entry.records, r.GetU64());
    GAEA_ASSIGN_OR_RETURN(entry.size_bytes, r.GetU64());
    GAEA_ASSIGN_OR_RETURN(entry.crc32, r.GetU32());
    m.entries.push_back(std::move(entry));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in manifest");
  }
  return m;
}

// ---------------------------------------------------------------------------
// Paths & names
// ---------------------------------------------------------------------------

std::string CheckpointDirPath(const std::string& db_dir) {
  return db_dir + "/checkpoints";
}

std::string ArchiveDirPath(const std::string& db_dir) {
  return db_dir + "/archive";
}

std::string ManifestFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08" PRIu64, kManifestPrefix, seq);
  return buf;
}

bool ParseManifestFileName(const std::string& name, uint64_t* seq) {
  size_t prefix = sizeof(kManifestPrefix) - 1;
  if (name.size() <= prefix || name.compare(0, prefix, kManifestPrefix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

std::string SnapshotFileName(uint64_t seq, const std::string& component) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64, seq);
  return std::string(buf) + "." + component + ".snap";
}

std::string ArchiveSegmentName(const std::string& component, uint64_t base,
                               uint64_t upto) {
  return component + "." + std::to_string(base) + "-" + std::to_string(upto) +
         ".seg";
}

bool ParseArchiveSegmentName(const std::string& name, std::string* component,
                             uint64_t* base, uint64_t* upto) {
  constexpr std::string_view kSuffix = ".seg";
  if (name.size() <= kSuffix.size() ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  std::string stem = name.substr(0, name.size() - kSuffix.size());
  size_t dot = stem.rfind('.');
  size_t dash = stem.rfind('-');
  if (dot == std::string::npos || dash == std::string::npos || dash <= dot) {
    return false;
  }
  std::string base_str = stem.substr(dot + 1, dash - dot - 1);
  std::string upto_str = stem.substr(dash + 1);
  if (base_str.empty() || upto_str.empty()) return false;
  uint64_t b = 0, u = 0;
  for (char c : base_str) {
    if (c < '0' || c > '9') return false;
    b = b * 10 + static_cast<uint64_t>(c - '0');
  }
  for (char c : upto_str) {
    if (c < '0' || c > '9') return false;
    u = u * 10 + static_cast<uint64_t>(c - '0');
  }
  *component = stem.substr(0, dot);
  *base = b;
  *upto = u;
  return true;
}

Status WriteManifest(Env* env, const std::string& db_dir, const Manifest& m) {
  const std::string path =
      CheckpointDirPath(db_dir) + "/" + ManifestFileName(m.seq);
  return InstallFile(env, path, m.Encode());
}

StatusOr<Manifest> ReadManifest(Env* env, const std::string& path) {
  GAEA_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(env, path));
  return Manifest::Decode(bytes);
}

StatusOr<std::vector<uint64_t>> ListCheckpointSeqs(
    Env* env, const std::string& db_dir) {
  auto names = env->ListDir(CheckpointDirPath(db_dir));
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return std::vector<uint64_t>{};  // never checkpointed
    }
    return names.status();
  }
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseManifestFileName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

void SnapshotWriter::Add(const std::string& record) {
  buf_ += EncodeJournalFrame(record);
  records_++;
}

StatusOr<SnapshotEntry> SnapshotWriter::Install(Env* env,
                                                const std::string& db_dir,
                                                uint64_t seq,
                                                const std::string& component,
                                                uint64_t covered_lsn) {
  SnapshotEntry entry;
  entry.component = component;
  entry.file = SnapshotFileName(seq, component);
  entry.covered_lsn = covered_lsn;
  entry.records = records_;
  entry.size_bytes = buf_.size();
  entry.crc32 = Crc32(buf_.data(), buf_.size());
  GAEA_RETURN_IF_ERROR(
      InstallFile(env, CheckpointDirPath(db_dir) + "/" + entry.file, buf_));
  return entry;
}

Status ReadSnapshot(Env* env, const std::string& db_dir,
                    const SnapshotEntry& entry,
                    const std::function<Status(const std::string&)>& apply) {
  const std::string path = CheckpointDirPath(db_dir) + "/" + entry.file;
  auto bytes_or = ReadWholeFile(env, path);
  if (!bytes_or.ok()) {
    if (bytes_or.status().code() == StatusCode::kNotFound) {
      return Status::Corruption("snapshot " + path + " missing");
    }
    return bytes_or.status();
  }
  const std::string& bytes = *bytes_or;
  if (bytes.size() != entry.size_bytes) {
    return Status::Corruption(
        "snapshot " + path + ": size " + std::to_string(bytes.size()) +
        " != manifest " + std::to_string(entry.size_bytes));
  }
  if (Crc32(bytes.data(), bytes.size()) != entry.crc32) {
    return Status::Corruption("snapshot " + path + ": whole-file CRC mismatch");
  }
  // Strict frame walk: the file-level CRC already vouches for the bytes,
  // but the frame structure and record count must also agree with the
  // manifest before any record is applied.
  uint64_t records = 0;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      return Status::Corruption("snapshot " + path + ": truncated frame");
    }
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (bytes.size() - pos - 8 < len) {
      return Status::Corruption("snapshot " + path + ": truncated payload");
    }
    std::string record = bytes.substr(pos + 8, len);
    if (Crc32(record.data(), record.size()) != crc) {
      return Status::Corruption("snapshot " + path + ": record CRC mismatch");
    }
    GAEA_RETURN_IF_ERROR(apply(record));
    records++;
    pos += 8 + len;
  }
  if (records != entry.records) {
    return Status::Corruption(
        "snapshot " + path + ": " + std::to_string(records) +
        " records, manifest says " + std::to_string(entry.records));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Taking a checkpoint
// ---------------------------------------------------------------------------

namespace {

// Latest manifest that decodes cleanly, or nullopt. Used both to number
// the next checkpoint and for lag-by-one truncation.
StatusOr<std::vector<Manifest>> ReadValidManifests(Env* env,
                                                   const std::string& db_dir) {
  GAEA_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs,
                        ListCheckpointSeqs(env, db_dir));
  std::vector<Manifest> manifests;  // newest first
  for (uint64_t seq : seqs) {
    auto m = ReadManifest(
        env, CheckpointDirPath(db_dir) + "/" + ManifestFileName(seq));
    if (m.ok()) manifests.push_back(*std::move(m));
  }
  return manifests;
}

}  // namespace

StatusOr<CheckpointInfo> RunCheckpoint(
    Env* env, const std::string& db_dir,
    const std::vector<CheckpointSource>& sources, uint64_t next_oid) {
  uint64_t start_us = env->NowMicros();
  GAEA_RETURN_IF_ERROR(env->CreateDir(CheckpointDirPath(db_dir)));
  GAEA_RETURN_IF_ERROR(env->CreateDir(ArchiveDirPath(db_dir)));

  // The previous checkpoint (if any) numbers this one and bounds what the
  // post-install truncation may drop.
  GAEA_ASSIGN_OR_RETURN(std::vector<Manifest> previous,
                        ReadValidManifests(env, db_dir));
  const Manifest* prev = previous.empty() ? nullptr : &previous.front();

  Manifest manifest;
  manifest.seq = prev != nullptr ? prev->seq + 1 : 1;
  manifest.created_us = start_us;

  // Capture every component. Each capture is atomic under the component's
  // own lock; derivations keep appending around us, which is fine — the
  // tail past each covered LSN is replayed at recovery, exactly as after a
  // crash.
  struct Captured {
    const CheckpointSource* source;
    SnapshotWriter writer;
    uint64_t covered_lsn = 0;
  };
  std::vector<Captured> captured(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    captured[i].source = &sources[i];
    GAEA_RETURN_IF_ERROR(sources[i].capture(
        [&captured, i](const std::string& record) -> Status {
          captured[i].writer.Add(record);
          return Status::OK();
        },
        &captured[i].covered_lsn));
  }
  // next_oid was sampled by the caller before capture began; the allocator
  // only grows, so it is a conservative floor — recovery additionally
  // raises the allocator past every task output (GaeaKernel::Recover).
  manifest.next_oid = next_oid;

  // Journal tails up to each covered LSN must be durable before the
  // manifest exists: otherwise a crash could leave an installed checkpoint
  // whose predecessor (fallback path) needs records the OS cache lost.
  for (const CheckpointSource& source : sources) {
    GAEA_RETURN_IF_ERROR(source.journal->Sync());
  }

  CheckpointInfo info;
  info.seq = manifest.seq;
  for (Captured& c : captured) {
    GAEA_ASSIGN_OR_RETURN(
        SnapshotEntry entry,
        c.writer.Install(env, db_dir, manifest.seq, c.source->component,
                         c.covered_lsn));
    info.snapshot_bytes += entry.size_bytes;
    info.covered[c.source->component] = c.covered_lsn;
    manifest.entries.push_back(std::move(entry));
  }

  // The commit point: once MANIFEST-<seq> is renamed into place the
  // checkpoint exists; before that, recovery never sees it.
  GAEA_RETURN_IF_ERROR(WriteManifest(env, db_dir, manifest));

  // Lag-by-one truncation: drop only what the PREVIOUS checkpoint already
  // covers, so both this checkpoint and its predecessor can recover from
  // the live journals alone — the fallback path never depends on the
  // archive chain.
  if (prev != nullptr) {
    for (Captured& c : captured) {
      const SnapshotEntry* prev_entry = prev->Find(c.source->component);
      if (prev_entry == nullptr) continue;
      uint64_t base = c.source->journal->base_lsn();
      if (prev_entry->covered_lsn <= base) continue;
      info.truncated_records += prev_entry->covered_lsn - base;
      GAEA_RETURN_IF_ERROR(c.source->truncate_prefix(
          prev_entry->covered_lsn,
          ArchiveDirPath(db_dir) + "/" +
              ArchiveSegmentName(c.source->component, base,
                                 prev_entry->covered_lsn)));
    }
  }

  // GC: keep the latest two checkpoints (this one and its fallback),
  // delete older manifests and any file no kept manifest references —
  // which also sweeps snapshots and tmp files stranded by crashed or
  // failed checkpoint attempts.
  std::set<std::string> keep;
  keep.insert(ManifestFileName(manifest.seq));
  for (const SnapshotEntry& entry : manifest.entries) keep.insert(entry.file);
  if (prev != nullptr) {
    keep.insert(ManifestFileName(prev->seq));
    for (const SnapshotEntry& entry : prev->entries) keep.insert(entry.file);
  }
  GAEA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        env->ListDir(CheckpointDirPath(db_dir)));
  for (const std::string& name : names) {
    if (keep.count(name) > 0) continue;
    GAEA_RETURN_IF_ERROR(
        env->RemoveFile(CheckpointDirPath(db_dir) + "/" + name));
  }

  info.duration_us = env->NowMicros() - start_us;
  return info;
}

// ---------------------------------------------------------------------------
// Planning recovery
// ---------------------------------------------------------------------------

StatusOr<std::vector<RecoveryPlan>> BuildRecoveryPlans(
    Env* env, const std::string& db_dir) {
  std::vector<RecoveryPlan> plans;

  GAEA_ASSIGN_OR_RETURN(std::vector<Manifest> manifests,
                        ReadValidManifests(env, db_dir));
  for (const Manifest& m : manifests) {
    // Shallow validation here (existence + exact size); CRC and frame
    // checks run when the snapshot is actually loaded, and a failure there
    // advances GaeaKernel::Open to the next plan.
    bool usable = true;
    RecoveryPlan plan;
    plan.checkpoint_seq = m.seq;
    plan.next_oid = m.next_oid;
    for (const SnapshotEntry& entry : m.entries) {
      const std::string path = CheckpointDirPath(db_dir) + "/" + entry.file;
      auto size = env->FileSize(path);
      if (!size.ok() || *size != entry.size_bytes) {
        usable = false;
        break;
      }
      ComponentPlan cp;
      cp.has_snapshot = true;
      cp.entry = entry;
      cp.start_lsn = entry.covered_lsn;
      plan.components[entry.component] = std::move(cp);
    }
    if (usable) plans.push_back(std::move(plan));
  }

  // The unconditional last resort: full replay over archive segments (if
  // any journal prefix was ever truncated) plus the live journals.
  RecoveryPlan full;
  auto names = env->ListDir(ArchiveDirPath(db_dir));
  if (names.ok()) {
    struct Segment {
      uint64_t base;
      uint64_t upto;
      std::string path;
    };
    std::map<std::string, std::vector<Segment>> by_component;
    for (const std::string& name : *names) {
      std::string component;
      uint64_t base = 0, upto = 0;
      if (!ParseArchiveSegmentName(name, &component, &base, &upto)) continue;
      by_component[component].push_back(
          {base, upto, ArchiveDirPath(db_dir) + "/" + name});
    }
    for (auto& [component, segments] : by_component) {
      std::sort(segments.begin(), segments.end(),
                [](const Segment& a, const Segment& b) {
                  return a.base < b.base;
                });
      ComponentPlan cp;
      // Segments tile [0, last upto); the live journal continues there.
      cp.start_lsn = segments.back().upto;
      for (Segment& segment : segments) {
        cp.archives.push_back(std::move(segment.path));
      }
      full.components[component] = std::move(cp);
    }
  } else if (names.status().code() != StatusCode::kNotFound) {
    return names.status();
  }
  plans.push_back(std::move(full));
  return plans;
}

StatusOr<uint64_t> ReplayArchiveChain(
    Env* env, const std::vector<std::string>& archives,
    const std::function<Status(const std::string&)>& apply) {
  uint64_t cursor = 0;
  for (const std::string& path : archives) {
    GAEA_RETURN_IF_ERROR(Journal::ReplayFile(
        env, path, /*strict=*/true,
        [&cursor, &apply](uint64_t lsn, const std::string& record) -> Status {
          if (lsn < cursor) return Status::OK();  // overlap: already applied
          if (lsn > cursor) {
            return Status::Corruption(
                "archive chain gap: expected LSN " + std::to_string(cursor) +
                ", segment continues at " + std::to_string(lsn));
          }
          GAEA_RETURN_IF_ERROR(apply(record));
          cursor = lsn + 1;
          return Status::OK();
        }));
  }
  return cursor;
}

}  // namespace recovery
}  // namespace gaea
