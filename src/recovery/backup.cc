#include "recovery/backup.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/task.h"
#include "gaea/kernel.h"
#include "recovery/checkpoint.h"
#include "storage/journal.h"
#include "util/serialize.h"

namespace gaea {
namespace recovery {

namespace {

// The journal-backed components and their live journal file names. The
// quarantine journal is mirrored by plain backup/restore but deliberately
// omitted from restore-to-point: it is derived state, rebuilt by the startup
// invariant check against whatever history the restore kept. The list
// stays apart from the kernel's table of journaled components: plain
// backup copies objects.journal like any file, but restore-to-point does
// not rebuild it.
struct ComponentFile {
  const char* component;
  const char* file;
};
constexpr ComponentFile kJournalFiles[] = {
    {"catalog", "catalog.journal"},
    {"process", "process.journal"},
    {"tasks", "tasks.journal"},
    {"experiments", "experiments.journal"},
};

// Object-store page files: not journal-derivable, always copied whole.
constexpr const char* kStoreFiles[] = {
    "objects.heap",
    "objects.idx",
    "byclass.idx",
    "bytime.idx",
};

bool IsTmpName(const std::string& name) {
  return name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
}

// Copies src -> dst atomically (write dst.tmp, fsync, rename). The source is
// read in chunks so object-store heaps never have to fit in memory twice.
StatusOr<uint64_t> CopyFile(Env* env, const std::string& src,
                            const std::string& dst) {
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> in,
                        env->NewSequentialFile(src));
  const std::string tmp = dst + ".tmp";
  // Writable files open in append mode; a stale tmp must go first.
  GAEA_RETURN_IF_ERROR(env->RemoveFile(tmp));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                        env->NewWritableFile(tmp));
  uint64_t total = 0;
  std::string chunk(256 * 1024, '\0');
  while (true) {
    GAEA_ASSIGN_OR_RETURN(size_t n, in->Read(chunk.size(), chunk.data()));
    if (n == 0) break;
    GAEA_RETURN_IF_ERROR(out->Append(std::string_view(chunk.data(), n)));
    total += n;
  }
  GAEA_RETURN_IF_ERROR(out->Sync());
  out.reset();
  GAEA_RETURN_IF_ERROR(env->RenameFile(tmp, dst));
  return total;
}

// ListDir where a missing directory means "empty", not an error.
StatusOr<std::vector<std::string>> ListDirOrEmpty(Env* env,
                                                  const std::string& path) {
  StatusOr<std::vector<std::string>> entries = env->ListDir(path);
  if (!entries.ok() && entries.status().code() == StatusCode::kNotFound) {
    return std::vector<std::string>();
  }
  return entries;
}

// Mirrors one database tree into another. Top-level files (journals, store
// pages) are always recopied — they advance between backups. Files under
// checkpoints/ and archive/ are immutable once installed, so a same-name
// same-size file already in the destination is skipped. When `prune` is set,
// destination checkpoint files absent from the source (GC'd manifests and
// snapshots) are removed so the mirror tracks the source's GC.
Status MirrorTree(Env* env, const std::string& src, const std::string& dst,
                  bool prune, BackupInfo* info) {
  if (!env->FileExists(src)) {
    return Status::NotFound("no database directory at " + src);
  }
  GAEA_RETURN_IF_ERROR(env->CreateDir(dst));

  GAEA_ASSIGN_OR_RETURN(std::vector<std::string> top, env->ListDir(src));
  std::sort(top.begin(), top.end());
  for (const std::string& name : top) {
    if (name == "checkpoints" || name == "archive" || IsTmpName(name)) {
      continue;
    }
    GAEA_ASSIGN_OR_RETURN(uint64_t bytes,
                          CopyFile(env, src + "/" + name, dst + "/" + name));
    info->files_copied++;
    info->bytes_copied += bytes;
  }

  for (const char* sub : {"checkpoints", "archive"}) {
    const std::string src_sub = src + "/" + sub;
    const std::string dst_sub = dst + "/" + sub;
    GAEA_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                          ListDirOrEmpty(env, src_sub));
    std::sort(entries.begin(), entries.end());
    if (!entries.empty()) GAEA_RETURN_IF_ERROR(env->CreateDir(dst_sub));
    std::set<std::string> keep;
    for (const std::string& name : entries) {
      if (IsTmpName(name)) continue;
      keep.insert(name);
      const std::string spath = src_sub + "/" + name;
      const std::string dpath = dst_sub + "/" + name;
      if (env->FileExists(dpath)) {
        GAEA_ASSIGN_OR_RETURN(uint64_t ssize, env->FileSize(spath));
        GAEA_ASSIGN_OR_RETURN(uint64_t dsize, env->FileSize(dpath));
        if (ssize == dsize) {
          info->files_skipped++;
          continue;
        }
      }
      GAEA_ASSIGN_OR_RETURN(uint64_t bytes, CopyFile(env, spath, dpath));
      info->files_copied++;
      info->bytes_copied += bytes;
    }
    // Archive segments are never deleted at the source, so pruning only
    // applies to the checkpoints directory.
    if (prune && std::string(sub) == "checkpoints") {
      GAEA_ASSIGN_OR_RETURN(std::vector<std::string> existing,
                            ListDirOrEmpty(env, dst_sub));
      for (const std::string& name : existing) {
        if (keep.count(name) == 0) {
          GAEA_RETURN_IF_ERROR(env->RemoveFile(dst_sub + "/" + name));
        }
      }
    }
  }
  return Status::OK();
}

// Writes `frames` (already journal-framed bytes) as dest_dir/<file> via
// tmp + fsync + rename. No base control record: the file is a full-history
// journal starting at LSN 0.
Status WriteJournalFile(Env* env, const std::string& dest_dir,
                        const std::string& file, const std::string& frames) {
  const std::string path = dest_dir + "/" + file;
  const std::string tmp = path + ".tmp";
  GAEA_RETURN_IF_ERROR(env->RemoveFile(tmp));
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                        env->NewWritableFile(tmp));
  if (!frames.empty()) GAEA_RETURN_IF_ERROR(out->Append(frames));
  GAEA_RETURN_IF_ERROR(out->Sync());
  out.reset();
  return env->RenameFile(tmp, path);
}

}  // namespace

StatusOr<BackupInfo> CreateBackup(Env* env, const std::string& db_dir,
                                  const std::string& backup_dir) {
  BackupInfo info;
  GAEA_RETURN_IF_ERROR(MirrorTree(env, db_dir, backup_dir, /*prune=*/true,
                                  &info));
  return info;
}

StatusOr<BackupInfo> RestoreBackup(Env* env, const std::string& backup_dir,
                                   const std::string& dest_dir) {
  BackupInfo info;
  GAEA_RETURN_IF_ERROR(MirrorTree(env, backup_dir, dest_dir, /*prune=*/true,
                                  &info));
  return info;
}

StatusOr<RestoreToPointReport> RestoreToPoint(Env* env,
                                              const std::string& backup_dir,
                                              const std::string& dest_dir,
                                              uint64_t tasks_lsn) {
  if (!env->FileExists(backup_dir)) {
    return Status::NotFound("no backup at " + backup_dir);
  }
  GAEA_RETURN_IF_ERROR(env->CreateDir(dest_dir));

  // Archive segments per component, ordered by base LSN. ReplayArchiveChain
  // anchors at LSN 0 and rejects gaps, so a chain that replays cleanly plus
  // the live tail reconstructs the full history.
  std::map<std::string, std::vector<std::pair<uint64_t, std::string>>> segs;
  GAEA_ASSIGN_OR_RETURN(std::vector<std::string> archive_entries,
                        ListDirOrEmpty(env, ArchiveDirPath(backup_dir)));
  for (const std::string& name : archive_entries) {
    std::string component;
    uint64_t base = 0, upto = 0;
    if (!ParseArchiveSegmentName(name, &component, &base, &upto)) continue;
    segs[component].emplace_back(base,
                                 ArchiveDirPath(backup_dir) + "/" + name);
  }
  for (auto& [component, list] : segs) {
    std::sort(list.begin(), list.end());
  }

  RestoreToPointReport report;
  std::vector<Oid> dropped_outputs;

  for (const ComponentFile& cf : kJournalFiles) {
    const bool is_tasks = std::string(cf.component) == "tasks";
    std::string frames;
    uint64_t next = 0;  // full-history LSN of the record being applied
    auto handle = [&](const std::string& record) -> Status {
      if (is_tasks && next >= tasks_lsn) {
        // Dropped task: keep nothing, but remember its stored outputs so
        // they can be removed from the object store below.
        BinaryReader r(record);
        GAEA_ASSIGN_OR_RETURN(Task task, Task::Deserialize(&r));
        dropped_outputs.insert(dropped_outputs.end(), task.outputs.begin(),
                               task.outputs.end());
        report.tasks_dropped++;
      } else {
        frames += EncodeJournalFrame(record);
        if (is_tasks) report.tasks_kept++;
      }
      next++;
      return Status::OK();
    };

    std::vector<std::string> paths;
    auto it = segs.find(cf.component);
    if (it != segs.end()) {
      for (const auto& [base, path] : it->second) paths.push_back(path);
    }
    GAEA_ASSIGN_OR_RETURN(uint64_t cursor,
                          ReplayArchiveChain(env, paths, handle));
    if (cursor != next) {
      return Status::Internal("archive chain cursor out of step");
    }

    // Live tail. Not strict: the backup copies a running journal's file, so
    // a torn final frame is a clean stop, exactly as in crash recovery.
    const std::string live = backup_dir + "/" + cf.file;
    Status replayed = Journal::ReplayFile(
        env, live, /*strict=*/false,
        [&](uint64_t lsn, const std::string& record) -> Status {
          if (lsn < next) return Status::OK();  // truncation-crash overlap
          if (lsn > next) {
            return Status::Corruption(
                cf.file + std::string(": journal starts at LSN ") +
                std::to_string(lsn) + " but archives cover only " +
                std::to_string(next));
          }
          return handle(record);
        });
    if (!replayed.ok() && replayed.code() != StatusCode::kNotFound) {
      return replayed;
    }

    if (is_tasks && tasks_lsn > next) {
      return Status::InvalidArgument(
          "restore point " + std::to_string(tasks_lsn) + " is beyond the " +
          std::to_string(next) + " task records in the backup");
    }
    GAEA_RETURN_IF_ERROR(WriteJournalFile(env, dest_dir, cf.file, frames));
  }

  for (const char* name : kStoreFiles) {
    const std::string src = backup_dir + "/" + std::string(name);
    if (!env->FileExists(src)) continue;
    GAEA_RETURN_IF_ERROR(
        CopyFile(env, src, dest_dir + "/" + std::string(name)).status());
  }

  // Bring the restored database up (runs the startup invariant check on the
  // cut history) and delete the stored outputs of every dropped task, so no
  // query can see data from the future of the restore point.
  GaeaKernel::Options options;
  options.dir = dest_dir;
  options.env = env;
  GAEA_ASSIGN_OR_RETURN(std::unique_ptr<GaeaKernel> kernel,
                        GaeaKernel::Open(options));
  for (Oid oid : dropped_outputs) {
    Status deleted = kernel->catalog().DeleteObject(oid);
    if (deleted.ok()) {
      report.objects_deleted++;
    } else if (deleted.code() != StatusCode::kNotFound) {
      return deleted;
    }
  }
  GAEA_RETURN_IF_ERROR(kernel->Flush());
  return report;
}

}  // namespace recovery
}  // namespace gaea
