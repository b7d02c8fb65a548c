#include "testing/crash_workload.h"

#include <random>
#include <vector>

#include "gaea/kernel.h"
#include "raster/image.h"

namespace gaea::crashtest {

namespace {

// A deliberately tiny schema: the copy process maps attributes by reference
// only (no operators), so every recorded task stays replayable after reopen
// without any registration step, and a derive costs microseconds — the
// crash sweep visits hundreds of write points per seed.
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

CLASS scene (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
)

CLASS scene_copy (
  ATTRIBUTES:
    data = image;
  SPATIAL EXTENT:
    spatialextent = box;
  TEMPORAL EXTENT:
    timestamp = abstime;
  DERIVED BY: copy-scene
)

DEFINE PROCESS copy-scene
OUTPUT scene_copy
ARGUMENT ( scene src )
TEMPLATE {
  MAPPINGS:
    scene_copy.data = src.data;
    scene_copy.spatialextent = src.spatialextent;
    scene_copy.timestamp = src.timestamp;
}
)";

StatusOr<Oid> InsertReading(GaeaKernel* kernel, const ClassDef& def,
                            int64_t value, int64_t epoch) {
  DataObject obj(def);
  GAEA_RETURN_IF_ERROR(obj.Set(def, "value", Value::Int(value)));
  GAEA_RETURN_IF_ERROR(
      obj.Set(def, "spatialextent", Value::OfBox(Box(0, 0, 10, 10))));
  GAEA_RETURN_IF_ERROR(obj.Set(def, "timestamp", Value::Time(AbsTime(epoch))));
  return kernel->Insert(std::move(obj));
}

// A 64-row 8-bit raster of 4 to 40 KiB: stored as a heap overflow chain of
// 2 to 11 pages, so crash points also fall on chain writes.
StatusOr<Oid> InsertScene(GaeaKernel* kernel, const ClassDef& def,
                          std::mt19937_64* rng, int64_t epoch) {
  constexpr int kRows = 64;
  int ncol = 64 + static_cast<int>((*rng)() % 577);
  std::vector<double> pixels(static_cast<size_t>(kRows) * ncol);
  for (double& p : pixels) p = static_cast<double>((*rng)() % 256);
  GAEA_ASSIGN_OR_RETURN(Image image, Image::FromValues(kRows, ncol, pixels,
                                                       PixelType::kUInt8));
  DataObject obj(def);
  GAEA_RETURN_IF_ERROR(obj.Set(def, "data", Value::OfImage(std::move(image))));
  GAEA_RETURN_IF_ERROR(
      obj.Set(def, "spatialextent", Value::OfBox(Box(0, 0, 10, 10))));
  GAEA_RETURN_IF_ERROR(obj.Set(def, "timestamp", Value::Time(AbsTime(epoch))));
  return kernel->Insert(std::move(obj));
}

}  // namespace

Status RunWorkload(const std::string& dir, Env* env,
                   const WorkloadOptions& options) {
  std::mt19937_64 rng(options.seed);

  GaeaKernel::Options ko;
  ko.dir = dir;
  ko.user = "crashtest";
  ko.env = env;
  // Alternate Sync policies by seed so the sweep crosses fsync'd and
  // OS-buffered append paths alike.
  ko.durability =
      (options.seed % 2 == 0) ? DurabilityMode::kFsync : DurabilityMode::kOs;
  GAEA_ASSIGN_OR_RETURN(auto kernel, GaeaKernel::Open(ko));
  kernel->SetClock(AbsTime(1000));
  GAEA_RETURN_IF_ERROR(kernel->ExecuteDdl(kSchema));

  GAEA_ASSIGN_OR_RETURN(const ClassDef* reading,
                        kernel->catalog().classes().LookupByName("reading"));
  GAEA_ASSIGN_OR_RETURN(const ClassDef* scene,
                        kernel->catalog().classes().LookupByName("scene"));

  std::vector<Oid> readings;
  std::vector<Oid> scenes;
  const int first_ckpt = options.rounds / 3;
  const int second_ckpt = (2 * options.rounds) / 3;
  for (int round = 0; round < options.rounds; ++round) {
    if (options.checkpoints &&
        (round == first_ckpt || round == second_ckpt)) {
      GAEA_RETURN_IF_ERROR(kernel->Checkpoint().status());
    }
    GAEA_ASSIGN_OR_RETURN(
        Oid oid, InsertReading(kernel.get(), *reading,
                               static_cast<int64_t>(rng() % 1000),
                               1000 + round));
    readings.push_back(oid);
    Oid src = readings[rng() % readings.size()];
    GAEA_RETURN_IF_ERROR(
        kernel->Derive("copy-reading", {{"src", {src}}}).status());
    GAEA_ASSIGN_OR_RETURN(
        Oid scene_oid, InsertScene(kernel.get(), *scene, &rng, 1000 + round));
    scenes.push_back(scene_oid);
    Oid scene_src = scenes[rng() % scenes.size()];
    GAEA_RETURN_IF_ERROR(
        kernel->Derive("copy-scene", {{"src", {scene_src}}}).status());
    // Flushing mid-workload puts heap/index page writes into the crash
    // sweep, not just journal appends.
    if (rng() % 2 == 0) GAEA_RETURN_IF_ERROR(kernel->Flush());
  }
  return kernel->Flush();
}

Status VerifyRecovered(const std::string& dir, Env* env) {
  GaeaKernel::Options ko;
  ko.dir = dir;
  ko.user = "crashtest";
  ko.env = env;
  GAEA_ASSIGN_OR_RETURN(auto kernel, GaeaKernel::Open(ko));

  // The workload defines its schema before touching data and every task's
  // process maps attributes by reference, so nothing a committed task needs
  // can be legitimately absent: any quarantined task is lost data.
  const GaeaKernel::RecoveryReport& report = kernel->recovery_report();
  if (!report.quarantined.empty()) {
    return Status::Internal(
        std::to_string(report.quarantined.size()) +
        " task(s) quarantined after recovery (first: task " +
        std::to_string(report.quarantined.front()) + ")");
  }

  // Every committed task: outputs stored and readable, or re-derivable.
  for (const Task& task : kernel->tasks().tasks()) {
    if (task.status != TaskStatus::kCompleted) continue;
    for (Oid oid : task.outputs) {
      GAEA_ASSIGN_OR_RETURN(bool stored, kernel->catalog().ContainsObject(oid));
      if (stored) {
        Status readable = kernel->Get(oid).status();
        if (!readable.ok()) {
          return Status::Internal("task " + std::to_string(task.id) +
                                  " output " + std::to_string(oid) +
                                  " is stored but unreadable: " +
                                  readable.ToString());
        }
      } else if (task.process_version < 1 ||
                 !kernel->processes()
                      .Version(task.process_name, task.process_version)
                      .ok()) {
        return Status::Internal("task " + std::to_string(task.id) +
                                " output " + std::to_string(oid) +
                                " is missing and not re-derivable");
      }
    }
  }

  // The database must stay usable. If the crash predates the schema the
  // class is simply absent (nothing was committed yet) and there is nothing
  // further to prove.
  auto reading = kernel->catalog().classes().LookupByName("reading");
  if (!reading.ok()) return Status::OK();
  kernel->SetClock(AbsTime(9999));
  GAEA_ASSIGN_OR_RETURN(Oid fresh,
                        InsertReading(kernel.get(), **reading, 42, 9999));
  if (kernel->processes().Contains("copy-reading")) {
    // A post-recovery derive both proves the process replays and — because
    // TaskLog::Append rejects a duplicate producer OID — that the recovered
    // OID allocator never re-issues an id recorded by a pre-crash task.
    GAEA_RETURN_IF_ERROR(
        kernel->Derive("copy-reading", {{"src", {fresh}}}).status());
  }
  return kernel->Flush();
}

}  // namespace gaea::crashtest
