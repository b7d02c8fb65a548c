// Measurement plumbing shared by the gaea end-to-end benchmark's workloads:
// latency samples and percentiles, a payload checksum, on-disk sizes, peak
// RSS, counter snapshots around a timed phase, and the span fold that turns
// obs::Tracer output into per-layer self-time histograms.

#ifndef GAEA_PERFBENCH_HARNESS_H_
#define GAEA_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gaea/kernel.h"
#include "net/server.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// CRC-32C of `data`: SSE4.2 instructions when the CPU has them, a table
// otherwise. Both give the same value.
uint32_t Crc32c(const void* data, size_t size);

// Sum of regular-file sizes under `dir` (recursive); 0 when it is missing.
uint64_t DirBytes(const std::string& dir);

// Bytes of files under `dir` whose name starts with `prefix` (top level and
// the archive/ subdirectory, where checkpoints move truncated journal
// prefixes).
uint64_t JournalBytes(const std::string& dir, const std::string& prefix);

// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMib();

// Flushes the dirty pages of the file system holding `dir`, so a timed
// step that fsyncs (kernel open creates and syncs files and directories)
// does not also pay for writeback of everything written before it.
void SyncFileSystem(const std::string& dir);

// Prometheus text (MetricsRegistry::Render) as name{labels} -> value.
std::map<std::string, double> ParseExposition(const std::string& text);

// Every counter the per-layer ratios are computed from, taken at one
// instant. Deltas between two snapshots bracket one timed phase.
struct Snapshot {
  gaea::GaeaKernel::Stats kernel;
  gaea::net::ServerStats server;
  std::map<std::string, double> registry;
  uint64_t task_journal_bytes = 0;

  double Reg(const std::string& name) const;
};

Snapshot TakeSnapshot(gaea::GaeaKernel& kernel,
                      const gaea::net::GaeaServer& server,
                      const std::string& dir);

// `num / den`, or 0 when the base is empty.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Tracer spans folded by name. Self time is a span's duration minus the
// union of its children's intervals clipped to it, so parallel children
// (tile helpers) never drive it negative.
struct SpanFold {
  std::map<std::string, std::vector<double>> self_us;   // by full name
  std::map<std::string, std::vector<double>> total_us;  // by full name

  // Client rpc:<verb> against the server's request:<verb> of the same
  // trace: per-verb rpc duration, request duration, the part outside the
  // worker (rpc - request), the request span's own self time, and the
  // summed self time of every other span in those traces, by name.
  struct Verb {
    std::vector<double> rpc_us, request_us, outside_us, request_self_us;
    std::map<std::string, double> inner_self_total_us;
  };
  std::map<std::string, Verb> verbs;

  // Every sample of spans whose name starts with `prefix`.
  std::vector<double> SelfByPrefix(const std::string& prefix) const;
  std::vector<double> TotalByPrefix(const std::string& prefix) const;
};

SpanFold FoldSpans(const std::vector<gaea::obs::Span>& spans);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// The benchmark's result line: one JSON object, no newline.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // GAEA_PERFBENCH_HARNESS_H_
