// Shared crash-recovery workload for the crash harness
// (tools/gaea_crashtest.cc) and the ctest suite (tests/crash_test.cc).
//
// The cycle: run a randomized insert/derive/flush workload against a
// FaultInjectingEnv armed to crash at the Nth write op, throw the kernel
// away mid-flight, clear the fault, reopen, and check the recovery
// invariants (docs/ROBUSTNESS.md):
//   * reopen succeeds — replay truncates at most a torn tail, never more;
//   * no committed task is quarantined: every output object is either still
//     stored (and readable) or re-derivable from its recorded lineage;
//   * the database stays usable — a fresh insert + derive succeeds and
//     never reuses an OID recorded by a pre-crash task.
//
// Each round inserts a small reading and a 4-40 KiB raster scene (a heap
// overflow chain of 2 to 11 pages) and derives a copy of each. The
// processes use attribute-reference mappings only, so a reopened kernel
// needs no operator re-registration to stay replayable.

#ifndef GAEA_TESTING_CRASH_WORKLOAD_H_
#define GAEA_TESTING_CRASH_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "util/env.h"
#include "util/status.h"

namespace gaea::crashtest {

struct WorkloadOptions {
  uint64_t seed = 1;
  int rounds = 6;  // insert + derive (+ sometimes flush) iterations
  // Take fuzzy checkpoints (GaeaKernel::Checkpoint) a third and two thirds
  // of the way through, so the crash sweep also lands inside snapshot
  // writes, manifest installs, and journal truncation — and recovery after
  // the second checkpoint exercises the load-snapshot + tail-replay path,
  // not just full replay.
  bool checkpoints = true;
};

// Runs the randomized workload against the database in `dir`, with all I/O
// on `env`. Returns OK when the workload ran to completion; once an
// injected crash point fires the first failed operation's status is
// returned (callers distinguish the expected crash via env->crashed()).
Status RunWorkload(const std::string& dir, Env* env,
                   const WorkloadOptions& options);

// Reopens the database in `dir` on a now-fault-free `env` and checks every
// recovery invariant above. Any violation is a non-OK status naming the
// broken invariant.
Status VerifyRecovered(const std::string& dir, Env* env);

}  // namespace gaea::crashtest

#endif  // GAEA_TESTING_CRASH_WORKLOAD_H_
