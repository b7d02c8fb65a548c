// gaead: the Gaea network daemon. Owns one GaeaKernel over a database
// directory and serves it to remote GaeaClient / `gaea_shell --connect`
// sessions over the length-prefixed binary protocol in docs/NET.md.
//
//   gaead --dir <db_dir> [--port N] [--host A.B.C.D] [--workers N]
//         [--max-inflight N] [--derive-threads N]
//         [--durability none|os|fsync] [--trace <file>]
//         [--checkpoint-bytes N] [--checkpoint-tasks N]
//         [--checkpoint-poll-ms N] [--port-file <file>]
//         [--replicated] [--replica-of host:port] [--replica-id <name>]
//         [--replica-poll-ms N] [--bootstrap-from <backup_dir>]
//
// --port 0 binds an ephemeral port; the bound port is printed on the
// "listening" line and, with --port-file, written (just the number) to the
// given file so scripts and tests can find the daemon without parsing
// stdout. A port that is already in use is a clean error and exit code 1.
//
// --replicated opens the kernel with the objects journal so this primary
// can ship its full state to replicas. --replica-of puts the daemon in
// replica mode (docs/ROBUSTNESS.md): writes are refused, derives answer
// from recorded history only, and a background applier polls the given
// primary for journal tails. --bootstrap-from seeds an empty --dir from a
// backup directory (recovery::RestoreBackup) before opening, which is how a
// new replica avoids replaying the primary's entire history over the wire.
//
// --trace enables span collection for the daemon's lifetime and writes the
// Chrome trace JSON to <file> during shutdown (docs/OBSERVABILITY.md).
//
// --checkpoint-bytes / --checkpoint-tasks arm the background checkpoint
// policy (docs/ROBUSTNESS.md): a checkpoint is taken once the live journals
// grow by N bytes, or N task records land, past the previous one. A poll
// thread evaluates the policy every --checkpoint-poll-ms (default 1000)
// whenever at least one threshold is set.
//
// Numeric flags are range-checked before anything opens or starts: a port
// must lie in 0-65535, --workers and --derive-threads in 1-1024, and the
// checkpoint and poll values must not be negative. Anything else (junk, a
// value outside int) prints the usage line and exits 2.
//
// SIGTERM / SIGINT shut down gracefully: the listener closes, admitted
// requests drain, journals are flushed, then the process exits 0.

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "recovery/backup.h"
#include "replication/applier.h"

namespace {

constexpr int kMaxThreads = 1024;  // ceiling for --workers, --derive-threads

struct Flags {
  std::string dir;
  std::string host = "127.0.0.1";
  int port = 4747;
  int workers = 4;
  int max_inflight = 128;
  int derive_threads = 4;
  gaea::DurabilityMode durability = gaea::DurabilityMode::kOs;
  std::string trace_file;  // empty = tracing off
  int checkpoint_bytes = 0;    // 0 = byte threshold off
  int checkpoint_tasks = 0;    // 0 = task threshold off
  int checkpoint_poll_ms = 1000;
  std::string port_file;       // empty = don't write
  bool replicated = false;
  std::string replica_of;      // "host:port"; empty = primary
  std::string replica_id;
  int replica_poll_ms = 50;
  std::string bootstrap_from;  // backup dir; empty = open --dir as-is
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir <db_dir> [--port N] [--host A.B.C.D] "
               "[--workers N] [--max-inflight N] [--derive-threads N] "
               "[--durability none|os|fsync] [--trace <file>] "
               "[--checkpoint-bytes N] [--checkpoint-tasks N] "
               "[--checkpoint-poll-ms N] [--port-file <file>] "
               "[--replicated] [--replica-of host:port] "
               "[--replica-id <name>] [--replica-poll-ms N] "
               "[--bootstrap-from <backup_dir>]\n"
               "  ports 0-65535; --workers, --derive-threads 1-%d; "
               "checkpoint and poll values >= 0\n",
               argv0, kMaxThreads);
  return 2;
}

// Parses a decimal integer in [lo, hi]; junk, overflow and values out of
// range are all refused.
bool ParseInt(const char* text, long lo, long hi, int* out) {
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value;
    if (arg == "--dir" && (value = next())) {
      flags.dir = value;
    } else if (arg == "--host" && (value = next())) {
      flags.host = value;
    } else if (arg == "--port" && (value = next()) &&
               ParseInt(value, 0, 65535, &flags.port)) {
    } else if (arg == "--workers" && (value = next()) &&
               ParseInt(value, 1, kMaxThreads, &flags.workers)) {
    } else if (arg == "--max-inflight" && (value = next()) &&
               ParseInt(value, INT_MIN, INT_MAX, &flags.max_inflight)) {
    } else if (arg == "--derive-threads" && (value = next()) &&
               ParseInt(value, 1, kMaxThreads, &flags.derive_threads)) {
    } else if (arg == "--durability" && (value = next())) {
      auto mode = gaea::ParseDurabilityMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "gaead: %s\n", mode.status().ToString().c_str());
        return 2;
      }
      flags.durability = *mode;
    } else if (arg == "--trace" && (value = next())) {
      flags.trace_file = value;
    } else if (arg == "--checkpoint-bytes" && (value = next()) &&
               ParseInt(value, 0, INT_MAX, &flags.checkpoint_bytes)) {
    } else if (arg == "--checkpoint-tasks" && (value = next()) &&
               ParseInt(value, 0, INT_MAX, &flags.checkpoint_tasks)) {
    } else if (arg == "--checkpoint-poll-ms" && (value = next()) &&
               ParseInt(value, 0, INT_MAX, &flags.checkpoint_poll_ms)) {
    } else if (arg == "--port-file" && (value = next())) {
      flags.port_file = value;
    } else if (arg == "--replicated") {
      flags.replicated = true;
    } else if (arg == "--replica-of" && (value = next())) {
      flags.replica_of = value;
    } else if (arg == "--replica-id" && (value = next())) {
      flags.replica_id = value;
    } else if (arg == "--replica-poll-ms" && (value = next()) &&
               ParseInt(value, 0, INT_MAX, &flags.replica_poll_ms)) {
    } else if (arg == "--bootstrap-from" && (value = next())) {
      flags.bootstrap_from = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.dir.empty()) return Usage(argv[0]);
  if (!flags.trace_file.empty()) gaea::obs::Tracer::Global().Enable(true);

  std::string primary_host;
  int primary_port = 0;
  if (!flags.replica_of.empty() &&
      !gaea::net::ParseHostPort(flags.replica_of, &primary_host,
                                 &primary_port)) {
    std::fprintf(stderr, "gaead: --replica-of wants host:port, got %s\n",
                 flags.replica_of.c_str());
    return 2;
  }

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask and delivery funnels into sigwait below.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  gaea::Env* env = gaea::Env::Default();
  if (!flags.bootstrap_from.empty() && !env->FileExists(flags.dir)) {
    auto restored =
        gaea::recovery::RestoreBackup(env, flags.bootstrap_from, flags.dir);
    if (!restored.ok()) {
      std::fprintf(stderr, "gaead: bootstrap from %s failed: %s\n",
                   flags.bootstrap_from.c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    std::printf("gaead: bootstrapped %s from backup %s\n", flags.dir.c_str(),
                flags.bootstrap_from.c_str());
  }

  gaea::GaeaKernel::Options kernel_options;
  kernel_options.dir = flags.dir;
  kernel_options.user = "gaead";
  kernel_options.durability = flags.durability;
  // Replicas always need the objects journal; a primary needs it as soon as
  // anything will ever subscribe to it.
  kernel_options.replicated = flags.replicated || !flags.replica_of.empty();
  auto kernel = gaea::GaeaKernel::Open(kernel_options);
  if (!kernel.ok()) {
    std::fprintf(stderr, "gaead: open %s failed: %s\n", flags.dir.c_str(),
                 kernel.status().ToString().c_str());
    return 1;
  }
  (*kernel)->SetClock(gaea::AbsTime::FromDate(1993, 8, 24).value());
  (*kernel)->SetDeriveThreads(flags.derive_threads);
  if (flags.checkpoint_bytes > 0 || flags.checkpoint_tasks > 0) {
    gaea::GaeaKernel::CheckpointPolicy policy;
    policy.journal_bytes = static_cast<uint64_t>(
        flags.checkpoint_bytes > 0 ? flags.checkpoint_bytes : 0);
    policy.tasks = static_cast<uint64_t>(
        flags.checkpoint_tasks > 0 ? flags.checkpoint_tasks : 0);
    (*kernel)->SetCheckpointPolicy(policy);
  }

  gaea::net::GaeaServer::Options server_options;
  server_options.host = flags.host;
  server_options.port = flags.port;
  server_options.workers = flags.workers;
  server_options.max_inflight = flags.max_inflight;
  if (flags.checkpoint_bytes > 0 || flags.checkpoint_tasks > 0) {
    server_options.checkpoint_poll_ms =
        flags.checkpoint_poll_ms > 0 ? flags.checkpoint_poll_ms : 1000;
  }
  server_options.replica = !flags.replica_of.empty();
  server_options.primary = flags.replica_of;
  gaea::net::GaeaServer server(kernel->get(), server_options);
  gaea::Status started = server.Start();
  if (!started.ok()) {
    if (started.message().find("bind") != std::string::npos) {
      std::fprintf(stderr,
                   "gaead: cannot listen on %s:%d: %s (is another gaead "
                   "running? try --port 0 for an ephemeral port)\n",
                   flags.host.c_str(), flags.port,
                   started.message().c_str());
    } else {
      std::fprintf(stderr, "gaead: %s\n", started.ToString().c_str());
    }
    return 1;
  }
  if (!flags.port_file.empty()) {
    std::ofstream out(flags.port_file);
    if (!out) {
      std::fprintf(stderr, "gaead: cannot write port file %s\n",
                   flags.port_file.c_str());
      server.Shutdown();
      return 1;
    }
    out << server.port() << "\n";
  }
  std::printf(
      "gaead listening on %s:%d (db %s, %d workers, %d in-flight, "
      "durability %s%s)\n",
      flags.host.c_str(), server.port(), flags.dir.c_str(),
      server_options.workers, server_options.max_inflight,
      gaea::DurabilityModeName(flags.durability),
      server_options.replica ? ", replica" : "");
  std::fflush(stdout);

  std::unique_ptr<gaea::replication::ReplicationApplier> applier;
  if (!flags.replica_of.empty()) {
    gaea::replication::ReplicationApplier::Options applier_options;
    applier_options.primary_host = primary_host;
    applier_options.primary_port = primary_port;
    applier_options.replica_id =
        !flags.replica_id.empty()
            ? flags.replica_id
            : "replica-" + std::to_string(server.port());
    applier_options.poll_ms = flags.replica_poll_ms;
    applier = std::make_unique<gaea::replication::ReplicationApplier>(
        kernel->get(), &server, applier_options);
    gaea::Status applying = applier->Start();
    if (!applying.ok()) {
      std::fprintf(stderr, "gaead: applier: %s\n",
                   applying.ToString().c_str());
      server.Shutdown();
      return 1;
    }
    std::printf("gaead: shipping from %s as %s every %d ms\n",
                flags.replica_of.c_str(),
                applier_options.replica_id.c_str(), flags.replica_poll_ms);
    std::fflush(stdout);
  }

  int signo = 0;
  sigwait(&mask, &signo);
  std::printf("gaead: signal %s, draining\n", strsignal(signo));
  std::fflush(stdout);
  // Applier first: no new history may land while the server drains.
  if (applier != nullptr) applier->Stop();
  server.Shutdown();
  if (!flags.trace_file.empty()) {
    std::ofstream out(flags.trace_file);
    if (out) {
      out << gaea::obs::Tracer::Global().DumpChromeJson();
      std::printf("gaead: wrote trace to %s\n", flags.trace_file.c_str());
    } else {
      std::fprintf(stderr, "gaead: cannot open trace file %s\n",
                   flags.trace_file.c_str());
    }
  }
  std::printf("gaead: stopped\n");
  return 0;
}
