// gaea_shell end to end: one script run in local mode on a fresh directory
// and in --connect mode against a GaeaServer on an ephemeral port must
// print the same lines, because both modes run every wire-backed verb
// through the shell's one command table. The shell binary's path is baked
// in as GAEA_SHELL_PATH.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "gaea/kernel.h"
#include "net/server.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

// A base class, a class derived from it, the process between them and a
// concept over the derived class, so the catalog carries no analyzer
// finding: local `ddl` would print one, the wire Ddl reply cannot.
constexpr char kSchema[] = R"(ddl <<END
CLASS smoke (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS smoke_copy (
  ATTRIBUTES:
    v = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: smoke-copy
)
DEFINE PROCESS smoke-copy
OUTPUT smoke_copy
ARGUMENT ( smoke src )
TEMPLATE {
  MAPPINGS:
    smoke_copy.v = src.v;
    smoke_copy.spatialextent = src.spatialextent;
    smoke_copy.timestamp = src.timestamp;
}
DEFINE CONCEPT copies
  DOC "copies of smoke readings"
  MEMBERS (smoke_copy)
END
)";

constexpr char kExtraClass[] = R"(CLASS smoke_note (
  ATTRIBUTES:
    note = text;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
)";

// Every verb a wire verb backs, with failing and malformed calls, then
// missing arguments and an unknown verb. (The leading newline is an empty
// line, which the shell skips.)
constexpr char kCommands[] = R"(
insert smoke v=7 spatialextent=box:0,0,1,1 timestamp=time:5
insert smoke v=8 spatialextent=box:1,1,2,2 timestamp=time:6
insert smoke v=oops
insert smoke
insert nowhere v=1
derive smoke-copy src=1
derive smoke-copy src=1
derive-batch smoke-copy src=1 ; smoke-copy src=2
derive smoke-copy src=99
lineage 3
provenance why 3
provenance ancestors 3 --json
provenance descendants 1
provenance why
lint
lint --json
stats
stats --json
metrics
profile
checkpoint
ping
lineage
derive
no-such-verb 1
quit
)";

// The rows no wire verb backs.
const char* const kLocalOnly[] = {
    "classes", "concepts", "processes", "history", "objects",
    "show", "select", "dot", "compare", "net",
    "can-derive", "tasks", "trace", "set-threads",
    "compare-concept", "checkpoint policy"};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

// Runs the shell binary with `args` and returns what it printed.
std::string RunShell(const std::vector<std::string>& args,
                     const std::string& out_path) {
  std::vector<std::string> argv = {GAEA_SHELL_PATH};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid == 0) {
    int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) _exit(126);
    ::execv(cargv[0], cargv.data());
    _exit(127);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  std::ifstream in(out_path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A kernel behind a GaeaServer on an ephemeral port, opened as the local
// shell opens its own.
class Server {
 public:
  explicit Server(const std::string& dir) {
    GaeaKernel::Options options;
    options.dir = dir;
    options.user = "shell";
    auto kernel = GaeaKernel::Open(options);
    EXPECT_OK(kernel.status());
    kernel_ = *std::move(kernel);
    kernel_->SetClock(AbsTime::FromDate(1993, 8, 24).value());
    server_ = std::make_unique<net::GaeaServer>(kernel_.get(),
                                                net::GaeaServer::Options{});
    EXPECT_OK(server_->Start());
  }
  ~Server() { server_->Shutdown(); }

  std::string target() const {
    return "127.0.0.1:" + std::to_string(server_->port());
  }

 private:
  std::unique_ptr<GaeaKernel> kernel_;
  std::unique_ptr<net::GaeaServer> server_;
};

// Masks what may differ between two correct runs: the checkpoint's byte
// and microsecond figures, gaead's "server" stats section, serving
// (gaead_*) metrics and `profile` verb rows, every timing histogram's
// counts, and the microsecond columns of `profile` rows.
std::string Normalize(const std::string& output) {
  static const std::regex checkpoint(
      R"(^checkpoint (\d+): \d+ bytes in \d+ us)");
  static const std::regex server_stats(R"("server":\{[^}]*\},)");
  static const std::regex timing(R"(^(gaea_\w*_micros\S*) \d+$)");
  static const std::regex profile_row(R"(^((?:process|op)/\S+ +\d+) .*$)");
  std::istringstream in(output);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.rfind("gaead_", 0) == 0 ||
        line.rfind("# TYPE gaead_", 0) == 0 || line.rfind("verb/", 0) == 0) {
      continue;
    }
    line = std::regex_replace(line, checkpoint,
                              "checkpoint $1: B bytes in T us");
    line = std::regex_replace(line, server_stats, "");
    line = std::regex_replace(line, timing, "$1 N");
    line = std::regex_replace(line, profile_row, "$1 US");
    out += line + "\n";
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ShellTest, LocalAndRemoteAnswerAlike) {
  TempDir scratch("shell_scripts");
  const std::string extra = scratch.file("extra.ddl");
  WriteFile(extra, kExtraClass);
  const std::string script = scratch.file("script");
  WriteFile(script,
            std::string(kSchema) + "ddl-file " + extra + "\n" + kCommands);

  TempDir local_dir("shell_local");
  std::string local =
      RunShell({local_dir.path(), script}, scratch.file("local.out"));
  TempDir remote_dir("shell_remote");
  Server server(remote_dir.path());
  std::string remote =
      RunShell({"--connect", server.target(), script},
               scratch.file("remote.out"));

  std::vector<std::string> want = Lines(Normalize(local));
  std::vector<std::string> got = Lines(Normalize(remote));
  ASSERT_EQ(want.size(), got.size()) << local << "\n----\n" << remote;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "line " << i + 1;
  }

  // Spot-check the answers themselves, so two equally wrong runs fail.
  for (const char* expected :
       {"OK\n", "smoke -> #1\n", "smoke -> #2\n", "smoke-copy -> #3\n",
        "smoke-copy -> #3 (cached)\n", "smoke-copy -> #4\n",
        "chain: smoke-copy:v1", "why oid 3: task #1 smoke-copy v1",
        "0 finding(s), 0 error(s)\n", "{\"diagnostics\":[]}\n",
        "\"classes\":3", "gaea_catalog_classes 3\n", "checkpoint 1: ",
        "usage: lineage <oid>\n", "usage: derive <process> arg=oid",
        "usage: provenance ancestors|descendants|why|where <oid>",
        "usage: insert <class> attr=", "unknown command: no-such-verb ("}) {
    EXPECT_NE(local.find(expected), std::string::npos) << expected << local;
  }
  EXPECT_NE(remote.find("{\"server\":{"), std::string::npos) << remote;

  // `profile`: two committed smoke-copy tasks (the cached derive and the
  // missing input commit none) in both modes. Only gaead times its verbs:
  // three Derive requests were answered, the failing one included.
  static const std::regex process_row(R"(\nprocess/smoke-copy +2 )");
  EXPECT_TRUE(std::regex_search(local, process_row)) << local;
  EXPECT_TRUE(std::regex_search(remote, process_row)) << remote;
  static const std::regex derive_verb_row(R"(\nverb/Derive +3 )");
  EXPECT_TRUE(std::regex_search(remote, derive_verb_row)) << remote;
  EXPECT_EQ(local.find("\nverb/"), std::string::npos) << local;
}

TEST(ShellTest, LocalOnlyRowsNameTheirModeRemotely) {
  TempDir scratch("shell_scripts");
  std::string script_text;
  for (const char* verb : kLocalOnly) script_text += std::string(verb) + "\n";
  const std::string script = scratch.file("script");
  WriteFile(script, script_text);
  TempDir remote_dir("shell_remote");
  Server server(remote_dir.path());
  std::vector<std::string> lines = Lines(RunShell(
      {"--connect", server.target(), script}, scratch.file("remote.out")));
  ASSERT_EQ(lines.size(), std::size(kLocalOnly));
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i],
              std::string(kLocalOnly[i]) + ": local mode only (no wire verb)");
  }
}

// A command missing its required argument prints its usage line instead
// of treating the argument as OID 0 or the empty name.
TEST(ShellTest, MissingArgumentsPrintUsage) {
  TempDir scratch("shell_scripts");
  const std::string script = scratch.file("script");
  WriteFile(script,
            "show\ndot\ncompare 1\nlineage\nhistory\ncan-derive\n"
            "compare-concept\nddl-file\nobjects\ncheckpoint policy 5\n");
  TempDir local_dir("shell_local");
  EXPECT_EQ(
      RunShell({local_dir.path(), script}, scratch.file("local.out")),
      "usage: show <oid>\n"
      "usage: dot <oid>\n"
      "usage: compare <oid> <oid>\n"
      "usage: lineage <oid>\n"
      "usage: history <process>\n"
      "usage: can-derive <class>\n"
      "usage: compare-concept <concept>\n"
      "usage: ddl-file <path>\n"
      "usage: objects <class>\n"
      "usage: checkpoint policy <journal_bytes> <tasks>\n");
}

// Local `ddl` prints the analyzer's warn-on-load findings before its
// status, as `ddl-file` does; the wire Ddl reply carries none.
TEST(ShellTest, LocalDdlPrintsWarnOnLoadFindings) {
  TempDir scratch("shell_scripts");
  std::string schema = kSchema;
  schema.erase(schema.find("DEFINE CONCEPT"),
               schema.find("END\n") - schema.find("DEFINE CONCEPT"));
  const std::string script = scratch.file("script");
  WriteFile(script, schema);
  TempDir local_dir("shell_local");
  std::vector<std::string> local =
      Lines(RunShell({local_dir.path(), script}, scratch.file("local.out")));
  ASSERT_EQ(local.size(), 2u);
  EXPECT_EQ(local[0].rfind("warning GA502 [process smoke-copy]", 0), 0u)
      << local[0];
  EXPECT_EQ(local[1], "OK");

  TempDir remote_dir("shell_remote");
  Server server(remote_dir.path());
  EXPECT_EQ(RunShell({"--connect", server.target(), script},
                     scratch.file("remote.out")),
            "OK\n");
}

}  // namespace
}  // namespace gaea
