// gaea_shell: an interactive (or scripted) command shell over a Gaea
// database — the textual stand-in for the paper's visual environment.
//
//   ./gaea_shell <db_dir> [script_file]
//   ./gaea_shell --connect <host:port> [script_file]
//
// The second form proxies commands through GaeaClient to a running gaead
// (docs/NET.md); remote sessions speak the RPC subset: ddl, ddl-file,
// insert, derive, derive-batch, lineage, stats [--json], ping, quit.
//
// Commands (one per line; '#' starts a comment):
//   ddl <<END ... END        multi-line DDL block
//   ddl-file <path>          execute a DDL script from a file
//   classes                  list classes
//   concepts                 list the concept hierarchy
//   processes                list processes (latest versions)
//   history <process>        all versions of a process
//   objects <class>          OIDs of a class
//   show <oid>               print one object
//   select <gql...>          run a GQL query (rest of line)
//   lineage <oid>            derivation chain + base sources
//   provenance ancestors|descendants|why|where <oid> [--json] [--depth N]
//   provenance diff <oid> <oid> [--json]
//                            indexed provenance queries (docs/PROVENANCE.md);
//                            also available remotely (replica-servable)
//   dot <oid>                Graphviz derivation diagram
//   compare <oid> <oid>      compare two derivations
//   net                      Graphviz of the class-derivation Petri net
//   can-derive <class>       Petri-net feasibility with current data
//   tasks                    list recorded tasks
//   derive-batch <process> arg=oid[,oid...] ... [; <process> ...]
//                            run derivations on the scheduler (cached)
//   set-threads <n>          worker threads for derive-batch / compounds
//   lint [--json]            run every static-analysis pass over the
//                            current catalog (incrementally cached); --json
//                            prints the machine-readable diagnostic list
//   stats [--json]           catalog, derivation-cache and buffer-pool stats
//                            (--json: machine-readable, for benches and CI)
//   metrics                  Prometheus text exposition of every instrument
//   checkpoint               take one fuzzy checkpoint now
//   checkpoint policy <bytes> <tasks>
//                            arm the background checkpoint policy (0 0
//                            disables; local mode only)
//   profile                  per-process / per-operator cumulative timings
//   trace on|off             enable / disable span collection
//   trace <file>             dump collected spans as Chrome trace JSON
//   quit
//
// Remote sessions additionally understand `metrics` (the kMetrics RPC),
// `lint [--json]` (the kLint RPC, analyzing the *server's* catalog),
// `checkpoint` (the kCheckpoint RPC, checkpointing the *server's* database)
// and `insert <class> attr=<value> ...` (the kInsertObject RPC; values are
// ints, box:x0,y0,x1,y1, time:<t>, or bare text). trace and profile read
// the *local* process and are local-mode only.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/sarif.h"
#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace gaea {
namespace {

void PrintStatus(const Status& status) {
  std::printf("%s\n", status.ToString().c_str());
}

// Shared by the local and remote `lint` commands.
void PrintDiagnostics(const std::vector<Diagnostic>& diags, bool json) {
  if (json) {
    std::printf("%s\n", DiagnosticsToJson(diags).c_str());
    return;
  }
  size_t errors = 0;
  for (const Diagnostic& d : diags) {
    std::printf("%s\n", d.ToString().c_str());
    if (d.severity == Severity::kError) ++errors;
  }
  std::printf("%zu finding(s), %zu error(s)\n", diags.size(), errors);
}

bool ParseDeriveRequests(std::istringstream& words,
                         std::vector<DeriveRequest>* requests);

// Parsed form of `provenance <subcommand> <oid> [<oid2>] [--json]
// [--depth N]`, shared by the local and remote shells.
struct ProvenanceArgs {
  net::ProvenanceRequest request;
  bool json = false;
};

bool ParseProvenanceArgs(std::istringstream& words, ProvenanceArgs* out) {
  net::ProvenanceRequest& request = out->request;
  std::string sub;
  words >> sub;
  sub = StrToLower(sub);
  using net::ProvenanceKind;
  if (sub == "ancestors") request.kind = ProvenanceKind::kAncestors;
  else if (sub == "descendants") request.kind = ProvenanceKind::kDescendants;
  else if (sub == "why") request.kind = ProvenanceKind::kWhy;
  else if (sub == "where") request.kind = ProvenanceKind::kWhere;
  else if (sub == "diff") request.kind = ProvenanceKind::kDiff;
  else return false;
  if (!(words >> request.oid)) return false;
  if (request.kind == ProvenanceKind::kDiff && !(words >> request.oid_b)) {
    return false;
  }
  std::string flag;
  while (words >> flag) {
    if (flag == "--json") {
      out->json = true;
    } else if (flag == "--depth") {
      if (!(words >> request.max_depth)) return false;
    } else {
      return false;
    }
  }
  return true;
}

// Shared by the local and remote `provenance` and `lineage` commands.
void PrintProvenance(const StatusOr<net::ProvenanceReply>& reply, bool json) {
  if (!reply.ok()) {
    PrintStatus(reply.status());
  } else if (json) {
    std::printf("%s\n", reply->json.c_str());
  } else {
    std::printf("%s", reply->text.c_str());
  }
}

// The request behind `lineage <oid>`: the process chain and base sources.
net::ProvenanceRequest ChainRequest(std::istringstream& words) {
  net::ProvenanceRequest request;
  request.kind = net::ProvenanceKind::kChain;
  words >> request.oid;
  return request;
}

void PrintProvenanceUsage() {
  std::printf(
      "usage: provenance ancestors|descendants|why|where <oid> [--json] "
      "[--depth N]\n       provenance diff <oid> <oid> [--json]\n");
}

class Shell {
 public:
  explicit Shell(GaeaKernel* kernel) : kernel_(kernel) {}

  // Returns false when the shell should exit.
  bool Execute(const std::string& raw, std::istream& in) {
    std::string_view line = StrTrim(raw);
    if (line.empty() || line[0] == '#') return true;
    std::istringstream words{std::string(line)};
    std::string cmd;
    words >> cmd;
    cmd = StrToLower(cmd);

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "ddl") return DdlBlock(words, in);
    if (cmd == "ddl-file") return DdlFile(words);
    if (cmd == "classes") return Classes();
    if (cmd == "concepts") return Concepts();
    if (cmd == "processes") return Processes();
    if (cmd == "history") return History(words);
    if (cmd == "objects") return Objects(words);
    if (cmd == "show") return Show(words);
    if (cmd == "select") return Select(std::string(line));
    if (cmd == "lineage") return Lineage(words);
    if (cmd == "provenance") return Provenance(words);
    if (cmd == "dot") return Dot(words);
    if (cmd == "compare") return Compare(words);
    if (cmd == "net") return Net();
    if (cmd == "can-derive") return CanDerive(words);
    if (cmd == "tasks") return Tasks();
    if (cmd == "lint") return Lint(words);
    if (cmd == "stats") return Stats(words);
    if (cmd == "metrics") return Metrics();
    if (cmd == "checkpoint") return Checkpoint(words);
    if (cmd == "profile") return Profile();
    if (cmd == "trace") return Trace(words);
    if (cmd == "derive-batch") return DeriveBatch(words);
    if (cmd == "set-threads") return SetThreads(words);
    if (cmd == "compare-concept") return CompareConcept(words);
    std::printf("unknown command: %s (try: classes, concepts, processes, "
                "select, lineage, tasks, quit)\n",
                cmd.c_str());
    return true;
  }

 private:
  bool DdlBlock(std::istringstream& words, std::istream& in) {
    std::string marker;
    words >> marker;
    if (marker.rfind("<<", 0) != 0) {
      std::printf("usage: ddl <<END ... END\n");
      return true;
    }
    std::string terminator = marker.substr(2);
    std::string source, line;
    while (std::getline(in, line) && StrTrim(line) != terminator) {
      source += line;
      source += '\n';
    }
    PrintStatus(kernel_->ExecuteDdl(source));
    return true;
  }

  bool DdlFile(std::istringstream& words) {
    std::string path;
    words >> path;
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return true;
    }
    std::string source((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    // Warn-on-load: the analyzer's findings are printed but never fail an
    // otherwise valid script (see docs/ANALYSIS.md).
    std::vector<Diagnostic> diags;
    Status status = kernel_->ExecuteDdl(source, &diags);
    for (const Diagnostic& d : diags) {
      std::printf("%s\n", d.ToString().c_str());
    }
    PrintStatus(status);
    return true;
  }

  bool Classes() {
    for (const ClassDef* def : kernel_->catalog().classes().List()) {
      std::printf("%s\n", def->ToDdl().c_str());
    }
    return true;
  }

  bool Concepts() {
    const ConceptRegistry& concepts = kernel_->catalog().concepts();
    for (const ConceptDef* def : concepts.List()) {
      std::printf("CONCEPT %s", def->name.c_str());
      for (ConceptId parent : concepts.Parents(def->id)) {
        std::printf(" ISA %s",
                    concepts.LookupById(parent).value()->name.c_str());
      }
      if (!def->member_classes.empty()) {
        std::printf("  members:");
        for (ClassId cid : def->member_classes) {
          auto cls = kernel_->catalog().classes().LookupById(cid);
          std::printf(" %s", cls.ok() ? (*cls)->name().c_str() : "?");
        }
      }
      std::printf("\n");
    }
    return true;
  }

  bool Processes() {
    for (const ProcessDef* def : kernel_->processes().ListLatest()) {
      std::printf("%s\n\n", def->ToDdl().c_str());
    }
    return true;
  }

  bool History(std::istringstream& words) {
    std::string name;
    words >> name;
    auto history = kernel_->processes().History(name);
    if (!history.ok()) {
      PrintStatus(history.status());
      return true;
    }
    for (const ProcessDef* def : *history) {
      std::printf("version %d: %zu args, %zu assertions, %zu mappings\n",
                  def->version(), def->args().size(), def->assertions().size(),
                  def->mappings().size());
    }
    return true;
  }

  bool Objects(std::istringstream& words) {
    std::string name;
    if (!(words >> name)) {
      std::printf("usage: objects <class>\n");
      return true;
    }
    auto cls = kernel_->catalog().classes().LookupByName(name);
    if (!cls.ok()) {
      PrintStatus(cls.status());
      return true;
    }
    auto oids = kernel_->catalog().ObjectsOfClass((*cls)->id());
    if (!oids.ok()) {
      PrintStatus(oids.status());
      return true;
    }
    for (Oid oid : *oids) {
      std::printf("#%llu ", static_cast<unsigned long long>(oid));
    }
    std::printf("(%zu objects)\n", oids->size());
    return true;
  }

  bool Show(std::istringstream& words) {
    Oid oid = 0;
    words >> oid;
    auto obj = kernel_->Get(oid);
    if (!obj.ok()) {
      PrintStatus(obj.status());
      return true;
    }
    auto cls = kernel_->catalog().classes().LookupById(obj->class_id());
    if (!cls.ok()) {
      PrintStatus(cls.status());
      return true;
    }
    std::printf("%s\n", obj->ToString(**cls).c_str());
    return true;
  }

  bool Select(const std::string& full_line) {
    auto result = kernel_->QueryText(full_line);
    if (!result.ok()) {
      PrintStatus(result.status());
      return true;
    }
    for (const ClassAnswer& answer : result->answers) {
      if (answer.oids.empty()) {
        std::printf("%s: no data\n", answer.class_name.c_str());
        for (const std::string& attempt : answer.attempts) {
          std::printf("    %s\n", attempt.c_str());
        }
        continue;
      }
      std::printf("%s via %s:", answer.class_name.c_str(),
                  QueryStepName(answer.method));
      for (Oid oid : answer.oids) {
        std::printf(" #%llu", static_cast<unsigned long long>(oid));
      }
      std::printf("\n");
    }
    if (result->answers.empty()) std::printf("(no data)\n");
    return true;
  }

  bool Lineage(std::istringstream& words) {
    PrintProvenance(net::AnswerProvenance(kernel_, ChainRequest(words)),
                    /*json=*/false);
    return true;
  }

  bool Provenance(std::istringstream& words) {
    ProvenanceArgs args;
    if (!ParseProvenanceArgs(words, &args)) {
      PrintProvenanceUsage();
      return true;
    }
    PrintProvenance(net::AnswerProvenance(kernel_, args.request), args.json);
    return true;
  }

  bool Dot(std::istringstream& words) {
    Oid oid = 0;
    words >> oid;
    auto dot = kernel_->ProvenanceDot(oid);
    if (!dot.ok()) {
      PrintStatus(dot.status());
      return true;
    }
    std::printf("%s", dot->c_str());
    return true;
  }

  bool Compare(std::istringstream& words) {
    Oid a = 0, b = 0;
    words >> a >> b;
    auto chain_a = kernel_->ProvenanceChain(a);
    auto chain_b = kernel_->ProvenanceChain(b);
    if (!chain_a.ok() || !chain_b.ok()) {
      PrintStatus(!chain_a.ok() ? chain_a.status() : chain_b.status());
      return true;
    }
    provenance::DerivationComparison cmp =
        provenance::Compare(*chain_a, *chain_b);
    std::printf("same procedure: %s\n%s\n",
                cmp.same_procedure ? "yes" : "no", cmp.explanation.c_str());
    return true;
  }

  bool Net() {
    auto net = kernel_->BuildDerivationNet();
    if (!net.ok()) {
      PrintStatus(net.status());
      return true;
    }
    std::printf("%s", net->ToDot(kernel_->catalog().classes()).c_str());
    return true;
  }

  bool CanDerive(std::istringstream& words) {
    std::string name;
    words >> name;
    auto can = kernel_->CanDerive(name);
    if (!can.ok()) {
      PrintStatus(can.status());
      return true;
    }
    std::printf("%s\n", *can ? "yes" : "no");
    return true;
  }

  bool Lint(std::istringstream& words) {
    std::string flag;
    words >> flag;
    PrintDiagnostics(kernel_->LintCatalog(), flag == "--json");
    return true;
  }

  bool Stats(std::istringstream& words) {
    std::string flag;
    words >> flag;
    if (flag == "--json") {
      // One JSON object per line, shaped like the gaead stats RPC minus the
      // "server" section — benches and CI assert on it without screen-
      // scraping the human format below.
      std::printf("{\"kernel\":%s}\n", kernel_->GetStats().ToJson().c_str());
      return true;
    }
    GaeaKernel::Stats stats = kernel_->GetStats();
    std::printf("classes %zu  concepts %zu  processes %zu (%zu versions)  "
                "objects %zu  tasks %zu  experiments %zu\n",
                stats.classes, stats.concepts, stats.processes,
                stats.process_versions, stats.objects, stats.tasks,
                stats.experiments);
    const DerivationCache::Stats& dc = stats.derivation_cache;
    std::printf("derivation cache: %zu/%zu entries  hits %llu  misses %llu  "
                "evictions %llu  invalidations %llu\n",
                dc.entries, dc.capacity,
                static_cast<unsigned long long>(dc.hits),
                static_cast<unsigned long long>(dc.misses),
                static_cast<unsigned long long>(dc.evictions),
                static_cast<unsigned long long>(dc.invalidations));
    PrintPool("heap pool", stats.heap_pool);
    PrintPool("index pool", stats.index_pool);
    return true;
  }

  bool Metrics() {
    std::printf("%s", kernel_->metrics().Render().c_str());
    return true;
  }

  bool Checkpoint(std::istringstream& words) {
    std::string sub;
    words >> sub;
    if (sub == "policy") {
      uint64_t bytes = 0, tasks = 0;
      if (!(words >> bytes >> tasks)) {
        std::printf("usage: checkpoint policy <journal_bytes> <tasks>\n");
        return true;
      }
      kernel_->SetCheckpointPolicy({bytes, tasks});
      std::printf("checkpoint policy: journal_bytes=%llu tasks=%llu\n",
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(tasks));
      return true;
    }
    if (!sub.empty()) {
      std::printf("usage: checkpoint | checkpoint policy <bytes> <tasks>\n");
      return true;
    }
    auto info = kernel_->Checkpoint();
    if (!info.ok()) {
      PrintStatus(info.status());
      return true;
    }
    std::printf("checkpoint %llu: %llu bytes in %llu us, %llu journal "
                "records archived\n",
                static_cast<unsigned long long>(info->seq),
                static_cast<unsigned long long>(info->snapshot_bytes),
                static_cast<unsigned long long>(info->duration_us),
                static_cast<unsigned long long>(info->truncated_records));
    return true;
  }

  bool Profile() {
    std::printf("%s", kernel_->profiler().Table().c_str());
    return true;
  }

  bool Trace(std::istringstream& words) {
    std::string arg;
    words >> arg;
    if (arg.empty()) {
      std::printf("usage: trace on|off | trace <file>\n");
      return true;
    }
    obs::Tracer& tracer = obs::Tracer::Global();
    if (arg == "on") {
      tracer.Enable(true);
      std::printf("tracing on\n");
      return true;
    }
    if (arg == "off") {
      tracer.Enable(false);
      std::printf("tracing off\n");
      return true;
    }
    std::ofstream out(arg);
    if (!out) {
      std::printf("cannot open %s\n", arg.c_str());
      return true;
    }
    out << tracer.DumpChromeJson();
    std::printf("wrote %zu spans to %s (open in chrome://tracing)\n",
                tracer.spans().size(), arg.c_str());
    return true;
  }

  void PrintPool(const char* name, const GaeaKernel::PoolStats& pool) {
    std::printf("%s: hits %llu  misses %llu  evictions %llu  shards",
                name, static_cast<unsigned long long>(pool.hits),
                static_cast<unsigned long long>(pool.misses),
                static_cast<unsigned long long>(pool.evictions));
    for (const BufferPool::ShardStats& shard : pool.per_shard) {
      std::printf(" [h%llu m%llu r%zu p%zu]",
                  static_cast<unsigned long long>(shard.hits),
                  static_cast<unsigned long long>(shard.misses),
                  shard.resident, shard.pinned);
    }
    std::printf("\n");
  }

  bool SetThreads(std::istringstream& words) {
    int threads = 0;
    if (!(words >> threads) || threads < 1) {
      std::printf("usage: set-threads <n>\n");
      return true;
    }
    kernel_->SetDeriveThreads(threads);
    std::printf("derive threads = %d\n", kernel_->derive_threads());
    return true;
  }

  bool DeriveBatch(std::istringstream& words) {
    std::vector<DeriveRequest> requests;
    if (!ParseDeriveRequests(words, &requests)) {
      std::printf(
          "usage: derive-batch <process> arg=oid[,oid...] ... [; <process> "
          "...]\n");
      return true;
    }
    auto outcomes = kernel_->DeriveBatch(requests);
    if (!outcomes.ok()) {
      PrintStatus(outcomes.status());
      return true;
    }
    for (size_t i = 0; i < outcomes->size(); ++i) {
      const DeriveOutcome& outcome = (*outcomes)[i];
      if (outcome.status.ok()) {
        std::printf("%s -> #%llu%s\n", requests[i].process.c_str(),
                    static_cast<unsigned long long>(outcome.oid),
                    outcome.cache_hit ? " (cached)" : "");
      } else {
        std::printf("%s -> %s\n", requests[i].process.c_str(),
                    outcome.status.ToString().c_str());
      }
    }
    return true;
  }

  bool CompareConcept(std::istringstream& words) {
    std::string name;
    words >> name;
    auto comparisons = kernel_->CompareConceptInstances(name);
    if (!comparisons.ok()) {
      PrintStatus(comparisons.status());
      return true;
    }
    for (const GaeaKernel::InstanceComparison& cmp : *comparisons) {
      std::printf("#%llu (%s) vs #%llu (%s): %s — %s\n",
                  static_cast<unsigned long long>(cmp.a), cmp.class_a.c_str(),
                  static_cast<unsigned long long>(cmp.b), cmp.class_b.c_str(),
                  cmp.same_procedure ? "same procedure" : "different",
                  cmp.explanation.c_str());
    }
    if (comparisons->empty()) std::printf("(fewer than two instances)\n");
    return true;
  }

  bool Tasks() {
    for (const Task& task : kernel_->tasks().tasks()) {
      std::printf("%s\n", task.ToString().c_str());
    }
    std::printf("(%zu tasks)\n", kernel_->tasks().size());
    return true;
  }

  GaeaKernel* kernel_;
};

// Parses "proc a=1,2 b=3 [; proc2 ...]" into DeriveRequests (shared by the
// local and remote derive commands). Returns false on malformed input.
bool ParseDeriveRequests(std::istringstream& words,
                         std::vector<DeriveRequest>* requests) {
  std::string token;
  while (words >> token) {
    if (token == ";") continue;  // next token names the next process
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      DeriveRequest request;
      request.process = token;
      requests->push_back(std::move(request));
      continue;
    }
    if (requests->empty()) return false;
    std::vector<Oid>& oids = requests->back().inputs[token.substr(0, eq)];
    for (const std::string& part : StrSplit(token.substr(eq + 1), ',')) {
      oids.push_back(std::strtoull(part.c_str(), nullptr, 10));
    }
  }
  return !requests->empty();
}

// Parses one attribute literal for the remote insert command:
// "box:x0,y0,x1,y1" and "time:<t>" are tagged forms, a run of digits (with
// optional sign) is an int, anything else is text.
StatusOr<Value> ParseAttrValue(const std::string& text) {
  if (text.rfind("box:", 0) == 0) {
    double c[4];
    if (std::sscanf(text.c_str() + 4, "%lf,%lf,%lf,%lf", &c[0], &c[1], &c[2],
                    &c[3]) != 4) {
      return Status::InvalidArgument("malformed box literal: " + text);
    }
    return Value::OfBox(Box(c[0], c[1], c[2], c[3]));
  }
  if (text.rfind("time:", 0) == 0) {
    return Value::Time(AbsTime(std::strtoll(text.c_str() + 5, nullptr, 10)));
  }
  char* end = nullptr;
  long long n = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() && *end == '\0') return Value::Int(n);
  return Value::String(text);
}

// The remote mode: the same line-oriented surface, proxied through
// GaeaClient to a gaead. Only the RPC subset is available; everything else
// names the commands that are.
class RemoteShell {
 public:
  explicit RemoteShell(net::GaeaClient* client) : client_(client) {}

  bool Execute(const std::string& raw, std::istream& in) {
    std::string_view line = StrTrim(raw);
    if (line.empty() || line[0] == '#') return true;
    std::istringstream words{std::string(line)};
    std::string cmd;
    words >> cmd;
    cmd = StrToLower(cmd);

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "ping") {
      PrintStatus(client_->Ping());
      return true;
    }
    if (cmd == "ddl") return DdlBlock(words, in);
    if (cmd == "ddl-file") return DdlFile(words);
    if (cmd == "insert") return Insert(words);
    if (cmd == "derive") return Derive(words);
    if (cmd == "derive-batch") return DeriveBatch(words);
    if (cmd == "lineage") return Lineage(words);
    if (cmd == "provenance") return Provenance(words);
    if (cmd == "stats") return Stats();
    if (cmd == "metrics") return Metrics();
    if (cmd == "lint") return Lint(words);
    if (cmd == "checkpoint") return Checkpoint();
    std::printf("unknown remote command: %s (remote commands: ddl, ddl-file, "
                "insert, derive, derive-batch, lineage, provenance, "
                "stats [--json], metrics, lint [--json], checkpoint, ping, "
                "quit)\n",
                cmd.c_str());
    return true;
  }

 private:
  bool DdlBlock(std::istringstream& words, std::istream& in) {
    std::string marker;
    words >> marker;
    if (marker.rfind("<<", 0) != 0) {
      std::printf("usage: ddl <<END ... END\n");
      return true;
    }
    std::string terminator = marker.substr(2);
    std::string source, line;
    while (std::getline(in, line) && StrTrim(line) != terminator) {
      source += line;
      source += '\n';
    }
    PrintStatus(client_->ExecuteDdl(source));
    return true;
  }

  bool DdlFile(std::istringstream& words) {
    std::string path;
    words >> path;
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return true;
    }
    std::string source((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    PrintStatus(client_->ExecuteDdl(source));
    return true;
  }

  bool Insert(std::istringstream& words) {
    net::InsertObjectRequest request;
    words >> request.class_name;
    bool parsed = !request.class_name.empty();
    std::string pair;
    while (parsed && words >> pair) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        parsed = false;
        break;
      }
      auto value = ParseAttrValue(pair.substr(eq + 1));
      if (!value.ok()) {
        PrintStatus(value.status());
        return true;
      }
      request.attrs.emplace_back(pair.substr(0, eq), *std::move(value));
    }
    if (!parsed || request.attrs.empty()) {
      std::printf(
          "usage: insert <class> attr=<int|box:x0,y0,x1,y1|time:t|text> "
          "...\n");
      return true;
    }
    auto oid = client_->InsertObject(request);
    if (!oid.ok()) {
      PrintStatus(oid.status());
      return true;
    }
    std::printf("%s -> #%llu\n", request.class_name.c_str(),
                static_cast<unsigned long long>(*oid));
    return true;
  }

  bool Derive(std::istringstream& words) {
    std::vector<DeriveRequest> requests;
    if (!ParseDeriveRequests(words, &requests) || requests.size() != 1) {
      std::printf("usage: derive <process> arg=oid[,oid...] ...\n");
      return true;
    }
    bool cache_hit = false;
    auto oid = client_->Derive(requests[0].process, requests[0].inputs,
                               requests[0].version, &cache_hit);
    if (!oid.ok()) {
      PrintStatus(oid.status());
      return true;
    }
    std::printf("%s -> #%llu%s\n", requests[0].process.c_str(),
                static_cast<unsigned long long>(*oid),
                cache_hit ? " (cached)" : "");
    return true;
  }

  bool DeriveBatch(std::istringstream& words) {
    std::vector<DeriveRequest> requests;
    if (!ParseDeriveRequests(words, &requests)) {
      std::printf(
          "usage: derive-batch <process> arg=oid[,oid...] ... [; <process> "
          "...]\n");
      return true;
    }
    auto outcomes = client_->DeriveBatch(requests);
    if (!outcomes.ok()) {
      PrintStatus(outcomes.status());
      return true;
    }
    for (size_t i = 0; i < outcomes->size(); ++i) {
      const DeriveOutcome& outcome = (*outcomes)[i];
      if (outcome.status.ok()) {
        std::printf("%s -> #%llu%s\n", requests[i].process.c_str(),
                    static_cast<unsigned long long>(outcome.oid),
                    outcome.cache_hit ? " (cached)" : "");
      } else {
        std::printf("%s -> %s\n", requests[i].process.c_str(),
                    outcome.status.ToString().c_str());
      }
    }
    return true;
  }

  bool Lineage(std::istringstream& words) {
    PrintProvenance(client_->Provenance(ChainRequest(words)), /*json=*/false);
    return true;
  }

  bool Provenance(std::istringstream& words) {
    ProvenanceArgs args;
    if (!ParseProvenanceArgs(words, &args)) {
      PrintProvenanceUsage();
      return true;
    }
    PrintProvenance(client_->Provenance(args.request), args.json);
    return true;
  }

  bool Stats() {
    // The server composes {"server":...,"kernel":...}; printed verbatim for
    // both `stats` and `stats --json` (the wire format is already JSON).
    auto json = client_->StatsJson();
    if (!json.ok()) {
      PrintStatus(json.status());
      return true;
    }
    std::printf("%s\n", json->c_str());
    return true;
  }

  bool Metrics() {
    auto text = client_->Metrics();
    if (!text.ok()) {
      PrintStatus(text.status());
      return true;
    }
    std::printf("%s", text->c_str());
    return true;
  }

  bool Lint(std::istringstream& words) {
    std::string flag;
    words >> flag;
    auto diags = client_->Lint();
    if (!diags.ok()) {
      PrintStatus(diags.status());
      return true;
    }
    PrintDiagnostics(*diags, flag == "--json");
    return true;
  }

  bool Checkpoint() {
    auto reply = client_->Checkpoint();
    if (!reply.ok()) {
      PrintStatus(reply.status());
      return true;
    }
    std::printf("checkpoint %llu: %llu bytes in %llu us, %llu journal "
                "records archived\n",
                static_cast<unsigned long long>(reply->seq),
                static_cast<unsigned long long>(reply->snapshot_bytes),
                static_cast<unsigned long long>(reply->duration_us),
                static_cast<unsigned long long>(reply->truncated_records));
    return true;
  }

  net::GaeaClient* client_;
};

// Shared REPL driver: reads lines from `in`, echoing a prompt when
// interactive, until the shell asks to stop.
template <typename AnyShell>
void RunLoop(AnyShell& shell, std::istream& in, bool interactive) {
  std::string line;
  if (interactive) std::printf("gaea> ");
  while (std::getline(in, line)) {
    if (!shell.Execute(line, in)) break;
    if (interactive) std::printf("gaea> ");
  }
}

}  // namespace
}  // namespace gaea

int main(int argc, char** argv) {
  // Extract --durability <mode> (local mode only) before the positional
  // arguments are interpreted.
  gaea::DurabilityMode durability = gaea::DurabilityMode::kOs;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--durability" && i + 1 < argc) {
      auto mode = gaea::ParseDurabilityMode(argv[++i]);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      durability = *mode;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s [--durability none|os|fsync] <db_dir> "
                 "[script_file]\n"
                 "       %s --connect <host:port> [script_file]\n",
                 argv[0], argv[0]);
    return 2;
  }

  bool remote = std::string(argv[1]) == "--connect";
  if (remote && argc < 3) {
    std::fprintf(stderr, "usage: %s --connect <host:port> [script_file]\n",
                 argv[0]);
    return 2;
  }
  int script_index = remote ? 3 : 2;
  std::ifstream script;
  bool interactive = argc <= script_index;
  if (!interactive) {
    script.open(argv[script_index]);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", argv[script_index]);
      return 1;
    }
  }
  std::istream& in = interactive ? std::cin : script;

  if (remote) {
    std::string target = argv[2];
    size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants host:port, got %s\n",
                   target.c_str());
      return 2;
    }
    std::string host = target.substr(0, colon);
    int port = std::atoi(target.c_str() + colon + 1);
    auto client = gaea::net::GaeaClient::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    gaea::RemoteShell shell(client->get());
    gaea::RunLoop(shell, in, interactive);
    return 0;
  }

  gaea::GaeaKernel::Options options;
  options.dir = argv[1];
  options.user = "shell";
  options.durability = durability;
  auto kernel = gaea::GaeaKernel::Open(options);
  if (!kernel.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 kernel.status().ToString().c_str());
    return 1;
  }
  (*kernel)->SetClock(gaea::AbsTime::FromDate(1993, 8, 24).value());
  gaea::Shell shell(kernel->get());
  gaea::RunLoop(shell, in, interactive);
  auto flush = (*kernel)->Flush();
  if (!flush.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flush.ToString().c_str());
    return 1;
  }
  return 0;
}
