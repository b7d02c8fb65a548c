// gaea_shell: an interactive (or scripted) command shell over a Gaea
// database — the textual stand-in for the paper's visual environment.
//
//   ./gaea_shell [--durability none|os|fsync] <db_dir> [script_file]
//   ./gaea_shell --connect <host:port> [script_file]
//
// The first form opens a GaeaKernel on <db_dir>; the second proxies through
// GaeaClient to a running gaead (docs/NET.md). One line is one command;
// '#' starts a comment; `quit` or `exit` ends the session.
//
// Every command is one row of kCommands below: its name, its usage line
// (printed when an argument is missing or malformed), whether it needs the
// local kernel, and its handler, written once against a Backend. A
// Backend's operations — ddl, insert, derive, derive-batch, lineage,
// provenance, metrics, lint, checkpoint, ping — run on the kernel in local
// mode and over the wire verb of the same name in --connect mode, and print
// the same text in both (`stats` and `profile` are views of `metrics`).
// The rows no wire verb backs (classes, concepts, processes, history,
// objects, show, select, dot, compare, net, can-derive, tasks, trace,
// set-threads, compare-concept, checkpoint policy) answer "<verb>: local
// mode only (no wire verb)" in --connect mode. An unknown command lists
// every row.
//
// Notes on single commands:
//   ddl <<END ... END and ddl-file <path> share one path. In local mode it
//     prints the analyzer's warn-on-load findings before the status line
//     (docs/ANALYSIS.md); the wire Ddl reply carries no findings, so in
//     --connect mode neither prints any — `lint` serves them in both modes.
//   stats and stats --json print one JSON document in both modes: the
//     metrics registry's samples (histogram buckets left out) as
//     "<series>":<value> members, so it is a view of `metrics`, as `profile`
//     is. gaead's adds the gaead_* serving members.
//   profile prints the registry's per-process, per-operator and (gaead
//     only) per-verb latency histograms as count, total, avg, p50 and p99
//     rows (docs/OBSERVABILITY.md).
//   insert values are ints, box:x0,y0,x1,y1, time:<t>, or bare text.
//   provenance queries are documented in docs/PROVENANCE.md.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/sarif.h"
#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace gaea {
namespace {

// The operations both modes offer: each calls the kernel in local mode and
// the wire verb of the same name in --connect mode.
struct Backend {
  GaeaKernel* kernel = nullptr;       // local mode
  net::GaeaClient* client = nullptr;  // --connect mode

  // The wire Ddl reply carries no analyzer findings; `findings` stays
  // empty in --connect mode.
  Status ExecuteDdl(const std::string& source,
                    std::vector<Diagnostic>* findings) {
    return kernel ? kernel->ExecuteDdl(source, findings)
                  : client->ExecuteDdl(source);
  }

  StatusOr<DeriveOutcome> Derive(const DeriveRequest& request) {
    DeriveOutcome outcome;
    if (!kernel) {
      GAEA_ASSIGN_OR_RETURN(
          outcome.oid, client->Derive(request.process, request.inputs,
                                      request.version, &outcome.cache_hit));
      return outcome;
    }
    // The Derive verb's own path: a batch of one, its status the answer.
    GAEA_ASSIGN_OR_RETURN(std::vector<DeriveOutcome> outcomes,
                          kernel->DeriveBatch({request}));
    GAEA_RETURN_IF_ERROR(outcomes[0].status);
    return outcomes[0];
  }

  StatusOr<std::vector<DeriveOutcome>> DeriveBatch(
      const std::vector<DeriveRequest>& requests) {
    return kernel ? kernel->DeriveBatch(requests)
                  : client->DeriveBatch(requests);
  }

  StatusOr<Oid> InsertObject(const net::InsertObjectRequest& request) {
    return kernel ? net::AnswerInsert(kernel, request)
                  : client->InsertObject(request);
  }

  StatusOr<net::ProvenanceReply> Provenance(
      const net::ProvenanceRequest& request) {
    return kernel ? net::AnswerProvenance(kernel, request)
                  : client->Provenance(request);
  }

  StatusOr<std::string> Metrics() {
    if (!kernel) return client->Metrics();
    return kernel->metrics().Render();
  }

  StatusOr<std::vector<Diagnostic>> Lint() {
    if (!kernel) return client->Lint();
    return kernel->LintCatalog();
  }

  StatusOr<net::CheckpointReply> Checkpoint() {
    if (!kernel) return client->Checkpoint();
    GAEA_ASSIGN_OR_RETURN(recovery::CheckpointInfo info, kernel->Checkpoint());
    return net::CheckpointReply{info.seq, info.duration_us,
                                info.snapshot_bytes, info.truncated_records};
  }

  Status Ping() { return kernel ? Status::OK() : client->Ping(); }
};

// What a handler sees besides its arguments.
struct Shell {
  Backend backend;
  std::istream* in = nullptr;  // the script: `ddl <<END` reads its body
  std::string line;            // the whole command line (`select`)

  // Only rows marked local_only call this; Execute refuses them remotely.
  GaeaKernel& kernel() { return *backend.kernel; }
};

using Words = std::istringstream;

// One shell verb. `run` returns false when an argument is missing or
// malformed, and Execute then prints the row's usage line.
struct Command {
  const char* name;
  const char* usage;
  bool local_only;  // no wire verb backs it
  bool (*run)(Shell& shell, Words& words);  // nullptr ends the session
};

void PrintStatus(const Status& status) {
  std::printf("%s\n", status.ToString().c_str());
}

// Prints the status of a call that failed. The command itself was well
// formed, so no usage line follows.
bool Failed(const Status& status) {
  PrintStatus(status);
  return true;
}

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

void PrintOutcome(const std::string& process, const DeriveOutcome& outcome) {
  if (outcome.status.ok()) {
    std::printf("%s -> #%llu%s\n", process.c_str(),
                static_cast<unsigned long long>(outcome.oid),
                outcome.cache_hit ? " (cached)" : "");
  } else {
    std::printf("%s -> %s\n", process.c_str(),
                outcome.status.ToString().c_str());
  }
}

// Parses "proc a=1,2 b=3 [; proc2 ...]" into DeriveRequests. Returns false
// on malformed input.
bool ParseDeriveRequests(Words& words, std::vector<DeriveRequest>* requests) {
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

// Parses one `insert` attribute literal: "box:x0,y0,x1,y1" and "time:<t>"
// are tagged forms, a run of digits (with optional sign) is an int,
// anything else is text.
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

// ---- commands every mode serves ----

// The one "run this DDL source" path behind `ddl` and `ddl-file`:
// warn-on-load findings (local mode only), then the status.
bool RunDdl(Shell& sh, const std::string& source) {
  std::vector<Diagnostic> findings;
  Status status = sh.backend.ExecuteDdl(source, &findings);
  for (const Diagnostic& d : findings) {
    std::printf("%s\n", d.ToString().c_str());
  }
  PrintStatus(status);
  return true;
}

bool Ddl(Shell& sh, Words& words) {
  std::string marker;
  if (!(words >> marker) || marker.rfind("<<", 0) != 0) return false;
  std::string terminator = marker.substr(2);
  std::string source, line;
  while (std::getline(*sh.in, line) && StrTrim(line) != terminator) {
    source += line;
    source += '\n';
  }
  return RunDdl(sh, source);
}

bool DdlFile(Shell& sh, Words& words) {
  std::string path;
  if (!(words >> path)) return false;
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path.c_str());
    return true;
  }
  return RunDdl(sh, std::string(std::istreambuf_iterator<char>(in), {}));
}

bool Insert(Shell& sh, Words& words) {
  net::InsertObjectRequest request;
  if (!(words >> request.class_name)) return false;
  std::string pair;
  while (words >> pair) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    auto value = ParseAttrValue(pair.substr(eq + 1));
    if (!value.ok()) return Failed(value.status());
    request.attrs.emplace_back(pair.substr(0, eq), *std::move(value));
  }
  if (request.attrs.empty()) return false;
  auto oid = sh.backend.InsertObject(request);
  if (!oid.ok()) return Failed(oid.status());
  std::printf("%s -> #%llu\n", request.class_name.c_str(),
              static_cast<unsigned long long>(*oid));
  return true;
}

bool Derive(Shell& sh, Words& words) {
  std::vector<DeriveRequest> requests;
  if (!ParseDeriveRequests(words, &requests) || requests.size() != 1) {
    return false;
  }
  auto outcome = sh.backend.Derive(requests[0]);
  if (!outcome.ok()) return Failed(outcome.status());
  PrintOutcome(requests[0].process, *outcome);
  return true;
}

bool DeriveBatch(Shell& sh, Words& words) {
  std::vector<DeriveRequest> requests;
  if (!ParseDeriveRequests(words, &requests)) return false;
  auto outcomes = sh.backend.DeriveBatch(requests);
  if (!outcomes.ok()) return Failed(outcomes.status());
  for (size_t i = 0; i < outcomes->size(); ++i) {
    PrintOutcome(requests[i].process, (*outcomes)[i]);
  }
  return true;
}

bool PrintProvenance(Shell& sh, const net::ProvenanceRequest& request,
                     bool json) {
  auto reply = sh.backend.Provenance(request);
  if (!reply.ok()) return Failed(reply.status());
  if (json) {
    std::printf("%s\n", reply->json.c_str());
  } else {
    std::printf("%s", reply->text.c_str());
  }
  return true;
}

// The process chain and base sources of one object.
bool Lineage(Shell& sh, Words& words) {
  net::ProvenanceRequest request;
  request.kind = net::ProvenanceKind::kChain;
  if (!(words >> request.oid)) return false;
  return PrintProvenance(sh, request, /*json=*/false);
}

bool Provenance(Shell& sh, Words& words) {
  net::ProvenanceRequest request;
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
  bool json = false;
  std::string flag;
  while (words >> flag) {
    if (flag == "--json") {
      json = true;
    } else if (flag != "--depth" || !(words >> request.max_depth)) {
      return false;
    }
  }
  return PrintProvenance(sh, request, json);
}

// `stats` and `stats --json` are one document, the JSON view of `metrics`
// (every sample but the histogram buckets), so it reads the same in both
// modes; only gaead has gaead_* members.
bool Stats(Shell& sh, Words&) {
  auto text = sh.backend.Metrics();
  if (!text.ok()) return Failed(text.status());
  std::printf("%s\n", obs::ExpositionToJson(*text).c_str());
  return true;
}

bool Metrics(Shell& sh, Words&) {
  auto text = sh.backend.Metrics();
  if (!text.ok()) return Failed(text.status());
  std::printf("%s", text->c_str());
  return true;
}

bool Lint(Shell& sh, Words& words) {
  std::string flag;
  words >> flag;
  auto diags = sh.backend.Lint();
  if (!diags.ok()) return Failed(diags.status());
  PrintDiagnostics(*diags, flag == "--json");
  return true;
}

bool Checkpoint(Shell& sh, Words& words) {
  std::string extra;
  if (words >> extra) return false;
  auto reply = sh.backend.Checkpoint();
  if (!reply.ok()) return Failed(reply.status());
  std::printf("checkpoint %llu: %llu bytes in %llu us, %llu journal "
              "records archived\n",
              static_cast<unsigned long long>(reply->seq),
              static_cast<unsigned long long>(reply->snapshot_bytes),
              static_cast<unsigned long long>(reply->duration_us),
              static_cast<unsigned long long>(reply->truncated_records));
  return true;
}

bool Ping(Shell& sh, Words&) {
  PrintStatus(sh.backend.Ping());
  return true;
}

// ---- commands that need the local kernel ----

bool Classes(Shell& sh, Words&) {
  for (const ClassDef* def : sh.kernel().catalog().classes().List()) {
    std::printf("%s\n", def->ToDdl().c_str());
  }
  return true;
}

bool Concepts(Shell& sh, Words&) {
  const Catalog& catalog = sh.kernel().catalog();
  const ConceptRegistry& concepts = catalog.concepts();
  for (const ConceptDef* def : concepts.List()) {
    std::printf("CONCEPT %s", def->name.c_str());
    for (ConceptId parent : concepts.Parents(def->id)) {
      std::printf(" ISA %s",
                  concepts.LookupById(parent).value()->name.c_str());
    }
    if (!def->member_classes.empty()) {
      std::printf("  members:");
      for (ClassId cid : def->member_classes) {
        auto cls = catalog.classes().LookupById(cid);
        std::printf(" %s", cls.ok() ? (*cls)->name().c_str() : "?");
      }
    }
    std::printf("\n");
  }
  return true;
}

bool Processes(Shell& sh, Words&) {
  for (const ProcessDef* def : sh.kernel().processes().ListLatest()) {
    std::printf("%s\n\n", def->ToDdl().c_str());
  }
  return true;
}

bool History(Shell& sh, Words& words) {
  std::string name;
  if (!(words >> name)) return false;
  auto history = sh.kernel().processes().History(name);
  if (!history.ok()) return Failed(history.status());
  for (const ProcessDef* def : *history) {
    std::printf("version %d: %zu args, %zu assertions, %zu mappings\n",
                def->version(), def->args().size(), def->assertions().size(),
                def->mappings().size());
  }
  return true;
}

bool Objects(Shell& sh, Words& words) {
  std::string name;
  if (!(words >> name)) return false;
  const Catalog& catalog = sh.kernel().catalog();
  auto cls = catalog.classes().LookupByName(name);
  if (!cls.ok()) return Failed(cls.status());
  auto oids = catalog.ObjectsOfClass((*cls)->id());
  if (!oids.ok()) return Failed(oids.status());
  for (Oid oid : *oids) {
    std::printf("#%llu ", static_cast<unsigned long long>(oid));
  }
  std::printf("(%zu objects)\n", oids->size());
  return true;
}

bool Show(Shell& sh, Words& words) {
  Oid oid = 0;
  if (!(words >> oid)) return false;
  auto obj = sh.kernel().Get(oid);
  if (!obj.ok()) return Failed(obj.status());
  auto cls = sh.kernel().catalog().classes().LookupById(obj->class_id());
  if (!cls.ok()) return Failed(cls.status());
  std::printf("%s\n", obj->ToString(**cls).c_str());
  return true;
}

bool Select(Shell& sh, Words& words) {
  std::string first;
  if (!(words >> first)) return false;
  auto result = sh.kernel().QueryText(sh.line);
  if (!result.ok()) return Failed(result.status());
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

bool Dot(Shell& sh, Words& words) {
  Oid oid = 0;
  if (!(words >> oid)) return false;
  auto dot = sh.kernel().ProvenanceDot(oid);
  if (!dot.ok()) return Failed(dot.status());
  std::printf("%s", dot->c_str());
  return true;
}

bool Compare(Shell& sh, Words& words) {
  Oid a = 0, b = 0;
  if (!(words >> a >> b)) return false;
  auto chain_a = sh.kernel().ProvenanceChain(a);
  if (!chain_a.ok()) return Failed(chain_a.status());
  auto chain_b = sh.kernel().ProvenanceChain(b);
  if (!chain_b.ok()) return Failed(chain_b.status());
  provenance::DerivationComparison cmp =
      provenance::Compare(*chain_a, *chain_b);
  std::printf("same procedure: %s\n%s\n", cmp.same_procedure ? "yes" : "no",
              cmp.explanation.c_str());
  return true;
}

bool Net(Shell& sh, Words&) {
  auto net = sh.kernel().BuildDerivationNet();
  if (!net.ok()) return Failed(net.status());
  std::printf("%s", net->ToDot(sh.kernel().catalog().classes()).c_str());
  return true;
}

bool CanDerive(Shell& sh, Words& words) {
  std::string name;
  if (!(words >> name)) return false;
  auto can = sh.kernel().CanDerive(name);
  if (!can.ok()) return Failed(can.status());
  std::printf("%s\n", *can ? "yes" : "no");
  return true;
}

bool Tasks(Shell& sh, Words&) {
  for (const Task& task : sh.kernel().tasks().tasks()) {
    std::printf("%s\n", task.ToString().c_str());
  }
  std::printf("(%zu tasks)\n", sh.kernel().tasks().size());
  return true;
}

// One `profile` row: a series of one of the registry's timing families,
// rebuilt from its Prometheus text.
struct ProfileRow {
  std::string name;  // <label>/<value>: process/..., op/... or verb/...
  std::vector<std::pair<std::string, uint64_t>> buckets;  // le, cumulative
  uint64_t sum = 0;
  uint64_t count = 0;

  // The upper bound of the first bucket holding rank ceil(pct% of count).
  std::string Quantile(uint64_t pct) const {
    uint64_t rank = (count * pct + 99) / 100;
    for (const auto& [le, cumulative] : buckets) {
      if (cumulative >= rank) return le;
    }
    return "+Inf";
  }
};

// A view of the metrics registry (local Render or the Metrics verb), so it
// reads the same in both modes; only gaead has verb rows.
bool Profile(Shell& sh, Words&) {
  static constexpr std::pair<const char*, const char*> kFamilies[] = {
      {"gaea_derive_latency_micros", "process"},
      {"gaea_operator_micros", "op"},
      {"gaead_request_latency_micros", "verb"}};
  auto text = sh.backend.Metrics();
  if (!text.ok()) return Failed(text.status());
  std::vector<ProfileRow> rows;  // in Render order: family, then name
  std::istringstream in(*text);
  for (std::string line; std::getline(in, line);) {
    size_t brace = line.find('{');
    size_t close = line.find("} ");
    if (brace == std::string::npos || close == std::string::npos) continue;
    const std::string series = line.substr(0, brace);
    for (const auto& [family, label] : kFamilies) {
      std::string key = std::string(label) + "=\"";
      if (!StrStartsWith(series, family) ||
          line.compare(brace + 1, key.size(), key) != 0) {
        continue;
      }
      const std::string suffix = series.substr(std::strlen(family));
      size_t begin = brace + 1 + key.size();
      size_t end = line.find('"', begin);
      std::string name =
          std::string(label) + "/" + line.substr(begin, end - begin);
      if (rows.empty() || rows.back().name != name) {
        rows.emplace_back().name = name;
      }
      ProfileRow& row = rows.back();
      uint64_t value = std::strtoull(line.c_str() + close + 2, nullptr, 10);
      if (suffix == "_bucket") {
        size_t le = line.find("le=\"", end) + 4;
        row.buckets.emplace_back(line.substr(le, line.find('"', le) - le),
                                 value);
      } else if (suffix == "_sum") {
        row.sum = value;
      } else if (suffix == "_count") {
        row.count = value;
      }
    }
  }
  std::printf("%-32s %8s %12s %10s %10s %10s  (p50/p99: upper bound of the "
              "power-of-two bucket holding that rank)\n",
              "name", "count", "total_us", "avg_us", "p50_us", "p99_us");
  for (const ProfileRow& row : rows) {
    if (row.count == 0) continue;
    std::printf("%-32s %8llu %12llu %10llu %10s %10s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.sum),
                static_cast<unsigned long long>(row.sum / row.count),
                row.Quantile(50).c_str(), row.Quantile(99).c_str());
  }
  return true;
}

bool Trace(Shell&, Words& words) {
  std::string arg;
  if (!(words >> arg)) return false;
  obs::Tracer& tracer = obs::Tracer::Global();
  if (arg == "on" || arg == "off") {
    tracer.Enable(arg == "on");
    std::printf("tracing %s\n", arg.c_str());
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

bool SetThreads(Shell& sh, Words& words) {
  int threads = 0;
  if (!(words >> threads) || threads < 1) return false;
  sh.kernel().SetDeriveThreads(threads);
  std::printf("derive threads = %d\n", sh.kernel().derive_threads());
  return true;
}

bool CompareConcept(Shell& sh, Words& words) {
  std::string name;
  if (!(words >> name)) return false;
  auto comparisons = sh.kernel().CompareConceptInstances(name);
  if (!comparisons.ok()) return Failed(comparisons.status());
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

// Arms the background checkpoint policy; "0 0" disables it.
bool CheckpointPolicy(Shell& sh, Words& words) {
  uint64_t bytes = 0, tasks = 0;
  if (!(words >> bytes >> tasks)) return false;
  sh.kernel().SetCheckpointPolicy({bytes, tasks});
  std::printf("checkpoint policy: journal_bytes=%llu tasks=%llu\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(tasks));
  return true;
}

constexpr bool kAnyMode = false;
constexpr bool kLocalOnly = true;

constexpr Command kCommands[] = {
    {"ddl", "ddl <<END ... END", kAnyMode, Ddl},
    {"ddl-file", "ddl-file <path>", kAnyMode, DdlFile},
    {"insert", "insert <class> attr=<int|box:x0,y0,x1,y1|time:t|text> ...",
     kAnyMode, Insert},
    {"derive", "derive <process> arg=oid[,oid...] ...", kAnyMode, Derive},
    {"derive-batch",
     "derive-batch <process> arg=oid[,oid...] ... [; <process> ...]", kAnyMode,
     DeriveBatch},
    {"lineage", "lineage <oid>", kAnyMode, Lineage},
    {"provenance",
     "provenance ancestors|descendants|why|where <oid> [--json] [--depth N]\n"
     "       provenance diff <oid> <oid> [--json]",
     kAnyMode, Provenance},
    {"stats", "stats [--json]", kAnyMode, Stats},
    {"metrics", "metrics", kAnyMode, Metrics},
    {"profile", "profile", kAnyMode, Profile},
    {"lint", "lint [--json]", kAnyMode, Lint},
    {"checkpoint", "checkpoint", kAnyMode, Checkpoint},
    {"ping", "ping", kAnyMode, Ping},
    {"classes", "classes", kLocalOnly, Classes},
    {"concepts", "concepts", kLocalOnly, Concepts},
    {"processes", "processes", kLocalOnly, Processes},
    {"history", "history <process>", kLocalOnly, History},
    {"objects", "objects <class>", kLocalOnly, Objects},
    {"show", "show <oid>", kLocalOnly, Show},
    {"select", "select <gql...>", kLocalOnly, Select},
    {"dot", "dot <oid>", kLocalOnly, Dot},
    {"compare", "compare <oid> <oid>", kLocalOnly, Compare},
    {"net", "net", kLocalOnly, Net},
    {"can-derive", "can-derive <class>", kLocalOnly, CanDerive},
    {"tasks", "tasks", kLocalOnly, Tasks},
    {"trace", "trace on|off | trace <file>", kLocalOnly, Trace},
    {"set-threads", "set-threads <n>", kLocalOnly, SetThreads},
    {"compare-concept", "compare-concept <concept>", kLocalOnly,
     CompareConcept},
    {"checkpoint policy", "checkpoint policy <journal_bytes> <tasks>",
     kLocalOnly, CheckpointPolicy},
    {"quit", "quit", kAnyMode, nullptr},
    {"exit", "exit", kAnyMode, nullptr},
};

// The row `lower_line` names: the longest row name that is a whole-word
// prefix of it, so "checkpoint policy 0 0" finds its own row and not
// "checkpoint".
const Command* FindCommand(const std::string& lower_line) {
  const Command* found = nullptr;
  for (const Command& cmd : kCommands) {
    size_t n = std::strlen(cmd.name);
    if (lower_line.compare(0, n, cmd.name) == 0 &&
        (lower_line.size() == n ||
         std::isspace(static_cast<unsigned char>(lower_line[n]))) &&
        (found == nullptr || n > std::strlen(found->name))) {
      found = &cmd;
    }
  }
  return found;
}

// Runs one command line. Returns false when the shell should exit.
bool Execute(Shell& sh, const std::string& raw) {
  std::string_view line = StrTrim(raw);
  if (line.empty() || line[0] == '#') return true;
  std::string lower = StrToLower(std::string(line));
  const Command* cmd = FindCommand(lower);
  if (cmd == nullptr) {
    std::string names;
    for (const Command& row : kCommands) {
      names += names.empty() ? "" : ", ";
      names += row.name;
    }
    std::printf("unknown command: %s (commands: %s)\n",
                lower.substr(0, lower.find_first_of(" \t")).c_str(),
                names.c_str());
    return true;
  }
  if (cmd->run == nullptr) return false;
  if (cmd->local_only && sh.backend.kernel == nullptr) {
    std::printf("%s: local mode only (no wire verb)\n", cmd->name);
    return true;
  }
  sh.line = std::string(line);
  Words words(sh.line.substr(std::strlen(cmd->name)));
  if (!cmd->run(sh, words)) std::printf("usage: %s\n", cmd->usage);
  return true;
}

// Reads lines from `in`, echoing a prompt when interactive, until a command
// asks to stop.
void RunLoop(Shell& sh, bool interactive) {
  std::string line;
  if (interactive) std::printf("gaea> ");
  while (std::getline(*sh.in, line)) {
    if (!Execute(sh, line)) break;
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
  gaea::Shell shell;
  shell.in = interactive ? &std::cin : &script;

  if (remote) {
    std::string host;
    int port = 0;
    if (!gaea::net::ParseHostPort(argv[2], &host, &port)) {
      std::fprintf(stderr,
                   "--connect wants host:port with a port in 1-65535, got "
                   "%s\n",
                   argv[2]);
      return 2;
    }
    auto client = gaea::net::GaeaClient::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    shell.backend.client = client->get();
    gaea::RunLoop(shell, interactive);
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
  shell.backend.kernel = kernel->get();
  gaea::RunLoop(shell, interactive);
  auto flush = (*kernel)->Flush();
  if (!flush.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flush.ToString().c_str());
    return 1;
  }
  return 0;
}
