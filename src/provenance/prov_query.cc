#include "provenance/prov_query.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "core/expr.h"
#include "core/process.h"
#include "replication/shipper.h"

namespace gaea {
namespace provenance {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

std::string JsonWitnesses(
    const std::vector<std::pair<std::string, std::vector<Oid>>>& witnesses) {
  std::string out = "{";
  for (size_t i = 0; i < witnesses.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(witnesses[i].first) + "\":" +
           JsonArray(witnesses[i].second);
  }
  out += '}';
  return out;
}

// Argument names a mapping expression reads, first-use order, deduplicated.
void CollectArgs(const Expr& expr, std::vector<std::string>* args) {
  if (expr.kind() == Expr::Kind::kAttrRef ||
      expr.kind() == Expr::Kind::kCard) {
    if (std::find(args->begin(), args->end(), expr.name()) == args->end()) {
      args->push_back(expr.name());
    }
  }
  for (const ExprPtr& child : expr.children()) CollectArgs(*child, args);
}

}  // namespace

// ---------------------------------------------------------------------------
// DbTaskSource
// ---------------------------------------------------------------------------

StatusOr<Task> DbTaskSource::Fetch(TaskId id) const {
  if (id == kInvalidTaskId) {
    return Status::NotFound("invalid task id");
  }
  if (prefer_resident_) {
    StatusOr<const Task*> resident = log_->Get(id);
    if (resident.ok()) return **resident;
    if (resident.status().code() != StatusCode::kNotFound) {
      return resident.status();
    }
  }
  // A task's journal LSN is its id - 1. Read the live journal; when a
  // checkpoint's TruncatePrefix already moved that prefix out, fall through
  // to the archive-segment chain — provenance must reach records the live
  // tail no longer holds. An in-memory log has neither.
  const Journal* journal = log_->journal();
  if (journal == nullptr) {
    return Status::NotFound("no task with id " + std::to_string(id));
  }
  std::vector<std::string> records;
  uint64_t next = 0;
  Status live = journal->ReadRange(id - 1, /*max_records=*/1,
                                   /*max_bytes=*/1u << 20, &records, &next);
  if (live.code() == StatusCode::kOutOfRange) {
    archive_fetches_.fetch_add(1, std::memory_order_acq_rel);
    GAEA_RETURN_IF_ERROR(replication::ReadFromArchives(
        env_, db_dir_, "tasks", id - 1, /*max_records=*/1,
        /*max_bytes=*/1u << 20, &records, &next));
  } else {
    GAEA_RETURN_IF_ERROR(live);
  }
  if (records.empty()) {
    return Status::NotFound("no task with id " + std::to_string(id));
  }
  BinaryReader r(records[0]);
  GAEA_ASSIGN_OR_RETURN(Task task, Task::Deserialize(&r));
  if (task.id != id) {
    return Status::Corruption("task journal LSN " + std::to_string(id - 1) +
                              " holds task id " + std::to_string(task.id));
  }
  return task;
}

// ---------------------------------------------------------------------------
// ProvenanceEngine
// ---------------------------------------------------------------------------

StatusOr<TaskId> ProvenanceEngine::ProducerIdOf(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(std::vector<TaskId> producers,
                        index_->TasksByOutput(oid));
  uint64_t max_id = source_->MaxTaskId();
  for (TaskId id : producers) {
    // Skip entries of an index ahead of a crash-shortened log.
    if (id != kInvalidTaskId && id <= max_id) return id;
  }
  return kInvalidTaskId;
}

StatusOr<Task> ProvenanceEngine::ProducerOf(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(TaskId id, ProducerIdOf(oid));
  if (id == kInvalidTaskId) {
    return Status::NotFound("object " + std::to_string(oid) +
                            " has no producing task (base data)");
  }
  return source_->Fetch(id);
}

StatusOr<ClosureResult> ProvenanceEngine::Closure(Oid root, bool ancestors,
                                                  const Limits& limits) const {
  ClosureResult result;
  result.root = root;
  result.ancestors = ancestors;
  std::set<Oid> seen_oids;
  std::set<TaskId> seen_tasks;
  // BFS over (oid, task-depth). The visited sets are the cycle guard: a
  // well-formed log is acyclic (a task's inputs precede its outputs), but
  // the walk must terminate even over a damaged index.
  std::deque<std::pair<Oid, int>> frontier;
  frontier.emplace_back(root, 0);
  seen_oids.insert(root);
  uint64_t max_id = source_->MaxTaskId();
  size_t visits = 0;
  while (!frontier.empty()) {
    auto [oid, depth] = frontier.front();
    frontier.pop_front();
    if (limits.max_depth > 0 && depth >= limits.max_depth) {
      result.truncated = true;
      continue;
    }
    if (++visits > limits.max_visits) {
      result.truncated = true;
      break;
    }
    GAEA_ASSIGN_OR_RETURN(std::vector<TaskId> task_ids,
                          ancestors ? index_->TasksByOutput(oid)
                                    : index_->TasksByInput(oid));
    ++result.index_lookups;
    for (TaskId id : task_ids) {
      if (id == kInvalidTaskId || id > max_id) continue;
      if (!seen_tasks.insert(id).second) continue;
      GAEA_ASSIGN_OR_RETURN(Task task, source_->Fetch(id));
      result.depth = std::max(result.depth, depth + 1);
      const std::vector<Oid> next_oids =
          ancestors ? task.AllInputs() : task.outputs;
      for (Oid next : next_oids) {
        if (seen_oids.insert(next).second) {
          frontier.emplace_back(next, depth + 1);
        }
      }
    }
  }
  seen_oids.erase(root);
  result.oids.assign(seen_oids.begin(), seen_oids.end());
  result.tasks.assign(seen_tasks.begin(), seen_tasks.end());
  return result;
}

StatusOr<ClosureResult> ProvenanceEngine::Ancestors(
    Oid oid, const Limits& limits) const {
  return Closure(oid, /*ancestors=*/true, limits);
}

StatusOr<ClosureResult> ProvenanceEngine::Descendants(
    Oid oid, const Limits& limits) const {
  return Closure(oid, /*ancestors=*/false, limits);
}

StatusOr<WhyResult> ProvenanceEngine::Why(Oid oid) const {
  WhyResult result;
  result.output = oid;
  GAEA_ASSIGN_OR_RETURN(Task task, ProducerOf(oid));
  result.task = task.id;
  result.process = task.process_name;
  result.version = task.process_version;
  for (const auto& [arg, oids] : task.inputs) {
    result.witnesses.emplace_back(arg, oids);
  }
  // The base witness: every underived object the output transitively rests
  // on — the part of the witness that survives any amount of re-derivation.
  GAEA_ASSIGN_OR_RETURN(ClosureResult closure, Ancestors(oid));
  for (Oid ancestor : closure.oids) {
    GAEA_ASSIGN_OR_RETURN(TaskId producer, ProducerIdOf(ancestor));
    if (producer == kInvalidTaskId) result.base_witnesses.push_back(ancestor);
  }
  return result;
}

StatusOr<WhereResult> ProvenanceEngine::Where(Oid oid) const {
  WhereResult result;
  result.output = oid;
  GAEA_ASSIGN_OR_RETURN(Task task, ProducerOf(oid));
  result.task = task.id;
  result.process = task.process_name;
  result.version = task.process_version;
  if (task.process_version < 1) {
    // External procedures (v-1) and interpolation (v0) carry no MAPPINGS;
    // where-provenance degrades to the whole witness per output.
    result.note = task.process_version == 0
                      ? "interpolation task: no mapping template"
                      : "external procedure: no mapping template";
    return result;
  }
  if (processes_ == nullptr) {
    return Status::FailedPrecondition(
        "where-provenance needs a process registry");
  }
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* def,
                        processes_->Version(task.process_name,
                                            task.process_version));
  for (const ProcessMapping& mapping : def->mappings()) {
    WhereEntry entry;
    entry.attr = mapping.attr;
    entry.mapping = mapping.expr->ToString();
    std::vector<std::string> args;
    CollectArgs(*mapping.expr, &args);
    for (const std::string& arg : args) {
      auto it = task.inputs.find(arg);
      if (it == task.inputs.end()) continue;
      entry.contributors.emplace_back(arg, it->second);
    }
    result.entries.push_back(std::move(entry));
  }
  return result;
}

StatusOr<DiffResult> ProvenanceEngine::Diff(Oid a, Oid b) const {
  DiffResult result;
  result.a = a;
  result.b = b;
  GAEA_ASSIGN_OR_RETURN(Task task_a, ProducerOf(a));
  GAEA_ASSIGN_OR_RETURN(Task task_b, ProducerOf(b));
  result.process_a = task_a.process_name;
  result.process_b = task_b.process_name;
  result.version_a = task_a.process_version;
  result.version_b = task_b.process_version;
  if (task_a.process_name != task_b.process_name) {
    result.differences.push_back("process: " + task_a.process_name + " vs " +
                                 task_b.process_name);
  }
  if (task_a.process_version < 1 || task_b.process_version < 1) {
    // At least one side has no replayable template to compare.
    if (task_a.process_name == task_b.process_name &&
        task_a.process_version == task_b.process_version) {
      result.same_procedure = true;
    } else {
      result.differences.push_back(
          "no comparable templates (external or interpolation task)");
    }
    return result;
  }
  if (processes_ == nullptr) {
    return Status::FailedPrecondition(
        "process-version diff needs a process registry");
  }
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* def_a,
                        processes_->Version(task_a.process_name,
                                            task_a.process_version));
  GAEA_ASSIGN_OR_RETURN(const ProcessDef* def_b,
                        processes_->Version(task_b.process_name,
                                            task_b.process_version));
  result.same_procedure = task_a.process_name == task_b.process_name &&
                          def_a->StructurallyEquals(*def_b);
  if (result.same_procedure) return result;

  // Arguments, by binding name.
  for (const ProcessArg& arg : def_a->args()) {
    auto found = def_b->FindArg(arg.name);
    if (!found.ok()) {
      result.differences.push_back("argument " + arg.name + ": only in " +
                                   def_a->name() + " v" +
                                   std::to_string(def_a->version()));
      continue;
    }
    const ProcessArg& other = **found;
    if (arg.class_name != other.class_name || arg.setof != other.setof ||
        arg.min_card != other.min_card) {
      result.differences.push_back(
          "argument " + arg.name + ": " + arg.class_name +
          (arg.setof ? " setof min " + std::to_string(arg.min_card) : "") +
          " vs " + other.class_name +
          (other.setof ? " setof min " + std::to_string(other.min_card) : ""));
    }
  }
  for (const ProcessArg& arg : def_b->args()) {
    if (!def_a->FindArg(arg.name).ok()) {
      result.differences.push_back("argument " + arg.name + ": only in " +
                                   def_b->name() + " v" +
                                   std::to_string(def_b->version()));
    }
  }

  // Parameters ("the same derivation method with different parameters
  // represents different processes" — the diff names exactly which ones).
  for (const auto& [name, value] : def_a->params()) {
    auto it = def_b->params().find(name);
    if (it == def_b->params().end()) {
      result.differences.push_back("param " + name + ": only in v" +
                                   std::to_string(def_a->version()));
    } else if (value.ToString() != it->second.ToString()) {
      result.differences.push_back("param " + name + ": " + value.ToString() +
                                   " vs " + it->second.ToString());
    }
  }
  for (const auto& [name, value] : def_b->params()) {
    if (def_a->params().find(name) == def_a->params().end()) {
      result.differences.push_back("param " + name + ": only in v" +
                                   std::to_string(def_b->version()));
    }
  }

  // Assertions, by rendered form (order-insensitive).
  std::set<std::string> asserts_a, asserts_b;
  for (const ExprPtr& e : def_a->assertions()) asserts_a.insert(e->ToString());
  for (const ExprPtr& e : def_b->assertions()) asserts_b.insert(e->ToString());
  for (const std::string& s : asserts_a) {
    if (asserts_b.find(s) == asserts_b.end()) {
      result.differences.push_back("assertion only in v" +
                                   std::to_string(def_a->version()) + ": " + s);
    }
  }
  for (const std::string& s : asserts_b) {
    if (asserts_a.find(s) == asserts_a.end()) {
      result.differences.push_back("assertion only in v" +
                                   std::to_string(def_b->version()) + ": " + s);
    }
  }

  // Mappings, by output attribute — the heart of a version diff: which
  // transfer function changed between the two procedures.
  for (const ProcessMapping& m : def_a->mappings()) {
    const ProcessMapping* other = nullptr;
    for (const ProcessMapping& n : def_b->mappings()) {
      if (n.attr == m.attr) {
        other = &n;
        break;
      }
    }
    if (other == nullptr) {
      result.differences.push_back("mapping " + m.attr + ": only in v" +
                                   std::to_string(def_a->version()));
    } else if (!m.expr->StructurallyEquals(*other->expr)) {
      result.differences.push_back("mapping " + m.attr + ": " +
                                   m.expr->ToString() + " vs " +
                                   other->expr->ToString());
    }
  }
  for (const ProcessMapping& m : def_b->mappings()) {
    bool found = false;
    for (const ProcessMapping& n : def_a->mappings()) {
      if (n.attr == m.attr) {
        found = true;
        break;
      }
    }
    if (!found) {
      result.differences.push_back("mapping " + m.attr + ": only in v" +
                                   std::to_string(def_b->version()));
    }
  }
  if (result.differences.empty()) {
    // Structures differ in a way the itemized walk cannot name (e.g. output
    // class); keep the report honest rather than silently empty.
    result.differences.push_back("procedures differ structurally");
  }
  return result;
}

// The derivation DAG below one root: every object reached, each with its
// producing task and depth. Tasks are keyed by id, so a task that produced
// several reached objects is fetched once. Move-only: objects point into
// `tasks`, whose nodes a move keeps in place and a copy would not.
struct ProvenanceEngine::Dag {
  Dag() = default;
  Dag(Dag&&) = default;
  Dag(const Dag&) = delete;

  struct Object {
    const Task* task = nullptr;  // producer; null for base data
    std::vector<Oid> inputs;     // task->AllInputs(), cached
    int depth = 0;               // longest task path down to base data
  };
  std::map<Oid, Object> objects;
  std::map<TaskId, Task> tasks;
};

StatusOr<ProvenanceEngine::Dag> ProvenanceEngine::BuildDag(Oid root) const {
  Dag dag;
  // Iterative post-order DFS: an object's depth is final when it leaves the
  // stack. Meeting an object that is still on the stack means the index
  // holds a cycle; the walk stops with an error instead of looping.
  std::vector<std::pair<Oid, size_t>> stack;  // (object, next input)
  std::set<Oid> on_stack;
  auto enter = [&](Oid oid) -> Status {
    auto [it, fresh] = dag.objects.try_emplace(oid);
    if (!fresh) {
      if (on_stack.count(oid) > 0) {
        return Status::Internal("derivation cycle through object " +
                                std::to_string(oid) + ": damaged task log?");
      }
      return Status::OK();
    }
    GAEA_ASSIGN_OR_RETURN(TaskId id, ProducerIdOf(oid));
    if (id != kInvalidTaskId) {
      auto task = dag.tasks.find(id);
      if (task == dag.tasks.end()) {
        GAEA_ASSIGN_OR_RETURN(Task fetched, source_->Fetch(id));
        task = dag.tasks.emplace(id, std::move(fetched)).first;
      }
      it->second.task = &task->second;
      it->second.inputs = task->second.AllInputs();
    }
    on_stack.insert(oid);
    stack.emplace_back(oid, 0);
    return Status::OK();
  };
  GAEA_RETURN_IF_ERROR(enter(root));
  while (!stack.empty()) {
    const Oid oid = stack.back().first;
    const size_t next = stack.back().second++;
    Dag::Object& object = dag.objects.at(oid);
    if (next < object.inputs.size()) {
      GAEA_RETURN_IF_ERROR(enter(object.inputs[next]));
      continue;
    }
    if (object.task != nullptr) {
      int deepest = 0;
      for (Oid input : object.inputs) {
        deepest = std::max(deepest, dag.objects.at(input).depth);
      }
      object.depth = 1 + deepest;
    }
    on_stack.erase(oid);
    stack.pop_back();
  }
  return dag;
}

StatusOr<ChainResult> ProvenanceEngine::Chain(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(Dag dag, BuildDag(oid));
  ChainResult result;
  result.root = oid;
  // Follow the deepest input path; ties go to the first input.
  for (const Dag::Object* cur = &dag.objects.at(oid); cur->task != nullptr;) {
    result.chain.push_back(cur->task->process_name + ":v" +
                           std::to_string(cur->task->process_version));
    if (cur->inputs.empty()) break;
    const Dag::Object* deepest = nullptr;
    for (Oid input : cur->inputs) {
      const Dag::Object* candidate = &dag.objects.at(input);
      if (deepest == nullptr || candidate->depth > deepest->depth) {
        deepest = candidate;
      }
    }
    cur = deepest;
  }
  // A base root is the only object of its DAG, so it is its own source.
  for (const auto& [object, node] : dag.objects) {
    if (node.task == nullptr) result.base_sources.push_back(object);
  }
  return result;
}

StatusOr<std::string> ProvenanceEngine::Dot(Oid oid) const {
  GAEA_ASSIGN_OR_RETURN(Dag dag, BuildDag(oid));
  std::ostringstream os;
  os << "digraph lineage {\n  rankdir=BT;\n";
  std::set<Oid> seen{oid};
  std::set<TaskId> emitted;
  std::deque<Oid> frontier{oid};
  while (!frontier.empty()) {
    const Oid cur = frontier.front();
    frontier.pop_front();
    const Dag::Object& object = dag.objects.at(cur);
    os << "  o" << cur << " [shape=ellipse,label=\"obj " << cur
       << (object.task == nullptr ? " (base)" : "") << "\"];\n";
    if (object.task == nullptr) continue;
    const Task& task = *object.task;
    bool first = emitted.insert(task.id).second;
    if (first) {
      os << "  t" << task.id << " [shape=box,label=\"" << task.process_name
         << " v" << task.process_version << "\"];\n";
    }
    os << "  t" << task.id << " -> o" << cur << ";\n";
    for (Oid input : object.inputs) {
      if (first) os << "  o" << input << " -> t" << task.id << ";\n";
      if (seen.insert(input).second) frontier.push_back(input);
    }
  }
  os << "}\n";
  return os.str();
}

DerivationComparison Compare(const ChainResult& a, const ChainResult& b) {
  DerivationComparison cmp;
  cmp.chain_a = a.chain;
  cmp.chain_b = b.chain;
  if (cmp.chain_a == cmp.chain_b) {
    cmp.same_procedure = true;
    cmp.explanation = cmp.chain_a.empty()
                          ? "both objects are base data"
                          : "identical derivation chains (" +
                                cmp.chain_a.front() + ", depth " +
                                std::to_string(cmp.chain_a.size()) + ")";
    return cmp;
  }
  size_t n = std::min(cmp.chain_a.size(), cmp.chain_b.size());
  size_t i = 0;
  while (i < n && cmp.chain_a[i] == cmp.chain_b[i]) ++i;
  std::ostringstream os;
  if (i < n) {
    os << "derivations diverge at step " << i + 1 << ": " << cmp.chain_a[i]
       << " vs " << cmp.chain_b[i];
  } else {
    os << "derivation depths differ: " << cmp.chain_a.size() << " vs "
       << cmp.chain_b.size() << " steps";
  }
  cmp.explanation = os.str();
  return cmp;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string ClosureResult::ToJson() const {
  std::string json = "{\"query\":\"";
  json += ancestors ? "ancestors" : "descendants";
  json += "\",\"root\":" + std::to_string(root);
  json += ",\"oids\":" + JsonArray(oids);
  json += ",\"tasks\":" + JsonArray(tasks);
  json += ",\"depth\":" + std::to_string(depth);
  json += ",\"truncated\":";
  json += truncated ? "true" : "false";
  json += ",\"index_lookups\":" + std::to_string(index_lookups);
  json += '}';
  return json;
}

std::string ClosureResult::ToText() const {
  std::ostringstream os;
  os << (ancestors ? "ancestors" : "descendants") << " of oid " << root
     << ": " << oids.size() << " object(s) across " << tasks.size()
     << " task(s), depth " << depth << (truncated ? " (truncated)" : "")
     << "\n";
  os << "  oids:";
  for (Oid oid : oids) os << " " << oid;
  os << "\n  tasks:";
  for (TaskId id : tasks) os << " #" << id;
  os << "\n";
  return os.str();
}

std::string ChainResult::ToJson() const {
  std::string json = "{\"query\":\"chain\",\"root\":" + std::to_string(root);
  json += ",\"chain\":[";
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i > 0) json += ',';
    json += '"' + JsonEscape(chain[i]) + '"';
  }
  json += "],\"base_sources\":" + JsonArray(base_sources);
  json += '}';
  return json;
}

std::string ChainResult::ToText() const {
  std::ostringstream os;
  os << "chain:";
  for (const std::string& step : chain) os << " " << step;
  os << "\nbase sources:";
  for (Oid oid : base_sources) os << " #" << oid;
  os << "\n";
  return os.str();
}

std::string WhyResult::ToJson() const {
  std::string json = "{\"query\":\"why\",\"output\":" + std::to_string(output);
  json += ",\"task\":" + std::to_string(task);
  json += ",\"process\":\"" + JsonEscape(process) + "\"";
  json += ",\"version\":" + std::to_string(version);
  json += ",\"witnesses\":" + JsonWitnesses(witnesses);
  json += ",\"base_witnesses\":" + JsonArray(base_witnesses);
  json += '}';
  return json;
}

std::string WhyResult::ToText() const {
  std::ostringstream os;
  os << "why oid " << output << ": task #" << task << " " << process << " v"
     << version << "\n";
  for (const auto& [arg, oids] : witnesses) {
    os << "  " << arg << " =";
    for (Oid oid : oids) os << " " << oid;
    os << "\n";
  }
  os << "  base witness:";
  for (Oid oid : base_witnesses) os << " " << oid;
  os << "\n";
  return os.str();
}

std::string WhereResult::ToJson() const {
  std::string json =
      "{\"query\":\"where\",\"output\":" + std::to_string(output);
  json += ",\"task\":" + std::to_string(task);
  json += ",\"process\":\"" + JsonEscape(process) + "\"";
  json += ",\"version\":" + std::to_string(version);
  if (!note.empty()) json += ",\"note\":\"" + JsonEscape(note) + "\"";
  json += ",\"mappings\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const WhereEntry& e = entries[i];
    if (i > 0) json += ',';
    json += "{\"attr\":\"" + JsonEscape(e.attr) + "\"";
    json += ",\"expr\":\"" + JsonEscape(e.mapping) + "\"";
    json += ",\"contributors\":" + JsonWitnesses(e.contributors);
    json += '}';
  }
  json += "]}";
  return json;
}

std::string WhereResult::ToText() const {
  std::ostringstream os;
  os << "where oid " << output << ": task #" << task << " " << process << " v"
     << version << "\n";
  if (!note.empty()) os << "  " << note << "\n";
  for (const WhereEntry& e : entries) {
    os << "  " << e.attr << " = " << e.mapping << "\n";
    for (const auto& [arg, oids] : e.contributors) {
      os << "    via " << arg << ":";
      for (Oid oid : oids) os << " " << oid;
      os << "\n";
    }
  }
  return os.str();
}

std::string DiffResult::ToJson() const {
  std::string json = "{\"query\":\"diff\",\"a\":" + std::to_string(a);
  json += ",\"b\":" + std::to_string(b);
  json += ",\"process_a\":\"" + JsonEscape(process_a) + "\"";
  json += ",\"version_a\":" + std::to_string(version_a);
  json += ",\"process_b\":\"" + JsonEscape(process_b) + "\"";
  json += ",\"version_b\":" + std::to_string(version_b);
  json += ",\"same_procedure\":";
  json += same_procedure ? "true" : "false";
  json += ",\"differences\":[";
  for (size_t i = 0; i < differences.size(); ++i) {
    if (i > 0) json += ',';
    json += '"' + JsonEscape(differences[i]) + '"';
  }
  json += "]}";
  return json;
}

std::string DiffResult::ToText() const {
  std::ostringstream os;
  os << "diff oid " << a << " (" << process_a << " v" << version_a
     << ") vs oid " << b << " (" << process_b << " v" << version_b << "): "
     << (same_procedure ? "same procedure" : "procedures differ") << "\n";
  for (const std::string& line : differences) os << "  " << line << "\n";
  return os.str();
}

}  // namespace provenance
}  // namespace gaea
