// Expression AST for process TEMPLATEs (paper §2.1.2, Figure 3).
//
// A process template contains ASSERTIONS (guard rules that must hold before
// the process can be applied) and MAPPINGS (transfer functions deriving the
// output attributes). Both are expressions over the process arguments:
//
//   ASSERTIONS:  card(bands) = 3;  common(bands.spatialextent);
//   MAPPINGS:    C20.data = unsuperclassify(composite(bands.data), 12);
//                C20.timestamp = ANYOF bands.timestamp;
//
// Node kinds:
//   literal       a constant Value
//   param         named process parameter ("the same derivation method with
//                 different parameters represents different processes")
//   attr ref      arg.attr — a single value for scalar args, a list for
//                 SETOF args (one element per bound object)
//   card          number of objects bound to a SETOF arg
//   anyof         deterministic representative (first element) of a list
//   common        guard: all list elements identical, or all boxes overlap
//   op call       application of a registered operator
//
// Expressions are type-checked against the class schemas and the operator
// registry, evaluated against concrete bound objects, and serialized into
// the process journal.

#ifndef GAEA_CORE_EXPR_H_
#define GAEA_CORE_EXPR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/class_def.h"
#include "catalog/data_object.h"
#include "obs/metrics.h"
#include "types/op_registry.h"
#include "types/value.h"
#include "util/env.h"
#include "util/serialize.h"
#include "util/status.h"

namespace gaea {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// Static information about one process argument during type checking.
struct ArgSchema {
  const ClassDef* class_def = nullptr;
  bool setof = false;
};

// Concrete objects bound to one process argument during evaluation.
struct ArgBinding {
  const ClassDef* class_def = nullptr;
  bool setof = false;
  std::vector<const DataObject*> objects;
};

// Evaluation environment: argument bindings + parameters + operators.
struct EvalContext {
  std::map<std::string, ArgBinding> args;
  const std::map<std::string, Value>* params = nullptr;
  const OperatorRegistry* ops = nullptr;
  // Observability (optional): when set, every operator invocation is timed
  // into gaea_operator_micros{op="<name>"} using `env`'s clock. It is traced
  // as an "op:<name>" span whenever the global tracer is enabled.
  obs::MetricsRegistry* metrics = nullptr;
  Env* env = nullptr;
};

// Type-checking environment.
struct TypeContext {
  std::map<std::string, ArgSchema> args;
  const std::map<std::string, Value>* params = nullptr;
  const OperatorRegistry* ops = nullptr;
};

class Expr {
 public:
  enum class Kind : uint8_t {
    kLiteral = 0,
    kParam = 1,
    kAttrRef = 2,
    kCard = 3,
    kAnyOf = 4,
    kCommon = 5,
    kOpCall = 6,
  };

  // ---- constructors ----
  static ExprPtr Literal(Value v);
  static ExprPtr Param(std::string name);
  static ExprPtr AttrRef(std::string arg, std::string attr);
  static ExprPtr Card(std::string arg);
  static ExprPtr AnyOf(ExprPtr child);
  // common(e1, e2, ...): flattens the operands (each a SETOF list or a
  // scalar) into one collection and checks they are identical, or — for
  // boxes — pairwise overlapping ("the same or overlap", Figure 3).
  static ExprPtr Common(std::vector<ExprPtr> children);
  static ExprPtr Common(ExprPtr child);
  static ExprPtr OpCall(std::string op, std::vector<ExprPtr> args);

  Kind kind() const { return kind_; }

  // ---- tree inspection (used by the static analyzer, src/analysis/) ----
  // Meaning depends on kind: param name for kParam, argument name for
  // kAttrRef/kCard, operator name for kOpCall; empty otherwise.
  const std::string& name() const { return name_; }
  // Attribute name for kAttrRef; empty otherwise.
  const std::string& attr() const { return attr_; }
  // Constant for kLiteral; null otherwise.
  const Value& literal() const { return literal_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  // Infers the result type, verifying every referenced arg/attr/param/op.
  StatusOr<TypeId> TypeCheck(const TypeContext& ctx) const;

  // Evaluates against concrete bindings.
  StatusOr<Value> Eval(const EvalContext& ctx) const;

  // Source-like rendering, e.g. `unsuperclassify(composite(bands.data), 12)`.
  std::string ToString() const;

  // Structural fingerprint: two expressions with equal fingerprints compute
  // the same function (used to compare derivation procedures).
  bool StructurallyEquals(const Expr& other) const;

  void Serialize(BinaryWriter* w) const;
  static StatusOr<ExprPtr> Deserialize(BinaryReader* r);

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  // (result type, element type when result is a list and known).
  using FullType = std::pair<TypeId, TypeId>;
  StatusOr<FullType> TypeCheckFull(const TypeContext& ctx) const;

  Kind kind_;
  Value literal_;
  std::string name_;  // param name, arg name, or operator name
  std::string attr_;  // attribute for kAttrRef
  std::vector<ExprPtr> children_;
};

}  // namespace gaea

#endif  // GAEA_CORE_EXPR_H_
