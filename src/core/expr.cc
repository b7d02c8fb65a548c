#include "core/expr.h"

#include <sstream>

#include "obs/trace.h"

namespace gaea {

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kParam));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::AttrRef(std::string arg, std::string attr) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAttrRef));
  e->name_ = std::move(arg);
  e->attr_ = std::move(attr);
  return e;
}

ExprPtr Expr::Card(std::string arg) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCard));
  e->name_ = std::move(arg);
  return e;
}

ExprPtr Expr::AnyOf(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAnyOf));
  e->children_.push_back(std::move(child));
  return e;
}

ExprPtr Expr::Common(std::vector<ExprPtr> children) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCommon));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Common(ExprPtr child) {
  return Common(std::vector<ExprPtr>{std::move(child)});
}

ExprPtr Expr::OpCall(std::string op, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kOpCall));
  e->name_ = std::move(op);
  e->children_ = std::move(args);
  return e;
}

StatusOr<TypeId> Expr::TypeCheck(const TypeContext& ctx) const {
  GAEA_ASSIGN_OR_RETURN(FullType full, TypeCheckFull(ctx));
  return full.first;
}

StatusOr<Expr::FullType> Expr::TypeCheckFull(const TypeContext& ctx) const {
  switch (kind_) {
    case Kind::kLiteral:
      return FullType{literal_.type(), TypeId::kNull};
    case Kind::kParam: {
      if (ctx.params == nullptr) {
        return Status::InvalidArgument("parameter '" + name_ +
                                       "' referenced but process has none");
      }
      auto it = ctx.params->find(name_);
      if (it == ctx.params->end()) {
        return Status::NotFound("unknown process parameter: " + name_);
      }
      return FullType{it->second.type(), TypeId::kNull};
    }
    case Kind::kAttrRef: {
      auto it = ctx.args.find(name_);
      if (it == ctx.args.end()) {
        return Status::NotFound("unknown process argument: " + name_);
      }
      const ArgSchema& schema = it->second;
      if (schema.class_def == nullptr) {
        return Status::Internal("argument " + name_ + " has no class schema");
      }
      GAEA_ASSIGN_OR_RETURN(const AttributeDef* attr,
                            schema.class_def->FindAttribute(attr_));
      if (schema.setof) {
        return FullType{TypeId::kList, attr->type};
      }
      return FullType{attr->type, TypeId::kNull};
    }
    case Kind::kCard: {
      auto it = ctx.args.find(name_);
      if (it == ctx.args.end()) {
        return Status::NotFound("unknown process argument: " + name_);
      }
      return FullType{TypeId::kInt, TypeId::kNull};
    }
    case Kind::kAnyOf: {
      if (children_.empty() || children_[0] == nullptr) {
        return Status::Internal("ANYOF node missing child");
      }
      GAEA_ASSIGN_OR_RETURN(FullType child, children_[0]->TypeCheckFull(ctx));
      if (child.first != TypeId::kList) {
        return Status::InvalidArgument(
            "ANYOF needs a SETOF/list operand, got " +
            std::string(TypeIdName(child.first)));
      }
      if (child.second == TypeId::kNull) {
        return Status::InvalidArgument(
            "ANYOF operand element type is not statically known");
      }
      return FullType{child.second, TypeId::kNull};
    }
    case Kind::kCommon: {
      if (children_.empty()) {
        return Status::InvalidArgument("common() needs at least one operand");
      }
      for (const ExprPtr& child : children_) {
        if (child == nullptr) {
          return Status::Internal("common() node missing child");
        }
        GAEA_RETURN_IF_ERROR(child->TypeCheckFull(ctx).status());
      }
      return FullType{TypeId::kBool, TypeId::kNull};
    }
    case Kind::kOpCall: {
      if (ctx.ops == nullptr) {
        return Status::Internal("type context has no operator registry");
      }
      std::vector<TypeId> arg_types;
      arg_types.reserve(children_.size());
      for (size_t i = 0; i < children_.size(); ++i) {
        if (children_[i] == nullptr) {
          return Status::Internal("operator call missing argument node");
        }
        GAEA_ASSIGN_OR_RETURN(FullType child,
                              children_[i]->TypeCheckFull(ctx));
        arg_types.push_back(child.first);
      }
      GAEA_ASSIGN_OR_RETURN(TypeId result,
                            ctx.ops->ResultType(name_, arg_types));
      // Operators returning lists of images (composite, pca, ...) report
      // image elements; this covers every built-in list-returning operator.
      TypeId elem = result == TypeId::kList ? TypeId::kImage : TypeId::kNull;
      return FullType{result, elem};
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<Value> Expr::Eval(const EvalContext& ctx) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kParam: {
      if (ctx.params == nullptr) {
        return Status::InvalidArgument("parameter '" + name_ +
                                       "' referenced but process has none");
      }
      auto it = ctx.params->find(name_);
      if (it == ctx.params->end()) {
        return Status::NotFound("unknown process parameter: " + name_);
      }
      return it->second;
    }
    case Kind::kAttrRef: {
      auto it = ctx.args.find(name_);
      if (it == ctx.args.end()) {
        return Status::NotFound("unbound process argument: " + name_);
      }
      const ArgBinding& binding = it->second;
      if (binding.class_def == nullptr) {
        return Status::Internal("argument " + name_ + " bound without class");
      }
      if (binding.setof) {
        ValueList items;
        items.reserve(binding.objects.size());
        for (const DataObject* obj : binding.objects) {
          if (obj == nullptr) {
            return Status::Internal("null object bound to " + name_);
          }
          GAEA_ASSIGN_OR_RETURN(Value v, obj->Get(*binding.class_def, attr_));
          items.push_back(std::move(v));
        }
        return Value::List(std::move(items));
      }
      if (binding.objects.size() != 1) {
        return Status::InvalidArgument(
            "scalar argument " + name_ + " bound to " +
            std::to_string(binding.objects.size()) + " objects");
      }
      return binding.objects[0]->Get(*binding.class_def, attr_);
    }
    case Kind::kCard: {
      auto it = ctx.args.find(name_);
      if (it == ctx.args.end()) {
        return Status::NotFound("unbound process argument: " + name_);
      }
      return Value::Int(static_cast<int64_t>(it->second.objects.size()));
    }
    case Kind::kAnyOf: {
      GAEA_ASSIGN_OR_RETURN(Value child, children_[0]->Eval(ctx));
      GAEA_ASSIGN_OR_RETURN(const ValueList* items, child.AsList());
      if (items->empty()) {
        return Status::FailedPrecondition("ANYOF over an empty set");
      }
      // Deterministic representative: the first bound object's value, so
      // replaying a task reproduces the identical output.
      return (*items)[0];
    }
    case Kind::kCommon: {
      // Flatten every operand (list or scalar) into one collection.
      ValueList flat;
      for (const ExprPtr& child : children_) {
        GAEA_ASSIGN_OR_RETURN(Value v, child->Eval(ctx));
        if (v.type() == TypeId::kList) {
          GAEA_ASSIGN_OR_RETURN(const ValueList* list_items, v.AsList());
          flat.insert(flat.end(), list_items->begin(), list_items->end());
        } else {
          flat.push_back(std::move(v));
        }
      }
      const ValueList* items = &flat;
      if (items->size() <= 1) return Value::Bool(true);
      // Identical values always satisfy common(); boxes may alternatively
      // pairwise overlap ("the same or overlap", Figure 3).
      bool all_equal = true;
      for (size_t i = 1; i < items->size(); ++i) {
        if (!((*items)[i] == (*items)[0])) {
          all_equal = false;
          break;
        }
      }
      if (all_equal) return Value::Bool(true);
      if ((*items)[0].type() == TypeId::kBox) {
        for (size_t i = 0; i < items->size(); ++i) {
          GAEA_ASSIGN_OR_RETURN(Box a, (*items)[i].AsBox());
          for (size_t j = i + 1; j < items->size(); ++j) {
            GAEA_ASSIGN_OR_RETURN(Box b, (*items)[j].AsBox());
            if (!a.Overlaps(b)) return Value::Bool(false);
          }
        }
        return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Kind::kOpCall: {
      if (ctx.ops == nullptr) {
        return Status::Internal("eval context has no operator registry");
      }
      ValueList args;
      args.reserve(children_.size());
      for (const ExprPtr& child : children_) {
        GAEA_ASSIGN_OR_RETURN(Value v, child->Eval(ctx));
        args.push_back(std::move(v));
      }
      // Time the operator invocation itself; nested calls were already
      // timed above, so samples never overlap.
      obs::SpanGuard span("op:" + name_, "operator");
      if (ctx.metrics != nullptr) {
        Env* env = ctx.env != nullptr ? ctx.env : Env::Default();
        uint64_t start = env->NowMicros();
        StatusOr<Value> result = ctx.ops->Invoke(name_, args);
        uint64_t end = env->NowMicros();
        ctx.metrics
            ->GetHistogram(
                obs::LabelledName("gaea_operator_micros", "op", name_))
            ->Observe(end > start ? end - start : 0);
        return result;
      }
      return ctx.ops->Invoke(name_, args);
    }
  }
  return Status::Internal("unhandled expression kind");
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kParam:
      return "$" + name_;
    case Kind::kAttrRef:
      return name_ + "." + attr_;
    case Kind::kCard:
      return "card(" + name_ + ")";
    case Kind::kAnyOf:
      return "ANYOF " + children_[0]->ToString();
    case Kind::kCommon: {
      std::string out = "common(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kOpCall: {
      std::ostringstream os;
      os << name_ << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << ", ";
        os << children_[i]->ToString();
      }
      os << ")";
      return os.str();
    }
  }
  return "?";
}

bool Expr::StructurallyEquals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  if (name_ != other.name_ || attr_ != other.attr_) return false;
  if (kind_ == Kind::kLiteral && !(literal_ == other.literal_)) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->StructurallyEquals(*other.children_[i])) return false;
  }
  return true;
}

void Expr::Serialize(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind_));
  w->PutString(name_);
  w->PutString(attr_);
  literal_.Serialize(w);
  w->PutU32(static_cast<uint32_t>(children_.size()));
  for (const ExprPtr& child : children_) child->Serialize(w);
}

StatusOr<ExprPtr> Expr::Deserialize(BinaryReader* r) {
  GAEA_ASSIGN_OR_RETURN(uint8_t kind_raw, r->GetU8());
  if (kind_raw > static_cast<uint8_t>(Kind::kOpCall)) {
    return Status::Corruption("bad expression kind tag " +
                              std::to_string(kind_raw));
  }
  auto e = std::shared_ptr<Expr>(new Expr(static_cast<Kind>(kind_raw)));
  GAEA_ASSIGN_OR_RETURN(e->name_, r->GetString());
  GAEA_ASSIGN_OR_RETURN(e->attr_, r->GetString());
  GAEA_ASSIGN_OR_RETURN(e->literal_, Value::Deserialize(r));
  GAEA_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  if (n > 1u << 16) return Status::Corruption("expression fan-out too large");
  e->children_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GAEA_ASSIGN_OR_RETURN(ExprPtr child, Deserialize(r));
    e->children_.push_back(std::move(child));
  }
  return ExprPtr(e);
}

}  // namespace gaea
