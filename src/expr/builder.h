#ifndef RFVIEW_EXPR_BUILDER_H_
#define RFVIEW_EXPR_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace rfv {
namespace eb {

/// Tiny factory namespace for constructing bound expression trees by
/// hand — used by the binder, the planner and tests. Types are left to
/// the caller or to a later CheckTypes pass.

inline ExprPtr Lit(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

inline ExprPtr Int(int64_t v) { return Lit(Value::Int(v)); }
inline ExprPtr Dbl(double v) { return Lit(Value::Double(v)); }
inline ExprPtr Str(std::string v) { return Lit(Value::String(std::move(v))); }
inline ExprPtr Null() { return Lit(Value::Null()); }

inline ExprPtr Col(size_t index, DataType type,
                   std::string name = std::string()) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->type = type;
  e->column_index = index;
  e->column_name = std::move(name);
  return e;
}

inline ExprPtr Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->type = op == UnaryOp::kNot ? DataType::kBool : operand->type;
  e->children.push_back(std::move(operand));
  return e;
}

inline ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      e->type = (lhs->type == DataType::kDouble ||
                 rhs->type == DataType::kDouble)
                    ? DataType::kDouble
                    : DataType::kInt64;
      break;
    default:
      e->type = DataType::kBool;
      break;
  }
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kOr, std::move(a), std::move(b));
}

inline ExprPtr Fn(ScalarFn fn, std::vector<ExprPtr> args, DataType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function = fn;
  e->type = type;
  e->children = std::move(args);
  return e;
}

inline ExprPtr Mod(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return Fn(ScalarFn::kMod, std::move(args), DataType::kInt64);
}

inline ExprPtr Coalesce(ExprPtr a, ExprPtr b) {
  const DataType type =
      a->type != DataType::kNull ? a->type : b->type;
  std::vector<ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return Fn(ScalarFn::kCoalesce, std::move(args), type);
}

/// CASE WHEN cond THEN then ELSE els END.
inline ExprPtr CaseWhen(ExprPtr cond, ExprPtr then, ExprPtr els) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->type = then->type;
  e->has_else = true;
  e->children.push_back(std::move(cond));
  e->children.push_back(std::move(then));
  e->children.push_back(std::move(els));
  return e;
}

inline ExprPtr Between(ExprPtr subject, ExprPtr lo, ExprPtr hi) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBetween;
  e->type = DataType::kBool;
  e->children.push_back(std::move(subject));
  e->children.push_back(std::move(lo));
  e->children.push_back(std::move(hi));
  return e;
}

inline ExprPtr In(ExprPtr needle, std::vector<ExprPtr> candidates) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIn;
  e->type = DataType::kBool;
  e->children.push_back(std::move(needle));
  for (ExprPtr& c : candidates) e->children.push_back(std::move(c));
  return e;
}

inline ExprPtr IsNull(ExprPtr operand, bool negated = false) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->type = DataType::kBool;
  e->is_null_negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

}  // namespace eb
}  // namespace rfv

#endif  // RFVIEW_EXPR_BUILDER_H_
