#include "plan/binder.h"

#include <optional>

#include "common/logging.h"
#include "common/str_util.h"
#include "expr/builder.h"
#include "expr/type_check.h"

namespace rfv {

namespace {

/// Collects aggregate-function AST nodes (no OVER clause) without
/// descending into them, and window-function nodes (with OVER clause)
/// without descending into them.
void CollectCalls(const AstExpr& ast,
                  std::vector<const AstExpr*>* aggregates,
                  std::vector<const AstExpr*>* windows) {
  if (ast.kind == AstExprKind::kFunctionCall) {
    if (ast.over != nullptr) {
      if (windows != nullptr) windows->push_back(&ast);
      return;  // window arguments/spec are bound separately
    }
    const std::string upper = ToUpper(ast.function_name);
    if (upper == "SUM" || upper == "COUNT" || upper == "AVG" ||
        upper == "MIN" || upper == "MAX") {
      if (aggregates != nullptr) aggregates->push_back(&ast);
      return;  // aggregate arguments are bound separately
    }
  }
  for (const auto& child : ast.children) {
    CollectCalls(*child, aggregates, windows);
  }
}

/// Name for an output column derived from an expression: plain column
/// name for simple references, rendering otherwise.
std::string DerivedName(const AstExpr& ast) {
  if (ast.kind == AstExprKind::kColumn) return ast.name;
  return ast.ToString();
}

DataType AggOutputType(AggFn fn, DataType arg_type) {
  switch (fn) {
    case AggFn::kCount: return DataType::kInt64;
    case AggFn::kAvg: return DataType::kDouble;
    case AggFn::kSum:
      return arg_type == DataType::kDouble ? DataType::kDouble
                                           : DataType::kInt64;
    case AggFn::kMin:
    case AggFn::kMax: return arg_type;
  }
  return DataType::kDouble;
}

/// Converts a parsed frame bound pair into the normalized WindowFrame.
Result<WindowFrame> NormalizeFrame(const WindowSpecAst& spec) {
  if (!spec.has_frame) {
    // SQL default: with ORDER BY, UNBOUNDED PRECEDING .. CURRENT ROW;
    // without, the whole partition.
    if (spec.order_by.empty()) return WindowFrame::WholePartition();
    return WindowFrame::Cumulative();
  }
  WindowFrame frame;
  const auto bound_to_offset = [](const FrameBound& b, bool* unbounded,
                                  int64_t* offset) -> Status {
    switch (b.kind) {
      case FrameBound::Kind::kUnboundedPreceding:
      case FrameBound::Kind::kUnboundedFollowing:
        *unbounded = true;
        *offset = 0;
        return Status::OK();
      case FrameBound::Kind::kPreceding:
        *unbounded = false;
        *offset = -b.offset;
        return Status::OK();
      case FrameBound::Kind::kCurrentRow:
        *unbounded = false;
        *offset = 0;
        return Status::OK();
      case FrameBound::Kind::kFollowing:
        *unbounded = false;
        *offset = b.offset;
        return Status::OK();
    }
    return Status::Internal("bad frame bound");
  };
  if (spec.frame_lo.kind == FrameBound::Kind::kUnboundedFollowing ||
      spec.frame_hi.kind == FrameBound::Kind::kUnboundedPreceding) {
    return Status::BindError("malformed window frame");
  }
  RFV_RETURN_IF_ERROR(
      bound_to_offset(spec.frame_lo, &frame.lo_unbounded, &frame.lo));
  RFV_RETURN_IF_ERROR(
      bound_to_offset(spec.frame_hi, &frame.hi_unbounded, &frame.hi));
  if (!frame.lo_unbounded && !frame.hi_unbounded && frame.lo > frame.hi) {
    return Status::BindError("window frame lower bound above upper bound");
  }
  frame.range_mode = spec.range_mode;
  return frame;
}

}  // namespace

std::string SelectItemName(const SelectItem& item) {
  return item.alias.empty() ? DerivedName(*item.expr) : item.alias;
}

std::optional<AggFn> Binder::AggFnByName(const std::string& upper_name) {
  if (upper_name == "SUM") return AggFn::kSum;
  if (upper_name == "COUNT") return AggFn::kCount;
  if (upper_name == "AVG") return AggFn::kAvg;
  if (upper_name == "MIN") return AggFn::kMin;
  if (upper_name == "MAX") return AggFn::kMax;
  return std::nullopt;
}

Result<ExprPtr> Binder::BindScalar(const AstExpr& ast, const Schema& schema) {
  BindEnv env;
  env.schema = &schema;
  return BindAndCheck(ast, env);
}

Result<ExprPtr> Binder::BindAndCheck(const AstExpr& ast, const BindEnv& env) {
  ExprPtr expr;
  RFV_ASSIGN_OR_RETURN(expr, BindExpr(ast, env));
  RFV_RETURN_IF_ERROR(CheckTypes(expr.get(), *env.schema));
  return expr;
}

Result<ExprPtr> Binder::BindExpr(const AstExpr& ast, const BindEnv& env) {
  // Substitutions first: a subtree that names an output column of a lower
  // aggregate/window node becomes a plain column reference.
  if (env.node_replacements != nullptr) {
    const auto it = env.node_replacements->find(&ast);
    if (it != env.node_replacements->end()) {
      return eb::Col(it->second, env.schema->column(it->second).type,
                     env.schema->column(it->second).name);
    }
  }
  if (env.text_replacements != nullptr) {
    const auto it = env.text_replacements->find(ast.ToString());
    if (it != env.text_replacements->end()) {
      return eb::Col(it->second, env.schema->column(it->second).type,
                     env.schema->column(it->second).name);
    }
  }

  switch (ast.kind) {
    case AstExprKind::kLiteral:
      return eb::Lit(ast.literal);
    case AstExprKind::kStar:
      return Status::BindError("'*' is only valid inside COUNT(*)");
    case AstExprKind::kColumn: {
      Result<size_t> idx = env.schema->FindColumn(ast.qualifier, ast.name);
      if (!idx.ok()) {
        if (idx.status().code() == StatusCode::kNotFound) {
          return Status::BindError(idx.status().message());
        }
        return idx.status();
      }
      return eb::Col(*idx, env.schema->column(*idx).type,
                     env.schema->column(*idx).QualifiedName());
    }
    case AstExprKind::kUnary: {
      ExprPtr operand;
      RFV_ASSIGN_OR_RETURN(operand, BindExpr(*ast.children[0], env));
      return eb::Unary(
          ast.unary_op == AstUnaryOp::kNot ? UnaryOp::kNot : UnaryOp::kNeg,
          std::move(operand));
    }
    case AstExprKind::kBinary: {
      ExprPtr lhs;
      RFV_ASSIGN_OR_RETURN(lhs, BindExpr(*ast.children[0], env));
      ExprPtr rhs;
      RFV_ASSIGN_OR_RETURN(rhs, BindExpr(*ast.children[1], env));
      if (ast.binary_op == AstBinaryOp::kMod) {
        return eb::Mod(std::move(lhs), std::move(rhs));
      }
      BinaryOp op;
      switch (ast.binary_op) {
        case AstBinaryOp::kAdd: op = BinaryOp::kAdd; break;
        case AstBinaryOp::kSub: op = BinaryOp::kSub; break;
        case AstBinaryOp::kMul: op = BinaryOp::kMul; break;
        case AstBinaryOp::kDiv: op = BinaryOp::kDiv; break;
        case AstBinaryOp::kEq: op = BinaryOp::kEq; break;
        case AstBinaryOp::kNe: op = BinaryOp::kNe; break;
        case AstBinaryOp::kLt: op = BinaryOp::kLt; break;
        case AstBinaryOp::kLe: op = BinaryOp::kLe; break;
        case AstBinaryOp::kGt: op = BinaryOp::kGt; break;
        case AstBinaryOp::kGe: op = BinaryOp::kGe; break;
        case AstBinaryOp::kAnd: op = BinaryOp::kAnd; break;
        case AstBinaryOp::kOr: op = BinaryOp::kOr; break;
        default:
          return Status::Internal("unhandled binary op");
      }
      return eb::Binary(op, std::move(lhs), std::move(rhs));
    }
    case AstExprKind::kCase: {
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kCase;
      expr->has_else = ast.has_else;
      for (const auto& child : ast.children) {
        ExprPtr bound;
        RFV_ASSIGN_OR_RETURN(bound, BindExpr(*child, env));
        expr->children.push_back(std::move(bound));
      }
      return expr;
    }
    case AstExprKind::kFunctionCall: {
      const std::string upper = ToUpper(ast.function_name);
      if (ast.over != nullptr) {
        return Status::BindError(
            "window function " + upper +
            " is only allowed at the top level of a SELECT list");
      }
      if (AggFnByName(upper).has_value()) {
        return Status::BindError("aggregate function " + upper +
                                 " is not allowed in this context");
      }
      ScalarFn fn;
      if (upper == "MOD") {
        fn = ScalarFn::kMod;
      } else if (upper == "COALESCE") {
        fn = ScalarFn::kCoalesce;
      } else if (upper == "ABS") {
        fn = ScalarFn::kAbs;
      } else if (upper == "YEAR") {
        fn = ScalarFn::kYear;
      } else if (upper == "MONTH") {
        fn = ScalarFn::kMonth;
      } else if (upper == "DAY") {
        fn = ScalarFn::kDay;
      } else if (upper == "LEAST") {
        fn = ScalarFn::kMin2;
      } else if (upper == "GREATEST") {
        fn = ScalarFn::kMax2;
      } else {
        return Status::BindError("unknown function " + upper);
      }
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kFunction;
      expr->function = fn;
      for (const auto& child : ast.children) {
        ExprPtr bound;
        RFV_ASSIGN_OR_RETURN(bound, BindExpr(*child, env));
        expr->children.push_back(std::move(bound));
      }
      return expr;
    }
    case AstExprKind::kIn: {
      auto inner = std::make_unique<Expr>();
      inner->kind = ExprKind::kIn;
      for (const auto& child : ast.children) {
        ExprPtr bound;
        RFV_ASSIGN_OR_RETURN(bound, BindExpr(*child, env));
        inner->children.push_back(std::move(bound));
      }
      inner->type = DataType::kBool;
      if (ast.negated) {
        return eb::Unary(UnaryOp::kNot, std::move(inner));
      }
      return inner;
    }
    case AstExprKind::kBetween: {
      ExprPtr subject;
      RFV_ASSIGN_OR_RETURN(subject, BindExpr(*ast.children[0], env));
      ExprPtr lo;
      RFV_ASSIGN_OR_RETURN(lo, BindExpr(*ast.children[1], env));
      ExprPtr hi;
      RFV_ASSIGN_OR_RETURN(hi, BindExpr(*ast.children[2], env));
      ExprPtr between =
          eb::Between(std::move(subject), std::move(lo), std::move(hi));
      if (ast.negated) {
        return eb::Unary(UnaryOp::kNot, std::move(between));
      }
      return between;
    }
    case AstExprKind::kIsNull: {
      ExprPtr operand;
      RFV_ASSIGN_OR_RETURN(operand, BindExpr(*ast.children[0], env));
      return eb::IsNull(std::move(operand), ast.negated);
    }
  }
  return Status::Internal("unreachable AST kind in binder");
}

Result<LogicalPlanPtr> Binder::BindTableRef(const TableRef& ref) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      Result<Table*> table = catalog_->GetTable(ref.table_name);
      if (!table.ok()) return table.status();
      // Schema-qualified names (rfv_system.queries) default their alias
      // to the bare table part so column references qualify naturally
      // (queries.query_id, not rfv_system.queries.query_id).
      std::string alias = ToLower(ref.alias.empty() ? ref.table_name
                                                    : ref.alias);
      const size_t dot = alias.rfind('.');
      if (dot != std::string::npos) alias = alias.substr(dot + 1);
      return MakeScan(*table, alias);
    }
    case TableRef::Kind::kSubquery: {
      LogicalPlanPtr plan;
      RFV_ASSIGN_OR_RETURN(plan, BindSelect(*ref.subquery));
      plan->schema = plan->schema.WithQualifier(ToLower(ref.alias));
      return plan;
    }
    case TableRef::Kind::kJoin: {
      LogicalPlanPtr left;
      RFV_ASSIGN_OR_RETURN(left, BindTableRef(*ref.left));
      LogicalPlanPtr right;
      RFV_ASSIGN_OR_RETURN(right, BindTableRef(*ref.right));
      const Schema joined = Schema::Concat(left->schema, right->schema);
      ExprPtr condition;
      if (ref.on != nullptr) {
        BindEnv env;
        env.schema = &joined;
        RFV_ASSIGN_OR_RETURN(condition, BindAndCheck(*ref.on, env));
      }
      JoinType type;
      switch (ref.join_kind) {
        case TableRef::JoinKind::kInner: type = JoinType::kInner; break;
        case TableRef::JoinKind::kLeftOuter:
          type = JoinType::kLeftOuter;
          break;
        case TableRef::JoinKind::kCross: type = JoinType::kCross; break;
        default: return Status::Internal("bad join kind");
      }
      return MakeJoin(type, std::move(left), std::move(right),
                      std::move(condition));
    }
  }
  return Status::Internal("unreachable table ref kind");
}

Result<LogicalPlanPtr> Binder::BindSelectCore(const SelectStmt& stmt) {
  if (stmt.from == nullptr) {
    return Status::NotSupported("SELECT without FROM is not supported");
  }
  LogicalPlanPtr plan;
  RFV_ASSIGN_OR_RETURN(plan, BindTableRef(*stmt.from));

  // WHERE.
  if (stmt.where != nullptr) {
    std::vector<const AstExpr*> where_aggs;
    std::vector<const AstExpr*> where_windows;
    CollectCalls(*stmt.where, &where_aggs, &where_windows);
    if (!where_aggs.empty() || !where_windows.empty()) {
      return Status::BindError(
          "aggregate/window functions are not allowed in WHERE");
    }
    BindEnv env;
    env.schema = &plan->schema;
    ExprPtr predicate;
    RFV_ASSIGN_OR_RETURN(predicate, BindAndCheck(*stmt.where, env));
    plan = MakeFilter(std::move(plan), std::move(predicate));
  }

  // Discover aggregate and window calls in SELECT list and HAVING.
  std::vector<const AstExpr*> agg_nodes;
  std::vector<const AstExpr*> window_nodes;
  for (const SelectItem& item : stmt.select_list) {
    if (item.is_star) continue;
    CollectCalls(*item.expr, &agg_nodes, &window_nodes);
  }
  if (stmt.having != nullptr) {
    std::vector<const AstExpr*> having_windows;
    CollectCalls(*stmt.having, &agg_nodes, &having_windows);
    if (!having_windows.empty()) {
      return Status::BindError("window functions are not allowed in HAVING");
    }
  }

  std::map<std::string, size_t> text_replacements;
  std::map<const AstExpr*, size_t> node_replacements;

  // GROUP BY / aggregation.
  const bool need_aggregate = !stmt.group_by.empty() || !agg_nodes.empty();
  if (need_aggregate) {
    BindEnv input_env;
    input_env.schema = &plan->schema;

    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const AstExprPtr& g : stmt.group_by) {
      ExprPtr bound;
      RFV_ASSIGN_OR_RETURN(bound, BindAndCheck(*g, input_env));
      group_names.push_back(DerivedName(*g));
      text_replacements[g->ToString()] = group_exprs.size();
      group_exprs.push_back(std::move(bound));
    }

    std::vector<AggregateCall> calls;
    for (const AstExpr* node : agg_nodes) {
      AggregateCall call;
      const std::optional<AggFn> fn = AggFnByName(ToUpper(node->function_name));
      RFV_CHECK(fn.has_value());
      call.fn = *fn;
      if (node->children.size() != 1) {
        return Status::BindError(std::string(AggFnName(*fn)) +
                                 " expects exactly one argument");
      }
      if (node->children[0]->kind == AstExprKind::kStar) {
        if (call.fn != AggFn::kCount) {
          return Status::BindError("'*' argument is only valid for COUNT");
        }
        call.is_count_star = true;
        call.output_type = DataType::kInt64;
      } else {
        RFV_ASSIGN_OR_RETURN(call.arg,
                             BindAndCheck(*node->children[0], input_env));
        if (call.fn != AggFn::kMin && call.fn != AggFn::kMax &&
            call.fn != AggFn::kCount && !(call.arg->type == DataType::kInt64 ||
                                          call.arg->type == DataType::kDouble ||
                                          call.arg->type == DataType::kNull)) {
          return Status::TypeError(std::string(AggFnName(call.fn)) +
                                   " requires a numeric argument");
        }
        call.output_type = AggOutputType(call.fn, call.arg->type);
      }
      call.output_name = node->ToString();
      node_replacements[node] = group_exprs.size() + calls.size();
      calls.push_back(std::move(call));
    }
    plan = MakeAggregate(std::move(plan), std::move(group_exprs),
                         std::move(group_names), std::move(calls));
  }

  // HAVING.
  if (stmt.having != nullptr) {
    if (!need_aggregate) {
      return Status::BindError("HAVING requires GROUP BY or aggregation");
    }
    BindEnv env;
    env.schema = &plan->schema;
    env.text_replacements = &text_replacements;
    env.node_replacements = &node_replacements;
    ExprPtr predicate;
    RFV_ASSIGN_OR_RETURN(predicate, BindAndCheck(*stmt.having, env));
    plan = MakeFilter(std::move(plan), std::move(predicate));
  }

  // Window (reporting) functions.
  if (!window_nodes.empty()) {
    BindEnv env;
    env.schema = &plan->schema;
    env.text_replacements = &text_replacements;
    env.node_replacements = &node_replacements;

    std::vector<WindowCall> calls;
    const size_t base = plan->schema.NumColumns();
    std::map<const AstExpr*, size_t> window_replacements;
    for (const AstExpr* node : window_nodes) {
      WindowCall call;
      const std::string upper = ToUpper(node->function_name);
      const std::optional<AggFn> fn = AggFnByName(upper);
      if (upper == "ROW_NUMBER" || upper == "RANK") {
        if (!node->children.empty()) {
          return Status::BindError(upper + " takes no arguments");
        }
        if (node->over->order_by.empty()) {
          return Status::BindError(upper + " requires ORDER BY in OVER()");
        }
        if (node->over->has_frame) {
          return Status::BindError(upper + " does not accept a frame");
        }
        call.kind = upper == "RANK" ? WindowFnKind::kRank
                                    : WindowFnKind::kRowNumber;
        call.output_type = DataType::kInt64;
      } else if (!fn.has_value()) {
        return Status::BindError(
            "OVER() requires an aggregation or ranking function, got " +
            node->function_name);
      } else {
        call.fn = *fn;
        if (node->children.size() != 1) {
          return Status::BindError(std::string(AggFnName(*fn)) +
                                   " expects exactly one argument");
        }
        if (node->children[0]->kind == AstExprKind::kStar) {
          if (call.fn != AggFn::kCount) {
            return Status::BindError("'*' argument is only valid for COUNT");
          }
          call.is_count_star = true;
          call.output_type = DataType::kInt64;
        } else {
          RFV_ASSIGN_OR_RETURN(call.arg,
                               BindAndCheck(*node->children[0], env));
          call.output_type = AggOutputType(call.fn, call.arg->type);
        }
      }
      for (const AstExprPtr& p : node->over->partition_by) {
        ExprPtr bound;
        RFV_ASSIGN_OR_RETURN(bound, BindAndCheck(*p, env));
        call.partition_by.push_back(std::move(bound));
      }
      for (const OrderItemAst& o : node->over->order_by) {
        SortKey key;
        RFV_ASSIGN_OR_RETURN(key.expr, BindAndCheck(*o.expr, env));
        key.ascending = o.ascending;
        call.order_by.push_back(std::move(key));
      }
      RFV_ASSIGN_OR_RETURN(call.frame, NormalizeFrame(*node->over));
      if (call.frame.range_mode) {
        // RANGE distances are measured along a single ascending numeric
        // ORDER BY key.
        if (call.order_by.size() != 1 || !call.order_by[0].ascending) {
          return Status::BindError(
              "RANGE frames require exactly one ascending ORDER BY key");
        }
        const DataType key_type = call.order_by[0].expr->type;
        if (key_type != DataType::kInt64 && key_type != DataType::kDouble &&
            key_type != DataType::kNull) {
          return Status::BindError(
              "RANGE frames require a numeric ORDER BY key");
        }
      }
      call.output_name = node->ToString();
      window_replacements[node] = base + calls.size();
      calls.push_back(std::move(call));
    }
    plan = MakeWindow(std::move(plan), std::move(calls));
    node_replacements.insert(window_replacements.begin(),
                             window_replacements.end());
  }

  // Final projection.
  {
    BindEnv env;
    env.schema = &plan->schema;
    env.text_replacements = &text_replacements;
    env.node_replacements = &node_replacements;

    std::vector<ExprPtr> projections;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        if (need_aggregate) {
          return Status::BindError("'*' cannot be combined with GROUP BY");
        }
        for (size_t i = 0; i < plan->schema.NumColumns(); ++i) {
          const ColumnDef& col = plan->schema.column(i);
          if (!item.star_qualifier.empty() &&
              !EqualsIgnoreCase(col.qualifier, item.star_qualifier)) {
            continue;
          }
          projections.push_back(eb::Col(i, col.type, col.QualifiedName()));
          names.push_back(col.name);
        }
        if (projections.empty()) {
          return Status::BindError("'*' expanded to no columns");
        }
        continue;
      }
      ExprPtr bound;
      RFV_ASSIGN_OR_RETURN(bound, BindAndCheck(*item.expr, env));
      projections.push_back(std::move(bound));
      names.push_back(SelectItemName(item));
    }
    plan = MakeProject(std::move(plan), std::move(projections),
                       std::move(names));
  }

  // SELECT DISTINCT: grouping on every output column.
  if (stmt.distinct) {
    std::vector<ExprPtr> group_by;
    std::vector<std::string> names;
    for (size_t i = 0; i < plan->schema.NumColumns(); ++i) {
      group_by.push_back(eb::Col(i, plan->schema.column(i).type,
                                 plan->schema.column(i).name));
      names.push_back(plan->schema.column(i).name);
    }
    plan = MakeAggregate(std::move(plan), std::move(group_by),
                         std::move(names), {});
  }
  return plan;
}

Result<LogicalPlanPtr> Binder::BindSelect(const SelectStmt& stmt) {
  std::vector<LogicalPlanPtr> branches;
  for (const SelectStmt* s = &stmt; s != nullptr;
       s = s->union_all_next.get()) {
    LogicalPlanPtr branch;
    RFV_ASSIGN_OR_RETURN(branch, BindSelectCore(*s));
    branches.push_back(std::move(branch));
  }
  LogicalPlanPtr plan;
  if (branches.size() == 1) {
    plan = std::move(branches[0]);
  } else {
    const Schema& first = branches[0]->schema;
    for (size_t b = 1; b < branches.size(); ++b) {
      const Schema& other = branches[b]->schema;
      if (other.NumColumns() != first.NumColumns()) {
        return Status::BindError(
            "UNION ALL branches have different column counts");
      }
    }
    plan = MakeUnionAll(std::move(branches));
  }

  // ORDER BY binds against the output schema: aliases, plain column
  // names, or 1-based ordinals. A key that references input columns not
  // in the select list (standard SQL) is carried as a hidden projection
  // column and dropped after the sort.
  if (!stmt.order_by.empty()) {
    const size_t visible_columns = plan->schema.NumColumns();
    size_t hidden_columns = 0;
    std::vector<SortKey> keys;
    for (const OrderItemAst& item : stmt.order_by) {
      SortKey key;
      key.ascending = item.ascending;
      if (item.expr->kind == AstExprKind::kLiteral &&
          item.expr->literal.type() == DataType::kInt64) {
        const int64_t ordinal = item.expr->literal.AsInt();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(plan->schema.NumColumns())) {
          return Status::BindError("ORDER BY ordinal out of range");
        }
        const size_t i = static_cast<size_t>(ordinal - 1);
        key.expr = eb::Col(i, plan->schema.column(i).type,
                           plan->schema.column(i).name);
      } else {
        BindEnv env;
        env.schema = &plan->schema;
        Result<ExprPtr> bound = BindAndCheck(*item.expr, env);
        if (!bound.ok()) {
          // SQL also allows ordering by a select-list expression that is
          // no longer visible by name after projection (e.g. ORDER BY
          // s1.pos when the output column is named plain "pos"): match
          // the ORDER BY expression against the select list structurally.
          const std::string rendered = item.expr->ToString();
          bool has_star = false;
          for (const SelectItem& sel : stmt.select_list) {
            has_star = has_star || sel.is_star;
          }
          bool matched = false;
          for (size_t i = 0; !has_star && i < stmt.select_list.size(); ++i) {
            const SelectItem& sel = stmt.select_list[i];
            if (sel.expr == nullptr) continue;
            if (sel.expr->ToString() == rendered &&
                i < plan->schema.NumColumns()) {
              key.expr = eb::Col(i, plan->schema.column(i).type,
                                 plan->schema.column(i).name);
              matched = true;
              break;
            }
          }
          // Hidden sort column: bind against the projection's input and
          // extend the projection (single-branch queries only — a UNION
          // output has no single input scope).
          if (!matched && plan->kind == PlanKind::kProject) {
            BindEnv inner_env;
            inner_env.schema = &plan->children[0]->schema;
            Result<ExprPtr> inner = BindAndCheck(*item.expr, inner_env);
            if (inner.ok()) {
              const DataType type = (*inner)->type;
              plan->projections.push_back(std::move(inner).value());
              plan->schema.AddColumn(ColumnDef(
                  "$order" + std::to_string(hidden_columns), type));
              ++hidden_columns;
              key.expr = eb::Col(plan->schema.NumColumns() - 1, type);
              matched = true;
            }
          }
          if (!matched) return bound.status();
        } else {
          key.expr = std::move(bound).value();
        }
      }
      keys.push_back(std::move(key));
    }
    plan = MakeSort(std::move(plan), std::move(keys));
    if (hidden_columns > 0) {
      std::vector<ExprPtr> projections;
      std::vector<std::string> names;
      for (size_t i = 0; i < visible_columns; ++i) {
        projections.push_back(eb::Col(i, plan->schema.column(i).type,
                                      plan->schema.column(i).name));
        names.push_back(plan->schema.column(i).name);
      }
      plan = MakeProject(std::move(plan), std::move(projections),
                         std::move(names));
    }
  }

  if (stmt.limit >= 0) {
    plan = MakeLimit(std::move(plan), stmt.limit);
  }
  return plan;
}

}  // namespace rfv
