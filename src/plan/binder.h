#ifndef RFVIEW_PLAN_BINDER_H_
#define RFVIEW_PLAN_BINDER_H_

#include <map>
#include <string>

#include "common/status.h"
#include "parser/ast.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"

namespace rfv {

/// Output column name of a non-star SELECT item: its alias, else the
/// name of a plain column reference, else the expression's rendering.
/// The binder names its output columns with it, and the view rewrite
/// renames the rewritten answer's columns with it.
std::string SelectItemName(const SelectItem& item);

/// Semantic analysis: resolves names against the catalog, lowers the
/// parser AST into bound expressions and a logical plan.
///
/// Plan shape produced for a SELECT core, bottom to top:
///   Scan/Join tree (FROM)
///   → Filter (WHERE)
///   → Aggregate (GROUP BY / aggregate functions)
///   → Filter (HAVING)
///   → Window (reporting functions)          — paper's evaluation order §1:
///   → Project (SELECT list)                   group-by first, then
///   → UnionAll (UNION ALL chain)              partitioning/ordering/frames
///   → Sort (ORDER BY) → Limit
class Binder {
 public:
  explicit Binder(Catalog* catalog) : catalog_(catalog) {}

  /// Binds a full SELECT (including UNION ALL chain, ORDER BY, LIMIT).
  Result<LogicalPlanPtr> BindSelect(const SelectStmt& stmt);

  /// Binds a scalar expression against `schema`; aggregates and window
  /// functions are rejected. Used for WHERE in UPDATE/DELETE and for
  /// INSERT values.
  Result<ExprPtr> BindScalar(const AstExpr& ast, const Schema& schema);

 private:
  struct BindEnv {
    const Schema* schema = nullptr;
    /// Replacement of subtrees by output columns of a lower plan node:
    /// by structural rendering (GROUP BY expressions) ...
    const std::map<std::string, size_t>* text_replacements = nullptr;
    /// ... and by node identity (aggregate / window calls collected from
    /// this very statement).
    const std::map<const AstExpr*, size_t>* node_replacements = nullptr;
  };

  Result<LogicalPlanPtr> BindSelectCore(const SelectStmt& stmt);
  Result<LogicalPlanPtr> BindTableRef(const TableRef& ref);
  Result<ExprPtr> BindExpr(const AstExpr& ast, const BindEnv& env);
  Result<ExprPtr> BindAndCheck(const AstExpr& ast, const BindEnv& env);

  /// Maps SUM/COUNT/AVG/MIN/MAX names; nullopt for non-aggregates.
  static std::optional<AggFn> AggFnByName(const std::string& upper_name);

  Catalog* catalog_;
};

}  // namespace rfv

#endif  // RFVIEW_PLAN_BINDER_H_
