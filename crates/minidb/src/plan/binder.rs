//! Binding: `ast::SelectStmt` → [`LogicalPlan`].
//!
//! Responsibilities:
//! * resolve tables and views (views inline recursively, with a depth cap
//!   against cyclic/pathological definitions),
//! * bind all expressions against the appropriate schemas,
//! * split join conditions into hash-able equi keys and residual predicates,
//! * lower aggregates: `GROUP BY` queries become
//!   `Aggregate → Sort → Project`, with the SQL validity rule enforced
//!   (non-aggregate projections must be grouping expressions).

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::expr::{bind_expr, BoundExpr};
use crate::plan::logical::{AggExpr, LogicalPlan};
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, FromClause, SelectItem, SelectStmt};
use crate::value::DataType;

/// Maximum view-inlining depth.
const MAX_VIEW_DEPTH: usize = 16;

/// Binds a SELECT statement into a logical plan.
pub fn bind_select(select: &SelectStmt, catalog: &Catalog) -> DbResult<LogicalPlan> {
    bind_select_depth(select, catalog, 0)
}

fn bind_select_depth(
    select: &SelectStmt,
    catalog: &Catalog,
    depth: usize,
) -> DbResult<LogicalPlan> {
    if depth > MAX_VIEW_DEPTH {
        return Err(DbError::binding("view nesting too deep (cycle?)"));
    }
    let from = select
        .from
        .as_ref()
        .ok_or_else(|| DbError::binding("SELECT requires a FROM clause"))?;
    let mut plan = bind_from(from, catalog, depth)?;

    if let Some(w) = &select.where_clause {
        if contains_agg(w) {
            return Err(DbError::binding("aggregates are not allowed in WHERE"));
        }
        let predicate = bind_expr(w, plan.schema())?;
        expect_boolean(&predicate, "WHERE")?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    let is_aggregate = !select.group_by.is_empty()
        || select.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => contains_agg(expr),
            SelectItem::Star => false,
        })
        || select.order_by.iter().any(|(e, _)| contains_agg(e));

    let mut plan = if is_aggregate {
        bind_aggregate_query(select, plan)?
    } else {
        bind_plain_query(select, plan)?
    };

    if let Some(n) = select.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

fn bind_from(from: &FromClause, catalog: &Catalog, depth: usize) -> DbResult<LogicalPlan> {
    match from {
        FromClause::Table { name, alias } => {
            let alias = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(table) = catalog.table(name) {
                return Ok(LogicalPlan::Scan {
                    table: table.name().to_string(),
                    alias: alias.clone(),
                    schema: table.schema().with_qualifier(&alias),
                });
            }
            if let Some(view) = catalog.view(name) {
                let inner_plan = bind_select_depth(&view.select, catalog, depth + 1)?;
                // Re-expose the view's output under the alias.
                let inner_schema = inner_plan.schema().clone();
                let exprs: Vec<BoundExpr> = inner_schema
                    .columns()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| BoundExpr::Column {
                        index: i,
                        ty: c.ty,
                        name: c.name.clone(),
                    })
                    .collect();
                let schema = Schema::new(
                    inner_schema
                        .columns()
                        .iter()
                        .map(|c| Column::qualified(alias.clone(), c.name.clone(), c.ty))
                        .collect(),
                );
                return Ok(LogicalPlan::Project {
                    input: Box::new(inner_plan),
                    exprs,
                    schema,
                });
            }
            Err(DbError::binding(format!("unknown relation '{name}'")))
        }
        FromClause::Join { left, right, on } => {
            let l = bind_from(left, catalog, depth)?;
            let r = bind_from(right, catalog, depth)?;
            let left_len = l.schema().len();
            let combined = l.schema().join(r.schema());
            if contains_agg(on) {
                return Err(DbError::binding("aggregates are not allowed in ON"));
            }
            let bound_on = bind_expr(on, &combined)?;
            expect_boolean(&bound_on, "ON")?;
            let (equi, residual) = split_join_condition(bound_on, left_len);
            Ok(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                equi,
                residual,
                schema: combined,
            })
        }
    }
}

/// Splits a bound ON condition into equi column pairs and a residual.
fn split_join_condition(
    cond: BoundExpr,
    left_len: usize,
) -> (Vec<(usize, usize)>, Option<BoundExpr>) {
    let mut conjuncts = Vec::new();
    flatten_and(cond, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    for c in conjuncts {
        if let BoundExpr::Binary {
            left,
            op: crate::sql::ast::BinaryOp::Eq,
            right,
        } = &c
        {
            if let (BoundExpr::Column { index: li, .. }, BoundExpr::Column { index: ri, .. }) =
                (left.as_ref(), right.as_ref())
            {
                let (a, b) = (*li, *ri);
                if a < left_len && b >= left_len {
                    equi.push((a, b - left_len));
                    continue;
                }
                if b < left_len && a >= left_len {
                    equi.push((b, a - left_len));
                    continue;
                }
            }
        }
        residual = Some(match residual {
            None => c,
            Some(prev) => BoundExpr::Binary {
                left: Box::new(prev),
                op: crate::sql::ast::BinaryOp::And,
                right: Box::new(c),
            },
        });
    }
    (equi, residual)
}

/// Flattens nested ANDs into a conjunct list.
pub(crate) fn flatten_and(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary {
            left,
            op: crate::sql::ast::BinaryOp::And,
            right,
        } => {
            flatten_and(*left, out);
            flatten_and(*right, out);
        }
        other => out.push(other),
    }
}

fn expect_boolean(e: &BoundExpr, ctx: &str) -> DbResult<()> {
    match e.data_type() {
        None | Some(DataType::Bool) => Ok(()),
        Some(t) => Err(DbError::type_err(format!("{ctx} must be boolean, got {t}"))),
    }
}

fn contains_agg(e: &Expr) -> bool {
    match e {
        Expr::Agg { .. } => true,
        Expr::Column { .. } | Expr::Literal(_) => false,
        Expr::Unary { expr, .. } => contains_agg(expr),
        Expr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        Expr::IsNull { expr, .. } => contains_agg(expr),
    }
}

/// Plain (non-aggregate) query: `input → Sort? → Project → (Limit by caller)`.
fn bind_plain_query(select: &SelectStmt, input: LogicalPlan) -> DbResult<LogicalPlan> {
    let input_schema = input.schema().clone();
    let mut plan = input;

    if !select.order_by.is_empty() {
        let keys: DbResult<Vec<(BoundExpr, bool)>> = select
            .order_by
            .iter()
            .map(|(e, asc)| Ok((bind_expr(e, &input_schema)?, *asc)))
            .collect();
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: keys?,
        };
    }

    let mut exprs = Vec::new();
    let mut columns = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Star => {
                for (i, c) in input_schema.columns().iter().enumerate() {
                    exprs.push(BoundExpr::Column {
                        index: i,
                        ty: c.ty,
                        name: c.name.clone(),
                    });
                    columns.push(c.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = bind_expr(expr, &input_schema)?;
                let ty = bound.data_type().unwrap_or(DataType::Text);
                let name = alias.clone().unwrap_or_else(|| bound.output_name());
                columns.push(Column::new(name, ty));
                exprs.push(bound);
            }
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    })
}

/// Aggregate query: `input → Aggregate → Sort? → Project → (Limit by
/// caller)`.
fn bind_aggregate_query(select: &SelectStmt, input: LogicalPlan) -> DbResult<LogicalPlan> {
    let input_schema = input.schema().clone();

    // Grouping expressions.
    let group_bound: DbResult<Vec<BoundExpr>> = select
        .group_by
        .iter()
        .map(|e| {
            if contains_agg(e) {
                return Err(DbError::binding("aggregates are not allowed in GROUP BY"));
            }
            bind_expr(e, &input_schema)
        })
        .collect();
    let group_bound = group_bound?;

    // Collect distinct aggregate calls from projections and ORDER BY.
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut collect =
        |expr: &Expr| -> DbResult<()> { collect_aggs(expr, &input_schema, &mut aggs) };
    for item in &select.projections {
        match item {
            SelectItem::Star => {
                return Err(DbError::binding("SELECT * is not valid with GROUP BY"))
            }
            SelectItem::Expr { expr, .. } => collect(expr)?,
        }
    }
    for (e, _) in &select.order_by {
        collect(e)?;
    }

    // Output schema of the Aggregate node: group cols then agg cols.
    let mut agg_columns: Vec<Column> = group_bound
        .iter()
        .map(|g| Column::new(g.output_name(), g.data_type().unwrap_or(DataType::Text)))
        .collect();
    for a in &aggs {
        agg_columns.push(Column::new(a.name.clone(), agg_output_type(a)));
    }
    let agg_schema = Schema::new(agg_columns);

    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: group_bound.clone(),
        aggs: aggs.clone(),
        schema: agg_schema.clone(),
    };

    // Resolves an expression over the aggregate output: either a grouping
    // expression or an aggregate call, by position.
    let resolve = |expr: &Expr| -> DbResult<BoundExpr> {
        resolve_over_aggregate(expr, &input_schema, &group_bound, &aggs, &agg_schema)
    };

    if !select.order_by.is_empty() {
        let keys: DbResult<Vec<(BoundExpr, bool)>> = select
            .order_by
            .iter()
            .map(|(e, asc)| Ok((resolve(e)?, *asc)))
            .collect();
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: keys?,
        };
    }

    let mut exprs = Vec::new();
    let mut columns = Vec::new();
    for item in &select.projections {
        if let SelectItem::Expr { expr, alias } = item {
            let bound = resolve(expr)?;
            let ty = bound.data_type().unwrap_or(DataType::Text);
            let name = alias.clone().unwrap_or_else(|| bound.output_name());
            columns.push(Column::new(name, ty));
            exprs.push(bound);
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    })
}

/// Walks `expr` collecting aggregate calls into `aggs` (deduplicated).
fn collect_aggs(expr: &Expr, input: &Schema, aggs: &mut Vec<AggExpr>) -> DbResult<()> {
    match expr {
        Expr::Agg { func, arg } => {
            let bound_arg = match arg {
                Some(a) => {
                    if contains_agg(a) {
                        return Err(DbError::binding("nested aggregates are not supported"));
                    }
                    Some(bind_expr(a, input)?)
                }
                None => None,
            };
            let name = match &bound_arg {
                Some(a) => format!("{func}({a})"),
                None => format!("{func}(*)"),
            };
            if !aggs.iter().any(|x| x.func == *func && x.arg == bound_arg) {
                aggs.push(AggExpr {
                    func: *func,
                    arg: bound_arg,
                    name,
                });
            }
            Ok(())
        }
        Expr::Column { .. } | Expr::Literal(_) => Ok(()),
        Expr::Unary { expr, .. } => collect_aggs(expr, input, aggs),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, input, aggs)?;
            collect_aggs(right, input, aggs)
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, input, aggs),
    }
}

fn agg_output_type(a: &AggExpr) -> DataType {
    use crate::sql::ast::AggFunc;
    match a.func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => a
            .arg
            .as_ref()
            .and_then(|e| e.data_type())
            .unwrap_or(DataType::Float),
    }
}

/// Rewrites `expr` as a [`BoundExpr`] over the aggregate output schema:
/// aggregate calls map to their output ordinal, grouping expressions map to
/// theirs, and other scalar operators apply on top. A bare column that is
/// not a grouping expression is the classic SQL error.
fn resolve_over_aggregate(
    expr: &Expr,
    input: &Schema,
    group_bound: &[BoundExpr],
    aggs: &[AggExpr],
    agg_schema: &Schema,
) -> DbResult<BoundExpr> {
    // An entire sub-expression that equals a grouping expression maps to
    // that group column (covers e.g. GROUP BY a+b ... SELECT a+b).
    if !contains_agg(expr) {
        if let Ok(bound) = bind_expr(expr, input) {
            if let Some(i) = group_bound.iter().position(|g| *g == bound) {
                let col = agg_schema.column(i);
                return Ok(BoundExpr::Column {
                    index: i,
                    ty: col.ty,
                    name: col.name.clone(),
                });
            }
        }
    }
    match expr {
        Expr::Agg { func, arg } => {
            let bound_arg = match arg {
                Some(a) => Some(bind_expr(a, input)?),
                None => None,
            };
            let pos = aggs
                .iter()
                .position(|x| x.func == *func && x.arg == bound_arg)
                .expect("aggregate was collected in the first pass");
            let index = group_bound.len() + pos;
            let col = agg_schema.column(index);
            Ok(BoundExpr::Column {
                index,
                ty: col.ty,
                name: col.name.clone(),
            })
        }
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
            op: *op,
            expr: Box::new(resolve_over_aggregate(
                expr,
                input,
                group_bound,
                aggs,
                agg_schema,
            )?),
        }),
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(resolve_over_aggregate(
                left,
                input,
                group_bound,
                aggs,
                agg_schema,
            )?),
            op: *op,
            right: Box::new(resolve_over_aggregate(
                right,
                input,
                group_bound,
                aggs,
                agg_schema,
            )?),
        }),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(resolve_over_aggregate(
                expr,
                input,
                group_bound,
                aggs,
                agg_schema,
            )?),
            negated: *negated,
        }),
        Expr::Column { qualifier, name } => Err(DbError::binding(format!(
            "column '{}{}' must appear in GROUP BY or inside an aggregate",
            qualifier
                .as_deref()
                .map(|q| format!("{q}."))
                .unwrap_or_default(),
            name
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::View;
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use crate::storage::Table;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut emp = Table::new(
            "emp",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Text),
                Column::new("salary", DataType::Float),
            ]),
        );
        emp.insert(vec![
            Value::Int(1),
            Value::Str("eng".into()),
            Value::Float(10.0),
        ])
        .unwrap();
        c.create_table(emp).unwrap();
        let dept = Table::new(
            "dept",
            Schema::new(vec![
                Column::new("name", DataType::Text),
                Column::new("budget", DataType::Float),
            ]),
        );
        c.create_table(dept).unwrap();
        let Statement::Select(select) =
            parse_statement("SELECT id, salary FROM emp WHERE salary > 5.0").unwrap()
        else {
            unreachable!()
        };
        c.create_view(View {
            name: "rich".into(),
            select,
        })
        .unwrap();
        c
    }

    fn bind(sql: &str) -> DbResult<LogicalPlan> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => bind_select(&s, &catalog()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn binds_simple_select_star() {
        let p = bind("SELECT * FROM emp").unwrap();
        assert_eq!(p.schema().len(), 3);
        assert!(matches!(p, LogicalPlan::Project { .. }));
    }

    #[test]
    fn binds_join_with_equi_keys() {
        let p = bind("SELECT * FROM emp JOIN dept ON emp.dept = dept.name").unwrap();
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(p, LogicalPlan::Join { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        match find_join(&p).expect("join present") {
            LogicalPlan::Join { equi, residual, .. } => {
                assert_eq!(equi, &vec![(1, 0)]);
                assert!(residual.is_none());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn join_with_range_condition_becomes_residual() {
        let p = bind(
            "SELECT * FROM emp JOIN dept ON emp.dept = dept.name AND emp.salary < dept.budget",
        )
        .unwrap();
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(p, LogicalPlan::Join { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        match find_join(&p).unwrap() {
            LogicalPlan::Join { equi, residual, .. } => {
                assert_eq!(equi.len(), 1);
                assert!(residual.is_some());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn view_inlines_with_alias() {
        let p = bind("SELECT r.id FROM rich AS r WHERE r.salary > 6.0").unwrap();
        // The view body (Filter over scan) must be inside.
        let text = p.to_string();
        assert!(text.contains("Scan [emp"), "{text}");
        assert_eq!(p.schema().len(), 1);
    }

    #[test]
    fn aggregate_lowering_shapes_plan() {
        let p =
            bind("SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY dept ORDER BY dept")
                .unwrap();
        let text = p.to_string();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("Sort"), "{text}");
        assert_eq!(p.schema().len(), 3);
        assert_eq!(p.schema().column(1).name, "n");
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind("SELECT salary FROM emp GROUP BY dept").unwrap_err();
        assert!(matches!(err, DbError::Binding(m) if m.contains("GROUP BY")));
    }

    #[test]
    fn star_with_group_by_rejected() {
        assert!(bind("SELECT * FROM emp GROUP BY dept").is_err());
    }

    #[test]
    fn aggregate_in_where_rejected() {
        assert!(bind("SELECT dept FROM emp WHERE COUNT(*) > 1 GROUP BY dept").is_err());
    }

    #[test]
    fn arithmetic_over_aggregates_allowed() {
        let p = bind("SELECT dept, SUM(salary) / COUNT(*) FROM emp GROUP BY dept").unwrap();
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn where_must_be_boolean() {
        assert!(matches!(
            bind("SELECT * FROM emp WHERE salary").unwrap_err(),
            DbError::Type(_)
        ));
    }

    #[test]
    fn unknown_relation_errors() {
        assert!(matches!(
            bind("SELECT * FROM nope").unwrap_err(),
            DbError::Binding(m) if m.contains("unknown relation")
        ));
    }

    #[test]
    fn missing_from_errors() {
        assert!(bind("SELECT 1").is_err());
    }
}
