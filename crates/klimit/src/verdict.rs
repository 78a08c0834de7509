//! Strip-mine parallelizability verdicts under the §2.1 baselines.
//!
//! For every pointer-chasing loop `while p <> NULL { body; p = p->f; }`
//! this module asks the question §4.3.2 asks of general path matrix
//! analysis — *can two iterations touch the same node?* — but answers it
//! from a storage graph instead of an ADDS-guided path matrix. The verdict
//! requires:
//!
//! 1. the loop matches the chase pattern;
//! 2. the body writes only through `p` (single-dereference stores) and
//!    never mutates pointer fields;
//! 3. the body makes no calls — a call havocs the graph, and these
//!    analyses have no interprocedural summaries (ADDS declarations are
//!    exactly what lets the paper's analysis cross call boundaries);
//! 4. at the loop-head fixpoint, [`walk_is_distinct`] holds for
//!    (`pts(p)`, `f`): the advance can never revisit a cell.
//!
//! The corresponding ADDS-side verdict lives in `adds-core::depend`; the
//! precision ladder (`adds-cli ladder`) prints both.

use crate::analysis::{analyze_function, FnGraphs, Mode};
use crate::queries::walk_is_distinct;
use adds_lang::ast::*;
use adds_lang::source::{Diagnostics, Span};
use adds_lang::types::TypedProgram;

/// Verdict for one loop under one baseline analysis.
#[derive(Clone, Debug)]
pub struct PriorCheck {
    /// Which baseline produced this verdict.
    pub mode: Mode,
    /// The loop's source span.
    pub span: Span,
    /// The chase variable/field if the loop matches the pattern.
    pub pattern: Option<(String, String)>,
    /// Whether the baseline can license strip-mining.
    pub parallelizable: bool,
    /// Human-readable reasons when not parallelizable.
    pub reasons: Vec<String>,
}

/// Check every `while` loop of `func` under `mode`.
pub fn check_function(tp: &TypedProgram, func: &str, mode: Mode) -> Vec<PriorCheck> {
    let Some(f) = tp.program.func(func) else {
        return Vec::new();
    };
    let Some(graphs) = analyze_function(tp, func, mode) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    collect_whiles(&f.body, &mut |cond, body, span| {
        out.push(check_one(tp, func, mode, &graphs, cond, body, span));
    });
    out
}

/// Parse + typecheck + check in one step.
pub fn check_source(src: &str, func: &str, mode: Mode) -> Result<Vec<PriorCheck>, Diagnostics> {
    let tp = adds_lang::types::check_source(src)?;
    Ok(check_function(&tp, func, mode))
}

fn collect_whiles(b: &Block, visit: &mut impl FnMut(&Expr, &Block, Span)) {
    for s in &b.stmts {
        match s {
            Stmt::While { cond, body, span } => {
                visit(cond, body, *span);
                collect_whiles(body, visit);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_whiles(then_blk, visit);
                if let Some(e) = else_blk {
                    collect_whiles(e, visit);
                }
            }
            Stmt::For { body, .. } => collect_whiles(body, visit),
            _ => {}
        }
    }
}

fn check_one(
    tp: &TypedProgram,
    func: &str,
    mode: Mode,
    graphs: &FnGraphs,
    cond: &Expr,
    body: &Block,
    span: Span,
) -> PriorCheck {
    let fail = |pattern: Option<(String, String)>, reasons: Vec<String>| PriorCheck {
        mode,
        span,
        pattern,
        parallelizable: false,
        reasons,
    };

    // Pattern: `while p <> NULL`.
    let Some(var) = chase_cond_var(cond) else {
        return fail(None, vec!["loop condition is not `p <> NULL`".into()]);
    };
    if !matches!(tp.var_ty(func, &var), Some(Ty::Ptr(_))) {
        return fail(None, vec![format!("`{var}` is not a pointer variable")]);
    }

    // Pattern: exactly one advance `p = p->f`, as the last statement, and
    // no other assignment to `p` anywhere in the body (including nested
    // blocks — a conditional reassignment would break the walk argument).
    let advance_field = match body.stmts.last() {
        Some(Stmt::Assign { lhs, rhs, .. }) if lhs.is_var() && lhs.base == var => {
            match rhs.as_pointer_path() {
                Some((base, path)) if base == var && path.len() == 1 => path[0].clone(),
                _ => {
                    return fail(
                        None,
                        vec![format!("`{var}` reassigned to a non-advance value")],
                    )
                }
            }
        }
        _ => {
            return fail(
                None,
                vec![format!("no advance statement `{var} = {var}->f`")],
            )
        }
    };
    if assigns_var_nested(&body.stmts[..body.stmts.len() - 1], &var) {
        return fail(
            None,
            vec![format!("`{var}` is assigned elsewhere in the loop body")],
        );
    }
    let field = advance_field;
    let pattern = Some((var.clone(), field.clone()));
    let mut reasons = Vec::new();

    // Body discipline: writes only through `var`, no pointer-field stores,
    // no calls.
    for s in &body.stmts[..body.stmts.len() - 1] {
        body_discipline(tp, func, &var, s, &mut reasons);
    }

    // Cross-iteration read/write disjointness: any field the body writes
    // may only be *read* as `var->field` (the iteration's own node).
    // Reading it through another pointer, or through a longer chain like
    // `var->next->field`, reaches a node some other iteration writes.
    let written = written_scalar_fields(&body.stmts[..body.stmts.len() - 1], &var);
    let mut bad_reads = Vec::new();
    for s in &body.stmts[..body.stmts.len() - 1] {
        collect_conflicting_reads(s, &var, &written, &mut bad_reads);
    }
    for r in bad_reads {
        reasons.push(format!(
            "body reads written field `{r}` through a pointer other than `{var}` \
             (cross-iteration read/write dependence)"
        ));
    }

    // The alias fact, from the loop-head fixpoint graph.
    let Some(lg) = graphs.loop_at(span.start) else {
        reasons.push("no fixpoint recorded for this loop".into());
        return fail(pattern, reasons);
    };
    let start = lg.head.points_to(&var);
    if start.is_empty() {
        // p is definitely NULL: the loop never runs; trivially fine.
    } else if !walk_is_distinct(&lg.head, &start, &field) {
        reasons.push(format!(
            "cannot prove `{var} = {var}->{field}` never revisits a node \
             (summary/external cycle in the storage graph)"
        ));
    }

    PriorCheck {
        mode,
        span,
        pattern,
        parallelizable: reasons.is_empty(),
        reasons,
    }
}

/// Extract `p` from `p <> NULL` / `NULL <> p`.
fn chase_cond_var(cond: &Expr) -> Option<String> {
    if let Expr::Binary {
        op: BinOp::Ne,
        lhs,
        rhs,
        ..
    } = cond
    {
        match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(v, _), Expr::Null(_)) | (Expr::Null(_), Expr::Var(v, _)) => {
                return Some(v.clone())
            }
            _ => {}
        }
    }
    None
}

/// The scalar fields stored through `var` anywhere in `stmts`.
fn written_scalar_fields(stmts: &[Stmt], var: &str) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    fn walk(stmts: &[Stmt], var: &str, out: &mut std::collections::BTreeSet<String>) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, .. } => {
                    if let Some((base, f)) = lhs.as_single_field() {
                        if base == var {
                            out.insert(f.to_string());
                        }
                    }
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    walk(&then_blk.stmts, var, out);
                    if let Some(e) = else_blk {
                        walk(&e.stmts, var, out);
                    }
                }
                Stmt::While { body, .. } | Stmt::For { body, .. } => walk(&body.stmts, var, out),
                _ => {}
            }
        }
    }
    walk(stmts, var, &mut out);
    out
}

/// Record reads of any `written` field that are not exactly `var->field`.
fn collect_conflicting_reads(
    s: &Stmt,
    var: &str,
    written: &std::collections::BTreeSet<String>,
    out: &mut Vec<String>,
) {
    let mut visit_expr = |e: &Expr| expr_conflicting_reads(e, var, written, out);
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            visit_expr(rhs);
            for step in &lhs.path {
                if let Some(ix) = &step.index {
                    visit_expr(ix);
                }
            }
        }
        Stmt::VarDecl { init: Some(e), .. } => visit_expr(e),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            visit_expr(cond);
            for s in &then_blk.stmts {
                collect_conflicting_reads(s, var, written, out);
            }
            if let Some(e) = else_blk {
                for s in &e.stmts {
                    collect_conflicting_reads(s, var, written, out);
                }
            }
        }
        Stmt::While { cond, body, .. } => {
            visit_expr(cond);
            for s in &body.stmts {
                collect_conflicting_reads(s, var, written, out);
            }
        }
        Stmt::For { from, to, body, .. } => {
            visit_expr(from);
            visit_expr(to);
            for s in &body.stmts {
                collect_conflicting_reads(s, var, written, out);
            }
        }
        Stmt::Return { value: Some(e), .. } => visit_expr(e),
        Stmt::Call(c) => {
            for a in &c.args {
                visit_expr(a);
            }
        }
        _ => {}
    }
}

fn expr_conflicting_reads(
    e: &Expr,
    var: &str,
    written: &std::collections::BTreeSet<String>,
    out: &mut Vec<String>,
) {
    match e {
        Expr::Field { field, index, .. } => {
            if written.contains(field) {
                // Allowed only as exactly `var->field`.
                match e.as_pointer_path() {
                    Some((base, path)) if base == var && path.len() == 1 => {}
                    _ => out.push(field.clone()),
                }
            }
            if let Expr::Field { base, .. } = e {
                expr_conflicting_reads(base, var, written, out);
            }
            if let Some(ix) = index {
                expr_conflicting_reads(ix, var, written, out);
            }
        }
        Expr::Unary { operand, .. } => expr_conflicting_reads(operand, var, written, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_conflicting_reads(lhs, var, written, out);
            expr_conflicting_reads(rhs, var, written, out);
        }
        Expr::Call(c) => {
            for a in &c.args {
                expr_conflicting_reads(a, var, written, out);
            }
        }
        _ => {}
    }
}

/// Is `var` assigned anywhere in `stmts`, including nested blocks?
fn assigns_var_nested(stmts: &[Stmt], var: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign { lhs, .. } => lhs.is_var() && lhs.base == var,
        Stmt::VarDecl { name, .. } => name == var,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            assigns_var_nested(&then_blk.stmts, var)
                || else_blk
                    .as_ref()
                    .is_some_and(|e| assigns_var_nested(&e.stmts, var))
        }
        Stmt::While { body, .. } | Stmt::For { body, .. } => assigns_var_nested(&body.stmts, var),
        _ => false,
    })
}

fn body_discipline(tp: &TypedProgram, func: &str, var: &str, s: &Stmt, reasons: &mut Vec<String>) {
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            if expr_has_call(rhs) {
                reasons.push("body calls a function (call havocs the abstract heap)".into());
            }
            // Scalar accumulators (`sum = sum + …`) are loop-carried
            // dependences regardless of aliasing.
            if lhs.is_var() && expr_mentions_var(rhs, &lhs.base) {
                reasons.push(format!(
                    "`{}` accumulates across iterations (scalar loop-carried dependence)",
                    lhs.base
                ));
            }
            if !lhs.is_var() {
                if lhs.base != var || lhs.path.len() != 1 {
                    reasons.push(format!(
                        "store through `{}` is not a single-field write via `{var}`",
                        lhs.base
                    ));
                }
                // A pointer-field store rearranges the structure.
                if let Some((base, f)) = lhs.as_single_field() {
                    if let Some(Ty::Ptr(record)) = tp.var_ty(func, base) {
                        if matches!(tp.field_ty(record, f), Some(Ty::Ptr(_))) {
                            reasons.push(format!("body mutates pointer field `{f}`"));
                        }
                    }
                }
            }
        }
        Stmt::Call(_) => {
            reasons.push("body calls a procedure (call havocs the abstract heap)".into());
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            if expr_has_call(cond) {
                reasons.push("body calls a function (call havocs the abstract heap)".into());
            }
            for s in &then_blk.stmts {
                body_discipline(tp, func, var, s, reasons);
            }
            if let Some(e) = else_blk {
                for s in &e.stmts {
                    body_discipline(tp, func, var, s, reasons);
                }
            }
        }
        Stmt::While { .. } | Stmt::For { .. } => {
            reasons.push("nested loop in body (out of pattern)".into());
        }
        Stmt::VarDecl { init: Some(e), .. } => {
            if expr_has_call(e) {
                reasons.push("body calls a function (call havocs the abstract heap)".into());
            }
        }
        Stmt::VarDecl { .. } | Stmt::Return { .. } => {}
    }
}

fn expr_has_call(e: &Expr) -> bool {
    match e {
        Expr::Call(_) => true,
        Expr::Field { base, index, .. } => {
            expr_has_call(base) || index.as_deref().is_some_and(expr_has_call)
        }
        Expr::Unary { operand, .. } => expr_has_call(operand),
        Expr::Binary { lhs, rhs, .. } => expr_has_call(lhs) || expr_has_call(rhs),
        _ => false,
    }
}

fn expr_mentions_var(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Var(v, _) => v == var,
        Expr::Field { base, index, .. } => {
            expr_mentions_var(base, var)
                || index
                    .as_deref()
                    .is_some_and(|ix| expr_mentions_var(ix, var))
        }
        Expr::Unary { operand, .. } => expr_mentions_var(operand, var),
        Expr::Binary { lhs, rhs, .. } => expr_mentions_var(lhs, var) || expr_mentions_var(rhs, var),
        Expr::Call(c) => c.args.iter().any(|a| expr_mentions_var(a, var)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    fn verdicts(src: &str, func: &str, mode: Mode) -> Vec<PriorCheck> {
        check_source(src, func, mode).expect("program checks")
    }

    /// The scale loop, walking a list built in the same function by a
    /// straight-line sequence — small enough to stay within k.
    #[test]
    fn straight_line_list_parallelizes_under_all_heap_analyses() {
        for mode in [Mode::KLimit(3), Mode::AllocSite] {
            let v = verdicts(programs::STRAIGHT_LINE_SCALE, "main", mode);
            assert_eq!(v.len(), 1, "{mode:?}");
            assert!(
                v[0].parallelizable,
                "{mode:?} should handle a 3-cell straight-line list: {:?}",
                v[0].reasons
            );
        }
        // The blob can never prove anything.
        let v = verdicts(programs::STRAIGHT_LINE_SCALE, "main", Mode::Blob);
        assert!(!v[0].parallelizable);
    }

    /// §2.1's central complaint: the k-limit merge introduces a cycle, so
    /// the loop-built list cannot be walked provably-distinctly …
    #[test]
    fn loop_built_list_defeats_klimit() {
        for k in [1, 2, 4] {
            let v = verdicts(programs::LOOP_BUILT_SCALE, "main", Mode::KLimit(k));
            let walk = v.last().unwrap();
            assert!(!walk.parallelizable, "k={k} must fail on an unbounded list");
            assert!(
                walk.reasons.iter().any(|r| r.contains("revisit")),
                "{:?}",
                walk.reasons
            );
        }
    }

    /// … while the CWZ-style ordered edges keep it acyclic ("addressed
    /// this problem to some degree").
    #[test]
    fn loop_built_list_parallelizes_under_allocsite() {
        let v = verdicts(programs::LOOP_BUILT_SCALE, "main", Mode::AllocSite);
        let walk = v.last().unwrap();
        assert!(walk.parallelizable, "{:?}", walk.reasons);
    }

    /// §2.1 on CWZ: "their method fails to find accurate structure
    /// estimates in the presence of general recursion."
    #[test]
    fn recursive_builder_defeats_all_baselines() {
        for mode in [Mode::Blob, Mode::KLimit(4), Mode::AllocSite] {
            let v = verdicts(programs::RECURSIVE_BUILT_SCALE, "main", mode);
            let walk = v.last().unwrap();
            assert!(
                !walk.parallelizable,
                "{mode:?} must fail: the list came from a recursive builder"
            );
        }
    }

    /// A function receiving the list as a parameter — the paper's actual
    /// `scale(head, c)` — is beyond every declaration-free analysis.
    #[test]
    fn parameter_list_defeats_all_baselines() {
        for mode in [Mode::Blob, Mode::KLimit(4), Mode::AllocSite] {
            let v = verdicts(programs::PARAM_SCALE, "scale", mode);
            assert_eq!(v.len(), 1);
            assert!(
                !v[0].parallelizable,
                "{mode:?} cannot know the shape of a parameter"
            );
        }
    }

    #[test]
    fn pointer_mutation_in_body_is_rejected() {
        let src = "
type L { int v; L *next; };
procedure main() {
    var a: L*; var p: L*;
    a = new L;
    p = a;
    while p <> NULL {
        p->next = NULL;
        p = p->next;
    }
}";
        let v = verdicts(src, "main", Mode::AllocSite);
        assert!(!v[0].parallelizable);
        assert!(v[0].reasons.iter().any(|r| r.contains("pointer field")));
    }

    #[test]
    fn call_in_body_is_rejected() {
        let src = "
type L { int v; L *next; };
procedure visit(x: L*) { }
procedure main() {
    var a: L*; var p: L*;
    a = new L;
    p = a;
    while p <> NULL {
        visit(p);
        p = p->next;
    }
}";
        let v = verdicts(src, "main", Mode::AllocSite);
        assert!(!v[0].parallelizable);
        assert!(v[0].reasons.iter().any(|r| r.contains("havoc")));
    }

    #[test]
    fn read_of_written_field_through_other_pointer_is_rejected() {
        // Iteration 1 writes head->v (p == head there); iteration 2 reads
        // it — a cross-iteration dependence no walk argument removes.
        let src = "
type L { int v; L *next; };
procedure main() {
    var a: L*; var b: L*; var p: L*;
    a = new L;
    b = new L;
    a->next = b;
    p = a;
    while p <> NULL {
        p->v = a->v + 1;
        p = p->next;
    }
}";
        let v = verdicts(src, "main", Mode::AllocSite);
        assert!(!v[0].parallelizable);
        assert!(
            v[0].reasons.iter().any(|r| r.contains("read/write")),
            "{:?}",
            v[0].reasons
        );
    }

    #[test]
    fn read_of_written_field_through_chain_is_rejected() {
        // p->next->v reads the node the NEXT iteration writes.
        let src = "
type L { int v; L *next; };
procedure main() {
    var a: L*; var b: L*; var p: L*;
    a = new L;
    b = new L;
    a->next = b;
    p = a;
    while p <> NULL {
        p->v = p->next->v;
        p = p->next;
    }
}";
        let v = verdicts(src, "main", Mode::AllocSite);
        assert!(!v[0].parallelizable);
        assert!(v[0].reasons.iter().any(|r| r.contains("read/write")));
    }

    #[test]
    fn own_node_read_modify_write_is_allowed() {
        // p->v = p->v * 2 touches only the iteration's own node.
        let v = verdicts(programs::STRAIGHT_LINE_SCALE, "main", Mode::AllocSite);
        assert!(v[0].parallelizable, "{:?}", v[0].reasons);
    }

    #[test]
    fn non_chase_loops_are_reported_not_crashed() {
        let src = "
type L { int v; L *next; };
procedure main() {
    var i: int;
    i = 0;
    while i < 10 { i = i + 1; }
}";
        let v = verdicts(src, "main", Mode::AllocSite);
        assert_eq!(v.len(), 1);
        assert!(!v[0].parallelizable);
        assert!(v[0].pattern.is_none());
    }
}
