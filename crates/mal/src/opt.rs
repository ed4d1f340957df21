//! MAL optimizer pipeline.
//!
//! MonetDB runs a battery of MAL optimizers between the code generator and
//! the interpreter (Fig 2 of the paper). We implement the passes that
//! matter for the SciQL workload, in pipeline order:
//!
//! * **constant folding** — pure scalar primitives with constant arguments
//!   are evaluated at optimization time;
//! * **common sub-expression elimination** — identical pure instructions
//!   compute once;
//! * **alias removal** — `language.pass` identities are short-circuited;
//! * **dead code elimination** — pure instructions whose results are never
//!   used are dropped;
//! * **candidate propagation** — a scalar aggregate over
//!   `algebra.projection(cand, col)` consumes the candidate list directly
//!   (`aggr.f(col, cand)`), skipping the projected intermediate;
//! * **select→project fusion** — a single-consumer `algebra.thetaselect`
//!   feeding `algebra.projection` becomes one `algebra.selectproject`
//!   instruction backed by the fused [`gdk::fused`] kernel, so the
//!   candidate list is never materialised;
//! * **select→aggregate fusion** — a single-consumer selection feeding a
//!   scalar aggregate becomes one `aggr.selectagg` instruction: one scan,
//!   no candidate list, no projected BAT.
//!
//! The pipeline is driven by [`OptConfig`] (per-pass ablation switches,
//! or the coarse [`OptConfig::level`] exposed as `SessionConfig::opt_level`)
//! and reports what it did in [`PassStats`].

use crate::interp::MalValue;
use crate::ir::{Arg, Instr, Prim, Program, VarId};
use crate::registry::{ExecCtx, Registry};
use sciql_obs::{SpanId, Tracer};

use std::collections::{HashMap, HashSet};

/// What each pass did. Threaded through the engine's `LastExec` so the
/// REPL's `\timing`, the net protocol's stats frame and the
/// optimizer-ablation bench can surface it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Instructions removed by CSE.
    pub cse_hits: usize,
    /// Alias instructions removed.
    pub aliases_removed: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Candidate lists propagated into scalar aggregates.
    pub candprop: usize,
    /// `thetaselect`+`projection` pairs fused into `selectproject`.
    pub select_project_fused: usize,
    /// Selection→aggregate chains fused into `selectagg`.
    pub select_aggregate_fused: usize,
    /// MAL instructions before the pipeline ran.
    pub instrs_before: usize,
    /// MAL instructions after the pipeline ran.
    pub instrs_after: usize,
}

impl PassStats {
    /// Total instructions eliminated by the classic shrinking passes.
    pub fn total_removed(&self) -> usize {
        self.folded + self.cse_hits + self.aliases_removed + self.dead_removed
    }

    /// Rewrites that avoid materialising an intermediate at runtime.
    pub fn fusions(&self) -> usize {
        self.candprop + self.select_project_fused + self.select_aggregate_fused
    }
}

/// Which passes to run (the ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Enable constant folding.
    pub constfold: bool,
    /// Enable common sub-expression elimination.
    pub cse: bool,
    /// Enable alias removal.
    pub alias: bool,
    /// Enable dead code elimination.
    pub dce: bool,
    /// Enable candidate propagation into scalar aggregates.
    pub candprop: bool,
    /// Enable select→project fusion.
    pub fuse_select_project: bool,
    /// Enable select→aggregate fusion.
    pub fuse_select_aggregate: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            constfold: true,
            cse: true,
            alias: true,
            dce: true,
            candprop: true,
            fuse_select_project: true,
            fuse_select_aggregate: true,
        }
    }
}

impl OptConfig {
    /// All passes disabled (the ablation baseline, `opt_level = 0`).
    pub fn none() -> Self {
        OptConfig {
            constfold: false,
            cse: false,
            alias: false,
            dce: false,
            candprop: false,
            fuse_select_project: false,
            fuse_select_aggregate: false,
        }
    }

    /// The classic shrinking passes only — no rewrites that change which
    /// kernels run (`opt_level = 1`).
    pub fn classic() -> Self {
        OptConfig {
            candprop: false,
            fuse_select_project: false,
            fuse_select_aggregate: false,
            ..OptConfig::default()
        }
    }

    /// The full pipeline including candidate propagation and kernel
    /// fusion (`opt_level = 2`, the default).
    pub fn full() -> Self {
        OptConfig::default()
    }

    /// Coarse pipeline selection: `0` = off, `1` = classic shrinking
    /// passes, `2` (and above) = full pipeline with fusion.
    pub fn level(level: u8) -> Self {
        match level {
            0 => OptConfig::none(),
            1 => OptConfig::classic(),
            _ => OptConfig::full(),
        }
    }
}

/// Run the configured pipeline in place; returns a report. The
/// [`Registry`] argument is ignored: it remains only so the standalone
/// `benchmark/` crate keeps compiling (see [`Registry`]).
pub fn optimise(prog: &mut Program, registry: &Registry, cfg: OptConfig) -> PassStats {
    let _ = registry;
    optimise_traced(prog, cfg, &mut Tracer::off(), SpanId::ROOT)
}

/// [`optimise`] with a per-pass span recorded under `parent` (each pass
/// is annotated with its rewrite count).
pub fn optimise_traced(
    prog: &mut Program,
    cfg: OptConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> PassStats {
    let mut report = PassStats {
        instrs_before: prog.instrs.len(),
        ..PassStats::default()
    };
    let mut pass = |tracer: &mut Tracer,
                    enabled: bool,
                    name: &str,
                    f: &mut dyn FnMut(&mut Program) -> usize|
     -> usize {
        if !enabled {
            return 0;
        }
        let sp = tracer.open(parent, name);
        let n = f(prog);
        tracer.note(sp, "rewrites", n as u64);
        tracer.close(sp);
        n
    };
    report.folded = pass(tracer, cfg.constfold, "pass:constfold", &mut constfold);
    report.cse_hits = pass(tracer, cfg.cse, "pass:cse", &mut cse);
    report.aliases_removed = pass(tracer, cfg.alias, "pass:alias", &mut alias_removal);
    // DCE runs before the fusion passes so dead projections (columns a
    // filter carried along that nothing reads) don't inflate candidate
    // use counts and block fusion.
    report.dead_removed = pass(tracer, cfg.dce, "pass:dce", &mut dce);
    report.candprop = pass(tracer, cfg.candprop, "pass:candprop", &mut candprop);
    report.select_project_fused = pass(
        tracer,
        cfg.fuse_select_project,
        "pass:fuse_select_project",
        &mut fuse_select_project,
    );
    report.select_aggregate_fused = pass(
        tracer,
        cfg.fuse_select_aggregate,
        "pass:fuse_select_aggregate",
        &mut fuse_select_aggregate,
    );
    // Safety-net DCE after fusion (the fusion passes delete the producers
    // they consumed themselves, so this is usually a no-op).
    if report.fusions() > 0 {
        report.dead_removed += pass(tracer, cfg.dce, "pass:dce(post-fusion)", &mut dce);
    }
    report.instrs_after = prog.instrs.len();
    report
}

/// Replace every use of the vars in `subst` by the mapped argument.
fn substitute(prog: &mut Program, subst: &HashMap<VarId, Arg>) {
    if subst.is_empty() {
        return;
    }
    let resolve = |a: &Arg| -> Arg {
        let mut cur = a.clone();
        // Chase chains (alias of alias).
        let mut guard = 0;
        while let Arg::Var(v) = cur {
            match subst.get(&v) {
                Some(next) => {
                    cur = next.clone();
                    guard += 1;
                    if guard > prog_len_guard(subst.len()) {
                        break;
                    }
                }
                None => break,
            }
        }
        cur
    };
    for ins in &mut prog.instrs {
        for a in &mut ins.args {
            *a = resolve(a);
        }
    }
    for (_, v) in &mut prog.results {
        if let Arg::Var(nv) = resolve(&Arg::Var(*v)) {
            *v = nv;
        }
        // A result folded to a constant keeps its var: constfold never folds
        // result variables (see below).
    }
}

fn prog_len_guard(n: usize) -> usize {
    n + 4
}

/// Constant folding. Only scalar-result primitives are folded, and never
/// instructions producing a program result variable (results must stay
/// materialised).
fn constfold(prog: &mut Program) -> usize {
    let result_vars: std::collections::HashSet<VarId> =
        prog.results.iter().map(|(_, v)| *v).collect();
    let mut subst: HashMap<VarId, Arg> = HashMap::new();
    let mut kept: Vec<Instr> = Vec::with_capacity(prog.instrs.len());
    let mut folded = 0usize;
    for ins in std::mem::take(&mut prog.instrs) {
        // Re-resolve args through what we already folded.
        let mut ins = ins;
        for a in &mut ins.args {
            if let Arg::Var(v) = a {
                if let Some(c) = subst.get(v) {
                    *a = c.clone();
                }
            }
        }
        // BAT constructors may produce large BATs: never folded.
        let constructor = matches!(
            ins.op,
            Prim::Series
                | Prim::Filler
                | Prim::Shift
                | Prim::New
                | Prim::Dense
                | Prim::Materialise
                | Prim::Single
        );
        let foldable = ins.op.is_pure()
            && !constructor
            && ins.results.len() == 1
            && !result_vars.contains(&ins.results[0])
            && ins.args.iter().all(|a| matches!(a, Arg::Const(_)));
        if foldable {
            let args: Vec<MalValue> = ins
                .args
                .iter()
                .map(|a| match a {
                    Arg::Const(v) => MalValue::Scalar(v.clone()),
                    // Param args are never constant-folded (their value
                    // changes per execution), Var args were filtered by
                    // the all-const check above.
                    Arg::Var(_) | Arg::Param(_) => unreachable!("checked all-const above"),
                })
                .collect();
            if let Ok(outs) = crate::prims::call(ins.op, &args, &ExecCtx::serial()) {
                if let [MalValue::Scalar(v)] = outs.as_slice() {
                    subst.insert(ins.results[0], Arg::Const(v.clone()));
                    folded += 1;
                    continue;
                }
            }
        }
        kept.push(ins);
    }
    prog.instrs = kept;
    substitute(prog, &subst);
    folded
}

/// Common sub-expression elimination over pure instructions.
fn cse(prog: &mut Program) -> usize {
    // Key: (opcode, rendered args). Values are result vars.
    let mut seen: HashMap<(Prim, String), Vec<VarId>> = HashMap::new();
    let mut subst: HashMap<VarId, Arg> = HashMap::new();
    let mut kept: Vec<Instr> = Vec::with_capacity(prog.instrs.len());
    let mut hits = 0usize;
    for ins in std::mem::take(&mut prog.instrs) {
        let mut ins = ins;
        for a in &mut ins.args {
            if let Arg::Var(v) = a {
                if let Some(c) = subst.get(v) {
                    *a = c.clone();
                }
            }
        }
        if !ins.op.is_pure() {
            kept.push(ins);
            continue;
        }
        let key = (ins.op, format!("{:?}", ins.args));
        match seen.get(&key) {
            Some(prev) if prev.len() == ins.results.len() => {
                for (old, new) in ins.results.iter().zip(prev) {
                    subst.insert(*old, Arg::Var(*new));
                }
                hits += 1;
            }
            _ => {
                seen.insert(key, ins.results.clone());
                kept.push(ins);
            }
        }
    }
    prog.instrs = kept;
    substitute(prog, &subst);
    hits
}

/// Remove `language.pass` aliases.
fn alias_removal(prog: &mut Program) -> usize {
    let mut subst: HashMap<VarId, Arg> = HashMap::new();
    let mut kept: Vec<Instr> = Vec::with_capacity(prog.instrs.len());
    let mut removed = 0usize;
    for ins in std::mem::take(&mut prog.instrs) {
        if ins.op == Prim::Pass && ins.results.len() == 1 && ins.args.len() == 1 {
            subst.insert(ins.results[0], ins.args[0].clone());
            removed += 1;
        } else {
            kept.push(ins);
        }
    }
    prog.instrs = kept;
    substitute(prog, &subst);
    removed
}

/// Dead code elimination: drop pure instructions none of whose results are
/// ever used (transitively, scanning backwards).
fn dce(prog: &mut Program) -> usize {
    let mut live: Vec<bool> = vec![false; prog.vars.len()];
    for (_, v) in &prog.results {
        live[*v] = true;
    }
    let mut keep: Vec<bool> = vec![true; prog.instrs.len()];
    for (i, ins) in prog.instrs.iter().enumerate().rev() {
        let needed = !ins.op.is_pure() || ins.results.iter().any(|&r| live[r]);
        keep[i] = needed;
        if needed {
            for u in Program::uses(ins) {
                live[u] = true;
            }
        }
    }
    let before = prog.instrs.len();
    let mut it = keep.iter();
    prog.instrs.retain(|_| *it.next().expect("keep aligned"));
    before - prog.instrs.len()
}

// ---------------------------------------------------------------------
// Candidate propagation and kernel fusion
// ---------------------------------------------------------------------

/// Per-variable use count: argument reads plus program-result listings.
fn use_counts(prog: &Program) -> Vec<usize> {
    let mut counts = vec![0usize; prog.vars.len()];
    for ins in &prog.instrs {
        for u in Program::uses(ins) {
            counts[u] += 1;
        }
    }
    for (_, v) in &prog.results {
        counts[*v] += 1;
    }
    counts
}

/// Per-variable producing instruction index (straight-line SSA: at most
/// one producer).
fn producers(prog: &Program) -> Vec<Option<usize>> {
    let mut p = vec![None; prog.vars.len()];
    for (i, ins) in prog.instrs.iter().enumerate() {
        for &r in &ins.results {
            p[r] = Some(i);
        }
    }
    p
}

/// Is this a scalar aggregate the fusion passes understand?
fn scalar_agg(ins: &Instr) -> bool {
    matches!(ins.op, Prim::Agg(_))
}

fn remove_instrs(prog: &mut Program, removed: &HashSet<usize>) {
    if removed.is_empty() {
        return;
    }
    let mut i = 0usize;
    prog.instrs.retain(|_| {
        let keep = !removed.contains(&i);
        i += 1;
        keep
    });
}

/// Candidate propagation: `aggr.f(p)` where `p := algebra.projection(c,
/// col)` is read only by this aggregate becomes `aggr.f(col, c)` — the
/// aggregate walks the candidate list directly and the projected BAT is
/// never materialised. The dead projection is removed here (its single
/// consumer is gone).
fn candprop(prog: &mut Program) -> usize {
    let counts = use_counts(prog);
    let producer = producers(prog);
    let mut removed: HashSet<usize> = HashSet::new();
    let mut edits: Vec<(usize, Vec<Arg>)> = Vec::new();
    for (i, ins) in prog.instrs.iter().enumerate() {
        if !scalar_agg(ins) || ins.args.len() != 1 {
            continue;
        }
        let Arg::Var(p) = ins.args[0] else { continue };
        if counts[p] != 1 {
            continue; // someone else (or the result list) reads p
        }
        let Some(j) = producer[p] else { continue };
        let pj = &prog.instrs[j];
        if pj.op != Prim::Projection || pj.args.len() != 2 {
            continue;
        }
        let Arg::Var(c) = pj.args[0] else { continue };
        if prog.vars[c].ty != crate::ir::MalType::Cand {
            continue; // oid-BAT projection (join result), not a candidate list
        }
        edits.push((i, vec![pj.args[1].clone(), Arg::Var(c)]));
        removed.insert(j);
    }
    let hits = edits.len();
    for (i, args) in edits {
        prog.instrs[i].args = args;
    }
    remove_instrs(prog, &removed);
    hits
}

/// Select→project fusion: `p := algebra.projection(c, payload)` where
/// `c := algebra.thetaselect(…)` has no other reader becomes `p :=
/// algebra.selectproject(…, payload)`; the selection instruction is
/// removed and the candidate list never exists at runtime.
fn fuse_select_project(prog: &mut Program) -> usize {
    let counts = use_counts(prog);
    let producer = producers(prog);
    let mut removed: HashSet<usize> = HashSet::new();
    let mut edits: Vec<(usize, Vec<Arg>)> = Vec::new();
    for (i, ins) in prog.instrs.iter().enumerate() {
        if ins.op != Prim::Projection || ins.args.len() != 2 {
            continue;
        }
        let Arg::Var(c) = ins.args[0] else { continue };
        if prog.vars[c].ty != crate::ir::MalType::Cand || counts[c] != 1 {
            continue;
        }
        let Some(j) = producer[c] else { continue };
        let theta = &prog.instrs[j];
        if theta.op != Prim::ThetaSelect {
            continue;
        }
        // selectproject args = thetaselect args + payload.
        let mut args = theta.args.clone();
        args.push(ins.args[1].clone());
        edits.push((i, args));
        removed.insert(j);
    }
    let hits = edits.len();
    for (i, args) in edits {
        let ins = &mut prog.instrs[i];
        ins.op = Prim::SelectProject;
        ins.args = args;
    }
    remove_instrs(prog, &removed);
    hits
}

/// Select→aggregate fusion. Two shapes feed it:
///
/// * `s := aggr.f(col, c)` (the candprop form) with `c :=
///   algebra.thetaselect(…)` unread elsewhere;
/// * `s := aggr.f(p)` with `p := algebra.selectproject(…, payload)`
///   unread elsewhere (when candprop was ablated off but select→project
///   fusion ran).
///
/// Both become `s := aggr.selectagg(f, payload, …)` — one scan, no
/// candidate list, no projected BAT.
fn fuse_select_aggregate(prog: &mut Program) -> usize {
    let counts = use_counts(prog);
    let producer = producers(prog);
    let mut removed: HashSet<usize> = HashSet::new();
    let mut edits: Vec<(usize, Vec<Arg>)> = Vec::new();
    for (i, ins) in prog.instrs.iter().enumerate() {
        if !scalar_agg(ins) {
            continue;
        }
        // selectagg names its aggregate by the function part of
        // `aggr.<f>`.
        let (_, f) = ins.op.name().split_once('.').expect("module.function");
        let func = Arg::Const(gdk::Value::Str(f.to_owned()));
        match ins.args.as_slice() {
            // aggr.f(payload, cand) — candprop already ran.
            [payload, Arg::Var(c)] => {
                if prog.vars[*c].ty != crate::ir::MalType::Cand || counts[*c] != 1 {
                    continue;
                }
                let Some(j) = producer[*c] else { continue };
                let theta = &prog.instrs[j];
                if theta.op != Prim::ThetaSelect {
                    continue;
                }
                // selectagg args = (func, payload) + thetaselect args.
                let mut args = vec![func, payload.clone()];
                args.extend(theta.args.iter().cloned());
                edits.push((i, args));
                removed.insert(j);
            }
            // aggr.f(p) with p := selectproject(…, payload).
            [Arg::Var(p)] => {
                if counts[*p] != 1 {
                    continue;
                }
                let Some(j) = producer[*p] else { continue };
                let sp = &prog.instrs[j];
                if sp.op != Prim::SelectProject {
                    continue;
                }
                let (payload, theta_args) = sp.args.split_last().expect("selectproject args");
                let mut args = vec![func, payload.clone()];
                args.extend(theta_args.iter().cloned());
                edits.push((i, args));
                removed.insert(j);
            }
            _ => {}
        }
    }
    let hits = edits.len();
    for (i, args) in edits {
        let ins = &mut prog.instrs[i];
        ins.op = Prim::SelectAgg;
        ins.args = args;
    }
    remove_instrs(prog, &removed);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{EmptyBinder, Interpreter};
    use crate::ir::MalType;
    use gdk::aggregate::AggFunc;
    use gdk::arith::BinOp;
    use gdk::{ScalarType, Value};

    fn optimise(p: &mut Program, cfg: OptConfig) -> PassStats {
        optimise_traced(p, cfg, &mut Tracer::off(), SpanId::ROOT)
    }

    /// x = 2+3; y = 2+3; z = series(0,1,x,1,1); dead = 9*9; result z
    fn sample() -> Program {
        let mut p = Program::new("opt");
        let x = p.emit(
            Prim::Bin(BinOp::Add),
            vec![Arg::Const(Value::Int(2)), Arg::Const(Value::Int(3))],
            MalType::Scalar(ScalarType::Int),
        );
        let y = p.emit(
            Prim::Bin(BinOp::Add),
            vec![Arg::Const(Value::Int(2)), Arg::Const(Value::Int(3))],
            MalType::Scalar(ScalarType::Int),
        );
        let z = p.emit(
            Prim::Series,
            vec![
                Arg::Const(Value::Int(0)),
                Arg::Const(Value::Int(1)),
                Arg::Var(x),
                Arg::Const(Value::Lng(1)),
                Arg::Const(Value::Lng(1)),
            ],
            MalType::Bat(ScalarType::Int),
        );
        let _dead = p.emit(
            Prim::Bin(BinOp::Mul),
            vec![Arg::Const(Value::Int(9)), Arg::Var(y)],
            MalType::Scalar(ScalarType::Int),
        );
        p.add_result("z", z);
        p
    }

    #[test]
    fn full_pipeline_shrinks_program() {
        let mut p = sample();
        let before = p.instrs.len();
        let report = optimise(&mut p, OptConfig::default());
        assert!(report.total_removed() > 0);
        assert!(p.instrs.len() < before);
        // Only the series instruction should remain.
        assert_eq!(p.instrs.len(), 1);
        assert_eq!(p.instrs[0].op, Prim::Series);
        // Its stop argument should now be the constant 5.
        assert_eq!(p.instrs[0].args[2], Arg::Const(Value::Int(5)));
    }

    #[test]
    fn optimised_program_same_answer() {
        let mut p = sample();
        let interp = Interpreter::new(&EmptyBinder);
        let plain = interp.run(&p).unwrap();
        optimise(&mut p, OptConfig::default());
        let opt = interp.run(&p).unwrap();
        assert_eq!(
            plain[0].1.as_bat().unwrap().to_values(),
            opt[0].1.as_bat().unwrap().to_values()
        );
        assert_eq!(plain[0].1.as_bat().unwrap().len(), 5);
    }

    #[test]
    fn cse_only() {
        let mut p = sample();
        let report = optimise(
            &mut p,
            OptConfig {
                cse: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(report.cse_hits, 1, "y duplicates x");
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut p = Program::new("se");
        // sql.bind reads storage; it must survive DCE even though unused.
        p.emit(
            Prim::Bind,
            vec![
                Arg::Const(Value::Str("m".into())),
                Arg::Const(Value::Str("v".into())),
            ],
            MalType::Bat(ScalarType::Int),
        );
        optimise(&mut p, OptConfig::default());
        assert_eq!(p.instrs.len(), 1);
    }

    #[test]
    fn alias_chains_resolve() {
        let mut p = Program::new("al");
        let a = p.emit(
            Prim::Bin(BinOp::Add),
            vec![Arg::Const(Value::Int(1)), Arg::Const(Value::Int(1))],
            MalType::Scalar(ScalarType::Int),
        );
        let b = p.emit(
            Prim::Pass,
            vec![Arg::Var(a)],
            MalType::Scalar(ScalarType::Int),
        );
        let c = p.emit(
            Prim::Pass,
            vec![Arg::Var(b)],
            MalType::Scalar(ScalarType::Int),
        );
        let d = p.emit(
            Prim::Filler,
            vec![Arg::Const(Value::Lng(2)), Arg::Var(c)],
            MalType::Bat(ScalarType::Int),
        );
        p.add_result("d", d);
        optimise(
            &mut p,
            OptConfig {
                alias: true,
                dce: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(p.instrs.len(), 2, "add + filler remain");
        assert_eq!(p.instrs[1].args[1], Arg::Var(a));
    }

    /// bind-free stand-in for a compiled `SELECT f(v) FROM t WHERE x > 1`:
    /// fillers for the columns, a theta chain, projections, an aggregate.
    fn select_agg_program(agg: AggFunc) -> Program {
        let mut p = Program::new("fs");
        let x = p.emit(
            Prim::Filler,
            vec![Arg::Const(Value::Lng(6)), Arg::Const(Value::Int(2))],
            MalType::Bat(ScalarType::Int),
        );
        let v = p.emit(
            Prim::Series,
            vec![
                Arg::Const(Value::Int(0)),
                Arg::Const(Value::Int(1)),
                Arg::Const(Value::Int(6)),
                Arg::Const(Value::Lng(6)),
                Arg::Const(Value::Lng(1)),
            ],
            MalType::Bat(ScalarType::Int),
        );
        let c = p.emit(
            Prim::ThetaSelect,
            vec![
                Arg::Var(x),
                Arg::Const(Value::Int(1)),
                Arg::Const(Value::Str(">".into())),
            ],
            MalType::Cand,
        );
        let pv = p.emit(
            Prim::Projection,
            vec![Arg::Var(c), Arg::Var(v)],
            MalType::Bat(ScalarType::Int),
        );
        let s = p.emit(
            Prim::Agg(agg),
            vec![Arg::Var(pv)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("s", s);
        p
    }

    #[test]
    fn candprop_rewrites_aggregate_over_projection() {
        let mut p = select_agg_program(AggFunc::Sum);
        let report = optimise(
            &mut p,
            OptConfig {
                candprop: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(report.candprop, 1);
        let text = p.to_text();
        assert!(!text.contains("algebra.projection"), "{text}");
        assert!(text.contains("aggr.sum"), "{text}");
        // The aggregate now takes (payload, cand).
        let agg = p
            .instrs
            .iter()
            .find(|i| i.op == Prim::Agg(AggFunc::Sum))
            .unwrap();
        assert_eq!(agg.args.len(), 2);
    }

    #[test]
    fn select_project_fuses_single_consumer_only() {
        // Single consumer: fuses.
        let mut p = select_agg_program(AggFunc::Sum);
        let report = optimise(
            &mut p,
            OptConfig {
                fuse_select_project: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(report.select_project_fused, 1);
        let text = p.to_text();
        assert!(text.contains("algebra.selectproject"), "{text}");
        assert!(!text.contains("thetaselect"), "{text}");
        // Two consumers: the candidate list stays shared, no fusion.
        let mut p2 = select_agg_program(AggFunc::Sum);
        let c = match p2.instrs[2].results.as_slice() {
            [c] => *c,
            _ => unreachable!(),
        };
        let extra = p2.emit(
            Prim::Projection,
            vec![Arg::Var(c), Arg::Var(0)],
            MalType::Bat(ScalarType::Int),
        );
        p2.add_result("extra", extra);
        let report = optimise(
            &mut p2,
            OptConfig {
                fuse_select_project: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(report.select_project_fused, 0);
    }

    #[test]
    fn full_pipeline_fuses_select_aggregate() {
        for agg in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let mut p = select_agg_program(agg);
            let plain = {
                let interp = Interpreter::new(&EmptyBinder);
                interp.run(&p).unwrap()
            };
            let report = optimise(&mut p, OptConfig::full());
            assert_eq!(report.fusions(), 2, "{agg:?}: candprop then selectagg");
            let text = p.to_text();
            assert!(text.contains("aggr.selectagg"), "{agg:?}: {text}");
            assert!(!text.contains("thetaselect"), "{agg:?}: {text}");
            assert!(!text.contains("projection"), "{agg:?}: {text}");
            let interp = Interpreter::new(&EmptyBinder);
            let opt = interp.run(&p).unwrap();
            assert_eq!(
                plain[0].1.as_scalar().unwrap(),
                opt[0].1.as_scalar().unwrap(),
                "{agg:?}"
            );
        }
    }

    #[test]
    fn fusion_without_candprop_goes_through_selectproject() {
        let mut p = select_agg_program(AggFunc::Count);
        let report = optimise(
            &mut p,
            OptConfig {
                fuse_select_project: true,
                fuse_select_aggregate: true,
                ..OptConfig::none()
            },
        );
        assert_eq!(report.select_project_fused, 1);
        assert_eq!(report.select_aggregate_fused, 1);
        assert!(p.to_text().contains("aggr.selectagg"), "{}", p.to_text());
    }

    #[test]
    fn opt_levels_select_pass_sets() {
        assert_eq!(OptConfig::level(0), OptConfig::none());
        assert_eq!(OptConfig::level(1), OptConfig::classic());
        assert_eq!(OptConfig::level(2), OptConfig::full());
        assert_eq!(OptConfig::level(9), OptConfig::full());
        assert!(!OptConfig::classic().candprop);
        assert!(OptConfig::classic().dce);
    }

    #[test]
    fn shared_projection_keeps_both_readers_correct() {
        let mut p = select_agg_program(AggFunc::Sum);
        // A second aggregate over the same projection: candprop must not
        // claim it (two readers), and whatever the later passes do the
        // answers must not change.
        let pv = match p.instrs[3].results.as_slice() {
            [pv] => *pv,
            _ => unreachable!(),
        };
        let s2 = p.emit(
            Prim::Agg(AggFunc::Count),
            vec![Arg::Var(pv)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("n", s2);
        let interp = Interpreter::new(&EmptyBinder);
        let plain = interp.run(&p).unwrap();
        let report = optimise(&mut p, OptConfig::full());
        assert_eq!(report.candprop, 0, "projection has two readers");
        let opt = interp.run(&p).unwrap();
        for (a, b) in plain.iter().zip(&opt) {
            assert_eq!(a.1.as_scalar().unwrap(), b.1.as_scalar().unwrap());
        }
    }
}
