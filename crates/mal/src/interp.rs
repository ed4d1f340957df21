//! The MAL interpreter.
//!
//! Executes a [`Program`] instruction by instruction, handing each
//! instruction's [`Prim`] opcode straight to [`crate::prims::call`]:
//! dispatch is one `match`, with no name lookup. Stored BATs enter a
//! program through `sql.bind` instructions resolved by a caller-provided
//! [`Binder`] (the engine's catalog adapter).
//!
//! Shared values are `Arc`-counted so instructions whose opcode is
//! parallel-safe ([`Prim::parallel_safe`]) can fan out across the slice
//! drivers in [`gdk::par`] without copying columns; [`ExecStats`] records
//! the worker-thread count of every executed instruction.

use crate::ir::{Arg, Instr, Prim, Program, VarId};
use crate::registry::ExecCtx;
use crate::{MalError, Result};
use gdk::group::Groups;
use gdk::{Bat, Candidates, ParConfig, Value};
use sciql_obs::{SpanId, Tracer};
use std::sync::Arc;

/// A runtime MAL value.
#[derive(Debug, Clone)]
pub enum MalValue {
    /// Scalar.
    Scalar(Value),
    /// BAT (shared; operators never mutate their inputs).
    Bat(Arc<Bat>),
    /// Candidate list.
    Cand(Arc<Candidates>),
    /// Grouping descriptor.
    Grp(Arc<Groups>),
}

impl MalValue {
    /// Wrap a BAT.
    pub fn bat(b: Bat) -> Self {
        MalValue::Bat(Arc::new(b))
    }
    /// Wrap a candidate list.
    pub fn cand(c: Candidates) -> Self {
        MalValue::Cand(Arc::new(c))
    }
    /// Wrap a grouping.
    pub fn grp(g: Groups) -> Self {
        MalValue::Grp(Arc::new(g))
    }
    /// Expect a scalar.
    pub fn as_scalar(&self) -> Result<&Value> {
        match self {
            MalValue::Scalar(v) => Ok(v),
            other => Err(MalError::msg(format!(
                "expected scalar, got {}",
                other.kind()
            ))),
        }
    }
    /// Expect a BAT.
    pub fn as_bat(&self) -> Result<&Arc<Bat>> {
        match self {
            MalValue::Bat(b) => Ok(b),
            other => Err(MalError::msg(format!("expected BAT, got {}", other.kind()))),
        }
    }
    /// Expect a candidate list.
    pub fn as_cand(&self) -> Result<&Arc<Candidates>> {
        match self {
            MalValue::Cand(c) => Ok(c),
            other => Err(MalError::msg(format!(
                "expected candidate list, got {}",
                other.kind()
            ))),
        }
    }
    /// Expect a grouping.
    pub fn as_grp(&self) -> Result<&Arc<Groups>> {
        match self {
            MalValue::Grp(g) => Ok(g),
            other => Err(MalError::msg(format!(
                "expected groups, got {}",
                other.kind()
            ))),
        }
    }
    /// Human-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            MalValue::Scalar(_) => "scalar",
            MalValue::Bat(_) => "bat",
            MalValue::Cand(_) => "candidates",
            MalValue::Grp(_) => "groups",
        }
    }
}

/// Resolves `sql.bind(object, column)` to stored columns.
pub trait Binder {
    /// Return the named stored column.
    fn bind(&self, object: &str, column: &str) -> Result<MalValue>;
}

/// A binder with no stored objects (programs using `sql.bind` fail).
pub struct EmptyBinder;

impl Binder for EmptyBinder {
    fn bind(&self, object: &str, column: &str) -> Result<MalValue> {
        Err(MalError::msg(format!(
            "no storage bound: cannot resolve {object}.{column}"
        )))
    }
}

/// Execution statistics (used by the optimizer-ablation experiment and
/// the parallelism benchmarks).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instructions: usize,
    /// Total tuples produced into result BATs (rough work measure).
    pub tuples_produced: usize,
    /// Instructions that actually ran with more than one worker thread.
    pub par_instructions: usize,
    /// Largest worker-thread count any instruction used.
    pub max_threads: usize,
    /// 1 when this execution reused a cached compiled plan (prepared
    /// statement re-execution that skipped parse + bind + optimise);
    /// 0 when the plan was compiled for this execution. Set by the
    /// engine's prepared-statement executor, not the interpreter itself.
    pub plan_cache_hits: usize,
    /// Intermediate results (candidate lists, projected BATs) the fused
    /// kernels skipped materialising.
    pub intermediates_avoided: usize,
    /// Approximate bytes those intermediates would have occupied.
    pub bytes_not_materialized: usize,
    /// Column tiles that zone-map consultation let selections skip
    /// without scanning (see [`gdk::zonemap`]).
    pub tiles_skipped: usize,
    /// Per executed instruction: its opcode and the number of worker
    /// threads its kernel used (1 = serial).
    pub per_instr_threads: Vec<(Prim, usize)>,
}

/// Per-instruction outcome: output values, worker-thread count,
/// `(intermediates avoided, their bytes)`, and tiles skipped by zone
/// maps.
type InstrOutcome = (Vec<MalValue>, usize, (usize, usize), usize);

/// The interpreter.
pub struct Interpreter<'a> {
    binder: &'a dyn Binder,
    par: ParConfig,
}

impl<'a> Interpreter<'a> {
    /// New serial interpreter over a storage binder.
    pub fn new(binder: &'a dyn Binder) -> Self {
        Self::with_config(binder, ParConfig::serial())
    }

    /// Interpreter that dispatches parallel-safe BAT instructions through
    /// the [`gdk::par`] slice driver with the given configuration.
    pub fn with_config(binder: &'a dyn Binder, par: ParConfig) -> Self {
        Interpreter { binder, par }
    }

    /// Run the program, returning its labelled result columns.
    pub fn run(&self, prog: &Program) -> Result<Vec<(String, MalValue)>> {
        self.run_with_stats(prog).map(|(r, _)| r)
    }

    /// Run the program with bound parameter values filling its
    /// [`Arg::Param`] slots.
    pub fn run_with_params(
        &self,
        prog: &Program,
        params: &[Value],
    ) -> Result<Vec<(String, MalValue)>> {
        self.run_with_stats_params(prog, params).map(|(r, _)| r)
    }

    /// Run the program and report execution statistics.
    pub fn run_with_stats(&self, prog: &Program) -> Result<(Vec<(String, MalValue)>, ExecStats)> {
        self.run_with_stats_params(prog, &[])
    }

    /// [`Interpreter::run_with_stats`] with bound parameter values. Each
    /// value is coerced to its slot's declared type (`Program::params`)
    /// up front, so a parameterised plan executes exactly like the same
    /// plan with inlined constants.
    pub fn run_with_stats_params(
        &self,
        prog: &Program,
        params: &[Value],
    ) -> Result<(Vec<(String, MalValue)>, ExecStats)> {
        self.run_traced(prog, params, &mut Tracer::off(), SpanId::ROOT)
    }

    /// [`Interpreter::run_with_stats_params`] with a span per executed
    /// instruction recorded under `parent`, annotated with the kernel's
    /// worker-thread count and with tuples produced, tiles skipped and
    /// intermediates avoided when non-zero. With a disabled tracer the
    /// per-instruction cost is one predictable branch.
    pub fn run_traced(
        &self,
        prog: &Program,
        params: &[Value],
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Vec<(String, MalValue)>, ExecStats)> {
        let params = coerce_params(prog, params)?;
        let mut env: Vec<Option<MalValue>> = vec![None; prog.vars.len()];
        let mut stats = ExecStats::default();
        for (idx, ins) in prog.instrs.iter().enumerate() {
            let sp = if tracer.is_on() {
                tracer.open(parent, &format!("[{idx:02}] {}", ins.op.name()))
            } else {
                SpanId::ROOT
            };
            let (outs, threads, (avoided, avoided_bytes), tiles_skipped) =
                self.exec_instr(prog, ins, &env, &params)?;
            stats.instructions += 1;
            stats.max_threads = stats.max_threads.max(threads);
            if threads > 1 {
                stats.par_instructions += 1;
            }
            stats.intermediates_avoided += avoided;
            stats.bytes_not_materialized += avoided_bytes;
            stats.tiles_skipped += tiles_skipped;
            stats.per_instr_threads.push((ins.op, threads));
            if outs.len() != ins.results.len() {
                return Err(MalError::msg(format!(
                    "{} returned {} results, expected {}",
                    ins.op.name(),
                    outs.len(),
                    ins.results.len()
                )));
            }
            let mut tuples = 0usize;
            for (rid, val) in ins.results.iter().zip(outs) {
                if let MalValue::Bat(b) = &val {
                    tuples += b.len();
                }
                env[*rid] = Some(val);
            }
            stats.tuples_produced += tuples;
            if tracer.is_on() {
                tracer.note(sp, "threads", threads as u64);
                if tuples > 0 {
                    tracer.note(sp, "tuples", tuples as u64);
                }
                if tiles_skipped > 0 {
                    tracer.note(sp, "tiles_skipped", tiles_skipped as u64);
                }
                if avoided > 0 {
                    tracer.note(sp, "intermediates_avoided", avoided as u64);
                    tracer.note(sp, "bytes_not_materialized", avoided_bytes as u64);
                }
                tracer.close(sp);
            }
        }
        let mut results = Vec::with_capacity(prog.results.len());
        for (label, vid) in &prog.results {
            let v = env[*vid]
                .clone()
                .ok_or_else(|| MalError::msg(format!("result variable {vid} never assigned")))?;
            results.push((label.clone(), v));
        }
        Ok((results, stats))
    }

    fn exec_instr(
        &self,
        prog: &Program,
        ins: &Instr,
        env: &[Option<MalValue>],
        params: &[Value],
    ) -> Result<InstrOutcome> {
        let mut args: Vec<MalValue> = Vec::with_capacity(ins.args.len());
        for a in &ins.args {
            match a {
                Arg::Const(v) => args.push(MalValue::Scalar(v.clone())),
                Arg::Param(k) => args.push(MalValue::Scalar(
                    params
                        .get(*k)
                        .cloned()
                        .ok_or_else(|| MalError::unbound_param(*k, params.len()))?,
                )),
                Arg::Var(vid) => args.push(env[*vid].clone().ok_or_else(|| {
                    MalError::msg(format!(
                        "variable {} used before assignment in {}",
                        prog.vars[*vid].name,
                        ins.op.name()
                    ))
                })?),
            }
        }
        // sql.bind is special: routed to the storage binder.
        if ins.op == Prim::Bind {
            let obj = args
                .first()
                .ok_or_else(|| MalError::msg("sql.bind needs (object, column)"))?
                .as_scalar()?
                .clone();
            let col = args
                .get(1)
                .ok_or_else(|| MalError::msg("sql.bind needs (object, column)"))?
                .as_scalar()?
                .clone();
            let (Value::Str(obj), Value::Str(col)) = (obj, col) else {
                return Err(MalError::msg("sql.bind arguments must be strings"));
            };
            return Ok((vec![self.binder.bind(&obj, &col)?], 1, (0, 0), 0));
        }
        // Only parallel-safe opcodes see the parallel configuration;
        // everything else runs serially.
        let ctx = if ins.op.parallel_safe() {
            ExecCtx::new(self.par)
        } else {
            // Serial execution still honours the session's zone-skip
            // switch: skipping is a candidate restriction, not a
            // parallelism concern.
            ExecCtx::new(ParConfig {
                zone_skip: self.par.zone_skip,
                ..ParConfig::serial()
            })
        };
        let outs = crate::prims::call(ins.op, &args, &ctx)
            .map_err(|e| MalError::msg(format!("{}: {e}", ins.op.name())))?;
        Ok((outs, ctx.threads_used(), ctx.avoided(), ctx.tiles_skipped()))
    }
}

/// Coerce the caller's bound values to the program's declared slot
/// types. Fails when the program declares a slot past the end of
/// `params` (unbound parameter) or a value cannot be cast to its slot
/// type. Extra trailing values are tolerated (the program simply does
/// not read them). The slot count comes from `Program::params`, which
/// the code generator maintains for every emitted `Arg::Param` — no
/// per-execution instruction scan on the cached-plan hot path; a
/// hand-built program with an undeclared slot still fails cleanly at
/// the referencing instruction.
fn coerce_params(prog: &Program, params: &[Value]) -> Result<Vec<Value>> {
    let needed = prog.params.len();
    if params.len() < needed {
        return Err(MalError::unbound_param(needed - 1, params.len()));
    }
    params
        .iter()
        .enumerate()
        .map(|(k, v)| match prog.params.get(k).copied().flatten() {
            Some(ty) => v
                .cast(ty)
                .ok_or_else(|| MalError::BadParam(k, format!("{v} is not a valid {ty}"))),
            None => Ok(v.clone()),
        })
        .collect()
}

/// Convenience: variable id type re-export for callers.
pub type ResultVar = VarId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Arg, MalType, Program};
    use gdk::aggregate::AggFunc;
    use gdk::arith::BinOp;
    use gdk::ScalarType;

    #[test]
    fn run_series_program() {
        let mut p = Program::new("t");
        let x = p.emit(
            Prim::Series,
            vec![
                Arg::Const(Value::Int(0)),
                Arg::Const(Value::Int(1)),
                Arg::Const(Value::Int(4)),
                Arg::Const(Value::Lng(4)),
                Arg::Const(Value::Lng(1)),
            ],
            MalType::Bat(ScalarType::Int),
        );
        p.add_result("x", x);
        let interp = Interpreter::new(&EmptyBinder);
        let out = interp.run(&p).unwrap();
        assert_eq!(out.len(), 1);
        let b = out[0].1.as_bat().unwrap();
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn unassigned_variable_is_error() {
        let mut p = Program::new("bad");
        let v = p.new_var(MalType::Bat(ScalarType::Int));
        let r2 = p.emit(
            Prim::Agg(AggFunc::Count),
            vec![Arg::Var(v)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("n", r2);
        let interp = Interpreter::new(&EmptyBinder);
        assert!(interp.run(&p).is_err());
    }

    #[test]
    fn bind_without_storage_fails() {
        let mut p = Program::new("b");
        let v = p.emit(
            Prim::Bind,
            vec![
                Arg::Const(Value::Str("m".into())),
                Arg::Const(Value::Str("v".into())),
            ],
            MalType::Bat(ScalarType::Int),
        );
        p.add_result("v", v);
        let interp = Interpreter::new(&EmptyBinder);
        let err = interp.run(&p).unwrap_err();
        assert!(err.to_string().contains("m.v"), "{err}");
    }

    #[test]
    fn failing_primitive_mid_program_reports_instruction() {
        // Division by zero inside a longer program: the error names the
        // offending primitive and nothing is returned.
        let mut p = Program::new("boom");
        let a = p.emit(
            Prim::Filler,
            vec![Arg::Const(Value::Lng(4)), Arg::Const(Value::Int(8))],
            MalType::Bat(ScalarType::Int),
        );
        let d = p.emit(
            Prim::Bin(BinOp::Div),
            vec![Arg::Var(a), Arg::Const(Value::Int(0))],
            MalType::Bat(ScalarType::Int),
        );
        let s = p.emit(
            Prim::Agg(AggFunc::Sum),
            vec![Arg::Var(d)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("total", s);
        let interp = Interpreter::new(&EmptyBinder);
        let err = interp.run(&p).unwrap_err();
        assert!(err.to_string().contains("batcalc.div"), "{err}");
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn wrong_result_arity_detected() {
        // algebra.join returns two results; declaring one must fail.
        let mut p = Program::new("arity");
        let a = p.emit(
            Prim::Filler,
            vec![Arg::Const(Value::Lng(2)), Arg::Const(Value::Int(1))],
            MalType::Bat(ScalarType::Int),
        );
        let one = p.emit(
            Prim::Join,
            vec![Arg::Var(a), Arg::Var(a)],
            MalType::Bat(ScalarType::OidT),
        );
        p.add_result("l", one);
        let interp = Interpreter::new(&EmptyBinder);
        let err = interp.run(&p).unwrap_err();
        assert!(err.to_string().contains("2 results"), "{err}");
    }

    #[test]
    fn type_confusion_is_a_clean_error() {
        // Passing a candidate list where a BAT is expected.
        let mut p = Program::new("ty");
        let c = p.emit(
            Prim::DenseCand,
            vec![Arg::Const(Value::Lng(0)), Arg::Const(Value::Lng(3))],
            MalType::Cand,
        );
        let s = p.emit(
            Prim::Agg(AggFunc::Sum),
            vec![Arg::Var(c)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("s", s);
        let interp = Interpreter::new(&EmptyBinder);
        let err = interp.run(&p).unwrap_err();
        assert!(err.to_string().contains("expected BAT"), "{err}");
    }

    #[test]
    fn params_fill_slots_per_execution() {
        // filler(?0, ?1) summed: the same compiled program runs with
        // different count/value bindings, no recompilation.
        let mut p = Program::new("par");
        let x = p.emit(
            Prim::Filler,
            vec![Arg::Param(0), Arg::Param(1)],
            MalType::Bat(ScalarType::Int),
        );
        let s = p.emit(
            Prim::Agg(AggFunc::Sum),
            vec![Arg::Var(x)],
            MalType::Scalar(ScalarType::Lng),
        );
        p.add_result("s", s);
        p.declare_param(0, Some(ScalarType::Lng));
        p.declare_param(1, Some(ScalarType::Int));
        let interp = Interpreter::new(&EmptyBinder);
        let sum = |params: &[Value]| {
            interp.run_with_params(&p, params).unwrap()[0]
                .1
                .as_scalar()
                .unwrap()
                .as_i64()
                .unwrap()
        };
        assert_eq!(sum(&[Value::Lng(4), Value::Int(8)]), 32);
        assert_eq!(sum(&[Value::Lng(3), Value::Int(5)]), 15);
        // Typed coercion: an int binds into the lng slot.
        assert_eq!(sum(&[Value::Int(4), Value::Int(8)]), 32);
        // Unbound: clear error naming the slot.
        let err = interp.run(&p).unwrap_err();
        assert!(err.to_string().contains("parameter 2"), "{err}");
        // Uncastable: also a clear error.
        let err = interp
            .run_with_params(&p, &[Value::Str("x".into()), Value::Int(1)])
            .unwrap_err();
        assert!(err.to_string().contains("cannot bind"), "{err}");
    }

    #[test]
    fn stats_count_instructions() {
        let mut p = Program::new("s");
        let x = p.emit(
            Prim::Filler,
            vec![Arg::Const(Value::Lng(10)), Arg::Const(Value::Int(7))],
            MalType::Bat(ScalarType::Int),
        );
        p.add_result("x", x);
        let interp = Interpreter::new(&EmptyBinder);
        let (_, stats) = interp.run_with_stats(&p).unwrap();
        assert_eq!(stats.instructions, 1);
        assert_eq!(stats.tuples_produced, 10);
    }
}
