//! MAL program representation.
//!
//! A MAL program is a straight-line sequence of instructions in (near) SSA
//! form: each instruction applies one [`Prim`] opcode to its arguments and
//! assigns its results to fresh variables. This mirrors the textual MAL of
//! MonetDB, which is "the target language for all MonetDB query compiler
//! front-ends" (paper §3): [`Prim::name`] gives each opcode its
//! `module.function` spelling for EXPLAIN text, trace spans and errors.
//! Like MonetDB's MAL type-checker, which binds each instruction's
//! function address before execution, an instruction names its kernel
//! once, when it is emitted; the interpreter never looks a name up.

use gdk::aggregate::AggFunc;
use gdk::arith::{BinOp, CmpOp};
use gdk::{ScalarType, Value};
use std::fmt;

/// Variable identifier within one program.
pub type VarId = usize;

/// Static type of a MAL variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalType {
    /// A scalar of the given type.
    Scalar(ScalarType),
    /// A BAT with the given tail type (head is always void).
    Bat(ScalarType),
    /// A candidate list.
    Cand,
    /// A grouping descriptor (ids + extents).
    Groups,
    /// Unknown/any (used by generic primitives).
    Any,
}

impl fmt::Display for MalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalType::Scalar(t) => write!(f, ":{t}"),
            MalType::Bat(t) => write!(f, ":bat[:oid,:{t}]"),
            MalType::Cand => write!(f, ":bat[:oid,:oid]"),
            MalType::Groups => write!(f, ":group"),
            MalType::Any => write!(f, ":any"),
        }
    }
}

/// A declared variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Display name (`X_12` style when generated).
    pub name: String,
    /// Static type.
    pub ty: MalType,
}

/// One instruction argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Reference to a program variable.
    Var(VarId),
    /// Literal constant.
    Const(Value),
    /// Bind-parameter slot, filled per execution by the interpreter from
    /// the caller-supplied value list (`?`/`:name` placeholders compiled
    /// by the code generator). A program with `Param` arguments compiles
    /// once and re-executes with different values — no re-parse, no
    /// re-optimise.
    Param(usize),
}

/// A MAL opcode: the closed set of primitives the interpreter runs. The
/// parameterised variants carry the `gdk` operator their kernel takes.
/// [`crate::prims::call`] dispatches each variant to its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// `sql.bind(object, column)` — a stored column, resolved through the
    /// interpreter's [`crate::Binder`].
    Bind,
    /// `language.pass(v)` — identity (alias), removed by the optimizer.
    Pass,
    /// `array.series(start, step, stop, N, M)` — a dimension BAT (paper §3).
    Series,
    /// `array.filler(cnt, v)` — a constant attribute BAT (paper §3).
    Filler,
    /// `array.shift(v, sizes…, deltas…)` — positional cell shift.
    Shift,
    /// `array.tileagg(v, func, k, sizes…, offsets…)` — a tile aggregate
    /// for every cell in one pass.
    TileAgg,
    /// `algebra.thetaselect(b, [cand,] val, op)` :cand.
    ThetaSelect,
    /// `algebra.select(b, [cand,] lo, hi, li, hi_incl, anti)` :cand.
    Select,
    /// `algebra.selectnonnil(b [, cand])` :cand.
    SelectNonNil,
    /// `algebra.selectnil(b [, cand])` :cand.
    SelectNil,
    /// `algebra.maskselect(mask [, cand])` :cand.
    MaskSelect,
    /// `algebra.selectproject(b, [cand,] val, op, payload)` — fused
    /// thetaselect + projection.
    SelectProject,
    /// `algebra.projection(cand|oids, b)`.
    Projection,
    /// `algebra.join(l, r [, lcand, rcand])` :(oids, oids).
    Join,
    /// `algebra.joinn(l1, r1, l2, r2, …)` — multi-key equi-join.
    JoinN,
    /// `algebra.leftjoin(l, r [, lcand, rcand])`.
    LeftJoin,
    /// `algebra.semijoin(l, r [, lcand, rcand])` :cand.
    SemiJoin,
    /// `algebra.crossproduct(l, r [, lcand, rcand])` :(oids, oids).
    CrossProduct,
    /// `algebra.slice(b, lo, hi)` — positions `[lo, hi)`.
    Slice,
    /// `algebra.sort(b, desc, nils_last)` :(sorted, permutation).
    Sort,
    /// `algebra.sortperm(key1, desc1, …)` — the ORDER BY permutation.
    SortPerm,
    /// `algebra.count(b)` — tuple count, nils included.
    Count,
    /// `algebra.candlist(oids)` — sorted oid BAT to candidates.
    CandList,
    /// `algebra.densecand(first, len)` — dense candidate range.
    DenseCand,
    /// `batcalc.add` … `batcalc.mod` — element-wise arithmetic.
    Bin(BinOp),
    /// `batcalc.eq` … `batcalc.ge` — element-wise comparison.
    Cmp(CmpOp),
    /// `batcalc.int` … `batcalc.oid` — cast to the named type.
    Cast(ScalarType),
    /// `batcalc.and(a, b)` over bit BATs.
    And,
    /// `batcalc.or(a, b)` over bit BATs.
    Or,
    /// `batcalc.not(a)` over a bit BAT.
    Not,
    /// `batcalc.isnil(b)` — nil mask.
    IsNil,
    /// `batcalc.neg(v)`.
    Neg,
    /// `batcalc.abs(v)`.
    Abs,
    /// `batcalc.like(col, pattern)` — SQL LIKE mask.
    Like,
    /// `batcalc.fill(template, v)` — constant column aligned with
    /// `template`.
    Fill,
    /// `batcalc.ifthenelse(mask, then, else)` — the CASE kernel.
    IfThenElse,
    /// `bat.new(type)` — empty BAT.
    New,
    /// `bat.dense(seq, len)` — void BAT.
    Dense,
    /// `bat.materialise(b)` — void to explicit oids.
    Materialise,
    /// `bat.single(v)` — one-tuple BAT.
    Single,
    /// `group.group(b [, cand])` :grp.
    Group,
    /// `group.subgroup(b, prev [, cand])` :grp.
    SubGroup,
    /// `group.extents(g)` — representative oid per group.
    Extents,
    /// `group.extentcand(g)` — extents as a candidate list.
    ExtentCand,
    /// `aggr.subsum` … `aggr.submax` — one tuple per group.
    SubAgg(AggFunc),
    /// `aggr.sum` … `aggr.max(vals [, cand])` — one scalar.
    Agg(AggFunc),
    /// `aggr.selectagg(func, payload, b, [cand,] val, op)` — fused
    /// select→project→aggregate.
    SelectAgg,
}

impl Prim {
    /// The `module.function` spelling, as printed by EXPLAIN, trace spans
    /// and error messages.
    pub fn name(self) -> &'static str {
        use Prim::*;
        match self {
            Bind => "sql.bind",
            Pass => "language.pass",
            Series => "array.series",
            Filler => "array.filler",
            Shift => "array.shift",
            TileAgg => "array.tileagg",
            ThetaSelect => "algebra.thetaselect",
            Select => "algebra.select",
            SelectNonNil => "algebra.selectnonnil",
            SelectNil => "algebra.selectnil",
            MaskSelect => "algebra.maskselect",
            SelectProject => "algebra.selectproject",
            Projection => "algebra.projection",
            Join => "algebra.join",
            JoinN => "algebra.joinn",
            LeftJoin => "algebra.leftjoin",
            SemiJoin => "algebra.semijoin",
            CrossProduct => "algebra.crossproduct",
            Slice => "algebra.slice",
            Sort => "algebra.sort",
            SortPerm => "algebra.sortperm",
            Count => "algebra.count",
            CandList => "algebra.candlist",
            DenseCand => "algebra.densecand",
            Bin(BinOp::Add) => "batcalc.add",
            Bin(BinOp::Sub) => "batcalc.sub",
            Bin(BinOp::Mul) => "batcalc.mul",
            Bin(BinOp::Div) => "batcalc.div",
            Bin(BinOp::Mod) => "batcalc.mod",
            Cmp(CmpOp::Eq) => "batcalc.eq",
            Cmp(CmpOp::Ne) => "batcalc.ne",
            Cmp(CmpOp::Lt) => "batcalc.lt",
            Cmp(CmpOp::Le) => "batcalc.le",
            Cmp(CmpOp::Gt) => "batcalc.gt",
            Cmp(CmpOp::Ge) => "batcalc.ge",
            Cast(ScalarType::Int) => "batcalc.int",
            Cast(ScalarType::Lng) => "batcalc.lng",
            Cast(ScalarType::Dbl) => "batcalc.dbl",
            Cast(ScalarType::Str) => "batcalc.str",
            Cast(ScalarType::Bit) => "batcalc.bit",
            Cast(ScalarType::OidT) => "batcalc.oid",
            And => "batcalc.and",
            Or => "batcalc.or",
            Not => "batcalc.not",
            IsNil => "batcalc.isnil",
            Neg => "batcalc.neg",
            Abs => "batcalc.abs",
            Like => "batcalc.like",
            Fill => "batcalc.fill",
            IfThenElse => "batcalc.ifthenelse",
            New => "bat.new",
            Dense => "bat.dense",
            Materialise => "bat.materialise",
            Single => "bat.single",
            Group => "group.group",
            SubGroup => "group.subgroup",
            Extents => "group.extents",
            ExtentCand => "group.extentcand",
            SubAgg(AggFunc::Sum) => "aggr.subsum",
            SubAgg(AggFunc::Avg) => "aggr.subavg",
            SubAgg(AggFunc::Count) => "aggr.subcount",
            SubAgg(AggFunc::Min) => "aggr.submin",
            SubAgg(AggFunc::Max) => "aggr.submax",
            Agg(AggFunc::Sum) => "aggr.sum",
            Agg(AggFunc::Avg) => "aggr.avg",
            Agg(AggFunc::Count) => "aggr.count",
            Agg(AggFunc::Min) => "aggr.min",
            Agg(AggFunc::Max) => "aggr.max",
            SelectAgg => "aggr.selectagg",
        }
    }

    /// Is this a pure BAT-level kernel with a slice-parallel
    /// implementation behind it? (Eligibility only — the kernel still
    /// falls back to serial for unsupported shapes or short inputs.) The
    /// interpreter hands every other instruction a serial context.
    pub fn parallel_safe(self) -> bool {
        use Prim::*;
        match self {
            ThetaSelect | Select | Projection | SelectProject | Bin(_) | Cmp(_) | Group
            | SubGroup | SelectAgg | TileAgg => true,
            SubAgg(f) | Agg(f) => f != AggFunc::Avg,
            _ => false,
        }
    }

    /// Is this primitive free of side effects (safe to constant-fold, CSE
    /// and dead-code-eliminate)? Only `sql.bind`, which reads storage, is
    /// not.
    pub fn is_pure(self) -> bool {
        self != Prim::Bind
    }
}

/// One MAL instruction: `(r1, r2, …) := module.function(arg, …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Result variables.
    pub results: Vec<VarId>,
    /// The primitive applied.
    pub op: Prim,
    /// Arguments.
    pub args: Vec<Arg>,
}

/// A complete MAL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Program name (for EXPLAIN output).
    pub name: String,
    /// Variable declarations, indexed by [`VarId`].
    pub vars: Vec<VarDecl>,
    /// Instruction sequence.
    pub instrs: Vec<Instr>,
    /// Variables whose final values form the program result, with output
    /// column labels.
    pub results: Vec<(String, VarId)>,
    /// Declared type per bind-parameter slot, indexed by the slot of
    /// [`Arg::Param`]. The interpreter coerces each bound value to its
    /// slot type before execution; `None` means the type could not be
    /// inferred at compile time and the value is passed through as-is.
    pub params: Vec<Option<ScalarType>>,
}

impl Program {
    /// Fresh empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a new variable of type `ty`; the name is generated.
    pub fn new_var(&mut self, ty: MalType) -> VarId {
        let id = self.vars.len();
        self.vars.push(VarDecl {
            name: format!("X_{id}"),
            ty,
        });
        id
    }

    /// Declare a new named variable.
    pub fn new_named_var(&mut self, name: impl Into<String>, ty: MalType) -> VarId {
        let id = self.vars.len();
        self.vars.push(VarDecl {
            name: name.into(),
            ty,
        });
        id
    }

    /// Append an instruction producing one result of type `ty`; returns the
    /// result variable.
    pub fn emit(&mut self, op: Prim, args: Vec<Arg>, ty: MalType) -> VarId {
        let r = self.new_var(ty);
        self.instrs.push(Instr {
            results: vec![r],
            op,
            args,
        });
        r
    }

    /// Append an instruction with multiple results.
    pub fn emit_multi(&mut self, op: Prim, args: Vec<Arg>, tys: &[MalType]) -> Vec<VarId> {
        let results: Vec<VarId> = tys.iter().map(|&t| self.new_var(t)).collect();
        self.instrs.push(Instr {
            results: results.clone(),
            op,
            args,
        });
        results
    }

    /// Mark `var` as a result column labelled `label`.
    pub fn add_result(&mut self, label: impl Into<String>, var: VarId) {
        self.results.push((label.into(), var));
    }

    /// Render the program as MAL-like text (EXPLAIN output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("function user.{}();\n", self.name));
        for ins in &self.instrs {
            out.push_str("    ");
            if !ins.results.is_empty() {
                let rs: Vec<String> = ins
                    .results
                    .iter()
                    .map(|&r| format!("{}{}", self.vars[r].name, self.vars[r].ty))
                    .collect();
                if rs.len() == 1 {
                    out.push_str(&rs[0]);
                } else {
                    out.push_str(&format!("({})", rs.join(", ")));
                }
                out.push_str(" := ");
            }
            out.push_str(ins.op.name());
            out.push('(');
            let args: Vec<String> = ins
                .args
                .iter()
                .map(|a| match a {
                    Arg::Var(v) => self.vars[*v].name.clone(),
                    Arg::Const(Value::Str(s)) => format!("{s:?}"),
                    Arg::Const(c) => format!("{c}"),
                    Arg::Param(k) => format!("?{k}"),
                })
                .collect();
            out.push_str(&args.join(", "));
            out.push_str(");\n");
        }
        let rs: Vec<String> = self
            .results
            .iter()
            .map(|(label, v)| format!("{} as {:?}", self.vars[*v].name, label))
            .collect();
        out.push_str(&format!(
            "    return ({});\nend user.{};\n",
            rs.join(", "),
            self.name
        ));
        out
    }

    /// Iterate every variable used (read) by an instruction.
    pub fn uses(ins: &Instr) -> impl Iterator<Item = VarId> + '_ {
        ins.args.iter().filter_map(|a| match a {
            Arg::Var(v) => Some(*v),
            Arg::Const(_) | Arg::Param(_) => None,
        })
    }

    /// Declare a bind-parameter slot's type (grows the slot table as
    /// needed). A slot seen with two different inferred types degrades to
    /// `None` (pass-through).
    pub fn declare_param(&mut self, slot: usize, ty: Option<ScalarType>) {
        if self.params.len() <= slot {
            self.params.resize(slot + 1, None);
        }
        self.params[slot] = match (self.params[slot], ty) {
            (None, t) => t,
            (Some(prev), Some(t)) if prev == t => Some(prev),
            (Some(prev), None) => Some(prev),
            _ => None,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_print() {
        let mut p = Program::new("q1");
        let b = p.emit(
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
        p.add_result("x", b);
        let text = p.to_text();
        assert!(text.contains("array.series(0, 1, 4, 4, 1)"), "{text}");
        assert!(text.contains("function user.q1()"), "{text}");
        assert!(text.contains(":bat[:oid,:int]"), "{text}");
    }

    #[test]
    fn multi_result_instruction() {
        let mut p = Program::new("j");
        let l = p.emit(Prim::New, vec![], MalType::Bat(ScalarType::Int));
        let rs = p.emit_multi(
            Prim::Join,
            vec![Arg::Var(l), Arg::Var(l)],
            &[
                MalType::Bat(ScalarType::OidT),
                MalType::Bat(ScalarType::OidT),
            ],
        );
        assert_eq!(rs.len(), 2);
        assert!(p.to_text().contains("algebra.join"));
    }

    #[test]
    fn purity_classification() {
        assert!(Prim::ThetaSelect.is_pure());
        assert!(Prim::Bin(BinOp::Add).is_pure());
        assert!(!Prim::Bind.is_pure());
    }

    #[test]
    fn parallel_safety_classification() {
        assert!(Prim::Bin(BinOp::Mod).parallel_safe());
        assert!(Prim::Agg(AggFunc::Sum).parallel_safe());
        assert!(!Prim::Agg(AggFunc::Avg).parallel_safe());
        assert!(!Prim::SubAgg(AggFunc::Avg).parallel_safe());
        assert!(!Prim::IfThenElse.parallel_safe());
        assert!(!Prim::Bind.parallel_safe());
    }

    #[test]
    fn names_are_module_dot_function() {
        assert_eq!(Prim::Cast(ScalarType::OidT).name(), "batcalc.oid");
        assert_eq!(Prim::SubAgg(AggFunc::Count).name(), "aggr.subcount");
        assert_eq!(Prim::Cmp(CmpOp::Ge).name(), "batcalc.ge");
    }

    #[test]
    fn uses_iterates_vars_only() {
        let ins = Instr {
            results: vec![0],
            op: Prim::Pass,
            args: vec![Arg::Var(3), Arg::Const(Value::Int(1)), Arg::Var(5)],
        };
        let u: Vec<VarId> = Program::uses(&ins).collect();
        assert_eq!(u, vec![3, 5]);
    }
}
