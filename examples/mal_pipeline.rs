//! A look under the hood: the Fig 2 pipeline stage by stage.
//!
//! Shows (1) the Fig 3 storage layout produced by `array.series` /
//! `array.filler`, (2) a hand-written MAL program run through the
//! interpreter, and (3) what the optimizer pipeline removes.
//!
//! Each instruction carries a typed [`Prim`] opcode, fixed when it is
//! emitted; the interpreter dispatches it to its kernel with one
//! `match`, and `Prim::name` gives the `module.function` text printed
//! below.
//!
//! Run with: `cargo run --example mal_pipeline`

use gdk::aggregate::AggFunc;
use gdk::arith::BinOp;
use gdk::{Bat, ScalarType, Value};
use mal::{Arg, EmptyBinder, Interpreter, MalType, OptConfig, Prim, Program};
use sciql_obs::{SpanId, Tracer};

fn main() {
    // --- Fig 3: the matrix stored as three BATs -----------------------
    println!("== Fig 3: CREATE ARRAY matrix → three BATs");
    let x = Bat::series(0, 1, 4, 4, 1).unwrap();
    let y = Bat::series(0, 1, 4, 1, 4).unwrap();
    let v = Bat::filler(16, &Value::Int(0)).unwrap();
    println!("  x: array.series(0,1,4,4,1) = {:?}", x.as_ints().unwrap());
    println!("  y: array.series(0,1,4,1,4) = {:?}", y.as_ints().unwrap());
    println!("  v: array.filler(16,0)      = {:?}", v.as_ints().unwrap());

    // --- A MAL program through the interpreter ------------------------
    println!("\n== a MAL program (sum of v over x > 1)");
    let mut p = Program::new("demo");
    let xv = p.emit(
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
    let vv = p.emit(
        Prim::Filler,
        vec![Arg::Const(Value::Lng(16)), Arg::Const(Value::Int(7))],
        MalType::Bat(ScalarType::Int),
    );
    let cand = p.emit(
        Prim::ThetaSelect,
        vec![
            Arg::Var(xv),
            Arg::Const(Value::Int(1)),
            Arg::Const(Value::Str(">".into())),
        ],
        MalType::Cand,
    );
    let vals = p.emit(
        Prim::Projection,
        vec![Arg::Var(cand), Arg::Var(vv)],
        MalType::Bat(ScalarType::Int),
    );
    let sum = p.emit(
        Prim::Agg(AggFunc::Sum),
        vec![Arg::Var(vals)],
        MalType::Scalar(ScalarType::Lng),
    );
    // dead code for the optimizer to find:
    let _unused = p.emit(
        Prim::Bin(BinOp::Add),
        vec![Arg::Const(Value::Int(2)), Arg::Const(Value::Int(2))],
        MalType::Scalar(ScalarType::Int),
    );
    p.add_result("total", sum);
    println!("{}", p.to_text());

    let interp = Interpreter::new(&EmptyBinder);
    let (out, stats) = interp.run_with_stats(&p).unwrap();
    println!("  result: total = {:?}", out[0].1.as_scalar().unwrap());
    let ops: Vec<&str> = stats
        .per_instr_threads
        .iter()
        .map(|(op, _)| op.name())
        .collect();
    println!("  opcodes executed: {}", ops.join(", "));

    // --- The optimizer pipeline ---------------------------------------
    println!("== after the optimizer pipeline");
    let report = mal::optimise_traced(
        &mut p,
        OptConfig::default(),
        &mut Tracer::off(),
        SpanId::ROOT,
    );
    println!("{}", p.to_text());
    println!(
        "  removed {} instructions (folded {}, cse {}, aliases {}, dead {})",
        report.total_removed(),
        report.folded,
        report.cse_hits,
        report.aliases_removed,
        report.dead_removed
    );
    let out = interp.run(&p).unwrap();
    println!("  same result: total = {:?}", out[0].1.as_scalar().unwrap());
}
