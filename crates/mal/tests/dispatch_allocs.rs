//! Heap allocations per executed MAL instruction.
//!
//! A counting global allocator measures `Interpreter::run` over programs
//! of 100 and 1,000 scalar `batcalc.add(2, 3)` instructions. Dispatch
//! itself must not allocate: what remains per instruction is the
//! evaluated argument vector, the primitive's result vector and one
//! spare (amortised growth of the per-run bookkeeping).

use gdk::arith::BinOp;
use gdk::{ScalarType, Value};
use mal::{Arg, EmptyBinder, Interpreter, MalType, Prim, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations the current thread
/// makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `n` independent `batcalc.add(2, 3)` instructions; the last is the
/// program result.
fn adds(n: usize) -> Program {
    let mut p = Program::new("adds");
    let mut last = 0;
    for _ in 0..n {
        last = p.emit(
            Prim::Bin(BinOp::Add),
            vec![Arg::Const(Value::Int(2)), Arg::Const(Value::Int(3))],
            MalType::Scalar(ScalarType::Int),
        );
    }
    p.add_result("s", last);
    p
}

#[test]
fn dispatch_allocates_at_most_three_times_per_instruction() {
    let interp = Interpreter::new(&EmptyBinder);
    for n in [100usize, 1_000] {
        let prog = adds(n);
        let before = ALLOCS.with(Cell::get);
        let out = interp.run(&prog).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        drop(out);
        let per_instr = allocs as f64 / n as f64;
        println!("{n} instructions: {allocs} allocations, {per_instr:.2} per instruction");
        assert!(
            per_instr <= 3.0,
            "{n} instructions made {allocs} allocations ({per_instr:.2} each)"
        );
    }
}
