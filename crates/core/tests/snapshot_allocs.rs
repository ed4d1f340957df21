//! Heap allocations of a shared read's snapshot.
//!
//! A counting global allocator measures `SharedEngine::snapshot` and a
//! prepared point read through an `EngineSession`, on engines holding 1
//! and 32 objects (half arrays, half tables). Publishing the image a read
//! sees must not depend on how many objects the database holds.

use gdk::Value;
use sciql::SharedEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

const CALLS: usize = 100;

/// An in-memory engine with `objects` objects: tables `t0, t1, …` of 64
/// `(k, v)` rows and 8×8 arrays `a0, a1, …`, tables first.
fn engine_with(objects: usize) -> Arc<SharedEngine> {
    let engine = SharedEngine::in_memory();
    let mut s = engine.session();
    for i in 0..objects.div_ceil(2) {
        s.execute(&format!("CREATE TABLE t{i} (k INT, v INT)"))
            .unwrap();
        let rows: Vec<String> = (0..64).map(|k| format!("({k}, {})", k * 10)).collect();
        s.execute(&format!("INSERT INTO t{i} VALUES {}", rows.join(", ")))
            .unwrap();
    }
    for i in 0..objects / 2 {
        s.execute(&format!(
            "CREATE ARRAY a{i} (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)"
        ))
        .unwrap();
    }
    engine
}

/// Allocations per call of `f`, over `CALLS` calls.
fn allocs_per_call(mut f: impl FnMut()) -> f64 {
    let before = ALLOCS.with(Cell::get);
    for _ in 0..CALLS {
        f();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / CALLS as f64
}

/// `(snapshot, prepared point read)` allocations per call.
fn measure(objects: usize) -> (f64, f64) {
    let engine = engine_with(objects);
    let snapshot = allocs_per_call(|| drop(engine.snapshot()));
    let mut s = engine.session();
    s.prepare("q", "SELECT v FROM t0 WHERE k = ?").unwrap();
    // Compile the plan and fill the process-wide query log ring, so the
    // measured calls are cache hits that only rotate the ring.
    for k in 0..600 {
        s.execute_prepared("q", &[Value::Int(k % 64)]).unwrap();
    }
    let read = allocs_per_call(|| {
        let rows = s.execute_prepared("q", &[Value::Int(7)]).unwrap();
        drop(rows);
    });
    println!(
        "{objects} objects: snapshot {snapshot:.2}, prepared read {read:.2} allocations per call"
    );
    (snapshot, read)
}

#[test]
fn snapshot_allocations_do_not_grow_with_the_object_count() {
    let (snap_1, read_1) = measure(1);
    let (snap_32, read_32) = measure(32);
    assert!(
        snap_1 <= 1.0 && snap_32 <= 1.0,
        "snapshot() allocates: {snap_1:.2} (1 object), {snap_32:.2} (32 objects) per call"
    );
    assert_eq!(snap_32, snap_1, "snapshot() allocations grow with objects");
    assert_eq!(
        read_32, read_1,
        "prepared read allocations grow with objects"
    );
}
