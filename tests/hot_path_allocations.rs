//! Heap-allocation budgets of the hot paths, counted by this binary's
//! global allocator: an `Optimizer::step` without a trace allocates
//! nothing, and `dual_value` on an optimizer's problem (which carries the
//! optimizer's memoised plan) allocates its flat buffers and the nested
//! maximiser, not a nested walk's per-task temporaries.

use lla::core::{dual_value, Optimizer, OptimizerConfig};
use lla::workloads::large_scale_workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on the current thread, so the test harness's
/// own threads do not disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn step_allocates_nothing_and_dual_value_stays_flat() {
    let problem = large_scale_workload(100, 3).expect("valid config");
    let tasks = problem.tasks().len();
    let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
    let mut opt = Optimizer::new(problem, config);
    // The first round lowers the plan; rounds after it reuse everything.
    opt.run(5);

    let ((), n) = allocations(|| {
        for _ in 0..50 {
            opt.step();
        }
    });
    assert_eq!(n, 0, "50 steps made {n} heap allocations");

    let (dual, n) = allocations(|| dual_value(opt.problem(), opt.prices(), &config.allocation));
    assert!(n <= tasks + 8, "dual_value made {n} allocations at {tasks} tasks");
    assert_eq!(dual.maximizer.len(), tasks);
}
