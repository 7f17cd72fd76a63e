//! Heap-allocation budgets of the hot paths, counted by this binary's
//! global allocator: an `Optimizer::step` without a trace allocates
//! nothing, `dual_value` on an optimizer's problem (which carries the
//! optimizer's memoised plan) allocates two flat buffers and the nested
//! maximiser, not a nested walk's per-task temporaries, `certify`
//! allocates the same few flat buffers at any size, and a
//! `DistributedLla` round in wire mode moves every message without
//! touching the heap.

use lla::core::{dual_value, Optimizer, OptimizerConfig};
use lla::dist::{DistConfig, DistributedLla};
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

    // An all-linear plan's dual needs no warm start: the flat latencies,
    // the λ-sums (reused for the usage sum), the maximiser and its rows.
    let (dual, n) = allocations(|| dual_value(opt.problem(), opt.prices(), &config.allocation));
    assert!(n <= tasks + 3, "dual_value made {n} allocations at {tasks} tasks");
    assert_eq!(dual.maximizer.len(), tasks);
}

#[test]
fn certify_allocates_a_constant_number_of_buffers() {
    let counts: Vec<usize> = [100, 400]
        .into_iter()
        .map(|tasks| {
            let problem = large_scale_workload(tasks, 3).expect("valid config");
            let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
            let mut opt = Optimizer::new(problem, config);
            opt.run(5);
            // The value-only dual: the flat maximiser and the λ-sums,
            // reused for the usage sum; no nested rows.
            let (cert, n) = allocations(|| opt.certify());
            assert!(cert.dual.is_finite());
            let ((), steps) = allocations(|| {
                for _ in 0..20 {
                    opt.step();
                    opt.certify();
                }
            });
            assert_eq!(steps, 20 * n, "steps between certificates must allocate nothing");
            n
        })
        .collect();
    assert_eq!(counts[0], counts[1], "certify allocations grew with the task count");
    assert!(counts[0] <= 3, "certify made {} allocations", counts[0]);
}

#[test]
fn dist_round_allocates_nothing_in_wire_mode() {
    let problem = large_scale_workload(100, 3).expect("valid config");
    let config = DistConfig { wire_mode: true, ..DistConfig::default() };
    let mut dist = DistributedLla::new(problem, config);
    // Warm-up: the runtime's queues, outbox and frame buffer, and the
    // facade's round rows, reach their working sizes.
    dist.run_rounds(5);
    let sent = dist.messages_sent();

    let ((), n) = allocations(|| dist.run_rounds(10));
    assert!(dist.messages_sent() > sent, "the rounds must move messages");
    assert_eq!(dist.frames_rejected(), 0);
    // The utility history gains one entry per round and doubles its
    // capacity when full: from 5 entries to 15 it grows once, at the 9th.
    // That is the only allocation allowed; messages, events, frames and
    // the round's utility rows make none.
    assert!(n <= 1, "10 wire-mode rounds made {n} heap allocations");
}
