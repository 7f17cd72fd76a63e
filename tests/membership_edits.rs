//! An `Optimizer` driven through steps interleaved with membership
//! edits, availability edits and a checkpoint round trip keeps the same
//! bits under either price method: the latencies and duals it exports
//! right after every edit and at the end are pinned as one digest of
//! their bit patterns. An export right after an edit shows a latency the
//! edit lost or misplaced, and concave tasks, whose allocations start
//! from the latencies the previous round left, carry such an error into
//! every later round.

use lla::core::{
    Optimizer, OptimizerConfig, OptimizerState, PriceMethod, Problem, ResourceId, TaskBuilder,
    TaskId, UtilityFn,
};
use lla::workloads::large_scale_workload;

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
fn fold_bits(hash: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(hash, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// `hash` folded with an exported state: every latency, then μ and γ of
/// every resource, then λ and γ of every path, then the iteration
/// counter.
fn digest(hash: u64, problem: &Problem, state: &OptimizerState) -> u64 {
    let prices = state.prices();
    let mut h = fold_bits(hash, state.lats().iter().flatten().copied());
    h = fold_bits(h, prices.mus().iter().copied());
    h = fold_bits(h, (0..problem.resources().len()).map(|r| prices.gamma_r(r)));
    for (t, task) in problem.tasks().iter().enumerate() {
        h = fold_bits(h, prices.lambdas(t).iter().copied());
        h = fold_bits(h, (0..task.graph().paths().len()).map(|p| prices.gamma_p(t, p)));
    }
    fold_bits(h, [state.iteration() as f64])
}

/// A three-stage fork with a quadratic utility over `r`, `r + 1`, `r + 2`.
fn concave_task(name: &str, r: usize) -> TaskBuilder {
    let mut b = TaskBuilder::new(name);
    let root = b.subtask("root", ResourceId::new(r), 2.0);
    for (i, leaf) in [r + 1, r + 2].into_iter().enumerate() {
        let leaf = b.subtask(format!("leaf{i}"), ResourceId::new(leaf), 1.5);
        b.edge(root, leaf).expect("valid edge");
    }
    b.critical_time(120.0).utility(UtilityFn::Quadratic { offset: 500.0, lin: 0.5, quad: 0.01 });
    b
}

/// A two-stage linear chain on `r` and `r + 1`.
fn chain_task(name: &str, r: usize) -> TaskBuilder {
    let mut b = TaskBuilder::new(name);
    let head = b.subtask("head", ResourceId::new(r), 3.0);
    let tail = b.subtask("tail", ResourceId::new(r + 1), 2.0);
    b.edge(head, tail).expect("valid edge");
    b.critical_time(90.0).utility(UtilityFn::linear_for_deadline(2.0, 90.0));
    b
}

/// Runs the scripted edit sequence under `price_method` and returns the
/// digest of the states exported after each edit and at the end, and the
/// final utility.
fn run(price_method: PriceMethod) -> (u64, f64) {
    let config =
        OptimizerConfig { price_method, record_trace: false, ..OptimizerConfig::default() };
    let mut problem = large_scale_workload(24, 7).expect("valid config");
    problem.add_task(&concave_task("resident", 0)).expect("admission");
    let mut opt = Optimizer::new(problem, config);
    let (mut checkpoint, mut hash) = (None, 0xcbf2_9ce4_8422_2325);
    for round in 0..60 {
        match round {
            5 => {
                opt.add_task(&concave_task("joiner", 3)).expect("admission");
            }
            12 => {
                opt.set_resource_availability(ResourceId::new(1), 0.6).expect("valid availability");
            }
            18 => {
                opt.remove_task(TaskId::new(4)).expect("known task");
            }
            24 => {
                opt.add_task(&chain_task("late", 5)).expect("admission");
            }
            28 => checkpoint = Some(opt.export_state()),
            34 => {
                let state = checkpoint.take().expect("taken at round 28");
                opt.try_import_state(state, None).expect("same shape");
            }
            40 => {
                // The task just before the resident concave one.
                opt.remove_task(TaskId::new(22)).expect("known task");
            }
            46 => {
                opt.set_resource_availability(ResourceId::new(1), 1.0).expect("valid availability");
            }
            _ => {
                opt.step();
                continue;
            }
        }
        hash = digest(hash, opt.problem(), &opt.export_state());
        opt.step();
    }
    (digest(hash, opt.problem(), &opt.export_state()), opt.utility())
}

#[test]
fn membership_edits_end_on_the_pinned_bits() {
    for (method, want) in [
        (PriceMethod::Clearing, 0x9dce_8a2a_84a1_a532),
        (PriceMethod::Gradient, 0xc59c_f87d_d799_5bc5),
    ] {
        let (got, utility) = run(method);
        assert_eq!(got, want, "{method:?}: digest {got:#018x}, utility {utility}");
    }
}
