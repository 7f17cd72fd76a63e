//! The actor kinds of distributed LLA: resource price agents, task
//! controllers, and the control-plane agent that disseminates availability
//! changes reliably.
//!
//! A round is one controller tick then one resource tick. Under
//! [`PriceMethod::Gradient`] (the paper's protocol) the controller steps
//! its path prices on the previous allocation's slack and allocates, and
//! the resource steps `μ_r` on `B_r − usage_r`. Under
//! [`PriceMethod::Clearing`] the two ticks run the blocks of the
//! in-process market-clearing sweep (DESIGN §18): the controller clears
//! its paths' λ at the μ it holds ([`TaskPlan::clear_lambdas`]),
//! allocates, and reports each latency with its subtask's pressure; the
//! resource clears `μ_r` from those pressures
//! ([`ResourcePlan::clear_mu`]). On a perfect synchronous network the
//! deployment then runs the [`Optimizer`](lla_core::Optimizer)'s
//! clearing rounds one round late.

use crate::fleet::{
    AgentTelemetry, M_CHECKPOINTS, M_DEGRADED_TICKS, M_LATENCY_UPDATES, M_MESSAGES_IN,
    M_MESSAGES_OUT, M_OVERLOADED_TICKS, M_PRICE_UPDATES, M_TICKS, M_VALUE_REJECTIONS,
};
use crate::protocol::{Address, Message};
use crate::runtime::{Actor, Outbox};
use crate::system::DistConfig;
use crate::telemetry::DistTelemetry;
use lla_core::plan::PathTerm;
use lla_core::{
    AllocationSettings, MembershipReport, ModelError, OptimizerState, PriceMethod, PriceState,
    Problem, ResourcePlan, StateImportError, StepSizePolicy, TaskPlan, FEASIBILITY_TOL,
};
use lla_telemetry::Event as TelemetryEvent;
use parking_lot::Mutex;

use std::collections::HashMap;
use std::sync::Arc;

// Every agent of a deployment starts from one shared, copy-on-write
// `Arc<Problem>`. Availability updates arrive as messages and each agent
// applies them to its local view, exactly as a deployed agent would: the
// write goes through `Arc::make_mut`, so an agent takes a private copy
// only when its view first diverges from the shared one. The problem is
// *configuration* (reloaded from the local config store on restart), so
// a crash does not wipe it — only algorithm state is volatile.

/// Sets `B_r` of dense resource `r` in a copy-on-write problem view. The
/// value is validated on a scratch copy of that one resource first, so a
/// rejected update leaves the view shared instead of copying it for
/// nothing.
fn set_availability_cow(
    problem: &mut Arc<Problem>,
    r: usize,
    availability: f64,
) -> Result<(), ModelError> {
    let resource = &problem.resources()[r];
    resource.clone().set_availability(availability)?;
    let id = resource.id();
    Arc::make_mut(problem).set_resource_availability(id, availability)
}

/// Shared telemetry sink the controllers write their latest allocations
/// into; the [`DistributedLla`](crate::DistributedLla) facade reads it.
pub type SharedLats = Arc<Mutex<Vec<Vec<f64>>>>;

/// Fault-tolerance knobs shared by the agents. The defaults disable every
/// mechanism, which keeps the fault-free protocol bit-equivalent to the
/// centralized optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// Virtual ms between controller checkpoints ([`f64::INFINITY`]
    /// disables checkpointing).
    pub checkpoint_interval: f64,
    /// Degrade gracefully once the newest price (controllers) or latency
    /// (resource agents) heard from a peer is older than this many virtual
    /// ms: freeze price steps and hold the last-known-good latencies
    /// instead of integrating stale gradients ([`f64::INFINITY`] never
    /// degrades).
    pub staleness_ttl: f64,
    /// Virtual ms between control-plane retransmissions of unacknowledged
    /// availability updates.
    pub retransmit_interval: f64,
    /// Cap (in retransmit ticks) on the control plane's exponential
    /// backoff between retransmissions of one pending update. The wait
    /// after the `n`-th retransmission is `min(2ⁿ, cap) − 1` skipped
    /// ticks; the default of `1` retransmits on every tick, which is the
    /// legacy behavior.
    pub retransmit_backoff_cap: u32,
    /// Retransmissions of one pending update before the control plane
    /// gives up on the still-silent recipients (emitting a
    /// `retransmit_give_up` event instead of resending forever). The
    /// default never gives up.
    pub max_retransmits: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            checkpoint_interval: f64::INFINITY,
            staleness_ttl: f64::INFINITY,
            retransmit_interval: 10.0,
            retransmit_backoff_cap: 1,
            max_retransmits: u64::MAX,
        }
    }
}

/// A task controller's durable checkpoint: algorithm state in the
/// centralized [`Optimizer`](lla_core::Optimizer)'s export format, plus
/// the controller-local congestion bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerCheckpoint {
    /// Prices + latencies + iteration, as
    /// [`Optimizer::export_state`](lla_core::Optimizer::export_state)
    /// would capture them.
    pub state: OptimizerState,
    /// Last received congestion bit per resource.
    pub congested: Vec<bool>,
    /// Virtual time the checkpoint was taken.
    pub at: f64,
    /// Topology epoch the controller had applied when it checkpointed.
    /// Restore validates this against the restarting controller's epoch —
    /// a checkpoint from an older topology holds duals shaped for a
    /// different problem.
    pub epoch: u64,
}

/// Stable storage for controller checkpoints, shared between the agents
/// and the runtime driver. Survives crashes by construction (a crashed
/// actor keeps no reference — it re-reads the store on restart).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<HashMap<Address, ControllerCheckpoint>>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Writes (or overwrites) the checkpoint for `addr`.
    pub fn save(&self, addr: Address, ckpt: ControllerCheckpoint) {
        self.inner.lock().insert(addr, ckpt);
    }

    /// Reads the latest checkpoint for `addr`, if any.
    pub fn load(&self, addr: Address) -> Option<ControllerCheckpoint> {
        self.inner.lock().get(&addr).cloned()
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Why a topology epoch was created.
///
/// Agents use the cause to decide whether their warm duals survive the
/// transition. An [`Evict`](MembershipCause::Evict) epoch exists *because*
/// sustained overload was detected — which means every agent's prices
/// integrated an unsatisfiable gradient for the whole detection window and
/// are arbitrarily inflated. Once the shed capacity lets the constraints
/// re-bind, those prices decay at `γ·slack` with `slack ≈ 0` and the
/// allocation stalls far from the optimum indefinitely. Eviction epochs
/// therefore restart prices from the initial point (bounded cold-start
/// re-convergence); every other cause warm-starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipCause {
    /// The initial deployment (epoch 0).
    Genesis,
    /// A task joined voluntarily.
    TaskJoin,
    /// A task left voluntarily.
    TaskLeave,
    /// The overload governor shed a task.
    Evict,
    /// A resource joined.
    ResourceJoin,
    /// A resource retired (drain-and-handoff).
    ResourceRetire,
    /// The supervisor provisioned an elastic replica of a resource.
    ReplicaProvision,
    /// The supervisor retired an elastic replica of a resource.
    ReplicaRetire,
}

/// One version of the deployment's topology: the problem at a given
/// membership epoch plus the slot assignment of its dense indices. The
/// problem and the slot tables are shared with the facade and every agent
/// that adopted the epoch; nobody writes through them (the problem's
/// writers copy on write, and a membership change builds new tables).
///
/// Protocol-level indices are *slots* — stable, never-reused identifiers
/// (see the [`protocol`](crate::protocol) docs) — while the
/// [`Problem`] keeps dense ids. Each epoch records the bijection.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyEpoch {
    /// Monotone epoch counter (0 is the initial deployment).
    pub epoch: u64,
    /// What created this epoch.
    pub cause: MembershipCause,
    /// The problem as of this epoch (dense ids).
    pub problem: Arc<Problem>,
    /// `task_slots[dense task index] = slot`, strictly increasing:
    /// slots are handed out in join order and departures keep the order,
    /// so agents find a slot's dense index by binary search.
    pub task_slots: Arc<[usize]>,
    /// `resource_slots[dense resource index] = slot`, strictly increasing
    /// like `task_slots`.
    pub resource_slots: Arc<[usize]>,
}

/// The durable, shared log of topology epochs — the membership analogue of
/// the local config store the agents reload their [`Problem`] from. The
/// facade appends an epoch *before* announcing it through the control
/// plane, so by the time any agent hears about epoch `e` the store can
/// serve it. Agents that miss intermediate epochs (loss, crashes) jump
/// straight to the newest one they hear about — every epoch is a complete
/// snapshot, not a delta. Epochs are stored behind `Arc`s, so reading one
/// hands out a shared snapshot instead of copying it.
#[derive(Debug, Clone, Default)]
pub struct TopologyStore {
    inner: Arc<Mutex<Vec<Arc<TopologyEpoch>>>>,
}

impl TopologyStore {
    /// An empty store.
    pub fn new() -> Self {
        TopologyStore::default()
    }

    /// Appends an epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not extend the log monotonically, or if one
    /// of its slot tables is not strictly increasing.
    pub fn push(&self, epoch: TopologyEpoch) {
        let increasing = |slots: &[usize]| slots.windows(2).all(|w| w[0] < w[1]);
        assert!(
            increasing(&epoch.task_slots) && increasing(&epoch.resource_slots),
            "slot tables must be strictly increasing"
        );
        let mut log = self.inner.lock();
        if let Some(last) = log.last() {
            assert!(epoch.epoch > last.epoch, "epochs must be monotone");
        }
        log.push(Arc::new(epoch));
    }

    /// The epoch numbered `epoch`, if recorded.
    pub fn at(&self, epoch: u64) -> Option<Arc<TopologyEpoch>> {
        self.inner.lock().iter().find(|e| e.epoch == epoch).cloned()
    }

    /// The newest recorded epoch.
    pub fn latest(&self) -> Option<Arc<TopologyEpoch>> {
        self.inner.lock().last().cloned()
    }

    /// Whether any epoch in `(after, upto]` was created by an eviction.
    /// Agents jumping several epochs at once use this to decide whether
    /// the warm duals survive the jump (see [`MembershipCause`]).
    pub fn evicted_between(&self, after: u64, upto: u64) -> bool {
        self.inner
            .lock()
            .iter()
            .any(|e| e.epoch > after && e.epoch <= upto && e.cause == MembershipCause::Evict)
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no epoch has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// What every agent of one deployment shares: the price and allocation
/// settings, the fault-tolerance knobs, the durable stores and the
/// telemetry handles. [`DistributedLla`](crate::DistributedLla) builds it
/// once from its [`DistConfig`], and every agent keeps an `Arc` of it
/// instead of a copy of each setting.
#[derive(Debug)]
pub struct DeploymentContext {
    /// How the agents move their prices.
    method: PriceMethod,
    /// Price step-size policy; read only under [`PriceMethod::Gradient`].
    policy: StepSizePolicy,
    /// The allocation kernels' settings, which the controllers' plans and
    /// the resources' share bounds are lowered with.
    settings: AllocationSettings,
    robustness: RobustnessConfig,
    /// Virtual ms between per-agent fleet reports (`0.0` ships none).
    report_cadence: f64,
    /// The durable epoch log; agents are built at its newest epoch.
    pub(crate) topology: TopologyStore,
    /// The durable store the controllers checkpoint into.
    pub(crate) checkpoints: CheckpointStore,
    /// The sink the controllers write their latest latencies into, one
    /// row per task slot.
    pub(crate) lats: SharedLats,
    pub(crate) tel: DistTelemetry,
}

impl DeploymentContext {
    /// The context of a deployment of `problem` under `config`: its
    /// topology store holds the genesis epoch, where slots equal dense
    /// indices, and its latency sink the initial allocation.
    pub fn new(problem: Arc<Problem>, config: &DistConfig, tel: DistTelemetry) -> Self {
        let lats = Arc::new(Mutex::new(problem.initial_allocation()));
        let topology = TopologyStore::new();
        topology.push(TopologyEpoch {
            epoch: 0,
            cause: MembershipCause::Genesis,
            task_slots: (0..problem.tasks().len()).collect(),
            resource_slots: (0..problem.resources().len()).collect(),
            problem,
        });
        DeploymentContext {
            method: config.price_method,
            policy: config.step_policy,
            settings: config.allocation,
            robustness: config.robustness,
            report_cadence: config.report_cadence,
            topology,
            checkpoints: CheckpointStore::new(),
            lats,
            tel,
        }
    }

    /// The newest topology epoch, which agents are built at.
    fn latest(&self) -> Arc<TopologyEpoch> {
        self.topology.latest().expect("a deployment context holds its genesis epoch")
    }
}

/// The dense-index remap between two topology views, keyed by slots: old
/// dense index `i` maps to the position its slot occupies in the new view
/// (or `None` if the slot is gone). This is exactly the shape
/// [`PriceState::remap`] consumes to warm-start duals across an epoch.
fn epoch_report(
    old_task_slots: &[usize],
    old_resource_slots: &[usize],
    te: &TopologyEpoch,
) -> MembershipReport {
    MembershipReport {
        task_map: old_task_slots
            .iter()
            .map(|s| te.task_slots.iter().position(|x| x == s))
            .collect(),
        resource_map: old_resource_slots
            .iter()
            .map(|s| te.resource_slots.iter().position(|x| x == s))
            .collect(),
        added_task: None,
        added_resource: None,
    }
}

/// The half of a resource agent or task controller both kinds share: the
/// agent's identity and protocol books, and the parts of the control
/// protocol every agent speaks alike (see [`ControlledAgent`]).
#[derive(Debug)]
struct AgentCore {
    ctx: Arc<DeploymentContext>,
    /// [`Address::Resource`] or [`Address::Controller`] of the agent's
    /// slot, which stays put while churn reorders dense indices.
    addr: Address,
    /// Applied topology epoch.
    epoch: u64,
    /// Departed (retired, left or evicted): acknowledge control traffic,
    /// do nothing else.
    dormant: bool,
    /// Holding state because the agent's inputs went stale.
    degraded: bool,
    /// Highest supervisor-command sequence applied (volatile).
    last_cmd_seq: u64,
    /// Per-agent fleet scope + shipping books. The shipping books are
    /// durable (see [`AgentTelemetry`]): a crash leaves them alone so the
    /// report sequence stays monotone across restarts.
    ftel: AgentTelemetry,
}

impl AgentCore {
    fn new(ctx: &Arc<DeploymentContext>, addr: Address, epoch: u64) -> Self {
        AgentCore {
            ctx: Arc::clone(ctx),
            addr,
            epoch,
            dormant: false,
            degraded: false,
            last_cmd_seq: 0,
            ftel: AgentTelemetry::new(&ctx.tel, addr, ctx.report_cadence),
        }
    }

    fn slot(&self) -> usize {
        match self.addr {
            Address::Resource(slot) | Address::Controller(slot) => slot,
            _ => unreachable!("agents live at resource and controller addresses"),
        }
    }

    /// The agent kind, as telemetry events name it.
    fn kind(&self) -> &'static str {
        match self.addr {
            Address::Resource(_) => "resource",
            _ => "controller",
        }
    }

    fn tel(&self) -> &DistTelemetry {
        &self.ctx.tel
    }

    /// Counts and records a message value the agent refused, so that a
    /// corrupted or hostile value never reaches a price or an allocation.
    fn reject(&self, now: f64, field: &'static str) {
        self.tel().values_rejected.inc();
        self.ftel.inc(M_VALUE_REJECTIONS);
        self.tel().events.emit(
            TelemetryEvent::new(now, "value_rejected")
                .with("agent", self.kind())
                .with("slot", self.slot())
                .with("field", field),
        );
    }

    /// Enters or leaves degraded mode as `stale` says, recording the
    /// transition, and counts the tick if degraded. Returns `stale`.
    fn update_staleness(&mut self, now: f64, stale: bool) -> bool {
        if stale != self.degraded {
            self.degraded = stale;
            if stale {
                self.tel().staleness_freezes.inc();
            }
            let kind = if stale { "degraded_enter" } else { "degraded_exit" };
            self.tel().events.emit(
                TelemetryEvent::new(now, kind).with("agent", self.kind()).with("slot", self.slot()),
            );
        }
        if stale {
            self.tel().degraded_ticks.inc();
            self.ftel.inc(M_DEGRADED_TICKS);
        }
        stale
    }

    /// Acks a sequenced availability update (`seq > 0`), even a
    /// duplicate — the ack may have been the lost message; `seq == 0` is
    /// the out-of-band bypass path, which goes unacked.
    fn ack_availability(&self, resource: usize, seq: u64, outbox: &mut Outbox) {
        if seq > 0 {
            outbox.send(
                Address::ControlPlane,
                Message::AvailabilityAck { resource, seq, from: self.addr },
            );
        }
    }

    /// Dedupes and acks a supervisor command; returns whether to apply
    /// it. Sequenced commands (`seq > 0`) are always acked — the ack may
    /// have been the lost message; `seq == 0` is the out-of-band bypass
    /// path. A dormant agent applies nothing.
    fn accept_command(&mut self, seq: u64, outbox: &mut Outbox) -> bool {
        let fresh = seq == 0 || advance(&mut self.last_cmd_seq, seq);
        if seq > 0 {
            outbox.send(Address::ControlPlane, Message::CommandAck { seq, from: self.addr });
        }
        fresh && !self.dormant
    }

    /// Forgets the volatile protocol books on a crash.
    fn crash(&mut self) {
        self.degraded = false;
        self.last_cmd_seq = 0;
    }

    /// Ships a fleet report when one is due; dormant agents report too
    /// (empty deltas), so the fleet watermark keeps advancing.
    fn report(&mut self, now: f64, outbox: &mut Outbox) {
        self.ftel.maybe_report(now, self.addr, outbox);
    }
}

/// Whether sequence number `seq` is newer than `seen`, the highest one
/// applied so far; if so it becomes the new `seen`.
fn advance(seen: &mut u64, seq: u64) -> bool {
    let fresh = seq > *seen;
    if fresh {
        *seen = seq;
    }
    fresh
}

/// What an agent kind plugs into the protocol its [`AgentCore`] runs:
/// epoch adoption, its price restart and its answer to a supervisor
/// command.
trait ControlledAgent {
    fn core(&mut self) -> &mut AgentCore;

    /// Adopts `te`, newer than the applied epoch, at virtual time `now`:
    /// rebinds the dense index behind the agent's slot and warm-carries
    /// its state, or sends it dormant if the slot left.
    fn apply_epoch(&mut self, now: f64, te: &TopologyEpoch);

    /// Restarts the prices from the initial point.
    fn reset_prices(&mut self);

    /// Applies a fresh supervisor command.
    fn apply_command(&mut self, msg: &Message, outbox: &mut Outbox);

    /// Moves the agent to `te` if it is newer than the applied epoch.
    /// Agents that miss epochs jump straight to the newest one they hear
    /// of; returns whether the jump crossed an eviction epoch.
    fn adopt_epoch(&mut self, now: f64, te: Option<Arc<TopologyEpoch>>) -> bool {
        let from = self.core().epoch;
        let Some(te) = te.filter(|te| te.epoch > from) else {
            return false;
        };
        let rehab = self.core().ctx.topology.evicted_between(from, te.epoch);
        self.apply_epoch(now, &te);
        self.core().epoch = te.epoch;
        rehab
    }

    /// Handles what every agent answers alike — membership announcements
    /// and supervisor commands; returns `true` if `msg` was one.
    fn on_control(&mut self, now: f64, msg: &Message, outbox: &mut Outbox) -> bool {
        if let Some((_, epoch, seq)) = msg.membership_parts() {
            let te = self.core().ctx.topology.at(epoch);
            if self.adopt_epoch(now, te) && !self.core().dormant {
                // An eviction epoch means sustained overload poisoned the
                // duals — restart the prices (see MembershipCause).
                self.reset_prices();
            }
            // Always ack, even duplicates or already-superseded epochs —
            // the ack may have been the lost message.
            if seq > 0 {
                let from = self.core().addr;
                outbox.send(Address::ControlPlane, Message::MembershipAck { epoch, seq, from });
            }
            return true;
        }
        let Some(seq) = msg.command_seq() else {
            return false;
        };
        if self.core().accept_command(seq, outbox) {
            self.apply_command(msg, outbox);
        }
        true
    }
}

/// The price agent of one resource (§4.3, "Resource Price Computation").
///
/// Receives the latencies controllers assigned to the subtasks hosted
/// here, and on every tick recomputes `μ_r` and broadcasts it (with the
/// congestion bit) to the controllers of all tasks with subtasks on this
/// resource. Under [`PriceMethod::Gradient`] the new `μ_r` is a projected
/// gradient step on `B_r − usage_r`; under [`PriceMethod::Clearing`] it is
/// the price at which the hosted subtasks' shares meet `B_r` at the
/// pressures their controllers last reported ([`ResourcePlan::clear_mu`]).
///
/// Like a deployed agent, it keeps the state of its own constraint only:
/// the duals of one resource, and the latencies, pressures and share
/// bounds of the subtasks it hosts. Apart from the shared problem view
/// and deployment context, nothing it holds grows with the deployment.
#[derive(Debug)]
pub struct ResourceAgent {
    core: AgentCore,
    /// Dense index of the resource in the applied epoch.
    r: usize,
    /// This agent's view of the deployment's shared problem (copy on
    /// write).
    problem: Arc<Problem>,
    /// The duals of this resource alone ([`PriceState::single_resource`],
    /// index 0): they carry across epochs unchanged.
    prices: PriceState,
    /// Last received latency per hosted subtask, aligned with `hosted`.
    latencies: Vec<f64>,
    /// Last received pressure per hosted subtask, aligned with `hosted`
    /// (0, no pressure, until a controller reports one).
    pressures: Vec<f64>,
    /// The hosted subtasks' share bounds for the μ solve, in `hosted`
    /// order; re-lowered whenever the problem view changes.
    market: ResourcePlan,
    /// `(task slot, subtask index)` key of each hosted subtask, aligned
    /// with `latencies` — the epoch-stable identity warm state is carried
    /// under across membership changes. Sorted, since
    /// `Problem::subtasks_on` lists subtasks in (task, subtask) order and
    /// task slots increase with the dense index.
    hosted: Vec<(usize, usize)>,
    /// Controller *slots* to broadcast the price to.
    subscribers: Vec<usize>,
    /// Virtual time of the newest latency message heard.
    last_heard: f64,
    /// Congestion bit of the last non-degraded tick (rebroadcast while
    /// degraded).
    congested: bool,
    /// Highest control-plane sequence applied (volatile; reset on crash).
    last_avail_seq: u64,
}

impl ResourceAgent {
    /// The price agent of the resource in `slot`, built at the newest
    /// epoch of `ctx`'s topology: the hosted subtasks start from their
    /// initial latencies, the price from the initial point.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a live resource of that epoch.
    pub fn new(ctx: &Arc<DeploymentContext>, slot: usize) -> Self {
        let te = ctx.latest();
        let r = te.resource_slots.binary_search(&slot).expect("the resource slot is live");
        let problem = Arc::clone(&te.problem);
        let market = ResourcePlan::lower(&problem, problem.resources()[r].id(), &ctx.settings);
        let mut agent = ResourceAgent {
            core: AgentCore::new(ctx, Address::Resource(slot), te.epoch),
            r,
            problem,
            prices: PriceState::single_resource(ctx.policy),
            latencies: Vec::new(),
            pressures: Vec::new(),
            market,
            hosted: Vec::new(),
            subscribers: Vec::new(),
            last_heard: 0.0,
            congested: false,
            last_avail_seq: 0,
        };
        agent.resync_from_problem(|t| te.task_slots[t]);
        agent
    }

    /// Read access to the fleet scope, e.g. to compare reports emitted
    /// against the collector's merge accounting in tests.
    pub fn fleet_telemetry(&self) -> &AgentTelemetry {
        &self.core.ftel
    }

    /// Protocol slot of this agent.
    pub fn slot(&self) -> usize {
        self.core.slot()
    }

    /// Applied topology epoch.
    pub fn epoch(&self) -> u64 {
        self.core.epoch
    }

    /// Whether the resource has retired and the agent only acknowledges
    /// control traffic.
    pub fn is_dormant(&self) -> bool {
        self.core.dormant
    }

    /// This agent's copy-on-write problem view.
    #[cfg(test)]
    pub(crate) fn problem(&self) -> &Arc<Problem> {
        &self.problem
    }

    /// The current price `μ_r`.
    pub fn mu(&self) -> f64 {
        self.prices.mu(0)
    }

    /// Whether the agent is currently holding its price because its
    /// latency inputs went stale.
    pub fn is_degraded(&self) -> bool {
        self.core.degraded
    }

    /// Adaptive step-size growth events recorded by this agent's price
    /// state (the supervisor's gamma-thrash evidence).
    pub fn gamma_doublings(&self) -> u64 {
        self.prices.gamma_doublings()
    }

    /// The share sum currently demanded by the stored latencies.
    pub fn usage(&self) -> f64 {
        let rid = self.problem.resources()[self.r].id();
        self.problem
            .subtasks_on(rid)
            .iter()
            .zip(&self.latencies)
            .map(|(sid, &lat)| self.problem.share_model(*sid).share_for_latency(lat))
            .sum()
    }

    /// Rebuilds `hosted`/`latencies`/`pressures`/`subscribers` from the
    /// current problem view, with `task_slot` mapping a dense task index to
    /// its slot in the applied epoch. Warm latencies and pressures are
    /// preserved for subtasks that survive (keyed by task slot + subtask
    /// index, found by binary search in the sorted old `hosted`);
    /// newcomers start from their initial latency, with no pressure.
    fn resync_from_problem(&mut self, task_slot: impl Fn(usize) -> usize) {
        let rid = self.problem.resources()[self.r].id();
        let on = self.problem.subtasks_on(rid);
        let mut hosted = Vec::with_capacity(on.len());
        let mut latencies = Vec::with_capacity(on.len());
        let mut pressures = Vec::with_capacity(on.len());
        let mut subscribers = Vec::with_capacity(on.len());
        for &sid in on {
            let key = (task_slot(sid.task().index()), sid.index());
            hosted.push(key);
            let (latency, pressure) = match self.hosted.binary_search(&key) {
                Ok(old) => (self.latencies[old], self.pressures[old]),
                Err(_) => (self.problem.initial_subtask_latency(sid), 0.0),
            };
            latencies.push(latency);
            pressures.push(pressure);
            subscribers.push(key.0);
        }
        subscribers.sort_unstable();
        subscribers.dedup();
        debug_assert!(hosted.windows(2).all(|w| w[0] < w[1]), "hosted keys must be sorted");
        self.hosted = hosted;
        self.latencies = latencies;
        self.pressures = pressures;
        self.subscribers = subscribers;
    }

    /// Re-lowers the μ solve's share bounds from the current problem
    /// view: the hosted set and `B_r` both feed them.
    fn relower_market(&mut self) {
        let rid = self.problem.resources()[self.r].id();
        self.market = ResourcePlan::lower(&self.problem, rid, &self.core.ctx.settings);
    }

    /// Applies an availability update, refusing values the model layer
    /// rejects (non-finite or outside `[0, 1]`) — a corrupted or hostile
    /// update must not poison `B_r` and with it every price gradient.
    fn apply_availability(&mut self, now: f64, availability: f64) {
        if set_availability_cow(&mut self.problem, self.r, availability).is_ok() {
            self.relower_market();
        } else {
            self.core.reject(now, "availability");
        }
    }

    /// Announces the current price to every subscribed controller.
    fn broadcast_price(&self, mu: f64, outbox: &mut Outbox) {
        let resource = self.core.slot();
        for &t in &self.subscribers {
            outbox.send(
                Address::Controller(t),
                Message::Price { resource, mu, congested: self.congested },
            );
        }
    }
}

impl ControlledAgent for ResourceAgent {
    fn core(&mut self) -> &mut AgentCore {
        &mut self.core
    }

    /// Rebinds the dense index behind this agent's slot, warm-carries the
    /// price and re-derives the hosted set. A retired slot sends the
    /// agent dormant.
    fn apply_epoch(&mut self, _now: f64, te: &TopologyEpoch) {
        let Ok(new_r) = te.resource_slots.binary_search(&self.core.slot()) else {
            // Drain-and-handoff already moved the hosted subtasks in the
            // epoch's problem; nothing is left to serve.
            self.core.dormant = true;
            self.hosted.clear();
            self.latencies.clear();
            self.pressures.clear();
            self.subscribers.clear();
            return;
        };
        // The agent's one-resource duals carry over as they are.
        self.core.tel().warm_start_hits.inc();
        self.problem = Arc::clone(&te.problem);
        self.r = new_r;
        self.resync_from_problem(|t| te.task_slots[t]);
        self.relower_market();
    }

    fn reset_prices(&mut self) {
        self.prices = PriceState::single_resource(self.core.ctx.policy);
    }

    fn apply_command(&mut self, msg: &Message, outbox: &mut Outbox) {
        match *msg {
            Message::GammaCalm { max_multiple, .. } => self.prices.calm_gammas(max_multiple),
            // Re-announce the current price immediately so stalled
            // controllers' staleness clocks refresh without waiting for
            // the next tick phase.
            Message::DualResync { .. } => self.broadcast_price(self.prices.mu(0), outbox),
            _ => unreachable!("command_seq() only matches supervisor commands"),
        }
    }
}

impl Actor for ResourceAgent {
    fn on_tick(&mut self, now: f64, outbox: &mut Outbox) {
        if self.core.dormant {
            self.core.report(now, outbox);
            return;
        }
        self.core.ftel.inc(M_TICKS);
        let stale = now - self.last_heard > self.core.ctx.robustness.staleness_ttl;
        let mu = if self.core.update_staleness(now, stale) {
            // Latency inputs are stale (partition, crashed controllers):
            // integrating the frozen gradient would drift the price away
            // from the operating point. Hold and keep announcing it.
            self.prices.mu(0)
        } else {
            let usage = self.usage();
            let availability = self.problem.resources()[self.r].availability();
            let grad = availability - usage;
            let method = self.core.ctx.method;
            self.congested = match method {
                PriceMethod::Gradient => grad < 0.0,
                // A cleared resource sits at `B_r` by construction, where
                // a strict test reads rounding as overload: count only
                // what the certificate would call infeasible.
                PriceMethod::Clearing => -grad > FEASIBILITY_TOL,
            };
            if self.congested {
                self.core.ftel.inc(M_OVERLOADED_TICKS);
            }
            self.core.ftel.inc(M_PRICE_UPDATES);
            match method {
                PriceMethod::Gradient => self.prices.apply_resource_step(0, grad),
                PriceMethod::Clearing => {
                    let mu = self.market.clear_mu(&self.pressures, self.prices.mu(0));
                    self.prices.set_mu(0, mu);
                    self.prices.mu(0)
                }
            }
        };
        self.broadcast_price(mu, outbox);
        self.core.ftel.add(M_MESSAGES_OUT, self.subscribers.len() as u64);
        self.core.report(now, outbox);
    }

    fn on_message(&mut self, now: f64, msg: Message, outbox: &mut Outbox) {
        self.core.ftel.inc(M_MESSAGES_IN);
        if self.on_control(now, &msg, outbox) {
            return;
        }
        match msg {
            Message::Latency { task, subtask, latency, pressure } => {
                // `task` is a slot; `hosted` is keyed by slot, so stale
                // messages from departed tasks simply miss.
                if self.core.dormant {
                    return;
                }
                // A non-positive latency would push the price gradient
                // through `share(lat) → ∞`, a non-finite pressure the μ
                // solve through NaN; refuse both at the boundary.
                if !latency.is_finite() || latency <= 0.0 {
                    return self.core.reject(now, "latency");
                }
                if pressure.is_some_and(|p| !p.is_finite()) {
                    return self.core.reject(now, "pressure");
                }
                if let Ok(pos) = self.hosted.binary_search(&(task, subtask)) {
                    self.latencies[pos] = latency;
                    if let Some(pressure) = pressure {
                        self.pressures[pos] = pressure;
                    }
                    self.last_heard = now;
                }
            }
            Message::AvailabilityUpdate { resource, availability, seq } => {
                self.core.ack_availability(resource, seq, outbox);
                // Only this resource's own updates apply, and only they
                // advance its sequence book.
                let own = resource == self.core.slot() && !self.core.dormant;
                if own && (seq == 0 || advance(&mut self.last_avail_seq, seq)) {
                    self.apply_availability(now, availability);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: f64) {
        // All algorithm state is volatile: the restarted agent re-learns
        // latencies and pressures from controller traffic and restarts
        // its price from the initial point. The hosted set is
        // configuration (the problem view and the applied epoch), so it
        // stays.
        let rid = self.problem.resources()[self.r].id();
        let on = self.problem.subtasks_on(rid);
        for (&sid, latency) in on.iter().zip(&mut self.latencies) {
            *latency = self.problem.initial_subtask_latency(sid);
        }
        self.pressures.fill(0.0);
        self.reset_prices();
        self.last_heard = 0.0;
        self.congested = false;
        self.last_avail_seq = 0;
        self.core.crash();
    }

    fn on_restart(&mut self, now: f64, _outbox: &mut Outbox) {
        // The topology store is durable configuration: a restarted agent
        // rejoins at the newest epoch, whatever it missed while down.
        let latest = self.core.ctx.topology.latest();
        self.adopt_epoch(now, latest);
        // Give the staleness TTL a fresh grace period.
        self.last_heard = now;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The controller of one task (§4.2, "Latency Allocation").
///
/// Holds the latest resource prices received from the price agents,
/// updates its paths' prices locally, re-solves its latency allocation,
/// and sends the new latencies to the resources its subtasks run on.
/// Under [`PriceMethod::Gradient`] a path price takes a projected
/// gradient step on the previous allocation's slack; under
/// [`PriceMethod::Clearing`] the paths clear their own λ at the held μ
/// ([`TaskPlan::clear_lambdas`]), and each latency goes out with its
/// subtask's pressure at the new prices.
///
/// Fault tolerance (all opt-in via [`RobustnessConfig`]): the controller
/// records when it last heard each relevant resource's price and degrades
/// to holding its last-known-good latencies once any of them exceeds the
/// staleness TTL; it periodically writes a [`ControllerCheckpoint`] to the
/// deployment's [`CheckpointStore`] and restores from it after a crash.
#[derive(Debug)]
pub struct TaskController {
    core: AgentCore,
    /// Dense index of the task in the applied epoch.
    t: usize,
    /// This controller's view of the deployment's shared problem (copy on
    /// write).
    problem: Arc<Problem>,
    prices: PriceState,
    congested: Vec<bool>,
    lats: Vec<f64>,
    /// Dense task index → slot in the applied epoch (the epoch's table).
    task_slots: Arc<[usize]>,
    /// Dense resource index → slot in the applied epoch.
    resource_slots: Arc<[usize]>,
    last_checkpoint: f64,
    /// Virtual time of the newest price heard, per (dense) resource.
    last_heard: Vec<f64>,
    /// Dense resource indices this task's subtasks actually use.
    used_resources: Vec<usize>,
    ticks: usize,
    degraded_ticks: u64,
    /// Highest applied control-plane sequence, per resource slot
    /// (volatile).
    last_avail_seq: HashMap<usize, u64>,
    /// Compiled single-task allocation kernel (lla-core's plan lowering),
    /// re-lowered whenever the problem or this controller's task changes.
    plan: TaskPlan,
    /// Per subtask: the Σλ accumulator the plan kernel reuses every tick;
    /// under market clearing also the λ block's pressures before the
    /// allocation and the reported ones after it.
    lambda_scratch: Vec<f64>,
    /// Output double-buffer the kernel writes into, then swapped with
    /// `lats` — no per-tick matrix allocation.
    next_lats: Vec<f64>,
    /// The λ block's reusable term buffer.
    path_terms: Vec<PathTerm>,
}

impl TaskController {
    /// The controller of the task in `slot`, built at the newest epoch of
    /// `ctx`'s topology: its latencies start from the task's initial
    /// allocation, its prices from the initial point.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a live task of that epoch.
    pub fn new(ctx: &Arc<DeploymentContext>, slot: usize) -> Self {
        let te = ctx.latest();
        let t = te.task_slots.binary_search(&slot).expect("the task slot is live");
        let problem = Arc::clone(&te.problem);
        let id = problem.tasks()[t].id();
        let plan = TaskPlan::lower(&problem, id, &ctx.settings);
        TaskController {
            core: AgentCore::new(ctx, Address::Controller(slot), te.epoch),
            t,
            lats: problem.initial_task_allocation(id),
            congested: vec![false; problem.resources().len()],
            last_heard: vec![0.0; problem.resources().len()],
            used_resources: used_resources(&problem, t),
            prices: PriceState::new(&problem, ctx.policy),
            task_slots: Arc::clone(&te.task_slots),
            resource_slots: Arc::clone(&te.resource_slots),
            last_checkpoint: 0.0,
            ticks: 0,
            degraded_ticks: 0,
            last_avail_seq: HashMap::new(),
            lambda_scratch: vec![0.0; plan.len()],
            next_lats: vec![0.0; plan.len()],
            plan,
            path_terms: Vec::new(),
            problem,
        }
    }

    /// Read access to the fleet scope, e.g. to compare reports emitted
    /// against the collector's merge accounting in tests.
    pub fn fleet_telemetry(&self) -> &AgentTelemetry {
        &self.core.ftel
    }

    /// Protocol slot of this controller.
    pub fn slot(&self) -> usize {
        self.core.slot()
    }

    /// Applied topology epoch.
    pub fn epoch(&self) -> u64 {
        self.core.epoch
    }

    /// Whether the task has departed and the controller only acknowledges
    /// control traffic.
    pub fn is_dormant(&self) -> bool {
        self.core.dormant
    }

    /// This controller's copy-on-write problem view.
    #[cfg(test)]
    pub(crate) fn problem(&self) -> &Arc<Problem> {
        &self.problem
    }

    /// The controller's current latency assignment.
    pub fn lats(&self) -> &[f64] {
        &self.lats
    }

    /// Whether the controller is currently holding its last-known-good
    /// latencies because some price went stale.
    pub fn is_degraded(&self) -> bool {
        self.core.degraded
    }

    /// Ticks spent in degraded mode so far.
    pub fn degraded_ticks(&self) -> u64 {
        self.degraded_ticks
    }

    /// Adaptive step-size growth events recorded by this controller's
    /// price state (the supervisor's gamma-thrash evidence).
    pub fn gamma_doublings(&self) -> u64 {
        self.prices.gamma_doublings()
    }

    /// Captures the controller's algorithm state in the centralized
    /// optimizer's export format (rows of other tasks hold the initial
    /// allocation — this controller only owns its own row).
    pub fn export_state(&self) -> OptimizerState {
        let mut lats = self.problem.initial_allocation();
        lats[self.t].copy_from_slice(&self.lats);
        OptimizerState::from_parts(self.prices.clone(), lats, self.ticks)
    }

    /// Restores algorithm state captured with
    /// [`export_state`](Self::export_state).
    pub fn import_state(&mut self, state: &OptimizerState) {
        self.prices = state.prices().clone();
        self.lats = state.lats()[self.t].clone();
        self.ticks = state.iteration();
    }

    /// Validates `ckpt` against the controller's applied topology epoch
    /// and the current problem shapes, then restores it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StateImportError`] — and leaves the controller
    /// untouched — when the checkpoint was captured under a different
    /// epoch or its matrices no longer fit the problem.
    pub fn try_restore(&mut self, ckpt: &ControllerCheckpoint) -> Result<(), StateImportError> {
        let epoch = self.core.epoch;
        if ckpt.epoch != epoch {
            return Err(StateImportError::EpochMismatch { expected: epoch, found: ckpt.epoch });
        }
        if let Some(tagged) = ckpt.state.epoch() {
            if tagged != epoch {
                return Err(StateImportError::EpochMismatch { expected: epoch, found: tagged });
            }
        }
        let n_tasks = self.problem.tasks().len();
        if ckpt.state.lats().len() != n_tasks {
            return Err(StateImportError::TaskCountMismatch {
                expected: n_tasks,
                found: ckpt.state.lats().len(),
            });
        }
        if ckpt.state.lats()[self.t].len() != self.lats.len() {
            return Err(StateImportError::RowShapeMismatch {
                task: self.t,
                expected: self.lats.len(),
                found: ckpt.state.lats()[self.t].len(),
            });
        }
        let n_res = self.problem.resources().len();
        if ckpt.congested.len() != n_res {
            return Err(StateImportError::ResourceCountMismatch {
                expected: n_res,
                found: ckpt.congested.len(),
            });
        }
        self.import_state(&ckpt.state);
        self.congested = ckpt.congested.clone();
        Ok(())
    }

    /// Re-lowers the compiled task plan. Epoch transitions replace the
    /// problem (and may rebind this controller's dense task index), so
    /// the plan is rebuilt.
    fn rebuild_plan(&mut self) {
        let id = self.problem.tasks()[self.t].id();
        self.plan = TaskPlan::lower(&self.problem, id, &self.core.ctx.settings);
        self.lambda_scratch.resize(self.plan.len(), 0.0);
        self.next_lats.resize(self.plan.len(), 0.0);
    }

    /// Sends each subtask's latency to the resource it runs on; under
    /// market clearing with its pressure at the current latencies and
    /// prices (the new λ, and a concave task's f′ at the new allocation),
    /// rebuilt into `lambda_scratch`.
    fn send_latencies(&mut self, outbox: &mut Outbox) {
        let clearing = self.core.ctx.method == PriceMethod::Clearing;
        if clearing {
            self.plan.pressures_into(self.t, &self.prices, &self.lats, &mut self.lambda_scratch);
        }
        let task = &self.problem.tasks()[self.t];
        for (s, sub) in task.subtasks().iter().enumerate() {
            outbox.send(
                Address::Resource(self.resource_slots[sub.resource().index()]),
                Message::Latency {
                    task: self.core.slot(),
                    subtask: s,
                    latency: self.lats[s],
                    pressure: clearing.then(|| self.lambda_scratch[s]),
                },
            );
        }
    }

    /// Staleness of the oldest relevant price at virtual time `now`.
    fn staleness(&self, now: f64) -> f64 {
        self.used_resources.iter().map(|&r| now - self.last_heard[r]).fold(0.0, f64::max)
    }

    /// Dense index of the resource in `slot` under the applied epoch.
    fn resource_dense(&self, slot: usize) -> Option<usize> {
        self.resource_slots.binary_search(&slot).ok()
    }

    /// Takes a checkpoint when one is due.
    fn maybe_checkpoint(&mut self, now: f64) {
        if now - self.last_checkpoint < self.core.ctx.robustness.checkpoint_interval {
            return;
        }
        let epoch = self.core.epoch;
        self.core.ctx.checkpoints.save(
            self.core.addr,
            ControllerCheckpoint {
                state: self.export_state().with_epoch(epoch),
                congested: self.congested.clone(),
                at: now,
                epoch,
            },
        );
        self.last_checkpoint = now;
        self.core.tel().checkpoint_saves.inc();
        self.core.ftel.inc(M_CHECKPOINTS);
    }
}

/// The sorted dense indices of the resources task `t`'s subtasks run on.
fn used_resources(problem: &Problem, t: usize) -> Vec<usize> {
    let mut used: Vec<usize> =
        problem.tasks()[t].subtasks().iter().map(|s| s.resource().index()).collect();
    used.sort_unstable();
    used.dedup();
    used
}

impl ControlledAgent for TaskController {
    fn core(&mut self) -> &mut AgentCore {
        &mut self.core
    }

    /// Rebinds this controller's dense index, warm-carries surviving
    /// duals, and remaps the per-resource congestion/staleness books. A
    /// departed slot sends the controller dormant.
    fn apply_epoch(&mut self, now: f64, te: &TopologyEpoch) {
        let Ok(new_t) = te.task_slots.binary_search(&self.core.slot()) else {
            self.core.dormant = true;
            return;
        };
        let report = epoch_report(&self.task_slots, &self.resource_slots, te);
        self.core.tel().warm_start_hits.inc();
        self.prices = self.prices.remap(&te.problem, &report);
        let n_res = te.problem.resources().len();
        let mut congested = vec![false; n_res];
        // Newcomer resources start with a fresh staleness grace period.
        let mut last_heard = vec![now; n_res];
        for (old, m) in report.resource_map.iter().enumerate() {
            if let Some(new) = m {
                congested[*new] = self.congested[old];
                last_heard[*new] = self.last_heard[old];
            }
        }
        self.congested = congested;
        self.last_heard = last_heard;
        self.problem = Arc::clone(&te.problem);
        self.t = new_t;
        self.task_slots = Arc::clone(&te.task_slots);
        self.resource_slots = Arc::clone(&te.resource_slots);
        // The task's own subtask row never changes shape across epochs
        // (drain only rebinds resources), so the warm `lats` stay valid.
        self.used_resources = used_resources(&self.problem, self.t);
        self.rebuild_plan();
    }

    fn reset_prices(&mut self) {
        self.prices = PriceState::new(&self.problem, self.core.ctx.policy);
    }

    fn apply_command(&mut self, msg: &Message, outbox: &mut Outbox) {
        match *msg {
            Message::GammaCalm { max_multiple, .. } => self.prices.calm_gammas(max_multiple),
            // Re-send the current latencies so stalled resources'
            // staleness clocks refresh without waiting for the next tick
            // phase.
            Message::DualResync { .. } => self.send_latencies(outbox),
            _ => unreachable!("command_seq() only matches supervisor commands"),
        }
    }
}

impl Actor for TaskController {
    fn on_tick(&mut self, now: f64, outbox: &mut Outbox) {
        if self.core.dormant {
            self.core.report(now, outbox);
            return;
        }
        self.ticks += 1;
        self.core.ftel.inc(M_TICKS);
        let stale = self.staleness(now) > self.core.ctx.robustness.staleness_ttl;
        if self.core.update_staleness(now, stale) {
            // Graceful degradation: stale prices would make the gradient
            // steps integrate noise, so freeze both price layers and hold
            // the last-known-good latencies (the resources keep running
            // with them). Recovery is automatic: fresh prices reset the
            // staleness clock.
            self.degraded_ticks += 1;
        } else {
            match self.core.ctx.method {
                PriceMethod::Gradient => {
                    // Path price computation from the *previous*
                    // allocation — matching the centralized iteration
                    // order, where prices computed at the end of step k−1
                    // feed the allocation of step k. The compiled plan
                    // replays the same expressions over flat arrays.
                    let ct = self.plan.critical_time();
                    for p in 0..self.plan.num_paths() {
                        let grad = 1.0 - self.plan.path_latency(p, &self.lats) / ct;
                        let traverses_congested = self.plan.path_traverses(p, &self.congested);
                        self.prices.apply_path_step(self.t, p, grad, traverses_congested);
                    }
                }
                // The λ block of the centralized sweep, at the μ the
                // resources broadcast last round: the μ block of that
                // sweep ran on the resource agents.
                PriceMethod::Clearing => self.plan.clear_lambdas(
                    self.t,
                    &mut self.prices,
                    &self.lats,
                    &mut self.lambda_scratch,
                    &mut self.path_terms,
                ),
            }

            // Latency allocation at the stored resource prices, into the
            // reusable double buffer.
            self.plan.allocate_into(
                self.t,
                &self.prices,
                &self.lats,
                &mut self.lambda_scratch,
                &mut self.next_lats,
            );
            std::mem::swap(&mut self.lats, &mut self.next_lats);
            self.core.ctx.lats.lock()[self.core.slot()].clone_from(&self.lats);

            self.send_latencies(outbox);
            self.core.ftel.inc(M_LATENCY_UPDATES);
            self.core.ftel.add(M_MESSAGES_OUT, self.lats.len() as u64);
        }
        self.maybe_checkpoint(now);
        self.core.report(now, outbox);
    }

    fn on_message(&mut self, now: f64, msg: Message, outbox: &mut Outbox) {
        self.core.ftel.inc(M_MESSAGES_IN);
        if self.on_control(now, &msg, outbox) {
            return;
        }
        match msg {
            Message::Price { resource, mu, congested } => {
                // `resource` is a slot; a price from a resource this
                // epoch no longer knows (e.g. just retired) misses.
                if self.core.dormant {
                    return;
                }
                if !mu.is_finite() || mu < 0.0 {
                    // A negative μ_r would feed `sqrt(μ·demand)` a negative
                    // argument and NaN the allocation; non-finite is the
                    // same poison one step later.
                    return self.core.reject(now, "mu");
                }
                if let Some(r) = self.resource_dense(resource) {
                    self.prices.set_mu(r, mu);
                    self.congested[r] = congested;
                    self.last_heard[r] = now;
                }
            }
            Message::AvailabilityUpdate { resource, availability, seq } => {
                // Controllers use B_r in their clamping bounds.
                self.core.ack_availability(resource, seq, outbox);
                let fresh =
                    seq == 0 || advance(self.last_avail_seq.entry(resource).or_insert(0), seq);
                if !fresh || self.core.dormant {
                    return;
                }
                let Some(r) = self.resource_dense(resource) else {
                    return;
                };
                if set_availability_cow(&mut self.problem, r, availability).is_err() {
                    return self.core.reject(now, "availability");
                }
                // `B_r` feeds the clamping boxes, so the compiled plan is
                // re-lowered only when this controller's task runs on `r`.
                if self.used_resources.binary_search(&r).is_ok() {
                    let id = self.problem.tasks()[self.t].id();
                    self.plan = TaskPlan::lower(&self.problem, id, &self.core.ctx.settings);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: f64) {
        // Volatile state is gone; the problem spec is configuration and
        // survives. Start from the initial point — on_restart may replace
        // this with a checkpoint.
        self.reset_prices();
        self.lats = self.problem.initial_task_allocation(self.problem.tasks()[self.t].id());
        self.congested = vec![false; self.problem.resources().len()];
        self.last_heard = vec![0.0; self.problem.resources().len()];
        self.ticks = 0;
        self.last_avail_seq.clear();
        self.core.crash();
    }

    fn on_restart(&mut self, now: f64, _outbox: &mut Outbox) {
        // The topology store is durable configuration: rejoin at the
        // newest epoch before considering a checkpoint. A checkpoint
        // written before an eviction epoch holds poisoned duals (see
        // MembershipCause) — skip it; the crash already reset the prices
        // to the initial point.
        let latest = self.core.ctx.topology.latest();
        let rehab = self.adopt_epoch(now, latest);
        let ctx = Arc::clone(&self.core.ctx);
        if let Some(ckpt) = ctx.checkpoints.load(self.core.addr).filter(|_| !rehab) {
            // A checkpoint taken under an older topology holds duals
            // shaped for a different problem; restoring it would corrupt
            // the dual state. `try_restore` validates the epoch tag and
            // every matrix shape before touching anything.
            let (tel, slot) = (&ctx.tel, self.core.slot());
            match self.try_restore(&ckpt) {
                Ok(()) => {
                    self.last_checkpoint = now;
                    tel.checkpoint_restores.inc();
                    tel.events.emit(
                        TelemetryEvent::new(now, "checkpoint_restore")
                            .with("slot", slot)
                            .with("checkpoint_at", ckpt.at),
                    );
                }
                Err(e) => {
                    tel.checkpoint_rejections.inc();
                    tel.events.emit(
                        TelemetryEvent::new(now, "checkpoint_rejected")
                            .with("slot", slot)
                            .with("checkpoint_at", ckpt.at)
                            .with("reason", e.to_string()),
                    );
                }
            }
        }
        // Fresh staleness grace period either way.
        self.last_heard = vec![now; self.problem.resources().len()];
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The management-plane agent that disseminates availability changes
/// *reliably* over the same lossy network as data-plane traffic.
///
/// An operator submits a command as an [`AvailabilityUpdate`] with
/// `seq == 0`; the control plane assigns the next sequence number and
/// fans the update out to the affected resource agent and every task
/// controller, retransmitting on every tick until each recipient has
/// acknowledged the sequence. Recipients deduplicate by sequence, so
/// at-least-once delivery composes to exactly-once application.
///
/// [`AvailabilityUpdate`]: Message::AvailabilityUpdate
#[derive(Debug)]
pub struct ControlPlaneAgent {
    /// Live controller slots (dormant ones are pruned as they depart).
    controller_slots: Vec<usize>,
    /// Live resource slots.
    resource_slots: Vec<usize>,
    next_seq: u64,
    pending: Vec<Pending>,
    pending_membership: Vec<Pending>,
    pending_commands: Vec<Pending>,
    ctx: Arc<DeploymentContext>,
}

/// One reliably-disseminated message awaiting acknowledgements, with its
/// retransmit-policy books (attempt count and backoff cooldown).
#[derive(Debug)]
struct Pending {
    /// The sequenced message being disseminated.
    msg: Message,
    awaiting: Vec<Address>,
    /// Retransmissions performed so far (the initial fan-out is free).
    attempts: u64,
    /// Retransmit ticks to skip before the next attempt (exponential
    /// backoff, capped by [`RobustnessConfig::retransmit_backoff_cap`]).
    cooldown: u64,
}

impl Pending {
    fn new(msg: Message, awaiting: Vec<Address>) -> Self {
        Pending { msg, awaiting, attempts: 0, cooldown: 0 }
    }

    /// The control-plane sequence this entry is waiting on acks for.
    fn seq(&self) -> u64 {
        match self.msg {
            Message::AvailabilityUpdate { seq, .. } => seq,
            _ => self
                .msg
                .membership_parts()
                .map(|(_, _, s)| s)
                .or_else(|| self.msg.command_seq())
                .expect("pending entries carry sequenced messages"),
        }
    }
}

impl ControlPlaneAgent {
    /// The control plane of `ctx`'s deployment, fanning out to the live
    /// controllers and resource agents of its newest topology epoch.
    pub fn new(ctx: &Arc<DeploymentContext>) -> Self {
        let te = ctx.latest();
        ControlPlaneAgent {
            controller_slots: te.task_slots.to_vec(),
            resource_slots: te.resource_slots.to_vec(),
            next_seq: 0,
            pending: Vec::new(),
            pending_membership: Vec::new(),
            pending_commands: Vec::new(),
            ctx: Arc::clone(ctx),
        }
    }

    /// Updates not yet acknowledged by every recipient.
    pub fn pending_updates(&self) -> usize {
        self.pending.len()
    }

    /// Membership changes not yet acknowledged by every recipient.
    pub fn pending_membership(&self) -> usize {
        self.pending_membership.len()
    }

    /// Supervisor commands not yet acknowledged by every recipient.
    pub fn pending_commands(&self) -> usize {
        self.pending_commands.len()
    }

    /// Sequence numbers assigned so far.
    pub fn sequences_assigned(&self) -> u64 {
        self.next_seq
    }

    /// Controller slots the control plane currently fans out to.
    pub fn controller_slots(&self) -> &[usize] {
        &self.controller_slots
    }

    /// Resource slots the control plane currently fans out to.
    pub fn resource_slots(&self) -> &[usize] {
        &self.resource_slots
    }

    fn recipients(&self, resource: usize) -> Vec<Address> {
        let mut v = Vec::with_capacity(self.controller_slots.len() + 1);
        v.push(Address::Resource(resource));
        v.extend(self.controller_slots.iter().copied().map(Address::Controller));
        v
    }

    /// Everyone who must learn about a membership change: all live
    /// resource agents and controllers, *including* the departing agent
    /// (which needs the message to go dormant) and the joining one (which
    /// was created at the new epoch already and simply re-acks).
    fn membership_recipients(&self) -> Vec<Address> {
        let mut v: Vec<Address> =
            self.resource_slots.iter().copied().map(Address::Resource).collect();
        v.extend(self.controller_slots.iter().copied().map(Address::Controller));
        v
    }

    /// Folds an operator membership command into the live-slot books,
    /// *before* computing recipients (joins) or *after* (departures, so
    /// the departing agent still hears the news).
    fn note_membership_pre(&mut self, msg: &Message) {
        match *msg {
            Message::TaskJoin { slot, .. } if !self.controller_slots.contains(&slot) => {
                self.controller_slots.push(slot);
            }
            Message::ResourceJoin { slot, .. } if !self.resource_slots.contains(&slot) => {
                self.resource_slots.push(slot);
            }
            _ => {}
        }
    }

    fn note_membership_post(&mut self, msg: &Message) {
        match *msg {
            Message::TaskLeave { slot, .. } | Message::Evict { slot, .. } => {
                self.controller_slots.retain(|&s| s != slot);
            }
            Message::ResourceRetire { slot, .. } => {
                self.resource_slots.retain(|&s| s != slot);
            }
            _ => {}
        }
    }
}

impl ControlPlaneAgent {
    /// One retransmit tick over one pending queue: give up on entries
    /// whose budget is spent (telemetry event instead of resending
    /// forever), honor each survivor's backoff cooldown, and resend to
    /// every still-silent recipient otherwise.
    fn retransmit_queue(queue: &mut Vec<Pending>, policy: &RetransmitPolicy, outbox: &mut Outbox) {
        queue.retain_mut(|p| {
            if p.attempts >= policy.max_retransmits {
                policy.tel.retransmit_give_ups.inc();
                policy.tel.events.emit(
                    TelemetryEvent::new(policy.now, "retransmit_give_up")
                        .with("kind", p.msg.kind())
                        .with("seq", p.seq())
                        .with("unacked", p.awaiting.len()),
                );
                return false;
            }
            if p.cooldown > 0 {
                p.cooldown -= 1;
                return true;
            }
            for &addr in &p.awaiting {
                policy.tel.retransmits.inc();
                outbox.send(addr, p.msg.clone());
            }
            p.attempts += 1;
            p.cooldown = (1u64 << p.attempts.min(63)).min(policy.cap).saturating_sub(1);
            true
        });
    }
}

/// The per-tick retransmit parameters [`ControlPlaneAgent::on_tick`]
/// threads through its queues.
struct RetransmitPolicy<'a> {
    now: f64,
    cap: u64,
    max_retransmits: u64,
    tel: &'a DistTelemetry,
}

impl Actor for ControlPlaneAgent {
    fn on_tick(&mut self, now: f64, outbox: &mut Outbox) {
        let robustness = &self.ctx.robustness;
        let policy = RetransmitPolicy {
            now,
            cap: u64::from(robustness.retransmit_backoff_cap.max(1)),
            max_retransmits: robustness.max_retransmits,
            tel: &self.ctx.tel,
        };
        Self::retransmit_queue(&mut self.pending, &policy, outbox);
        Self::retransmit_queue(&mut self.pending_membership, &policy, outbox);
        Self::retransmit_queue(&mut self.pending_commands, &policy, outbox);
    }

    fn on_message(&mut self, _now: f64, msg: Message, outbox: &mut Outbox) {
        if let Some((_, _, 0)) = msg.membership_parts() {
            // Operator-submitted membership command: assign the next
            // sequence and disseminate reliably, exactly like
            // availability updates.
            self.next_seq += 1;
            let sequenced = msg.with_membership_seq(self.next_seq);
            self.note_membership_pre(&sequenced);
            let awaiting = self.membership_recipients();
            for &addr in &awaiting {
                outbox.send(addr, sequenced.clone());
            }
            self.note_membership_post(&sequenced);
            self.pending_membership.push(Pending::new(sequenced, awaiting));
            return;
        }
        if let Some(0) = msg.command_seq() {
            // Supervisor-submitted remediation command: same reliable
            // dissemination, fanned out to every live agent.
            self.next_seq += 1;
            let sequenced = msg.with_command_seq(self.next_seq);
            let awaiting = self.membership_recipients();
            for &addr in &awaiting {
                outbox.send(addr, sequenced.clone());
            }
            self.pending_commands.push(Pending::new(sequenced, awaiting));
            return;
        }
        match msg {
            Message::AvailabilityUpdate { resource, availability, seq: 0 } => {
                self.next_seq += 1;
                let seq = self.next_seq;
                let awaiting = self.recipients(resource);
                let sequenced = Message::AvailabilityUpdate { resource, availability, seq };
                for &addr in &awaiting {
                    outbox.send(addr, sequenced.clone());
                }
                self.pending.push(Pending::new(sequenced, awaiting));
            }
            Message::AvailabilityAck { seq, from, .. } => {
                for p in &mut self.pending {
                    if p.seq() == seq {
                        p.awaiting.retain(|&a| a != from);
                    }
                }
                self.pending.retain(|p| !p.awaiting.is_empty());
            }
            Message::MembershipAck { seq, from, .. } => {
                for p in &mut self.pending_membership {
                    if p.seq() == seq {
                        p.awaiting.retain(|&a| a != from);
                    }
                }
                self.pending_membership.retain(|p| !p.awaiting.is_empty());
            }
            Message::CommandAck { seq, from } => {
                for p in &mut self.pending_commands {
                    if p.seq() == seq {
                        p.awaiting.retain(|&a| a != from);
                    }
                }
                self.pending_commands.retain(|p| !p.awaiting.is_empty());
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: f64) {
        // Pending retransmissions are volatile. Sequence numbers must stay
        // monotone across restarts; a real control plane would persist the
        // counter, which the round-up on restart emulates.
        self.pending.clear();
        self.pending_membership.clear();
        self.pending_commands.clear();
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_core::{Resource, ResourceId, ResourceKind, TaskBuilder, TaskId};

    fn problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, c).unwrap();
        b.critical_time(30.0);
        Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
    }

    /// `problem()` with a second task alike, for the control plane's
    /// fan-out.
    fn two_tasks() -> Problem {
        let mut p = problem();
        let mut b = TaskBuilder::new("u");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, c).unwrap();
        b.critical_time(30.0);
        p.add_task(&b).unwrap();
        p
    }

    fn config(price_method: PriceMethod, robustness: RobustnessConfig) -> DistConfig {
        DistConfig {
            price_method,
            step_policy: StepSizePolicy::fixed(1.0),
            allocation: AllocationSettings { throughput_floor: false },
            robustness,
            ..DistConfig::default()
        }
    }

    /// The context of a deployment of `p` with fixed unit step sizes.
    fn context(
        p: Problem,
        method: PriceMethod,
        robustness: RobustnessConfig,
    ) -> Arc<DeploymentContext> {
        context_with(p, method, robustness, DistTelemetry::disabled())
    }

    fn context_with(
        p: Problem,
        method: PriceMethod,
        robustness: RobustnessConfig,
        tel: DistTelemetry,
    ) -> Arc<DeploymentContext> {
        Arc::new(DeploymentContext::new(Arc::new(p), &config(method, robustness), tel))
    }

    #[test]
    fn resource_agent_tracks_latencies_and_usage() {
        let p = problem();
        let mut agent =
            ResourceAgent::new(&context(p, PriceMethod::Gradient, Default::default()), 0);
        // Initial allocation: 15ms each => usage = 3/15 = 0.2.
        assert!((agent.usage() - 0.2).abs() < 1e-12);
        let mut outbox = Outbox::default();
        agent.on_message(
            0.0,
            Message::Latency { task: 0, subtask: 0, latency: 3.0, pressure: None },
            &mut outbox,
        );
        assert!((agent.usage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resource_agent_broadcasts_price_on_tick() {
        let p = problem();
        let mut agent =
            ResourceAgent::new(&context(p, PriceMethod::Gradient, Default::default()), 0);
        let mut outbox = Outbox::default();
        agent.on_message(
            0.0,
            Message::Latency { task: 0, subtask: 0, latency: 1.0, pressure: None },
            &mut outbox,
        );
        agent.on_tick(0.0, &mut outbox);
        assert_eq!(outbox.len(), 1, "one subscriber");
        assert!(agent.mu() > 0.0, "congestion must raise the price");
    }

    #[test]
    fn controller_allocates_and_reports() {
        let p = problem();
        let ctx = context(p, PriceMethod::Gradient, Default::default());
        let telemetry: SharedLats = Arc::clone(&ctx.lats);
        let mut ctl = TaskController::new(&ctx, 0);
        let mut outbox = Outbox::default();
        ctl.on_message(0.0, Message::Price { resource: 0, mu: 9.0, congested: false }, &mut outbox);
        ctl.on_message(
            0.0,
            Message::Price { resource: 1, mu: 16.0, congested: false },
            &mut outbox,
        );
        ctl.on_tick(0.0, &mut outbox);
        // One latency message per subtask.
        assert_eq!(outbox.len(), 2);
        // lat = sqrt(mu * demand): sqrt(27) and sqrt(64).
        let lats = telemetry.lock()[0].clone();
        assert!((lats[0] - 27f64.sqrt()).abs() < 1e-9);
        assert!((lats[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn clearing_latencies_carry_pressures_and_gradient_ones_none() {
        let p = problem();
        for (method, carried) in [(PriceMethod::Clearing, true), (PriceMethod::Gradient, false)] {
            let mut ctl = TaskController::new(&context(p.clone(), method, Default::default()), 0);
            let mut outbox = Outbox::default();
            ctl.on_tick(0.0, &mut outbox);
            let msgs = outbox.into_messages();
            assert_eq!(msgs.len(), 2, "one latency per subtask");
            for (_, msg) in msgs {
                let Message::Latency { pressure, .. } = msg else { panic!("{msg:?}") };
                // No path price yet: the pressure is the linear task's −w·f′.
                assert_eq!(pressure.is_some_and(|p| p > 0.0), carried, "{method:?}: {pressure:?}");
            }
        }
    }

    #[test]
    fn clearing_resource_refuses_a_non_finite_pressure() {
        let hub = lla_telemetry::TelemetryHub::recording();
        let tel = DistTelemetry::from_hub(&hub);
        let ctx = context_with(problem(), PriceMethod::Clearing, Default::default(), tel);
        let mut agent = ResourceAgent::new(&ctx, 0);
        let mut outbox = Outbox::default();
        let latency = |pressure| Message::Latency { task: 0, subtask: 0, latency: 3.0, pressure };
        agent.on_message(0.0, latency(Some(f64::NAN)), &mut outbox);
        assert!((agent.usage() - 0.2).abs() < 1e-12, "the poisoned report is dropped whole");
        let rejected = hub.events.snapshot();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].field("field").map(|f| f.to_string()), Some("pressure".into()));
        // No pressure heard yet: the hosted subtask sits at its latency
        // cap, which fits, so the cleared price is 0.
        agent.on_tick(1.0, &mut outbox);
        assert_eq!(agent.mu(), 0.0);
        agent.on_message(2.0, latency(Some(1.0)), &mut outbox);
        assert!((agent.usage() - 1.0).abs() < 1e-12, "a finite report is taken");
    }

    #[test]
    fn controller_degrades_on_stale_prices_and_recovers() {
        let p = problem();
        let robustness = RobustnessConfig { staleness_ttl: 20.0, ..Default::default() };
        let mut ctl = TaskController::new(&context(p, PriceMethod::Gradient, robustness), 0);
        let mut outbox = Outbox::default();
        ctl.on_message(0.0, Message::Price { resource: 0, mu: 9.0, congested: false }, &mut outbox);
        ctl.on_message(
            0.0,
            Message::Price { resource: 1, mu: 16.0, congested: false },
            &mut outbox,
        );
        ctl.on_tick(10.0, &mut outbox);
        assert!(!ctl.is_degraded());
        let held = ctl.lats().to_vec();
        // No prices for 30 ms > TTL: hold, send nothing.
        let before = outbox.len();
        ctl.on_tick(40.0, &mut outbox);
        assert!(ctl.is_degraded());
        assert_eq!(ctl.degraded_ticks(), 1);
        assert_eq!(outbox.len(), before, "degraded tick must not send");
        assert_eq!(ctl.lats(), held.as_slice(), "degraded tick must hold latencies");
        // Fresh prices end degradation.
        ctl.on_message(
            41.0,
            Message::Price { resource: 0, mu: 9.0, congested: false },
            &mut outbox,
        );
        ctl.on_message(
            41.0,
            Message::Price { resource: 1, mu: 16.0, congested: false },
            &mut outbox,
        );
        ctl.on_tick(42.0, &mut outbox);
        assert!(!ctl.is_degraded());
    }

    #[test]
    fn controller_checkpoints_and_restores_after_crash() {
        let p = problem();
        let robustness = RobustnessConfig { checkpoint_interval: 5.0, ..Default::default() };
        let ctx = context(p, PriceMethod::Gradient, robustness);
        let store = ctx.checkpoints.clone();
        let mut ctl = TaskController::new(&ctx, 0);
        let mut outbox = Outbox::default();
        ctl.on_message(0.0, Message::Price { resource: 0, mu: 9.0, congested: false }, &mut outbox);
        ctl.on_message(
            0.0,
            Message::Price { resource: 1, mu: 16.0, congested: false },
            &mut outbox,
        );
        ctl.on_tick(6.0, &mut outbox);
        assert_eq!(store.len(), 1, "checkpoint written");
        let converged = ctl.lats().to_vec();

        ctl.on_crash(7.0);
        assert_ne!(ctl.lats(), converged.as_slice(), "crash wipes volatile state");
        ctl.on_restart(8.0, &mut outbox);
        assert_eq!(ctl.lats(), converged.as_slice(), "restart restores the checkpoint");
    }

    #[test]
    fn resource_agent_dedupes_by_sequence_and_acks() {
        let p = problem();
        let mut agent =
            ResourceAgent::new(&context(p, PriceMethod::Gradient, Default::default()), 0);
        let mut outbox = Outbox::default();
        let update = Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 3 };
        agent.on_message(0.0, update.clone(), &mut outbox);
        agent.on_message(1.0, update, &mut outbox);
        // A *lower* sequence must not roll availability back.
        agent.on_message(
            2.0,
            Message::AvailabilityUpdate { resource: 0, availability: 0.9, seq: 2 },
            &mut outbox,
        );
        let msgs = outbox.into_messages();
        assert_eq!(msgs.len(), 3, "every sequenced update is acked, even duplicates");
        assert!(msgs.iter().all(|(to, m)| *to == Address::ControlPlane
            && matches!(m, Message::AvailabilityAck { from: Address::Resource(0), .. })));
    }

    #[test]
    fn control_plane_retransmits_until_acked() {
        let mut cp = ControlPlaneAgent::new(&context(
            two_tasks(),
            PriceMethod::Gradient,
            Default::default(),
        ));
        let mut outbox = Outbox::default();
        cp.on_message(
            0.0,
            Message::AvailabilityUpdate { resource: 1, availability: 0.5, seq: 0 },
            &mut outbox,
        );
        // Fan-out to resource 1 + both controllers.
        assert_eq!(outbox.len(), 3);
        assert_eq!(cp.pending_updates(), 1);
        let sent = outbox.into_messages();
        assert!(sent
            .iter()
            .all(|(_, m)| *m
                == Message::AvailabilityUpdate { resource: 1, availability: 0.5, seq: 1 }));

        // Two of three ack: retransmit only to the silent one.
        for from in [Address::Resource(1), Address::Controller(0)] {
            let mut ob = Outbox::default();
            cp.on_message(1.0, Message::AvailabilityAck { resource: 1, seq: 1, from }, &mut ob);
        }
        let mut ob = Outbox::default();
        cp.on_tick(2.0, &mut ob);
        let retries = ob.into_messages();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].0, Address::Controller(1));

        // Final ack clears the pending set; ticks go quiet.
        let mut ob = Outbox::default();
        cp.on_message(
            3.0,
            Message::AvailabilityAck { resource: 1, seq: 1, from: Address::Controller(1) },
            &mut ob,
        );
        assert_eq!(cp.pending_updates(), 0);
        let mut ob = Outbox::default();
        cp.on_tick(4.0, &mut ob);
        assert!(ob.is_empty(), "an idle control plane is silent");
    }

    #[test]
    fn control_plane_backs_off_exponentially_and_gives_up() {
        use lla_telemetry::{EventLog, MetricsRegistry};
        let registry = MetricsRegistry::new();
        let tel = DistTelemetry::new(&registry, EventLog::recording());
        let robustness = RobustnessConfig {
            retransmit_backoff_cap: 4,
            max_retransmits: 3,
            ..Default::default()
        };
        let ctx = context_with(two_tasks(), PriceMethod::Gradient, robustness, tel.clone());
        let mut cp = ControlPlaneAgent::new(&ctx);
        let mut outbox = Outbox::default();
        cp.on_message(
            0.0,
            Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 0 },
            &mut outbox,
        );
        assert_eq!(outbox.len(), 3, "initial fan-out is free");

        // Nobody ever acks. The wait after attempt n is min(2^n, cap) - 1
        // skipped ticks: attempt 1 then 1 skip, attempts 2 and 3 then 3
        // skips each, then the budget (3) is spent and the entry drops.
        let mut sends_per_tick = Vec::new();
        for tick in 1..=11 {
            let mut ob = Outbox::default();
            cp.on_tick(f64::from(tick), &mut ob);
            sends_per_tick.push(ob.len());
        }
        assert_eq!(sends_per_tick, vec![3, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0]);
        assert_eq!(cp.pending_updates(), 0, "give-up drops the entry");
        assert_eq!(tel.retransmit_give_ups.get(), 1);
        assert_eq!(tel.retransmits.get(), 9, "three attempts to three silent recipients");
        let events = tel.events.snapshot();
        let give_up = events
            .iter()
            .find(|e| e.kind == "retransmit_give_up")
            .expect("give-up emits a telemetry event");
        assert_eq!(give_up.field("unacked").map(ToString::to_string), Some("3".to_string()));

        // The default config is the legacy behavior: every tick, forever.
        let mut legacy = ControlPlaneAgent::new(&context(
            two_tasks(),
            PriceMethod::Gradient,
            Default::default(),
        ));
        let mut ob = Outbox::default();
        legacy.on_message(
            0.0,
            Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 0 },
            &mut ob,
        );
        for tick in 1..=50 {
            let mut ob = Outbox::default();
            legacy.on_tick(f64::from(tick), &mut ob);
            assert_eq!(ob.len(), 3, "defaults retransmit on every tick");
        }
        assert_eq!(legacy.pending_updates(), 1, "defaults never give up");
    }

    #[test]
    fn resource_agent_dedupes_commands_and_acks_stale_ones() {
        let p = problem();
        let mut agent =
            ResourceAgent::new(&context(p, PriceMethod::Gradient, Default::default()), 0);
        let mut outbox = Outbox::default();
        agent.on_message(0.0, Message::GammaCalm { max_multiple: 8.0, seq: 5 }, &mut outbox);
        // A stale (lower-seq) command is acked — the original ack may have
        // been lost — but must not be applied: no price re-announcement.
        agent.on_message(1.0, Message::DualResync { seq: 4 }, &mut outbox);
        let msgs = outbox.into_messages();
        assert_eq!(msgs.len(), 2, "both commands acked, stale resync not applied");
        assert!(msgs.iter().all(|(to, m)| *to == Address::ControlPlane
            && matches!(m, Message::CommandAck { from: Address::Resource(0), .. })));

        // A fresh resync is acked *and* re-announces the price to the
        // subscribed controller immediately.
        let mut outbox = Outbox::default();
        agent.on_message(2.0, Message::DualResync { seq: 6 }, &mut outbox);
        let msgs = outbox.into_messages();
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().any(|(to, m)| *to == Address::ControlPlane
            && matches!(m, Message::CommandAck { seq: 6, .. })));
        assert!(msgs.iter().any(|(to, m)| *to == Address::Controller(0)
            && matches!(m, Message::Price { resource: 0, .. })));
    }

    #[test]
    fn controller_restore_rejects_mismatched_checkpoints_with_typed_errors() {
        let p = problem();
        let mut ctl =
            TaskController::new(&context(p, PriceMethod::Gradient, Default::default()), 0);
        let mut outbox = Outbox::default();
        ctl.on_message(0.0, Message::Price { resource: 0, mu: 9.0, congested: false }, &mut outbox);
        ctl.on_message(
            0.0,
            Message::Price { resource: 1, mu: 16.0, congested: false },
            &mut outbox,
        );
        ctl.on_tick(0.0, &mut outbox);
        let good = ControllerCheckpoint {
            state: ctl.export_state(),
            congested: vec![false, false],
            at: 0.0,
            epoch: ctl.epoch(),
        };

        // Epoch mismatch: a checkpoint from an older topology must be
        // rejected without touching the controller.
        let before = ctl.lats().to_vec();
        let stale = ControllerCheckpoint { epoch: good.epoch + 1, ..good.clone() };
        match ctl.try_restore(&stale) {
            Err(StateImportError::EpochMismatch { expected, found }) => {
                assert_eq!(expected, good.epoch);
                assert_eq!(found, good.epoch + 1);
            }
            other => panic!("expected EpochMismatch, got {other:?}"),
        }
        assert_eq!(ctl.lats(), before.as_slice(), "rejected restore leaves state untouched");

        // Congestion vector shaped for a different resource set.
        let misshapen = ControllerCheckpoint { congested: vec![false], ..good.clone() };
        assert!(matches!(
            ctl.try_restore(&misshapen),
            Err(StateImportError::ResourceCountMismatch { expected: 2, found: 1 })
        ));

        // The matching checkpoint restores cleanly.
        assert!(ctl.try_restore(&good).is_ok());
    }
}
