//! The distributed-LLA facade over the virtual-time runtime.

use crate::agents::{
    CheckpointStore, ControlPlaneAgent, DeploymentContext, MembershipCause, ResourceAgent,
    RobustnessConfig, TaskController, TopologyEpoch, TopologyStore,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::fleet::CollectorAgent;
use crate::network::NetworkModel;
use crate::protocol::{Address, Message};
use crate::runtime::{Actor, VirtualRuntime};
use crate::telemetry::DistTelemetry;
use lla_core::{
    Allocation, AllocationSettings, IterationReport, ModelError, PriceMethod, Problem, Resource,
    ResourceId, StepSizePolicy, TaskBuilder, TaskId,
};
use lla_telemetry::{DiagSample, Event as TelemetryEvent};
use std::sync::Arc;

/// Controllers tick a quarter into each round, resource agents three
/// quarters in (see [`DistConfig::round_length`]).
const CONTROLLER_PHASE: f64 = 0.25;
const RESOURCE_PHASE: f64 = 0.75;

/// Configuration of a [`DistributedLla`] deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// How the agents move their prices each round, as
    /// [`OptimizerConfig::price_method`](lla_core::OptimizerConfig::price_method)
    /// moves the in-process ones: a market-clearing sweep split across
    /// the agents (the default; each resource clears its own `μ_r` from
    /// the pressures its controllers report, each controller its own
    /// paths' λ), or the paper's gradient steps.
    pub price_method: PriceMethod,
    /// Price step-size policy used by every agent; read only under
    /// [`PriceMethod::Gradient`].
    pub step_policy: StepSizePolicy,
    /// Latency-allocation solver settings used by every controller.
    pub allocation: AllocationSettings,
    /// The network between controllers and resources.
    pub network: NetworkModel,
    /// Seed for network randomness.
    pub seed: u64,
    /// Virtual length of one protocol round (ms). Controllers tick at
    /// `0.25·round`, resource agents at `0.75·round`; with one-way delays
    /// below a quarter round the protocol is *synchronous* and
    /// bit-equivalent to the centralized optimizer (under market clearing,
    /// one round late: the controllers' first allocation is at zero
    /// prices), with larger delays or loss the agents naturally fall back
    /// to stale state (the algorithm tolerates it).
    pub round_length: f64,
    /// Fraction of the round length by which each agent's tick interval
    /// and phase are randomly perturbed (seeded). `0` gives the
    /// synchronous round structure; positive values de-synchronize the
    /// agents entirely — a deterministic emulation of fully asynchronous
    /// operation.
    pub tick_jitter: f64,
    /// Fault-tolerance configuration for every agent (checkpoints,
    /// staleness TTL, control-plane retransmission). The default disables
    /// checkpointing and staleness degradation, preserving bit-equivalence
    /// with the centralized optimizer.
    pub robustness: RobustnessConfig,
    /// When `true`, every delivery round-trips through the validated wire
    /// codec ([`crate::codec`]): encode → (optional corruption) → decode,
    /// with malformed frames rejected and counted. With zero corruption
    /// the round trip is bit-exact, so a wire-mode run is bit-identical
    /// to a struct-passing one (tested).
    pub wire_mode: bool,
    /// Per-copy frame-corruption probability in wire mode, in `[0, 1]`.
    /// Ignored unless [`wire_mode`](Self::wire_mode) is on.
    pub corruption: f64,
    /// Virtual ms between per-agent telemetry reports; `0.0` (the
    /// default) disables the fleet telemetry plane entirely — no
    /// collector is registered and no report is ever sent, so a default
    /// deployment is byte-identical to one without the plane. When
    /// positive, every agent ships delta-encoded, watermarked
    /// [`Message::TelemetryReport`]s to the
    /// [`CollectorAgent`] at this cadence
    /// over the same (lossy, reordering, partitionable) network as
    /// protocol traffic.
    pub report_cadence: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            price_method: PriceMethod::default(),
            step_policy: StepSizePolicy::default(),
            allocation: AllocationSettings::default(),
            network: NetworkModel::perfect(),
            seed: 0,
            round_length: 10.0,
            tick_jitter: 0.0,
            robustness: RobustnessConfig::default(),
            wire_mode: false,
            corruption: 0.0,
            report_cadence: 0.0,
        }
    }
}

/// A full distributed deployment of LLA: one price agent per resource, one
/// controller per task, and a control-plane agent, exchanging messages
/// over a simulated network.
///
/// The facade, the topology epochs and every agent share one
/// copy-on-write `Arc<Problem>`: deployment costs one problem, not one
/// per agent, and an agent (or the facade) copies it only when it writes
/// to its own view — an availability update or a membership change.
///
/// # Example
/// ```
/// use lla_dist::{DistConfig, DistributedLla};
/// use lla_core::{AllocationSettings, StepSizePolicy};
/// use lla_workloads::base_workload;
///
/// let mut dist = DistributedLla::new(base_workload(), DistConfig {
///     allocation: AllocationSettings { throughput_floor: false },
///     ..DistConfig::default()
/// });
/// dist.run_rounds(600);
/// assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-3));
/// ```
#[derive(Debug)]
pub struct DistributedLla {
    problem: Arc<Problem>,
    runtime: VirtualRuntime,
    /// What every agent shares: settings, stores and telemetry.
    ctx: Arc<DeploymentContext>,
    /// Current topology epoch (0 = initial deployment).
    epoch: u64,
    /// `task_slots[dense task index] = slot`; slots are never reused.
    task_slots: Vec<usize>,
    /// `resource_slots[dense resource index] = slot`.
    resource_slots: Vec<usize>,
    next_task_slot: usize,
    next_resource_slot: usize,
    config: DistConfig,
    rounds: usize,
    utilities: Vec<f64>,
    /// The live tasks' telemetry rows in dense order, refreshed in place
    /// after every round to score its utility.
    round_lats: Vec<Vec<f64>>,
    /// `(at, resource slot, availability)` of scheduled availability
    /// faults not yet reflected in the facade's own problem view.
    pending_availability: Vec<(f64, usize, f64)>,
    /// Prices observed at the previous [`diag_sample`](Self::diag_sample)
    /// call, for the relative-step statistic.
    last_diag_prices: Vec<f64>,
}

impl DistributedLla {
    /// Deploys agents for every resource and task of `problem`, plus the
    /// control-plane agent. Telemetry is disabled; use
    /// [`with_telemetry`](Self::with_telemetry) to instrument the
    /// deployment.
    pub fn new(problem: Problem, config: DistConfig) -> Self {
        DistributedLla::with_telemetry(problem, config, DistTelemetry::disabled())
    }

    /// Like [`new`](Self::new), but every layer — the runtime, all
    /// agents, and the facade's membership operations — shares the given
    /// telemetry handles. Instrumentation is passive (counters and
    /// virtual-clock events only), so an instrumented run is
    /// bit-identical to an un-instrumented one.
    pub fn with_telemetry(problem: Problem, config: DistConfig, tel: DistTelemetry) -> Self {
        let problem = Arc::new(problem);
        let mut runtime = VirtualRuntime::new(config.network, config.seed);
        runtime.attach_telemetry(tel.clone());
        if config.wire_mode {
            // The corruptor's stream is derived from — but independent of —
            // the network sampler's, so opening a corruption window never
            // shifts delay/loss decisions.
            runtime.enable_wire_mode(
                crate::network::CorruptionModel::with_probability(config.corruption),
                config.seed.wrapping_add(0xC0DEC),
            );
        }
        let (n_tasks, n_resources) = (problem.tasks().len(), problem.resources().len());
        let mut dist = DistributedLla {
            ctx: Arc::new(DeploymentContext::new(Arc::clone(&problem), &config, tel)),
            problem,
            runtime,
            epoch: 0,
            task_slots: (0..n_tasks).collect(),
            resource_slots: (0..n_resources).collect(),
            next_task_slot: n_tasks,
            next_resource_slot: n_resources,
            config,
            rounds: 0,
            utilities: Vec::new(),
            round_lats: Vec::new(),
            pending_availability: Vec::new(),
            last_diag_prices: Vec::new(),
        };

        use rand::{Rng, SeedableRng};
        let mut jitter_rng = rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(0xa5));
        let round = config.round_length;
        let mut jittered = |frac: f64| -> (f64, f64) {
            if config.tick_jitter > 0.0 {
                let j = config.tick_jitter * round;
                (
                    (round + jitter_rng.gen_range(-j..j)).max(1e-3),
                    frac * round + jitter_rng.gen_range(0.0..j),
                )
            } else {
                (round, frac * round)
            }
        };
        for t in 0..n_tasks {
            let (interval, phase) = jittered(CONTROLLER_PHASE);
            dist.spawn(Address::Controller(t), interval, phase);
        }
        for r in 0..n_resources {
            let (interval, phase) = jittered(RESOURCE_PHASE);
            dist.spawn(Address::Resource(r), interval, phase);
        }
        // The control plane ticks at the retransmission interval; idle it
        // sends nothing, so fault-free runs are unaffected.
        dist.runtime.register(
            Address::ControlPlane,
            Box::new(ControlPlaneAgent::new(&dist.ctx)),
            config.robustness.retransmit_interval,
            0.5 * round,
        );
        if config.report_cadence > 0.0 {
            // The collector ticks late in the round (phase 0.9·round) so
            // each evaluation sees the reports shipped earlier that round.
            // It never sends, so registering it cannot perturb the
            // protocol; with cadence 0 it is not registered at all and the
            // deployment is byte-identical to a pre-fleet one.
            dist.runtime.register(
                Address::Collector,
                Box::new(CollectorAgent::new(
                    dist.ctx.tel.clone(),
                    crate::fleet::default_slo_rules(round),
                )),
                round,
                0.9 * round,
            );
        }
        dist
    }

    /// Builds the controller or resource agent at `addr` at the newest
    /// topology epoch and registers it with the runtime: the one place
    /// agents are built, at genesis and on a join alike.
    fn spawn(&mut self, addr: Address, interval: f64, phase: f64) {
        let agent: Box<dyn Actor> = match addr {
            Address::Controller(slot) => Box::new(TaskController::new(&self.ctx, slot)),
            Address::Resource(slot) => Box::new(ResourceAgent::new(&self.ctx, slot)),
            _ => unreachable!("only controllers and resource agents are spawned"),
        };
        self.runtime.register(addr, agent, interval, phase);
    }

    /// The telemetry handles shared across the deployment.
    pub fn dist_telemetry(&self) -> &DistTelemetry {
        &self.ctx.tel
    }

    /// The deployed problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// Current price `μ` of the live resource agent in `slot` (`None`
    /// while the agent is crashed or the slot is dormant).
    pub fn resource_price(&mut self, slot: usize) -> Option<f64> {
        self.runtime.actor_as::<ResourceAgent>(Address::Resource(slot)).map(|a| a.mu())
    }

    /// The underlying virtual runtime (fault counters, clock).
    pub fn runtime(&self) -> &VirtualRuntime {
        &self.runtime
    }

    /// Mutable access to the runtime — for inspecting agents via
    /// [`VirtualRuntime::actor_as`] in tests and drivers.
    pub fn runtime_mut(&mut self) -> &mut VirtualRuntime {
        &mut self.runtime
    }

    /// The stable store the controllers checkpoint into.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.ctx.checkpoints
    }

    /// Schedules a fault plan on the runtime's virtual clock. Faults fire
    /// as their times are reached by [`run_rounds`](Self::run_rounds).
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for event in plan.events() {
            if let FaultKind::SetAvailability { resource, availability } = event.kind {
                self.pending_availability.push((event.at, resource, availability));
            }
        }
        self.runtime.schedule_faults(plan);
    }

    /// Runs `n` protocol rounds, recording the system utility after each.
    pub fn run_rounds(&mut self, n: usize) {
        for _ in 0..n {
            self.rounds += 1;
            let t_end = self.rounds as f64 * self.config.round_length;
            self.runtime.run_until(t_end);
            // Mirror fired availability faults into the facade's problem
            // view, so feasibility/usage reporting sees them. Fault plans
            // address resources by slot. Only a fault that fires copies
            // the problem the agents share.
            let problem = &mut self.problem;
            let resource_slots = &self.resource_slots;
            self.pending_availability.retain(|&(at, slot, availability)| {
                if at >= t_end {
                    return true;
                }
                if let Some(dense) = resource_slots.iter().position(|&s| s == slot) {
                    let problem = Arc::make_mut(problem);
                    let id = problem.resources()[dense].id();
                    problem
                        .set_resource_availability(id, availability)
                        .expect("fault plans validate availability at construction");
                }
                false
            });
            let tel = self.ctx.lats.lock();
            self.round_lats.resize_with(self.task_slots.len(), Vec::new);
            for (row, &s) in self.round_lats.iter_mut().zip(&self.task_slots) {
                row.clone_from(&tel[s]);
            }
            drop(tel);
            self.utilities.push(self.problem.total_utility(&self.round_lats));
        }
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The telemetry rows of the *live* tasks, in dense order. Telemetry
    /// is indexed by slot (rows only ever grow); departed tasks keep
    /// their last row but drop out of the dense view.
    fn dense_lats(&self) -> Vec<Vec<f64>> {
        let tel = self.ctx.lats.lock();
        self.task_slots.iter().map(|&s| tel[s].clone()).collect()
    }

    /// The current allocation as reported by the controllers.
    pub fn allocation(&self) -> Allocation {
        Allocation::from_lats(self.dense_lats())
    }

    /// The current total utility.
    pub fn utility(&self) -> f64 {
        self.problem.total_utility(&self.dense_lats())
    }

    /// The deployment's current state in the optimizer's report shape
    /// (iteration = rounds run): the utility and the worst resource and
    /// path violations of the controllers' allocation, which is what an
    /// [`OverloadMonitor`](lla_core::OverloadMonitor) observes.
    pub fn report(&self) -> IterationReport {
        let lats = self.dense_lats();
        IterationReport {
            iteration: self.rounds,
            utility: self.problem.total_utility(&lats),
            max_resource_violation: self.problem.max_resource_violation(&lats),
            max_path_violation: self.problem.max_path_violation(&lats),
        }
    }

    /// Utility after each completed round.
    pub fn utilities(&self) -> &[f64] {
        &self.utilities
    }

    /// One [`DiagSample`] of the deployment's current state, for the
    /// [`DiagnosticsEngine`](lla_telemetry::DiagnosticsEngine). Take one
    /// per round (or every few rounds) and push it into the engine.
    ///
    /// Prices come from the live resource agents; `frozen_agents` counts
    /// agents currently in staleness-TTL degraded mode; the relative
    /// price step is measured between consecutive `diag_sample` calls.
    /// `gamma_doublings` sums the step-adaptation growth events of every
    /// live agent's price state — an agent crash resets its contribution,
    /// which the engine's saturating window delta absorbs.
    pub fn diag_sample(&mut self) -> DiagSample {
        let worst = self.problem.worst_violation_factor(&self.dense_lats());
        let mut frozen = 0u64;
        let mut doublings = 0u64;
        let mut prices = Vec::with_capacity(self.resource_slots.len());
        for &slot in &self.resource_slots {
            match self.runtime.actor_as::<ResourceAgent>(Address::Resource(slot)) {
                Some(agent) => {
                    prices.push(agent.mu());
                    doublings += agent.gamma_doublings();
                    if agent.is_degraded() {
                        frozen += 1;
                    }
                }
                None => prices.push(f64::NAN),
            }
        }
        for &slot in &self.task_slots {
            if let Some(ctl) = self.runtime.actor_as::<TaskController>(Address::Controller(slot)) {
                doublings += ctl.gamma_doublings();
                if ctl.is_degraded() {
                    frozen += 1;
                }
            }
        }
        let max_rel_price_step = if self.last_diag_prices.len() == prices.len() {
            prices
                .iter()
                .zip(&self.last_diag_prices)
                .map(|(new, old)| (new - old).abs() / (1.0 + new.abs()))
                .fold(0.0f64, f64::max)
        } else {
            0.0
        };
        self.last_diag_prices = prices.clone();
        DiagSample {
            iteration: self.rounds as u64,
            utility: self.utility(),
            worst_violation_factor: worst,
            gamma_doublings: doublings,
            max_rel_price_step,
            frozen_agents: frozen,
            prices,
        }
    }

    /// Total messages handed to the network.
    pub fn messages_sent(&self) -> u64 {
        self.runtime.messages_sent()
    }

    /// Messages dropped by the network.
    pub fn messages_dropped(&self) -> u64 {
        self.runtime.messages_dropped()
    }

    /// Frames the decode → validate pipeline refused (wire mode only).
    pub fn frames_rejected(&self) -> u64 {
        self.runtime.frames_rejected()
    }

    /// Frames mutated in flight by injected corruption (wire mode only).
    pub fn frames_corrupted(&self) -> u64 {
        self.runtime.frames_corrupted()
    }

    /// Corrupted frames that still decoded and validated — in-domain
    /// field fuzz the codec cannot distinguish from a legitimate value.
    /// LLA absorbs these as ordinary perturbations and re-converges.
    pub fn corrupted_delivered(&self) -> u64 {
        self.runtime.corrupted_delivered()
    }

    /// Rejected-frame counts attributed to each sender, sorted by
    /// address. The supervisor's quarantine policy reads deltas of this.
    pub fn frame_rejections_by_sender(&self) -> Vec<(Address, u64)> {
        self.runtime.frame_rejections_by_sender()
    }

    /// Quarantines `addr`: the runtime drops its outbound messages (acks
    /// excepted, so reliable dissemination can still settle) until
    /// [`release_agent`](Self::release_agent). Returns `false` if it was
    /// already quarantined.
    pub fn quarantine_agent(&mut self, addr: Address) -> bool {
        let fresh = self.runtime.quarantine(addr);
        if fresh {
            self.ctx.tel.agent_quarantines.inc();
            self.ctx.tel.events.emit(
                TelemetryEvent::new(self.runtime.now(), "agent_quarantined")
                    .with("agent", addr.to_string()),
            );
        }
        fresh
    }

    /// Releases `addr` from quarantine. Returns `false` if it was not
    /// quarantined.
    pub fn release_agent(&mut self, addr: Address) -> bool {
        let released = self.runtime.release_quarantine(addr);
        if released {
            self.ctx.tel.events.emit(
                TelemetryEvent::new(self.runtime.now(), "agent_released")
                    .with("agent", addr.to_string()),
            );
        }
        released
    }

    /// The currently quarantined agents, sorted by address.
    pub fn quarantined_agents(&self) -> Vec<Address> {
        self.runtime.quarantined_agents()
    }

    /// Messages dropped at the ingress gate because their sender was
    /// quarantined.
    pub fn quarantine_drops(&self) -> u64 {
        self.runtime.quarantine_drops()
    }

    /// Announces a change of resource availability through the
    /// control-plane agent: the update is assigned a sequence number and
    /// disseminated over the (possibly lossy) network with
    /// retransmit-until-ack, so it reaches every agent even under heavy
    /// loss. LLA re-converges from the current prices.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] or
    /// [`ModelError::InvalidParameter`] (non-finite or out-of-`[0, 1]`
    /// availability); nothing is announced on error.
    pub fn set_resource_availability(
        &mut self,
        r: ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        let slot = self.resource_slots[r.index()];
        Arc::make_mut(&mut self.problem).set_resource_availability(r, availability)?;
        self.runtime.inject(
            Address::ControlPlane,
            Message::AvailabilityUpdate { resource: slot, availability, seq: 0 },
        );
        Ok(())
    }

    /// Announces a change of resource availability out of band: delivered
    /// to every agent immediately and reliably, bypassing both the network
    /// model and the control plane. This is the idealized baseline the
    /// reliable path is tested against.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] or
    /// [`ModelError::InvalidParameter`] (non-finite or out-of-`[0, 1]`
    /// availability); nothing is announced on error.
    pub fn set_resource_availability_bypass(
        &mut self,
        r: ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        let slot = self.resource_slots[r.index()];
        Arc::make_mut(&mut self.problem).set_resource_availability(r, availability)?;
        let msg = Message::AvailabilityUpdate { resource: slot, availability, seq: 0 };
        self.runtime.inject(Address::Resource(slot), msg.clone());
        for &t in &self.task_slots {
            self.runtime.inject(Address::Controller(t), msg.clone());
        }
        Ok(())
    }

    /// Current topology epoch (0 until the first membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Slot of each live task, in dense order.
    pub fn task_slots(&self) -> &[usize] {
        &self.task_slots
    }

    /// Slot of each live resource, in dense order.
    pub fn resource_slots(&self) -> &[usize] {
        &self.resource_slots
    }

    /// The shared epoch log agents reload topology from.
    pub fn topology(&self) -> &TopologyStore {
        &self.ctx.topology
    }

    /// Records the post-change topology as a new epoch in the shared
    /// store, *before* the change is announced — so any agent that hears
    /// about the epoch can immediately load it.
    fn push_epoch(&mut self, cause: MembershipCause) {
        self.epoch += 1;
        self.ctx.topology.push(TopologyEpoch {
            epoch: self.epoch,
            cause,
            problem: Arc::clone(&self.problem),
            task_slots: self.task_slots.as_slice().into(),
            resource_slots: self.resource_slots.as_slice().into(),
        });
    }

    /// First tick time strictly after `now` for an agent phased at
    /// `frac` of a round (0.25 for controllers, 0.75 for resources).
    fn next_phase(&self, frac: f64) -> f64 {
        let round = self.config.round_length;
        let offset = frac * round;
        let now = self.runtime.now();
        (((now - offset) / round).floor() + 1.0) * round + offset
    }

    /// Splices a new task into the running deployment: expands the
    /// problem, records a new topology epoch, registers a controller for
    /// the newcomer (first tick at the next controller phase), and
    /// announces the join through the control plane's reliable path. The
    /// incumbents keep their dual state; only the newcomer starts cold.
    ///
    /// Returns the newcomer's protocol *slot* (stable across later
    /// churn, unlike its dense [`TaskId`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`]s from building the candidate task.
    pub fn join_task(&mut self, builder: &TaskBuilder) -> Result<usize, ModelError> {
        let report = Arc::make_mut(&mut self.problem).add_task(builder)?;
        let dense = report.added_task.expect("add_task reports the new id").index();
        let slot = self.next_task_slot;
        self.next_task_slot += 1;
        self.task_slots.push(slot);
        self.push_epoch(MembershipCause::TaskJoin);
        {
            let mut tel = self.ctx.lats.lock();
            while tel.len() <= slot {
                tel.push(Vec::new());
            }
            tel[slot] = self.problem.initial_task_allocation(TaskId::new(dense));
        }
        self.spawn(
            Address::Controller(slot),
            self.config.round_length,
            self.next_phase(CONTROLLER_PHASE),
        );
        self.ctx.tel.membership_changes.inc();
        self.ctx.tel.events.emit(
            TelemetryEvent::new(self.runtime.now(), "task_join")
                .with("slot", slot)
                .with("epoch", self.epoch),
        );
        self.runtime
            .inject(Address::ControlPlane, Message::TaskJoin { slot, epoch: self.epoch, seq: 0 });
        Ok(slot)
    }

    /// Dense index of the task in `slot`, or an `UnknownTask` error
    /// (reported with the slot as the id, since departed slots have no
    /// dense id).
    fn task_dense(&self, slot: usize) -> Result<usize, ModelError> {
        self.task_slots
            .iter()
            .position(|&s| s == slot)
            .ok_or(ModelError::UnknownTask { task: TaskId::new(slot), len: self.task_slots.len() })
    }

    /// Dense index of the resource in `slot`.
    fn resource_dense(&self, slot: usize) -> Result<usize, ModelError> {
        self.resource_slots.iter().position(|&s| s == slot).ok_or(ModelError::UnknownResourceId {
            resource: ResourceId::new(slot),
            len: self.resource_slots.len(),
        })
    }

    fn depart_task(&mut self, slot: usize, evict: bool) -> Result<(), ModelError> {
        let dense = self.task_dense(slot)?;
        Arc::make_mut(&mut self.problem).remove_task(TaskId::new(dense))?;
        self.task_slots.remove(dense);
        self.push_epoch(if evict { MembershipCause::Evict } else { MembershipCause::TaskLeave });
        let msg = if evict {
            Message::Evict { slot, epoch: self.epoch, seq: 0 }
        } else {
            Message::TaskLeave { slot, epoch: self.epoch, seq: 0 }
        };
        self.ctx.tel.membership_changes.inc();
        self.ctx.tel.events.emit(
            TelemetryEvent::new(
                self.runtime.now(),
                if evict { "task_evict" } else { "task_leave" },
            )
            .with("slot", slot)
            .with("epoch", self.epoch),
        );
        self.runtime.inject(Address::ControlPlane, msg);
        Ok(())
    }

    /// Removes the task in `slot` from the running deployment
    /// (voluntary departure). Its controller stays registered but goes
    /// dormant once the announcement reaches it; survivors keep their
    /// dual state and re-converge to the freed capacity.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownTask`] if no live task occupies `slot`.
    pub fn leave_task(&mut self, slot: usize) -> Result<(), ModelError> {
        self.depart_task(slot, false)
    }

    /// Removes the task in `slot` because overload shedding chose it.
    /// Announced as an [`Message::Evict`] and recorded as an
    /// [`MembershipCause::Evict`] epoch, which makes every surviving
    /// agent restart its duals from the initial point: eviction only
    /// happens after *sustained* overload, which is exactly when the
    /// warm duals are poisoned (they integrated an unsatisfiable
    /// gradient and would stall the survivors' re-convergence — see
    /// [`MembershipCause`]).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownTask`] if no live task occupies `slot`.
    pub fn evict_task(&mut self, slot: usize) -> Result<(), ModelError> {
        self.depart_task(slot, true)
    }

    /// Splices a new resource into the running deployment. The resource's
    /// id must be dense-next (`problem.resources().len()`); it starts
    /// empty — tasks joining later may place subtasks on it.
    ///
    /// Returns the newcomer's protocol slot.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`]s from [`Problem::add_resource`].
    pub fn join_resource(&mut self, resource: Resource) -> Result<usize, ModelError> {
        Arc::make_mut(&mut self.problem).add_resource(resource)?;
        let slot = self.next_resource_slot;
        self.next_resource_slot += 1;
        self.resource_slots.push(slot);
        self.push_epoch(MembershipCause::ResourceJoin);
        self.spawn(
            Address::Resource(slot),
            self.config.round_length,
            self.next_phase(RESOURCE_PHASE),
        );
        self.ctx.tel.membership_changes.inc();
        self.ctx.tel.events.emit(
            TelemetryEvent::new(self.runtime.now(), "resource_join")
                .with("slot", slot)
                .with("epoch", self.epoch),
        );
        self.runtime.inject(
            Address::ControlPlane,
            Message::ResourceJoin { slot, epoch: self.epoch, seq: 0 },
        );
        Ok(slot)
    }

    /// Retires the resource in `slot` with drain-and-handoff: every
    /// subtask it hosts is rebound onto the resource in `handoff_slot`
    /// (share models rebuilt for the destination), then the retiree
    /// leaves the topology. Its agent goes dormant once the announcement
    /// reaches it; the handoff target picks the drained subtasks up from
    /// the new epoch and re-learns their latencies from controller
    /// traffic within a round.
    ///
    /// Returns the number of subtasks drained.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] if either slot is not live, or
    /// any error from the underlying reassign/retire.
    pub fn retire_resource(
        &mut self,
        slot: usize,
        handoff_slot: usize,
    ) -> Result<usize, ModelError> {
        let dense_from = self.resource_dense(slot)?;
        let dense_to = self.resource_dense(handoff_slot)?;
        let problem = Arc::make_mut(&mut self.problem);
        let from_id = problem.resources()[dense_from].id();
        let to_id = problem.resources()[dense_to].id();
        let moved = problem.reassign_resource(from_id, to_id)?;
        problem.retire_resource(from_id)?;
        self.resource_slots.remove(dense_from);
        self.push_epoch(MembershipCause::ResourceRetire);
        self.ctx.tel.membership_changes.inc();
        self.ctx.tel.events.emit(
            TelemetryEvent::new(self.runtime.now(), "resource_retire")
                .with("slot", slot)
                .with("handoff_slot", handoff_slot)
                .with("epoch", self.epoch)
                .with("moved", moved),
        );
        self.runtime.inject(
            Address::ControlPlane,
            Message::ResourceRetire { slot, epoch: self.epoch, seq: 0 },
        );
        Ok(moved)
    }

    /// Replica count of the resource in `slot`.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] if no live resource occupies
    /// `slot`.
    pub fn resource_replicas(&self, slot: usize) -> Result<u32, ModelError> {
        Ok(self.problem.resources()[self.resource_dense(slot)?].replicas())
    }

    /// Elastic capacity: sets the replica count of the resource in
    /// `slot`. Effective availability scales to `replicas × base`; the
    /// change is recorded as a new topology epoch (cause
    /// [`ReplicaProvision`](MembershipCause::ReplicaProvision) or
    /// [`ReplicaRetire`](MembershipCause::ReplicaRetire)) and announced
    /// through the control plane's reliable membership path, so every
    /// agent warm-starts across it like any other capacity change.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] if no live resource occupies
    /// `slot`, or [`ModelError::InvalidParameter`] if `replicas == 0`
    /// (retire the resource instead).
    pub fn set_resource_replicas(&mut self, slot: usize, replicas: u32) -> Result<(), ModelError> {
        let dense = self.resource_dense(slot)?;
        let problem = Arc::make_mut(&mut self.problem);
        let id = problem.resources()[dense].id();
        let before = problem.resources()[dense].replicas();
        if replicas == before {
            return Ok(());
        }
        problem.set_resource_replicas(id, replicas)?;
        let (cause, kind) = if replicas > before {
            self.ctx.tel.replica_provisions.inc();
            (MembershipCause::ReplicaProvision, "replica_provision")
        } else {
            self.ctx.tel.replica_retires.inc();
            (MembershipCause::ReplicaRetire, "replica_retire")
        };
        self.push_epoch(cause);
        self.ctx.tel.membership_changes.inc();
        self.ctx.tel.events.emit(
            TelemetryEvent::new(self.runtime.now(), kind)
                .with("slot", slot)
                .with("replicas", u64::from(replicas))
                .with("epoch", self.epoch),
        );
        self.runtime.inject(
            Address::ControlPlane,
            Message::ReplicaUpdate { slot, replicas, epoch: self.epoch, seq: 0 },
        );
        Ok(())
    }

    /// Supervisor remediation: broadcast a [`Message::GammaCalm`] through
    /// the control plane's reliable path — every live agent resets its
    /// adaptive step sizes and clamps future growth to
    /// `initial × max_multiple`.
    pub fn broadcast_gamma_calm(&mut self, max_multiple: f64) {
        self.ctx.tel.events.emit(
            TelemetryEvent::new(self.runtime.now(), "gamma_calm")
                .with("max_multiple", max_multiple),
        );
        self.runtime.inject(Address::ControlPlane, Message::GammaCalm { max_multiple, seq: 0 });
    }

    /// Supervisor remediation: broadcast a [`Message::DualResync`] probe
    /// through the control plane's reliable path — every live agent
    /// immediately re-announces its current prices/latencies, refreshing
    /// peers' staleness clocks.
    pub fn broadcast_dual_resync(&mut self) {
        self.ctx.tel.events.emit(TelemetryEvent::new(self.runtime.now(), "dual_resync"));
        self.runtime.inject(Address::ControlPlane, Message::DualResync { seq: 0 });
    }

    /// The fleet collector, if the deployment has one (i.e.
    /// [`DistConfig::report_cadence`] is positive).
    pub fn collector(&mut self) -> Option<&CollectorAgent> {
        self.runtime.actor_as::<CollectorAgent>(Address::Collector).map(|c| &*c)
    }

    /// The merged fleet view, if a collector is deployed.
    pub fn fleet_view(&mut self) -> Option<&lla_telemetry::TelemetryCollector> {
        self.collector().map(CollectorAgent::fleet)
    }

    /// Every currently-firing SLO alert (empty without a collector).
    pub fn firing_alerts(&mut self) -> Vec<lla_telemetry::FiringAlert> {
        self.collector().map(CollectorAgent::firing).unwrap_or_default()
    }

    /// Replaces the collector's SLO rule set (resets alert state).
    /// Returns `false` when no collector is deployed.
    pub fn install_slo_rules(&mut self, rules: Vec<lla_telemetry::SloRule>) -> bool {
        match self.runtime.actor_as::<CollectorAgent>(Address::Collector) {
            Some(collector) => {
                collector.set_rules(rules);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_core::{
        Optimizer, OptimizerConfig, PriceMethod, Resource, ResourceId, ResourceKind, TaskBuilder,
        TaskId,
    };

    fn problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut tasks = Vec::new();
        for (i, c) in [(0usize, 40.0), (1usize, 60.0)] {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 2.0);
            let d = b.subtask("b", ResourceId::new(1), 3.0);
            b.edge(a, d).unwrap();
            b.critical_time(c);
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn config() -> DistConfig {
        DistConfig {
            allocation: AllocationSettings { throughput_floor: false },
            ..DistConfig::default()
        }
    }

    #[test]
    fn perfect_network_matches_centralized_exactly() {
        // The gradient protocol matches round for round; market clearing
        // one round late, since the controllers' first allocation is at
        // zero prices.
        for (price_method, lag) in [(PriceMethod::Gradient, 0), (PriceMethod::Clearing, 1)] {
            let rounds = 300;
            let mut dist = DistributedLla::new(problem(), DistConfig { price_method, ..config() });
            dist.run_rounds(rounds);

            let mut opt = Optimizer::new(
                problem(),
                OptimizerConfig {
                    price_method,
                    allocation: AllocationSettings { throughput_floor: false },
                    ..OptimizerConfig::default()
                },
            );
            let reports = opt.run(rounds - lag);
            for (round, (d, c)) in dist.utilities()[lag..].iter().zip(&reports).enumerate() {
                assert!(
                    (d - c.utility).abs() < 1e-9,
                    "{price_method:?} round {round}: distributed {d} != centralized {}",
                    c.utility
                );
            }
        }
    }

    #[test]
    fn lossy_network_still_converges_close() {
        let mut dist = DistributedLla::new(
            problem(),
            DistConfig { network: NetworkModel::lossy(0.5, 1.0, 0.1), seed: 11, ..config() },
        );
        dist.run_rounds(1_500);
        assert!(dist.messages_dropped() > 0, "loss model must be active");

        let mut opt = Optimizer::new(
            problem(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        opt.run_to_convergence(5_000);
        let reference = opt.utility();
        let achieved = dist.utility();
        assert!(
            (achieved - reference).abs() <= 0.05 * reference.abs().max(1.0),
            "lossy distributed {achieved} too far from centralized {reference}"
        );
        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
    }

    #[test]
    fn delayed_network_converges() {
        // One-round delays => agents work with stale prices.
        let mut dist = DistributedLla::new(
            problem(),
            DistConfig { network: NetworkModel::lossy(12.0, 5.0, 0.0), seed: 3, ..config() },
        );
        dist.run_rounds(1_500);
        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
    }

    #[test]
    fn availability_update_reconverges_distributed() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(800);
        let before = dist.utility();

        dist.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
        dist.run_rounds(1_500);
        let after = dist.utility();
        assert!(after <= before + 1e-6, "losing capacity cannot raise utility: {after} > {before}");
        // The new allocation respects the reduced availability.
        let alloc = dist.allocation();
        let usage = dist.problem().resource_usage(ResourceId::new(0), alloc.lats());
        assert!(usage <= 0.5 + 1e-3, "usage {usage} exceeds degraded availability");

        // And it matches a centralized optimizer subjected to the same
        // change after the same number of iterations.
        let mut opt = Optimizer::new(
            problem(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        opt.run(800);
        opt.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
        opt.run(1_500);
        assert!(
            (dist.utility() - opt.utility()).abs() < 1e-9,
            "distributed {} vs centralized {} after availability change",
            dist.utility(),
            opt.utility()
        );
    }

    #[test]
    fn reliable_path_matches_bypass_on_perfect_network() {
        // Over a perfect network the control-plane dissemination applies
        // the update at the same virtual instant as the out-of-band
        // bypass, so the runs stay bit-equal round by round.
        let mut reliable = DistributedLla::new(problem(), config());
        let mut bypass = DistributedLla::new(problem(), config());
        reliable.run_rounds(400);
        bypass.run_rounds(400);
        reliable.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
        bypass.set_resource_availability_bypass(ResourceId::new(0), 0.5).unwrap();
        reliable.run_rounds(400);
        bypass.run_rounds(400);
        for (round, (a, b)) in
            reliable.utilities().iter().zip(bypass.utilities().iter()).enumerate()
        {
            assert!((a - b).abs() < 1e-12, "round {round}: reliable {a} != bypass {b}");
        }
    }

    #[test]
    fn desynchronized_ticks_still_converge() {
        // Fully asynchronous agents: every interval and phase jittered by
        // up to 40% of a round. Prices and latencies are arbitrarily stale
        // relative to each other, yet the dual dynamics still settle on a
        // feasible allocation near the synchronous optimum.
        let mut sync = DistributedLla::new(problem(), config());
        sync.run_rounds(2_000);
        let mut async_ =
            DistributedLla::new(problem(), DistConfig { tick_jitter: 0.4, seed: 5, ..config() });
        async_.run_rounds(2_000);
        let gap = (async_.utility() - sync.utility()).abs() / sync.utility().abs().max(1.0);
        assert!(
            gap < 0.05,
            "async gap {gap} too large: {} vs {}",
            async_.utility(),
            sync.utility()
        );
        assert!(async_.problem().is_feasible(async_.allocation().lats(), 1e-2));
    }

    #[test]
    fn message_counting() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(10);
        // Per round: 2 controllers × 2 latency msgs + 2 resources × (tasks
        // hosted) price msgs = 4 + 4. The idle control plane sends nothing.
        assert_eq!(dist.messages_sent(), 80);
        assert_eq!(dist.messages_dropped(), 0);
    }

    #[test]
    fn task_join_splices_in_and_matches_fresh_oracle() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(500);

        let mut b = TaskBuilder::new("newcomer");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(50.0);
        let slot = dist.join_task(&b).unwrap();
        assert_eq!(slot, 2);
        assert_eq!(dist.epoch(), 1);
        assert_eq!(dist.problem().tasks().len(), 3);

        dist.run_rounds(2_000);
        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
        // Every agent adopted the epoch.
        for t in dist.task_slots().to_vec() {
            let ctl = dist.runtime_mut().actor_as::<TaskController>(Address::Controller(t));
            assert_eq!(ctl.expect("registered").epoch(), 1, "controller {t} missed the epoch");
        }

        // Within a few percent of a cold centralized solve of the same
        // expanded problem.
        let mut oracle = Optimizer::new(
            dist.problem().clone(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        oracle.run_to_convergence(10_000);
        let gap = (dist.utility() - oracle.utility()).abs() / oracle.utility().abs().max(1.0);
        assert!(gap < 0.05, "join gap {gap}: {} vs oracle {}", dist.utility(), oracle.utility());
    }

    #[test]
    fn resource_join_splices_in_and_matches_fresh_oracle() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(500);

        let cpu = Resource::new(ResourceId::new(2), ResourceKind::Cpu).with_lag(1.0);
        let slot = dist.join_resource(cpu).unwrap();
        assert_eq!(slot, 2);
        assert_eq!(dist.epoch(), 1);
        // A task that runs on the newcomer, so its price matters.
        let mut b = TaskBuilder::new("newcomer");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(2), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(50.0);
        dist.join_task(&b).unwrap();
        assert_eq!(dist.epoch(), 2);

        dist.run_rounds(2_000);
        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
        let agent = dist.runtime_mut().actor_as::<ResourceAgent>(Address::Resource(slot));
        let agent = agent.expect("registered");
        assert_eq!((agent.slot(), agent.epoch()), (slot, 2), "the newcomer missed the task join");
        assert!(!agent.is_dormant());
        for t in dist.task_slots().to_vec() {
            let ctl = dist.runtime_mut().actor_as::<TaskController>(Address::Controller(t));
            assert_eq!(ctl.expect("registered").epoch(), 2, "controller {t} missed an epoch");
        }

        let mut oracle = Optimizer::new(
            dist.problem().clone(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        oracle.run_to_convergence(10_000);
        let gap = (dist.utility() - oracle.utility()).abs() / oracle.utility().abs().max(1.0);
        assert!(gap < 0.05, "join gap {gap}: {} vs oracle {}", dist.utility(), oracle.utility());
    }

    #[test]
    fn task_leave_frees_capacity_and_survivors_reconverge() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(500);
        dist.leave_task(0).unwrap();
        assert_eq!(dist.epoch(), 1);
        assert_eq!(dist.problem().tasks().len(), 1);
        assert_eq!(dist.task_slots(), &[1], "slot 1 survives, densely reindexed to 0");
        dist.run_rounds(1_500);

        // The departed controller is dormant, not gone.
        let ctl = dist.runtime_mut().actor_as::<TaskController>(Address::Controller(0));
        assert!(ctl.expect("still registered").is_dormant());

        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
        let mut oracle = Optimizer::new(
            dist.problem().clone(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        oracle.run_to_convergence(10_000);
        let gap = (dist.utility() - oracle.utility()).abs() / oracle.utility().abs().max(1.0);
        assert!(gap < 0.05, "leave gap {gap}");
    }

    #[test]
    fn resource_retire_drains_onto_handoff_target() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(500);
        let moved = dist.retire_resource(1, 0).unwrap();
        assert_eq!(moved, 2, "each task had one subtask on resource 1");
        assert_eq!(dist.problem().resources().len(), 1);
        dist.run_rounds(2_500);

        use crate::agents::ResourceAgent;
        let retired = dist.runtime_mut().actor_as::<ResourceAgent>(Address::Resource(1));
        assert!(retired.expect("still registered").is_dormant());

        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
        let usage = dist.problem().resource_usage(ResourceId::new(0), dist.allocation().lats());
        assert!(usage <= 1.0 + 1e-3, "handoff target overloaded: {usage}");
    }

    #[test]
    fn membership_announcements_survive_a_lossy_network() {
        let mut dist = DistributedLla::new(
            problem(),
            DistConfig { network: NetworkModel::lossy(0.5, 1.0, 0.25), seed: 7, ..config() },
        );
        dist.run_rounds(300);
        let mut b = TaskBuilder::new("newcomer");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(50.0);
        dist.join_task(&b).unwrap();
        dist.leave_task(0).unwrap();
        dist.run_rounds(2_000);
        assert!(dist.messages_dropped() > 0);

        // Retransmit-until-ack got both epochs to every live agent.
        for t in dist.task_slots().to_vec() {
            let ctl = dist.runtime_mut().actor_as::<TaskController>(Address::Controller(t));
            assert_eq!(ctl.expect("registered").epoch(), 2, "controller {t} missed an epoch");
        }
        use crate::agents::ControlPlaneAgent;
        let cp = dist
            .runtime_mut()
            .actor_as::<ControlPlaneAgent>(Address::ControlPlane)
            .expect("control plane");
        assert_eq!(cp.pending_membership(), 0, "all membership changes acked");
        assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
    }

    #[test]
    fn evict_rehabilitates_duals_while_leave_keeps_them_warm() {
        // Leave warm-starts the survivors' duals; evict — which only
        // happens after detected sustained overload — restarts them (the
        // epoch's MembershipCause carries the distinction). Both must
        // land on the same per-epoch optimum. Only gradient prices carry
        // their history: a clearing sweep lands on the same prices from
        // warm and restarted duals alike.
        let config = DistConfig { price_method: PriceMethod::Gradient, ..config() };
        let mut leave = DistributedLla::new(problem(), config);
        let mut evict = DistributedLla::new(problem(), config);
        leave.run_rounds(400);
        evict.run_rounds(400);
        leave.leave_task(0).unwrap();
        evict.evict_task(0).unwrap();
        leave.run_rounds(30);
        evict.run_rounds(30);
        let transient_gap: f64 = leave
            .utilities()
            .iter()
            .skip(401)
            .zip(evict.utilities().iter().skip(401))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            transient_gap > 1e-9,
            "the dual restart must be observable in the re-convergence transient"
        );
        leave.run_rounds(1_600);
        evict.run_rounds(1_600);
        let mut opt = Optimizer::new(
            leave.problem().clone(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                step_policy: StepSizePolicy::adaptive(1.0),
                ..OptimizerConfig::default()
            },
        );
        opt.run_to_convergence(20_000);
        let scale = opt.utility().abs().max(1.0);
        for (label, u) in [("leave", leave.utility()), ("evict", evict.utility())] {
            let gap = (u - opt.utility()).abs() / scale;
            assert!(gap < 0.05, "{label} must re-converge: gap {gap}");
        }
    }

    #[test]
    fn departed_slot_errors_and_slots_are_never_reused() {
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(100);
        dist.leave_task(1).unwrap();
        assert!(dist.leave_task(1).is_err(), "slot 1 is gone");
        let mut b = TaskBuilder::new("late");
        b.subtask("a", ResourceId::new(0), 2.0);
        b.critical_time(50.0);
        let slot = dist.join_task(&b).unwrap();
        assert_eq!(slot, 2, "departed slot 1 must not be recycled");
    }

    #[test]
    fn instrumented_run_is_bit_identical_and_counts_messages() {
        use lla_telemetry::{SpanRecorder, TelemetryHub};
        // Full instrumentation including causal span tracing: the run must
        // stay bit-identical to an uninstrumented one.
        let hub = TelemetryHub::recording().with_spans(SpanRecorder::recording());
        let mut plain = DistributedLla::new(problem(), config());
        let mut wired =
            DistributedLla::with_telemetry(problem(), config(), DistTelemetry::from_hub(&hub));
        plain.run_rounds(200);
        wired.run_rounds(200);
        for (round, (a, b)) in plain.utilities().iter().zip(wired.utilities().iter()).enumerate() {
            assert!((a - b).abs() == 0.0, "round {round}: instrumentation changed the run");
        }
        // Counter mirrors the runtime's own books exactly.
        let tel = wired.dist_telemetry();
        assert_eq!(tel.messages_sent.get(), wired.messages_sent());
        assert_eq!(tel.messages_dropped.get(), 0);
        let text = hub.metrics.prometheus_text();
        assert!(
            text.contains("lla_dist_messages_sent_total 1600"),
            "missing sent counter:\n{text}"
        );
        // Per round: 4 tick roots (2 controllers + 2 resources) + 8
        // delivery spans = 12 spans; over 200 rounds, 2400.
        assert_eq!(hub.spans.len(), 2400);
        // Every round's critical path names a real agent as its gate.
        let rounds = hub.spans.round_critical_paths(10.0);
        assert_eq!(rounds.len(), 200);
        for r in &rounds {
            assert!(
                r.gating_track.starts_with("resource[")
                    || r.gating_track.starts_with("controller["),
                "round {}: gated by {:?}",
                r.round,
                r.gating_track
            );
            assert!(!r.chain.is_empty());
        }
    }

    #[test]
    fn diag_samples_feed_the_diagnostics_engine() {
        use lla_telemetry::{DiagnosticsEngine, Verdict};
        let mut dist = DistributedLla::new(problem(), config());
        let mut engine =
            DiagnosticsEngine::new().with_resource_names(vec!["cpu0".into(), "cpu1".into()]);
        dist.run_rounds(600);
        for _ in 0..32 {
            dist.run_rounds(1);
            engine.push(dist.diag_sample());
        }
        let d = engine.diagnose();
        assert!(d.confident);
        assert_eq!(d.verdict, Verdict::Converging, "{}", d.render());
        assert_eq!(d.evidence.len(), 2);
        assert!(d.evidence.iter().all(|e| e.mean_price.is_finite()));
        assert!(d.frozen_fraction == 0.0);
    }

    #[test]
    fn membership_ops_emit_events_and_count() {
        use lla_telemetry::TelemetryHub;
        let hub = TelemetryHub::recording();
        let mut dist =
            DistributedLla::with_telemetry(problem(), config(), DistTelemetry::from_hub(&hub));
        dist.run_rounds(300);
        let mut b = TaskBuilder::new("newcomer");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(50.0);
        let slot = dist.join_task(&b).unwrap();
        dist.run_rounds(100);
        dist.evict_task(slot).unwrap();
        dist.run_rounds(100);
        let tel = dist.dist_telemetry();
        assert_eq!(tel.membership_changes.get(), 2);
        assert_eq!(hub.events.count_kind("task_join"), 1);
        assert_eq!(hub.events.count_kind("task_evict"), 1);
        // Incumbent agents warm-carried their duals across the join epoch
        // (2 controllers + 2 resources, plus epoch re-application on the
        // evict for the survivors).
        assert!(tel.warm_start_hits.get() >= 4, "hits: {}", tel.warm_start_hits.get());
    }

    /// Whether every registered agent's problem view is still the very
    /// `Arc` the facade holds.
    fn agents_share_facade_problem(dist: &mut DistributedLla) -> Vec<(Address, bool)> {
        let shared = Arc::clone(&dist.problem);
        let mut out = Vec::new();
        for t in dist.task_slots().to_vec() {
            let addr = Address::Controller(t);
            let ctl = dist.runtime_mut().actor_as::<TaskController>(addr).expect("registered");
            out.push((addr, Arc::ptr_eq(ctl.problem(), &shared)));
        }
        for r in dist.resource_slots().to_vec() {
            let addr = Address::Resource(r);
            let agent = dist.runtime_mut().actor_as::<ResourceAgent>(addr).expect("registered");
            out.push((addr, Arc::ptr_eq(agent.problem(), &shared)));
        }
        out
    }

    #[test]
    fn fault_free_rounds_keep_one_shared_problem() {
        let mut dist = DistributedLla::new(problem(), config());
        // A fault still pending after the run must not copy anything yet.
        dist.schedule_faults(&FaultPlan::new().set_availability(1e6, 0, 0.5));
        dist.run_rounds(50);
        for (addr, shared) in agents_share_facade_problem(&mut dist) {
            assert!(shared, "{addr} holds a private copy after fault-free rounds");
        }
        let genesis = dist.topology().at(0).expect("genesis epoch");
        assert!(Arc::ptr_eq(&genesis.problem, &dist.problem));
    }

    #[test]
    fn availability_write_copies_only_the_writer() {
        use crate::runtime::{Actor, Outbox};
        let mut dist = DistributedLla::new(problem(), config());
        dist.run_rounds(5);
        let now = dist.runtime().now();
        let mut outbox = Outbox::default();
        for (r, availability) in [(0, 0.5), (1, f64::NAN)] {
            dist.runtime_mut()
                .actor_as::<ResourceAgent>(Address::Resource(r))
                .expect("registered")
                .on_message(
                    now,
                    Message::AvailabilityUpdate { resource: r, availability, seq: 0 },
                    &mut outbox,
                );
        }

        let availability = |p: &Problem| p.resources()[0].availability();
        let writer = dist.runtime_mut().actor_as::<ResourceAgent>(Address::Resource(0)).unwrap();
        assert_eq!(availability(writer.problem()), 0.5, "the writer sees its update");
        for (addr, shared) in agents_share_facade_problem(&mut dist) {
            // Resource 1's update was rejected, so it never diverged.
            assert_eq!(shared, addr != Address::Resource(0), "{addr}: only the writer copies");
        }
        assert_eq!(availability(dist.problem()), 1.0, "the facade keeps the old view");
        let genesis = dist.topology().at(0).expect("genesis epoch");
        assert_eq!(availability(&genesis.problem), 1.0, "the genesis epoch keeps the old view");
        let ctl = dist.runtime_mut().actor_as::<TaskController>(Address::Controller(0)).unwrap();
        assert_eq!(availability(ctl.problem()), 1.0, "controllers keep the old view");
    }

    #[test]
    fn scheduled_availability_fault_reaches_facade_problem() {
        let mut dist = DistributedLla::new(problem(), config());
        let plan = FaultPlan::new().set_availability(95.0, 0, 0.5);
        dist.schedule_faults(&plan);
        dist.run_rounds(8);
        assert!(
            (dist.problem().resources()[0].availability() - 1.0).abs() < 1e-12,
            "fault at 95 must not fire before round 10"
        );
        dist.run_rounds(800);
        assert!((dist.problem().resources()[0].availability() - 0.5).abs() < 1e-12);
        let usage = dist.problem().resource_usage(ResourceId::new(0), dist.allocation().lats());
        assert!(usage <= 0.5 + 1e-3, "usage {usage} exceeds degraded availability");
    }

    #[test]
    fn idle_zero_availability_resource_keeps_violation_factor_finite() {
        // A third CPU that no subtask runs on, switched off: it carries no
        // load, so it violates nothing.
        let mut p = problem();
        p.add_resource(Resource::new(ResourceId::new(2), ResourceKind::Cpu).with_lag(1.0)).unwrap();
        p.set_resource_availability(ResourceId::new(2), 0.0).unwrap();
        let mut opt = Optimizer::new(
            p.clone(),
            OptimizerConfig {
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
        );
        let mut dist = DistributedLla::new(p, config());
        // The deployment runs the optimizer's clearing rounds one late.
        opt.run(49);
        dist.run_rounds(50);

        let central = opt.diag_sample().worst_violation_factor;
        assert!(central.is_finite(), "idle switched-off resource reported {central}");
        assert_eq!(central, opt.worst_violation_factor());
        assert_eq!(central, opt.health_snapshot().worst_violation_factor);
        assert_eq!(central, dist.diag_sample().worst_violation_factor);
    }
}
