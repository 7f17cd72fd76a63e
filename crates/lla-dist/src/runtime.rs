//! A deterministic virtual-time actor runtime.
//!
//! Actors exchange [`Message`]s through a simulated [`NetworkModel`];
//! deliveries and periodic ticks are events on a virtual clock, processed
//! in timestamp order (FIFO among ties, via a sequence number). Everything
//! is seeded, so a distributed run is exactly reproducible — which the
//! equivalence tests against the centralized optimizer rely on.
//!
//! Faults are first-class events on the same clock: a [`FaultPlan`]
//! schedules crashes, restarts, partitions, and availability drops, and
//! the runtime enforces their semantics (crashed actors receive nothing;
//! partitioned pairs drop messages at send time; in-flight messages
//! outlive both the sender's crash and a partition's onset, as on a real
//! network). The clock never runs backwards: a fault scheduled for a time
//! that has passed fires at the current time.
//!
//! ## The message path
//!
//! A round moves hundreds of messages, so the per-message path touches
//! neither the heap allocator nor a hash function once the runtime has
//! warmed up:
//!
//! * the event queue has two lanes — a FIFO for events at the instant
//!   being processed (every delivery on a zero-delay network) and a heap
//!   for the rest — whose merged pop order is exactly a single heap's
//!   `(time, seq)` order;
//! * actors, their tick schedules and the reorder book are tables indexed
//!   by address slot;
//! * every callback writes into one recycled [`Outbox`];
//! * wire mode encodes each copy into one reused frame buffer, and the
//!   network's sampled fate is an inline value.

use crate::codec;
use crate::fault::{FaultKind, FaultPlan};
use crate::network::{CorruptionModel, FrameCorruptor, NetworkModel, NetworkSampler};
use crate::protocol::{Address, Message};
use crate::telemetry::DistTelemetry;
use lla_telemetry::{Event as TelemetryEvent, TraceCtx, Value};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Renders a partition side as a stable `+`-joined address list.
fn render_addrs(addrs: &[Address]) -> String {
    addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join("+")
}

/// Messages an actor emits during a callback, with their destinations.
#[derive(Debug, Default)]
pub struct Outbox {
    msgs: Vec<(Address, Message)>,
}

impl Outbox {
    /// Queues a message for sending.
    pub fn send(&mut self, to: Address, msg: Message) {
        self.msgs.push((to, msg));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Consumes the outbox, yielding the queued `(destination, message)`
    /// pairs.
    pub fn into_messages(self) -> Vec<(Address, Message)> {
        self.msgs
    }
}

/// A participant in the distributed protocol.
pub trait Actor: Send + std::fmt::Debug {
    /// Called at every scheduled tick of this actor.
    fn on_tick(&mut self, now: f64, outbox: &mut Outbox);

    /// Called when a message is delivered to this actor.
    fn on_message(&mut self, now: f64, msg: Message, outbox: &mut Outbox);

    /// Called when the actor crashes: drop all volatile in-memory state
    /// (a real process would lose it). Durable state — e.g. a checkpoint
    /// written to a [`CheckpointStore`](crate::agents::CheckpointStore) —
    /// survives by construction.
    fn on_crash(&mut self, _now: f64) {}

    /// Called when a crashed actor restarts: rebuild state (from a
    /// checkpoint if one exists) and optionally emit recovery messages.
    fn on_restart(&mut self, _now: f64, _outbox: &mut Outbox) {}

    /// Downcast hook so drivers and tests can reach the concrete actor
    /// behind a `Box<dyn Actor>` (telemetry extraction, assertions).
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

#[derive(Debug)]
enum EventKind {
    Tick(Address),
    /// A message delivery, carrying its causal context at the envelope
    /// level — the [`Message`] itself is untouched by tracing, so wire
    /// equality and message counts are exactly those of an uninstrumented
    /// run.
    Deliver(Address, Message, TraceCtx),
    Fault(FaultKind),
}

#[derive(Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite times")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending events, popped in `(time, seq)` order from two lanes.
///
/// Most events are scheduled for the instant being processed: every
/// delivery on a zero-delay network, injections, management broadcasts.
/// Those go to `now`, a FIFO, instead of the heap. `now` only ever holds
/// events of one time, pushed in `seq` order, so its front is its
/// minimum; popping the smaller of the two heads therefore yields exactly
/// the order a single heap would.
#[derive(Debug, Default)]
struct EventQueue {
    /// Events of one time, in `seq` order.
    now: VecDeque<Event>,
    /// Everything else: ticks, delayed deliveries, future faults.
    later: BinaryHeap<Event>,
}

impl EventQueue {
    /// Queues `event`; `now` is the runtime's current virtual time.
    fn push(&mut self, event: Event, now: f64) {
        let same_instant = event.time == now
            && !matches!(event.kind, EventKind::Tick(_))
            && self.now.back().is_none_or(|back| back.time == event.time);
        if same_instant {
            self.now.push_back(event);
        } else {
            self.later.push(event);
        }
    }

    /// Pops the earliest event if it is due before `t_end`.
    fn pop_before(&mut self, t_end: f64) -> Option<Event> {
        // `Event`'s order is reversed for the max-heap: the greater event
        // is the earlier one.
        let from_now = match (self.now.front(), self.later.peek()) {
            (Some(a), Some(b)) => a > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let head = if from_now { self.now.front() } else { self.later.peek() };
        head.filter(|e| e.time < t_end)?;
        if from_now {
            self.now.pop_front()
        } else {
            self.later.pop()
        }
    }
}

/// A table keyed by [`Address`]: one slot-indexed vector per address
/// kind, so per-event lookups index instead of hashing. Slots are small
/// integers that are never reused, so the vectors stay dense.
#[derive(Debug)]
struct AddrMap<T> {
    resources: Vec<Option<T>>,
    controllers: Vec<Option<T>>,
    control_plane: Option<T>,
    collector: Option<T>,
}

impl<T> Default for AddrMap<T> {
    fn default() -> Self {
        AddrMap {
            resources: Vec::new(),
            controllers: Vec::new(),
            control_plane: None,
            collector: None,
        }
    }
}

impl<T> AddrMap<T> {
    fn get(&self, addr: Address) -> Option<&T> {
        match addr {
            Address::Resource(i) => self.resources.get(i)?.as_ref(),
            Address::Controller(i) => self.controllers.get(i)?.as_ref(),
            Address::ControlPlane => self.control_plane.as_ref(),
            Address::Collector => self.collector.as_ref(),
        }
    }

    fn get_mut(&mut self, addr: Address) -> Option<&mut T> {
        match addr {
            Address::Resource(i) => self.resources.get_mut(i)?.as_mut(),
            Address::Controller(i) => self.controllers.get_mut(i)?.as_mut(),
            Address::ControlPlane => self.control_plane.as_mut(),
            Address::Collector => self.collector.as_mut(),
        }
    }

    /// The entry of `addr`, growing its kind's vector to reach the slot.
    fn entry(&mut self, addr: Address) -> &mut Option<T> {
        let (slots, i) = match addr {
            Address::Resource(i) => (&mut self.resources, i),
            Address::Controller(i) => (&mut self.controllers, i),
            Address::ControlPlane => return &mut self.control_plane,
            Address::Collector => return &mut self.collector,
        };
        if slots.len() <= i {
            slots.resize_with(i + 1, || None);
        }
        &mut slots[i]
    }

    fn remove(&mut self, addr: Address) -> Option<T> {
        match addr {
            Address::Resource(i) => self.resources.get_mut(i)?.take(),
            Address::Controller(i) => self.controllers.get_mut(i)?.take(),
            Address::ControlPlane => self.control_plane.take(),
            Address::Collector => self.collector.take(),
        }
    }

    /// Occupied addresses, in [`Address`] order.
    fn keys(&self) -> impl Iterator<Item = Address> + '_ {
        fn occupied<T>(slots: &[Option<T>]) -> impl Iterator<Item = usize> + '_ {
            slots.iter().enumerate().filter(|(_, v)| v.is_some()).map(|(i, _)| i)
        }
        occupied(&self.resources)
            .map(Address::Resource)
            .chain(occupied(&self.controllers).map(Address::Controller))
            .chain(self.control_plane.is_some().then_some(Address::ControlPlane))
            .chain(self.collector.is_some().then_some(Address::Collector))
    }
}

/// A registered actor with its tick schedule.
#[derive(Debug)]
struct Registered {
    actor: Box<dyn Actor>,
    interval: f64,
    next_tick: f64,
}

/// An active network partition: messages between `a` and `b` drop until
/// the heal time.
#[derive(Debug)]
struct ActivePartition {
    a: HashSet<Address>,
    b: HashSet<Address>,
    until: f64,
}

impl ActivePartition {
    fn separates(&self, from: Address, to: Address) -> bool {
        (self.a.contains(&from) && self.b.contains(&to))
            || (self.b.contains(&from) && self.a.contains(&to))
    }
}

/// State of the opt-in wire mode: every delivery round-trips through the
/// [`codec`], optionally corrupted in flight.
#[derive(Debug)]
struct WireState {
    corruptor: FrameCorruptor,
    /// Frames refused by the decode → validate pipeline.
    frames_rejected: u64,
    /// Corrupted frames that still decoded to a *valid* message (in-domain
    /// field fuzz — the residual perturbation the optimizer re-converges
    /// through).
    corrupted_delivered: u64,
    /// Rejections attributed to each sender — the evidence book the
    /// supervisor's quarantine policy reads.
    rejections_by_sender: HashMap<Address, u64>,
    /// The frame buffer every copy is encoded into, reused.
    frame: Vec<u8>,
}

/// The virtual-time runtime.
#[derive(Debug)]
pub struct VirtualRuntime {
    actors: AddrMap<Registered>,
    queue: EventQueue,
    /// The outbox every callback writes into; [`dispatch`] drains it and
    /// the next callback reuses its buffer.
    ///
    /// [`dispatch`]: VirtualRuntime::dispatch
    outbox: Outbox,
    network: NetworkSampler,
    crashed: HashSet<Address>,
    partitions: Vec<ActivePartition>,
    now: f64,
    seq: u64,
    messages_sent: u64,
    dropped_by_partition: u64,
    dropped_at_crashed: u64,
    crashes: u64,
    restarts: u64,
    messages_reordered: u64,
    /// Latest scheduled arrival time per destination, for reorder
    /// detection: a new delivery landing before it means out-of-order.
    latest_arrival: AddrMap<f64>,
    /// Wire mode (encode → corrupt? → decode → validate per delivery);
    /// `None` keeps the struct-passing fast path.
    wire: Option<WireState>,
    /// Senders whose messages are currently dropped at the network
    /// ingress (supervisor quarantine). Acks still pass so the reliable
    /// control plane does not retransmit forever.
    quarantined: HashSet<Address>,
    /// Messages dropped because their sender was quarantined.
    quarantine_drops: u64,
    /// Passive instrumentation (counters + virtual-clock events);
    /// disabled by default. Never affects scheduling, sampling, or
    /// message flow.
    tel: DistTelemetry,
}

impl VirtualRuntime {
    /// Creates a runtime over the given network model; `seed` drives the
    /// network's randomness.
    pub fn new(network: NetworkModel, seed: u64) -> Self {
        VirtualRuntime {
            actors: AddrMap::default(),
            queue: EventQueue::default(),
            outbox: Outbox::default(),
            network: NetworkSampler::new(network, seed),
            crashed: HashSet::new(),
            partitions: Vec::new(),
            now: 0.0,
            seq: 0,
            messages_sent: 0,
            dropped_by_partition: 0,
            dropped_at_crashed: 0,
            crashes: 0,
            restarts: 0,
            messages_reordered: 0,
            latest_arrival: AddrMap::default(),
            wire: None,
            quarantined: HashSet::new(),
            quarantine_drops: 0,
            tel: DistTelemetry::disabled(),
        }
    }

    /// Switches the runtime into wire mode: every delivery is encoded to
    /// a frame, optionally corrupted by `corruption`, then decoded and
    /// validated before it reaches the receiver. The corruptor draws from
    /// its own RNG (seeded by `corruption_seed`), never from the network
    /// sampler's stream — so a wire-mode run with zero corruption is
    /// bit-identical to a plain run (pinned in tests).
    pub fn enable_wire_mode(&mut self, corruption: CorruptionModel, corruption_seed: u64) {
        self.wire = Some(WireState {
            corruptor: FrameCorruptor::new(corruption, corruption_seed),
            frames_rejected: 0,
            corrupted_delivered: 0,
            rejections_by_sender: HashMap::new(),
            frame: Vec::new(),
        });
    }

    /// Whether deliveries round-trip through the wire codec.
    pub fn wire_mode(&self) -> bool {
        self.wire.is_some()
    }

    /// Frames refused by the decode → validate pipeline (wire mode only).
    pub fn frames_rejected(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.frames_rejected)
    }

    /// Frames corrupted in flight so far (wire mode only).
    pub fn frames_corrupted(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.corruptor.corrupted())
    }

    /// Corrupted frames that still decoded to a valid message (in-domain
    /// field fuzz slipping past the validators by being plausible).
    pub fn corrupted_delivered(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.corrupted_delivered)
    }

    /// Frame rejections attributed to each sender, sorted by address —
    /// the evidence the supervisor's quarantine policy consumes.
    pub fn frame_rejections_by_sender(&self) -> Vec<(Address, u64)> {
        let Some(wire) = self.wire.as_ref() else { return Vec::new() };
        let mut book: Vec<(Address, u64)> =
            wire.rejections_by_sender.iter().map(|(a, n)| (*a, *n)).collect();
        book.sort_unstable_by_key(|(a, _)| *a);
        book
    }

    /// Quarantines `addr`: its future sends (except acks) are dropped at
    /// the network ingress. Returns whether the agent was newly
    /// quarantined.
    pub fn quarantine(&mut self, addr: Address) -> bool {
        self.quarantined.insert(addr)
    }

    /// Releases `addr` from quarantine. Returns whether it was
    /// quarantined.
    pub fn release_quarantine(&mut self, addr: Address) -> bool {
        self.quarantined.remove(&addr)
    }

    /// Whether `addr` is currently quarantined.
    pub fn is_quarantined(&self, addr: Address) -> bool {
        self.quarantined.contains(&addr)
    }

    /// Currently quarantined agents, sorted by address.
    pub fn quarantined_agents(&self) -> Vec<Address> {
        let mut v: Vec<Address> = self.quarantined.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Messages dropped because their sender was quarantined.
    pub fn quarantine_drops(&self) -> u64 {
        self.quarantine_drops
    }

    /// Attaches telemetry handles; subsequent runtime activity mirrors
    /// into the counters and emits virtual-clock fault events.
    pub fn attach_telemetry(&mut self, tel: DistTelemetry) {
        self.tel = tel;
    }

    /// Registers an actor ticking every `interval` virtual ms starting at
    /// `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the address is already registered or `interval ≤ 0`.
    pub fn register(&mut self, addr: Address, actor: Box<dyn Actor>, interval: f64, phase: f64) {
        assert!(interval > 0.0, "tick interval must be positive");
        let entry = self.actors.entry(addr);
        assert!(entry.is_none(), "address {addr} registered twice");
        *entry = Some(Registered { actor, interval, next_tick: phase });
        self.push(phase, EventKind::Tick(addr));
    }

    /// Removes an actor and its tick schedule (a task left or a resource
    /// retired). Any still-queued events addressed to it are discarded
    /// when popped. Returns the actor, or `None` if the address was not
    /// registered.
    pub fn deregister(&mut self, addr: Address) -> Option<Box<dyn Actor>> {
        self.crashed.remove(&addr);
        self.actors.remove(addr).map(|r| r.actor)
    }

    /// Whether an actor is registered at `addr`.
    pub fn is_registered(&self, addr: Address) -> bool {
        self.actors.get(addr).is_some()
    }

    /// Schedules every event of `plan` on the virtual clock. May be
    /// called repeatedly; plans accumulate.
    ///
    /// The clock never runs backwards: an event whose time has already
    /// passed fires at the current time instead, after the events already
    /// queued for it and in plan order.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        let now = self.now;
        for event in plan.events() {
            self.push(event.at.max(now), EventKind::Fault(event.kind.clone()));
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind }, self.now);
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total messages handed to the network so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages dropped by the network's random loss so far.
    pub fn messages_dropped(&self) -> u64 {
        self.network.dropped()
    }

    /// Messages duplicated by the network so far.
    pub fn messages_duplicated(&self) -> u64 {
        self.network.duplicated()
    }

    /// Messages dropped because sender and receiver were partitioned.
    pub fn dropped_by_partition(&self) -> u64 {
        self.dropped_by_partition
    }

    /// Message deliveries discarded because the receiver was crashed.
    pub fn dropped_at_crashed(&self) -> u64 {
        self.dropped_at_crashed
    }

    /// Crash events executed so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Restart events executed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Deliveries scheduled to arrive before an earlier send to the same
    /// destination (out-of-order arrivals caused by delay jitter).
    pub fn messages_reordered(&self) -> u64 {
        self.messages_reordered
    }

    /// Whether `addr` is currently crashed.
    pub fn is_crashed(&self, addr: Address) -> bool {
        self.crashed.contains(&addr)
    }

    /// Whether a currently active partition separates `from` and `to`.
    pub fn is_partitioned(&self, from: Address, to: Address) -> bool {
        let now = self.now;
        self.partitions.iter().any(|p| p.until > now && p.separates(from, to))
    }

    /// Sends everything in `outbox` from `from` through the network:
    /// partition check at send time, then loss/delay/duplication
    /// sampling per message. `parent` is the causal context of whatever
    /// produced the outbox (a tick root or a handled delivery); every
    /// delivery span, drop, and duplicate links to it. Span recording is
    /// passive — the network is sampled and events are queued exactly as
    /// in an untraced run.
    ///
    /// Drains `outbox`, leaving its buffer for the next callback.
    fn dispatch(&mut self, from: Address, outbox: &mut Outbox, parent: TraceCtx) {
        let tracing = self.tel.spans.is_enabled();
        for (to, msg) in outbox.msgs.drain(..) {
            self.messages_sent += 1;
            self.tel.messages_sent.inc();
            // Quarantined senders are silenced at the network ingress —
            // except for acks, which must keep flowing or the reliable
            // control plane would retransmit to them forever.
            let is_ack = matches!(
                msg,
                Message::AvailabilityAck { .. }
                    | Message::MembershipAck { .. }
                    | Message::CommandAck { .. }
            );
            if !is_ack && self.quarantined.contains(&from) {
                self.quarantine_drops += 1;
                if tracing {
                    self.tel.spans.instant_with(
                        "quarantine-drop",
                        &from.to_string(),
                        self.now,
                        parent,
                        vec![("to", Value::from(to.to_string()))],
                    );
                }
                continue;
            }
            if self.is_partitioned(from, to) {
                self.dropped_by_partition += 1;
                self.tel.dropped_by_partition.inc();
                if tracing {
                    self.tel.spans.instant_with(
                        "partition-drop",
                        &from.to_string(),
                        self.now,
                        parent,
                        vec![("to", Value::from(to.to_string()))],
                    );
                }
                continue;
            }
            let deliveries = self.network.sample_deliveries();
            if deliveries.is_empty() {
                self.tel.messages_dropped.inc();
                if tracing {
                    self.tel.spans.instant_with(
                        "drop",
                        &from.to_string(),
                        self.now,
                        parent,
                        vec![("to", Value::from(to.to_string()))],
                    );
                }
            } else if deliveries.len() > 1 {
                self.tel.messages_duplicated.add(deliveries.len() as u64 - 1);
            }
            for (copy, &delay) in deliveries.as_slice().iter().enumerate() {
                // Wire mode: this copy travels as bytes — encode, maybe
                // corrupt, then decode → validate. A frame the pipeline
                // refuses never becomes a delivery event.
                let msg = if let Some(wire) = self.wire.as_mut() {
                    codec::encode_into(&msg, &mut wire.frame);
                    let corrupted = wire.corruptor.maybe_corrupt(&mut wire.frame);
                    if corrupted {
                        self.tel.frames_corrupted.inc();
                    }
                    match codec::decode(&wire.frame)
                        .and_then(|decoded| codec::validate(&decoded).map(|()| decoded))
                    {
                        Ok(decoded) => {
                            if corrupted {
                                wire.corrupted_delivered += 1;
                            }
                            decoded
                        }
                        Err(err) => {
                            wire.frames_rejected += 1;
                            *wire.rejections_by_sender.entry(from).or_insert(0) += 1;
                            self.tel.frames_rejected.inc();
                            self.tel.events.emit(
                                TelemetryEvent::new(self.now, "frame_rejected")
                                    .with("from", from.to_string())
                                    .with("to", to.to_string())
                                    .with("cause", err.cause()),
                            );
                            if tracing {
                                self.tel.spans.instant_with(
                                    "frame-reject",
                                    &to.to_string(),
                                    self.now,
                                    parent,
                                    vec![("cause", Value::from(err.cause()))],
                                );
                            }
                            continue;
                        }
                    }
                } else {
                    msg.clone()
                };
                let at = self.now + delay;
                // A delivery landing before one already scheduled for the
                // same destination will arrive out of send order.
                let latest = self.latest_arrival.entry(to).get_or_insert(at);
                if at < *latest {
                    self.messages_reordered += 1;
                    self.tel.messages_reordered.inc();
                } else {
                    *latest = at;
                }
                // The delivery span covers [send, arrival] on the
                // *receiver's* track, so its duration is the link delay;
                // duplicated copies are marked and share the parent.
                let ctx = if tracing {
                    let mut fields = vec![("from", Value::from(from.to_string()))];
                    if copy > 0 {
                        fields.push(("dup", Value::from(true)));
                    }
                    self.tel.spans.span_with(
                        msg.kind(),
                        &to.to_string(),
                        self.now,
                        at,
                        parent,
                        fields,
                    )
                } else {
                    TraceCtx::NONE
                };
                self.push(at, EventKind::Deliver(to, msg, ctx));
            }
        }
    }

    /// Applies a fault; a restarted actor's recovery messages go through
    /// `outbox`.
    fn apply_fault(&mut self, kind: FaultKind, outbox: &mut Outbox) {
        match kind {
            FaultKind::Partition { a, b, duration } => {
                self.tel.events.emit(
                    TelemetryEvent::new(self.now, "partition")
                        .with("sides", format!("{}|{}", render_addrs(&a), render_addrs(&b)))
                        .with("until", self.now + duration),
                );
                self.partitions.push(ActivePartition {
                    a: a.into_iter().collect(),
                    b: b.into_iter().collect(),
                    until: self.now + duration,
                });
                // Healed partitions can never separate anything again;
                // drop them so long runs don't accumulate garbage.
                let now = self.now;
                self.partitions.retain(|p| p.until > now);
            }
            FaultKind::Crash { addr } => {
                if self.crashed.insert(addr) {
                    self.crashes += 1;
                    self.tel.crashes.inc();
                    self.tel.events.emit(
                        TelemetryEvent::new(self.now, "crash").with("addr", addr.to_string()),
                    );
                    if let Some(r) = self.actors.get_mut(addr) {
                        r.actor.on_crash(self.now);
                    }
                }
            }
            FaultKind::Restart { addr } => {
                if self.crashed.remove(&addr) {
                    self.restarts += 1;
                    self.tel.restarts.inc();
                    self.tel.events.emit(
                        TelemetryEvent::new(self.now, "restart").with("addr", addr.to_string()),
                    );
                    if let Some(r) = self.actors.get_mut(addr) {
                        r.actor.on_restart(self.now, outbox);
                    }
                    let ctx = if self.tel.spans.is_enabled() && !outbox.is_empty() {
                        self.tel.spans.instant(
                            "restart",
                            &addr.to_string(),
                            self.now,
                            TraceCtx::NONE,
                        )
                    } else {
                        TraceCtx::NONE
                    };
                    self.dispatch(addr, outbox, ctx);
                }
            }
            FaultKind::SetCorruption { probability } => {
                self.tel.events.emit(
                    TelemetryEvent::new(self.now, "corruption").with("probability", probability),
                );
                if let Some(wire) = self.wire.as_mut() {
                    wire.corruptor.set_probability(probability);
                }
            }
            FaultKind::SetAvailability { resource, availability } => {
                self.tel.events.emit(
                    TelemetryEvent::new(self.now, "availability")
                        .with("resource", resource)
                        .with("value", availability),
                );
                let msg = Message::AvailabilityUpdate { resource, availability, seq: 0 };
                // Root the whole dissemination chain in one fault span so
                // the update, its acks, and any retransmits read as a
                // single causal trace.
                let ctx = if self.tel.spans.is_enabled() {
                    self.tel.spans.instant_with(
                        "availability-fault",
                        "fault",
                        self.now,
                        TraceCtx::NONE,
                        vec![("resource", Value::from(resource))],
                    )
                } else {
                    TraceCtx::NONE
                };
                if self.is_registered(Address::ControlPlane) {
                    // Hand the command to the control plane, which
                    // disseminates it reliably over the network.
                    let now = self.now;
                    self.push(now, EventKind::Deliver(Address::ControlPlane, msg, ctx));
                } else {
                    // No control plane deployed: management-plane
                    // broadcast directly to every live actor (the legacy
                    // out-of-band path).
                    let addrs: Vec<Address> = self.actors.keys().collect();
                    let now = self.now;
                    for addr in addrs {
                        self.push(now, EventKind::Deliver(addr, msg.clone(), ctx));
                    }
                }
            }
        }
    }

    /// Runs until the virtual clock reaches `t_end` (events at exactly
    /// `t_end` are *not* processed, so consecutive `run_until` calls
    /// compose).
    pub fn run_until(&mut self, t_end: f64) {
        while let Some(event) = self.queue.pop_before(t_end) {
            debug_assert!(event.time >= self.now, "virtual clock ran backwards");
            self.now = event.time;
            let mut outbox = std::mem::take(&mut self.outbox);
            match event.kind {
                EventKind::Tick(addr) => {
                    let _prof = self.tel.profiler.scope("tick");
                    let crashed = self.crashed.contains(&addr);
                    // Reschedule even while crashed, so ticking resumes
                    // seamlessly after a restart. A deregistered actor has
                    // no schedule anymore: its tick chain ends here.
                    if let Some(r) = self.actors.get_mut(addr) {
                        if !crashed {
                            r.actor.on_tick(self.now, &mut outbox);
                        }
                        r.next_tick += r.interval;
                        let next = r.next_tick;
                        self.push(next, EventKind::Tick(addr));
                    }
                    // A tick that produced messages roots a new trace;
                    // everything its messages cause links back here.
                    // Silent ticks record nothing.
                    let ctx = if self.tel.spans.is_enabled() && !outbox.is_empty() {
                        self.tel.spans.instant("tick", &addr.to_string(), self.now, TraceCtx::NONE)
                    } else {
                        TraceCtx::NONE
                    };
                    self.dispatch(addr, &mut outbox, ctx);
                }
                EventKind::Deliver(addr, msg, ctx) => {
                    let _prof = self.tel.profiler.scope("dispatch");
                    if self.crashed.contains(&addr) {
                        self.dropped_at_crashed += 1;
                        self.tel.dropped_at_crashed.inc();
                        if self.tel.spans.is_enabled() {
                            self.tel.spans.instant(
                                "crashed-drop",
                                &addr.to_string(),
                                self.now,
                                ctx,
                            );
                        }
                    } else if let Some(r) = self.actors.get_mut(addr) {
                        r.actor.on_message(self.now, msg, &mut outbox);
                        // Replies (acks, forwarded updates) inherit the
                        // delivery's context: the chain stays one trace.
                        self.dispatch(addr, &mut outbox, ctx);
                    }
                }
                EventKind::Fault(kind) => {
                    self.apply_fault(kind, &mut outbox);
                }
            }
            self.outbox = outbox;
        }
        self.now = t_end;
    }

    /// Mutable access to a registered actor (for telemetry extraction in
    /// tests and drivers).
    pub fn actor_mut(&mut self, addr: Address) -> Option<&mut Box<dyn Actor>> {
        self.actors.get_mut(addr).map(|r| &mut r.actor)
    }

    /// Downcast access to the concrete actor registered at `addr`.
    pub fn actor_as<T: 'static>(&mut self, addr: Address) -> Option<&mut T> {
        self.actor_mut(addr).and_then(|a| a.as_any().downcast_mut::<T>())
    }

    /// Delivers a control-plane message to an actor at the current virtual
    /// time, bypassing the network model (immediate and reliable).
    ///
    /// Queued after every event already scheduled at the current instant
    /// (FIFO among ties), and composes with [`run_until`]: injecting at
    /// the boundary time `t` of a previous `run_until(t)` makes the
    /// message processable by the next `run_until`.
    ///
    /// [`run_until`]: VirtualRuntime::run_until
    pub fn inject(&mut self, to: Address, msg: Message) {
        let now = self.now;
        let ctx = if self.tel.spans.is_enabled() {
            self.tel.spans.instant("inject", &to.to_string(), now, TraceCtx::NONE)
        } else {
            TraceCtx::NONE
        };
        self.push(now, EventKind::Deliver(to, msg, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every message back to a peer and counts ticks.
    #[derive(Debug)]
    struct Recorder {
        ticks: Vec<f64>,
        received: Vec<(f64, Message)>,
        reply_to: Option<Address>,
    }

    impl Actor for Recorder {
        fn on_tick(&mut self, now: f64, outbox: &mut Outbox) {
            self.ticks.push(now);
            if let Some(to) = self.reply_to {
                outbox.send(to, Message::Price { resource: 0, mu: now, congested: false });
            }
        }
        fn on_message(&mut self, now: f64, msg: Message, _outbox: &mut Outbox) {
            self.received.push((now, msg));
        }
        fn on_crash(&mut self, _now: f64) {
            self.ticks.clear();
            self.received.clear();
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn recorder(reply_to: Option<Address>) -> Box<Recorder> {
        Box::new(Recorder { ticks: Vec::new(), received: Vec::new(), reply_to })
    }

    #[test]
    fn ticks_fire_at_schedule() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(None), 10.0, 0.0);
        rt.run_until(35.0);
        assert_eq!(rt.now(), 35.0);
        assert_eq!(rt.messages_sent(), 0);
        let rec = rt.actor_as::<Recorder>(Address::Resource(0)).expect("registered");
        assert_eq!(rec.ticks, vec![0.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn messages_flow_between_actors() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
        rt.run_until(25.0);
        // Sender ticks at 0, 10, 20 => 3 messages.
        assert_eq!(rt.messages_sent(), 3);
        assert_eq!(rt.messages_dropped(), 0);
    }

    #[test]
    fn lossy_network_drops() {
        let mut rt = VirtualRuntime::new(NetworkModel::lossy(0.0, 0.0, 0.5), 3);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 1.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.run_until(1000.0);
        assert_eq!(rt.messages_sent(), 1000);
        let dropped = rt.messages_dropped();
        assert!((400..600).contains(&(dropped as usize)), "dropped {dropped}");
    }

    #[test]
    fn duplicating_network_delivers_extra_copies() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect().with_duplication(0.5), 5);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 1.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.run_until(1000.0);
        assert_eq!(rt.messages_sent(), 1000);
        let dup = rt.messages_duplicated();
        assert!((400..600).contains(&(dup as usize)), "duplicated {dup}");
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len() as u64, 1000 + dup);
    }

    #[test]
    fn run_until_composes() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 0.0);
        rt.run_until(10.0);
        let first = rt.messages_sent();
        rt.run_until(20.0);
        let second = rt.messages_sent();
        assert_eq!(first, 1, "tick at 0 only (event at 10 excluded)");
        assert_eq!(second, 2);
    }

    #[test]
    fn inject_delivers_fifo_among_ties_after_queued_deliveries() {
        // A network delivery and two injected messages all land at t=0;
        // processing must preserve enqueue order (the tick that produced
        // the network delivery ran first, so its message precedes the
        // injections, and the injections keep their relative order).
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 50.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        // Process the t=0 ticks; the resource's Price lands at t=0 too but
        // sits in the queue until the next run_until.
        rt.run_until(0.0 + f64::MIN_POSITIVE);
        rt.inject(
            Address::Controller(0),
            Message::AvailabilityUpdate { resource: 0, availability: 0.7, seq: 1 },
        );
        rt.inject(
            Address::Controller(0),
            Message::AvailabilityUpdate { resource: 0, availability: 0.6, seq: 2 },
        );
        rt.run_until(10.0);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len(), 3);
        assert!(
            matches!(rec.received[0].1, Message::Price { .. }),
            "queued network delivery must precede later injections: {:?}",
            rec.received
        );
        assert_eq!(
            rec.received[1].1,
            Message::AvailabilityUpdate { resource: 0, availability: 0.7, seq: 1 }
        );
        assert_eq!(
            rec.received[2].1,
            Message::AvailabilityUpdate { resource: 0, availability: 0.6, seq: 2 }
        );
        // All three were delivered at the same virtual instant.
        assert!(rec.received.iter().all(|(t, _)| *t < 1.0));
    }

    #[test]
    fn inject_survives_run_until_composition() {
        // Injecting exactly at a run_until boundary: the message sits at
        // t == boundary, which run_until(boundary) excludes, so the next
        // run_until picks it up — injections compose, none are lost.
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Controller(0), recorder(None), 7.0, 0.0);
        rt.run_until(10.0);
        rt.inject(
            Address::Controller(0),
            Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 1 },
        );
        {
            let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
            assert!(rec.received.is_empty(), "not yet processed");
        }
        rt.run_until(10.0); // same boundary: event at exactly t_end stays queued
        {
            let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
            assert!(rec.received.is_empty(), "t_end events are excluded by contract");
        }
        rt.run_until(20.0);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len(), 1);
        assert_eq!(rec.received[0].0, 10.0, "delivered at the injection time");
    }

    #[test]
    fn crashed_actor_misses_ticks_and_messages_until_restart() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
        let plan = FaultPlan::new().crash_for(21.0, 20.0, Address::Controller(0));
        rt.schedule_faults(&plan);
        rt.run_until(60.0);
        assert_eq!(rt.crashes(), 1);
        assert_eq!(rt.restarts(), 1);
        assert!(!rt.is_crashed(Address::Controller(0)));
        // Messages sent at t=30 and t=40 hit a crashed receiver.
        assert_eq!(rt.dropped_at_crashed(), 2);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        // on_crash cleared history; ticks resume at 45, 55 after restart,
        // and the receiver hears the t=50 price again.
        assert_eq!(rec.ticks, vec![45.0, 55.0]);
        assert_eq!(rec.received.len(), 1);
        assert_eq!(rec.received[0].0, 50.0);
    }

    #[test]
    fn faults_scheduled_in_the_past_fire_now_in_plan_order() {
        use lla_telemetry::{EventLog, MetricsRegistry};
        let log = EventLog::recording();
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.attach_telemetry(DistTelemetry::new(&MetricsRegistry::disabled(), log.clone()));
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
        rt.run_until(50.0);
        // Crash at 10 and restart at 15, both long past.
        rt.schedule_faults(&FaultPlan::new().crash_for(10.0, 5.0, Address::Controller(0)));
        rt.run_until(60.0);
        let events = log.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["crash", "restart"]);
        let times: Vec<f64> = events.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "event times decrease: {times:?}");
        assert!(times.iter().all(|&t| t >= 50.0), "the clock ran back: {times:?}");
        assert_eq!(rt.now(), 60.0);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.ticks, vec![55.0], "ticking resumes on schedule after the restart");
    }

    /// The two-lane queue beside a reference heap keyed by `(time, seq)`;
    /// times are non-negative, so their bit patterns order like the values.
    struct QueueTwin {
        queue: EventQueue,
        reference: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
        seq: u64,
        popped: usize,
    }

    impl QueueTwin {
        fn push(&mut self, time: f64, now: f64, tick: bool) {
            let seq = self.seq;
            self.seq += 1;
            let kind = if tick {
                EventKind::Tick(Address::Resource(0))
            } else {
                let msg = Message::DualResync { seq };
                EventKind::Deliver(Address::Controller(0), msg, TraceCtx::NONE)
            };
            self.reference.push(std::cmp::Reverse((time.to_bits(), seq)));
            self.queue.push(Event { time, seq, kind }, now);
        }

        /// Pops from both, asserting they agree.
        fn pop_before(&mut self, t_end: f64) -> Option<f64> {
            let due = self.reference.peek().filter(|r| f64::from_bits(r.0 .0) < t_end).is_some();
            let event = self.queue.pop_before(t_end);
            assert_eq!(event.is_some(), due, "lanes and reference disagree on what is due");
            let event = event?;
            let std::cmp::Reverse((bits, seq)) = self.reference.pop().expect("due");
            assert_eq!((event.time.to_bits(), event.seq), (bits, seq));
            self.popped += 1;
            Some(event.time)
        }
    }

    #[test]
    fn two_lane_queue_pops_in_heap_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let mut twin = QueueTwin {
            queue: EventQueue::default(),
            reference: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        };
        let mut now = 0.0f64;
        for _ in 0..300 {
            // Schedule a few events: same instant, future and past.
            for _ in 0..rng.gen_range(0..6u8) {
                let time = match rng.gen_range(0..3u8) {
                    0 => now,
                    1 => now + f64::from(rng.gen_range(1..8u8)) * 0.5,
                    _ => (now - f64::from(rng.gen_range(1..4u8)) * 0.5).max(0.0),
                };
                twin.push(time, now, rng.gen_bool(0.2));
            }
            // A run_until to a boundary; handling an event may schedule
            // more at its instant, as a zero-delay delivery does.
            let t_end = now + f64::from(rng.gen_range(0..4u8)) * 0.5;
            while let Some(time) = twin.pop_before(t_end) {
                now = time;
                if rng.gen_bool(0.4) {
                    twin.push(now, now, false);
                }
            }
            // The clock stops at the boundary; an inject lands there.
            now = t_end;
            if rng.gen_bool(0.5) {
                twin.push(now, now, false);
            }
        }
        while twin.pop_before(f64::INFINITY).is_some() {}
        assert!(twin.reference.is_empty());
        assert!(twin.popped > 1000, "only {} events popped", twin.popped);
    }

    #[test]
    fn partition_drops_messages_both_ways_then_heals() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(Some(Address::Resource(0))), 10.0, 0.0);
        let plan = FaultPlan::new().partition(
            15.0,
            30.0,
            vec![Address::Resource(0)],
            vec![Address::Controller(0)],
        );
        rt.schedule_faults(&plan);
        rt.run_until(100.0);
        // Ticks at 20, 30, 40 fall inside [15, 45): 2 actors × 3 ticks.
        assert_eq!(rt.dropped_by_partition(), 6);
        assert!(!rt.is_partitioned(Address::Resource(0), Address::Controller(0)));
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        // 10 ticks total, 3 partitioned away.
        assert_eq!(rec.received.len(), 7);
    }

    #[test]
    fn in_flight_messages_survive_partition_onset() {
        // A message sent at t=0 with delay 10 is in flight when the
        // partition starts at t=5; like a real network, it still arrives.
        let mut rt = VirtualRuntime::new(NetworkModel::lossy(10.0, 0.0, 0.0), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 100.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        let plan = FaultPlan::new().partition(
            5.0,
            50.0,
            vec![Address::Resource(0)],
            vec![Address::Controller(0)],
        );
        rt.schedule_faults(&plan);
        rt.run_until(200.0);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        let times: Vec<f64> = rec.received.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10.0, 110.0], "t=0 send arrives; t=100 (partitioned) dropped");
        assert_eq!(rt.dropped_by_partition(), 0, "t=100 send is after heal at t=55");
    }

    #[test]
    fn deregister_ends_tick_chain_and_discards_deliveries() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
        rt.run_until(30.0);
        assert!(rt.is_registered(Address::Controller(0)));
        let gone = rt.deregister(Address::Controller(0));
        assert!(gone.is_some());
        assert!(!rt.is_registered(Address::Controller(0)));
        assert!(rt.deregister(Address::Controller(0)).is_none(), "second deregister is a no-op");
        // The resource keeps ticking and sending into the void; nothing
        // panics and the departed controller receives nothing.
        rt.run_until(100.0);
        let rec = rt.actor_as::<Recorder>(Address::Resource(0)).expect("still registered");
        assert_eq!(rec.ticks.len(), 10);
    }

    #[test]
    fn tracing_records_causal_chains_passively() {
        use lla_telemetry::SpanRecorder;
        // Delay-2 network: tick → price arrival is a 2 ms delivery span.
        let run = |spans: Option<SpanRecorder>| {
            let mut rt = VirtualRuntime::new(NetworkModel::lossy(2.0, 0.0, 0.0), 0);
            if let Some(s) = spans {
                rt.attach_telemetry(DistTelemetry::disabled().with_spans(s));
            }
            rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
            rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
            rt.run_until(35.0);
            rt.messages_sent()
        };
        let rec = SpanRecorder::recording();
        assert_eq!(run(Some(rec.clone())), run(None), "tracing must not change message flow");
        // Sender ticks at 0, 10, 20, 30 → 4 traces of tick → price; the
        // receiver's silent ticks record nothing.
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 8, "{spans:?}");
        assert_eq!(rec.trace_ids().len(), 4);
        assert_eq!(spans[0].name, "tick");
        assert_eq!(spans[1].name, "price");
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].trace, spans[0].trace);
        assert_eq!(spans[1].duration(), 2.0, "delivery span duration is the link delay");
        let tracks = rec.track_names();
        assert_eq!(spans[0].track, tracks.iter().position(|t| t == "resource[0]").unwrap());
        assert_eq!(spans[1].track, tracks.iter().position(|t| t == "controller[0]").unwrap());
    }

    #[test]
    fn tracing_links_drops_to_their_parent() {
        use lla_telemetry::SpanRecorder;
        let rec = SpanRecorder::recording();
        // Total loss: every send becomes a drop span under its tick root.
        let mut rt = VirtualRuntime::new(NetworkModel::lossy(0.0, 0.0, 1.0), 0);
        rt.attach_telemetry(DistTelemetry::disabled().with_spans(rec.clone()));
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.run_until(25.0);
        assert_eq!(rt.messages_dropped(), 3);
        let spans = rec.snapshot();
        let drops: Vec<_> = spans.iter().filter(|s| s.name == "drop").collect();
        assert_eq!(drops.len(), 3);
        for d in drops {
            assert_ne!(d.parent, 0, "drop must link to its tick root");
            assert_eq!(d.duration(), 0.0);
        }
    }

    #[test]
    fn tracing_marks_crashed_deliveries() {
        use lla_telemetry::SpanRecorder;
        let rec = SpanRecorder::recording();
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.attach_telemetry(DistTelemetry::disabled().with_spans(rec.clone()));
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 10.0, 5.0);
        rt.schedule_faults(&FaultPlan::new().crash_for(21.0, 20.0, Address::Controller(0)));
        rt.run_until(60.0);
        assert_eq!(rt.dropped_at_crashed(), 2);
        let spans = rec.snapshot();
        let crashed: Vec<_> = spans.iter().filter(|s| s.name == "crashed-drop").collect();
        assert_eq!(crashed.len(), 2);
        for c in crashed {
            assert_ne!(c.parent, 0, "crashed-drop links to the delivery span");
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(None), 1.0, 0.0);
        rt.register(Address::Resource(0), recorder(None), 1.0, 0.0);
    }

    #[test]
    fn wire_mode_without_corruption_is_bit_identical() {
        // Same seed, a deliberately messy network: the wire round-trip
        // must not change a single delivery, drop, duplicate, or arrival
        // time relative to struct passing.
        let run = |wire: bool| {
            let model =
                NetworkModel::lossy(1.0, 2.0, 0.1).with_duplication(0.1).with_reordering(0.1, 9.0);
            let mut rt = VirtualRuntime::new(model, 11);
            if wire {
                rt.enable_wire_mode(CorruptionModel::off(), 0xC0FFEE);
            }
            rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 5.0, 0.0);
            rt.register(Address::Controller(0), recorder(None), 5.0, 2.5);
            rt.run_until(500.0);
            let received = rt
                .actor_as::<Recorder>(Address::Controller(0))
                .expect("registered")
                .received
                .clone();
            (rt.messages_sent(), rt.messages_dropped(), rt.messages_reordered(), received)
        };
        let plain = run(false);
        let wired = run(true);
        assert_eq!(plain.0, wired.0);
        assert_eq!(plain.1, wired.1);
        assert_eq!(plain.2, wired.2);
        // Bit-exact payloads: compare the f64 bits of every delivery.
        assert_eq!(plain.3.len(), wired.3.len());
        for ((ta, ma), (tb, mb)) in plain.3.iter().zip(wired.3.iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn corrupted_frames_are_rejected_and_attributed() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.enable_wire_mode(CorruptionModel::with_probability(1.0), 21);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 1.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.run_until(200.0);
        assert_eq!(rt.messages_sent(), 200);
        assert_eq!(rt.frames_corrupted(), 200, "p = 1 corrupts every frame");
        let rejected = rt.frames_rejected();
        let slipped = rt.corrupted_delivered();
        assert_eq!(rejected + slipped, 200, "every corrupted frame is rejected or slips as valid");
        assert!(rejected > 100, "most corruptions must be caught, got {rejected}");
        let book = rt.frame_rejections_by_sender();
        assert_eq!(book, vec![(Address::Resource(0), rejected)]);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len() as u64, slipped);
        // Whatever slipped through still carries only valid values.
        for (_, msg) in &rec.received {
            assert!(codec::validate(msg).is_ok());
        }
    }

    #[test]
    fn corruption_window_fault_opens_and_closes() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.enable_wire_mode(CorruptionModel::off(), 5);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 1.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.schedule_faults(&FaultPlan::new().corrupt_window(50.0, 50.0, 1.0));
        rt.run_until(200.0);
        // Ticks in [50, 100) are corrupted; everything else passes clean.
        assert_eq!(rt.frames_corrupted(), 50);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len() as u64, 150 + rt.corrupted_delivered());
    }

    #[test]
    fn quarantine_silences_sender_until_release() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), recorder(Some(Address::Controller(0))), 10.0, 0.0);
        rt.register(Address::Controller(0), recorder(None), 1000.0, 0.0);
        rt.run_until(20.0);
        assert!(rt.quarantine(Address::Resource(0)), "newly quarantined");
        assert!(!rt.quarantine(Address::Resource(0)), "already quarantined");
        assert_eq!(rt.quarantined_agents(), vec![Address::Resource(0)]);
        rt.run_until(50.0);
        assert!(rt.release_quarantine(Address::Resource(0)));
        assert!(!rt.is_quarantined(Address::Resource(0)));
        rt.run_until(80.0);
        // Ticks at 0,10 delivered; 20,30,40 quarantined; 50,60,70 delivered.
        assert_eq!(rt.quarantine_drops(), 3);
        let rec = rt.actor_as::<Recorder>(Address::Controller(0)).expect("registered");
        assert_eq!(rec.received.len(), 5);
    }

    /// Replies to every delivery with an ack, so quarantine exemption is
    /// observable.
    #[derive(Debug)]
    struct Acker {
        acked: u64,
    }

    impl Actor for Acker {
        fn on_tick(&mut self, _now: f64, _outbox: &mut Outbox) {}
        fn on_message(&mut self, _now: f64, _msg: Message, outbox: &mut Outbox) {
            self.acked += 1;
            outbox.send(
                Address::ControlPlane,
                Message::AvailabilityAck {
                    resource: 0,
                    seq: self.acked,
                    from: Address::Resource(0),
                },
            );
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn quarantined_sender_acks_still_pass() {
        let mut rt = VirtualRuntime::new(NetworkModel::perfect(), 0);
        rt.register(Address::Resource(0), Box::new(Acker { acked: 0 }), 1000.0, 0.0);
        rt.register(Address::ControlPlane, recorder(None), 1000.0, 0.0);
        rt.quarantine(Address::Resource(0));
        rt.inject(
            Address::Resource(0),
            Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 1 },
        );
        rt.run_until(10.0);
        assert_eq!(rt.quarantine_drops(), 0, "acks are exempt");
        let rec = rt.actor_as::<Recorder>(Address::ControlPlane).expect("registered");
        assert_eq!(rec.received.len(), 1, "the ack reached the control plane");
    }
}
