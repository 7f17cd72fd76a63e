//! The message protocol between task controllers and resource agents.
//!
//! LLA's distributed structure (§4.1): each *resource* computes its own
//! price `μ_r` and sends it to the controllers of tasks with subtasks on
//! it; each *task controller* computes path prices locally and sends newly
//! allocated latencies to the resources where its subtasks run.
//!
//! Under [`PriceMethod::Clearing`](lla_core::PriceMethod) a round is the
//! same exchange: a controller's [`Message::Latency`] also carries the
//! subtask's *pressure* `P_s = −w_s·f′ + Σ_{p∋s} λ_p`, from which the
//! resource agent clears its own `μ_r` exactly (the μ block of the
//! market-clearing sweep); the [`Message::Price`] it broadcasts back is
//! unchanged. Under [`PriceMethod::Gradient`](lla_core::PriceMethod) the
//! pressure is absent and the frames are the paper protocol's.
//!
//! Control-plane traffic (availability changes, membership changes)
//! travels over the same lossy network as data-plane traffic, made
//! reliable by sequence numbers and retransmit-until-ack (see
//! [`ControlPlaneAgent`](crate::agents::ControlPlaneAgent)).
//!
//! ## Slots
//!
//! Protocol-level task and resource indices are **slots**: stable
//! identifiers assigned at join time and never reused, so in-flight
//! messages stay unambiguous across membership changes. In a problem that
//! has seen no churn, slot and dense index coincide; after churn the
//! per-epoch topology (see [`TopologyStore`](crate::agents::TopologyStore))
//! maps slots to the current dense indices.

/// Address of an actor in the distributed runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Address {
    /// The price agent of the resource in slot `r` (one endpoint of a link
    /// computes prices for link resources, per the paper's footnote).
    Resource(usize),
    /// The controller of the task in slot `t`.
    Controller(usize),
    /// The management-plane agent that disseminates availability changes
    /// reliably (sequence numbers + retransmission) over the lossy
    /// network.
    ControlPlane,
    /// The fleet telemetry collector: agents ship their
    /// [`Message::TelemetryReport`]s here. Registered only when telemetry
    /// shipping is enabled; it never sends, so it cannot perturb the
    /// protocol.
    Collector,
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Address::Resource(r) => write!(f, "resource[{r}]"),
            Address::Controller(t) => write!(f, "controller[{t}]"),
            Address::ControlPlane => write!(f, "control-plane"),
            Address::Collector => write!(f, "collector"),
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Resource → controller: the resource's current price and congestion
    /// bit (the congestion bit drives the adaptive step-size heuristic for
    /// paths traversing the resource, §5.2).
    Price {
        /// The resource index.
        resource: usize,
        /// The price `μ_r`.
        mu: f64,
        /// Whether the resource was congested at this update.
        congested: bool,
    },
    /// Controller → resource: the latency newly assigned to one subtask
    /// hosted on the resource (the resource derives the share demand from
    /// it via the share model).
    Latency {
        /// Task index.
        task: usize,
        /// Subtask index within the task.
        subtask: usize,
        /// Assigned latency (ms).
        latency: f64,
        /// The subtask's pressure `−w_s·f′ + Σ_{p∋s} λ_p` at the prices
        /// the latency was allocated with, which a market-clearing
        /// resource agent clears its `μ_r` from; `None` under the
        /// gradient protocol, which does not send it.
        pressure: Option<f64>,
    },
    /// Control plane → any agent: a resource's availability `B_r` changed
    /// (failure, competing reservation). Resources use it in their price
    /// gradient; controllers in their clamping bounds. LLA re-converges.
    ///
    /// Delivery is at-least-once over the lossy network: the control plane
    /// retransmits until every recipient acknowledges `seq`, and
    /// recipients deduplicate/order by `seq` (per resource, monotonically
    /// increasing; a higher `seq` supersedes any lower one).
    AvailabilityUpdate {
        /// The resource index.
        resource: usize,
        /// The new availability fraction.
        availability: f64,
        /// Control-plane sequence number (0 on operator-submitted
        /// commands; the control plane assigns the real sequence).
        seq: u64,
    },
    /// Agent → control plane: acknowledges receipt of the availability
    /// update carrying `seq` for `resource`.
    AvailabilityAck {
        /// The resource index of the acknowledged update.
        resource: usize,
        /// The acknowledged sequence number.
        seq: u64,
        /// The acknowledging agent.
        from: Address,
    },
    /// Control plane → agents: the task in `slot` joined at topology
    /// `epoch`. Recipients load the epoch's problem view from the shared
    /// topology store and splice the newcomer in without restarting.
    ///
    /// Like [`Message::AvailabilityUpdate`], membership messages are
    /// reliable: retransmitted until acked, deduplicated by epoch (an
    /// agent already at `epoch` or later re-acks and ignores the body).
    TaskJoin {
        /// Slot of the joining task.
        slot: usize,
        /// Topology epoch that includes the newcomer.
        epoch: u64,
        /// Control-plane sequence (0 on operator commands).
        seq: u64,
    },
    /// Control plane → agents: the task in `slot` left voluntarily at
    /// `epoch`. Resource agents drop its subtasks; its controller goes
    /// dormant.
    TaskLeave {
        /// Slot of the leaving task.
        slot: usize,
        /// Topology epoch without the leaver.
        epoch: u64,
        /// Control-plane sequence (0 on operator commands).
        seq: u64,
    },
    /// Control plane → agents: the resource in `slot` joined at `epoch`
    /// (it starts empty and unpriced).
    ResourceJoin {
        /// Slot of the joining resource.
        slot: usize,
        /// Topology epoch that includes the newcomer.
        epoch: u64,
        /// Control-plane sequence (0 on operator commands).
        seq: u64,
    },
    /// Control plane → agents: the resource in `slot` retires at `epoch`.
    /// The epoch's problem has already drained its subtasks onto other
    /// resources (drain-and-handoff); the retiring agent goes dormant
    /// after processing this.
    ResourceRetire {
        /// Slot of the retiring resource.
        slot: usize,
        /// Topology epoch without the retiree.
        epoch: u64,
        /// Control-plane sequence (0 on operator commands).
        seq: u64,
    },
    /// Control plane → agents: the task in `slot` was *evicted* by
    /// overload shedding at `epoch`. Wire-identical to
    /// [`Message::TaskLeave`] but kept distinct so telemetry can tell
    /// voluntary departure from shedding.
    Evict {
        /// Slot of the evicted task.
        slot: usize,
        /// Topology epoch without the evictee.
        epoch: u64,
        /// Control-plane sequence (0 on operator commands).
        seq: u64,
    },
    /// Agent → control plane: acknowledges the membership change at
    /// `epoch` carrying `seq`.
    MembershipAck {
        /// The acknowledged topology epoch.
        epoch: u64,
        /// The acknowledged sequence number.
        seq: u64,
        /// The acknowledging agent.
        from: Address,
    },
    /// Control plane → agents: the resource in `slot` now runs `replicas`
    /// interchangeable replicas as of topology `epoch` (elastic capacity:
    /// effective `B_r` scales with the count). Rides the reliable
    /// membership machinery — the epoch's problem snapshot already
    /// carries the new count, so recipients warm-start across it like any
    /// other membership change.
    ReplicaUpdate {
        /// Slot of the scaled resource.
        slot: usize,
        /// The new replica count.
        replicas: u32,
        /// Topology epoch with the new capacity.
        epoch: u64,
        /// Control-plane sequence (0 on supervisor/operator commands).
        seq: u64,
    },
    /// Supervisor → agents (via the control plane, reliable): gamma-thrash
    /// remediation. Every recipient resets its adaptive step sizes to the
    /// policy's initial value and clamps future growth to
    /// `initial × max_multiple` (see
    /// [`PriceState::calm_gammas`](lla_core::PriceState::calm_gammas)).
    GammaCalm {
        /// New growth cap as a multiple of the initial step size (`≥ 1`).
        max_multiple: f64,
        /// Control-plane sequence (0 on supervisor commands).
        seq: u64,
    },
    /// Supervisor → agents (via the control plane, reliable): stall
    /// remediation probe. Recipients immediately re-announce their current
    /// state — resources rebroadcast prices, controllers re-send
    /// latencies — refreshing peers' staleness clocks without waiting for
    /// the next tick phase.
    DualResync {
        /// Control-plane sequence (0 on supervisor commands).
        seq: u64,
    },
    /// Agent → control plane: acknowledges the supervisor command
    /// carrying `seq`.
    CommandAck {
        /// The acknowledged sequence number.
        seq: u64,
        /// The acknowledging agent.
        from: Address,
    },
    /// Agent → collector: a delta-encoded, watermarked telemetry report
    /// (see [`lla_telemetry::collect`]). Fire-and-forget over the lossy
    /// network — the collector tolerates loss, duplication, and
    /// reordering via the per-agent sequence number, and accounts for
    /// every report as merged, stale, or lost.
    TelemetryReport {
        /// The reporting agent.
        from: Address,
        /// Per-agent report sequence, starting at 1.
        seq: u64,
        /// Virtual-clock watermark: every scope update up to this instant
        /// is covered by the deltas shipped through this report.
        watermark: f64,
        /// `(dictionary slot, counter delta)` pairs, slots strictly
        /// increasing, zero deltas omitted (delta encoding keeps the body
        /// far under the frame cap).
        deltas: Vec<(u8, u32)>,
    },
}

impl Message {
    /// Stable kebab-case variant name — the span name tracing uses for a
    /// delivery of this message.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Price { .. } => "price",
            Message::Latency { .. } => "latency",
            Message::AvailabilityUpdate { .. } => "availability-update",
            Message::AvailabilityAck { .. } => "availability-ack",
            Message::TaskJoin { .. } => "task-join",
            Message::TaskLeave { .. } => "task-leave",
            Message::ResourceJoin { .. } => "resource-join",
            Message::ResourceRetire { .. } => "resource-retire",
            Message::Evict { .. } => "evict",
            Message::MembershipAck { .. } => "membership-ack",
            Message::ReplicaUpdate { .. } => "replica-update",
            Message::GammaCalm { .. } => "gamma-calm",
            Message::DualResync { .. } => "dual-resync",
            Message::CommandAck { .. } => "command-ack",
            Message::TelemetryReport { .. } => "telemetry-report",
        }
    }

    /// For membership messages, the `(slot, epoch, seq)` triple; `None`
    /// for data-plane and availability messages.
    pub fn membership_parts(&self) -> Option<(usize, u64, u64)> {
        match *self {
            Message::TaskJoin { slot, epoch, seq }
            | Message::TaskLeave { slot, epoch, seq }
            | Message::ResourceJoin { slot, epoch, seq }
            | Message::ResourceRetire { slot, epoch, seq }
            | Message::Evict { slot, epoch, seq }
            | Message::ReplicaUpdate { slot, epoch, seq, .. } => Some((slot, epoch, seq)),
            _ => None,
        }
    }

    /// A copy of a membership message with the control-plane sequence
    /// replaced (used when the control plane assigns the real sequence to
    /// an operator-submitted `seq == 0` command).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-membership message.
    pub fn with_membership_seq(&self, new_seq: u64) -> Message {
        let mut m = self.clone();
        match &mut m {
            Message::TaskJoin { seq, .. }
            | Message::TaskLeave { seq, .. }
            | Message::ResourceJoin { seq, .. }
            | Message::ResourceRetire { seq, .. }
            | Message::Evict { seq, .. }
            | Message::ReplicaUpdate { seq, .. } => *seq = new_seq,
            other => panic!("not a membership message: {other:?}"),
        }
        m
    }

    /// For supervisor commands ([`GammaCalm`](Message::GammaCalm),
    /// [`DualResync`](Message::DualResync)), the sequence number; `None`
    /// otherwise.
    pub fn command_seq(&self) -> Option<u64> {
        match *self {
            Message::GammaCalm { seq, .. } | Message::DualResync { seq } => Some(seq),
            _ => None,
        }
    }

    /// A copy of a supervisor command with the control-plane sequence
    /// replaced.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-command message.
    pub fn with_command_seq(&self, new_seq: u64) -> Message {
        let mut m = self.clone();
        match &mut m {
            Message::GammaCalm { seq, .. } | Message::DualResync { seq } => *seq = new_seq,
            other => panic!("not a supervisor command: {other:?}"),
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_display() {
        assert_eq!(Address::Resource(2).to_string(), "resource[2]");
        assert_eq!(Address::Controller(0).to_string(), "controller[0]");
        assert_eq!(Address::ControlPlane.to_string(), "control-plane");
        assert_eq!(Address::Collector.to_string(), "collector");
    }

    #[test]
    fn kind_names_every_variant() {
        let from = Address::Controller(0);
        let msgs = [
            (Message::Price { resource: 0, mu: 1.0, congested: false }, "price"),
            (Message::Latency { task: 0, subtask: 0, latency: 1.0, pressure: None }, "latency"),
            (
                Message::AvailabilityUpdate { resource: 0, availability: 0.5, seq: 1 },
                "availability-update",
            ),
            (Message::AvailabilityAck { resource: 0, seq: 1, from }, "availability-ack"),
            (Message::TaskJoin { slot: 0, epoch: 1, seq: 1 }, "task-join"),
            (Message::TaskLeave { slot: 0, epoch: 1, seq: 1 }, "task-leave"),
            (Message::ResourceJoin { slot: 0, epoch: 1, seq: 1 }, "resource-join"),
            (Message::ResourceRetire { slot: 0, epoch: 1, seq: 1 }, "resource-retire"),
            (Message::Evict { slot: 0, epoch: 1, seq: 1 }, "evict"),
            (Message::MembershipAck { epoch: 1, seq: 1, from }, "membership-ack"),
            (Message::ReplicaUpdate { slot: 0, replicas: 2, epoch: 1, seq: 1 }, "replica-update"),
            (Message::GammaCalm { max_multiple: 4.0, seq: 1 }, "gamma-calm"),
            (Message::DualResync { seq: 1 }, "dual-resync"),
            (Message::CommandAck { seq: 1, from }, "command-ack"),
            (
                Message::TelemetryReport { from, seq: 1, watermark: 10.0, deltas: vec![(0, 1)] },
                "telemetry-report",
            ),
        ];
        for (msg, kind) in msgs {
            assert_eq!(msg.kind(), kind);
        }
    }

    #[test]
    fn replica_update_is_a_membership_message() {
        let m = Message::ReplicaUpdate { slot: 2, replicas: 3, epoch: 5, seq: 0 };
        assert_eq!(m.membership_parts(), Some((2, 5, 0)));
        assert_eq!(m.with_membership_seq(8).membership_parts(), Some((2, 5, 8)));
    }

    #[test]
    fn command_seq_round_trip() {
        let calm = Message::GammaCalm { max_multiple: 2.0, seq: 0 };
        assert_eq!(calm.command_seq(), Some(0));
        assert_eq!(calm.with_command_seq(4).command_seq(), Some(4));
        assert_eq!(Message::DualResync { seq: 7 }.command_seq(), Some(7));
        assert_eq!(Message::Price { resource: 0, mu: 0.0, congested: false }.command_seq(), None);
    }

    #[test]
    fn membership_parts_round_trip() {
        let m = Message::TaskJoin { slot: 3, epoch: 7, seq: 0 };
        assert_eq!(m.membership_parts(), Some((3, 7, 0)));
        let reseq = m.with_membership_seq(42);
        assert_eq!(reseq.membership_parts(), Some((3, 7, 42)));
        assert_eq!(
            Message::Evict { slot: 1, epoch: 2, seq: 9 }.membership_parts(),
            Some((1, 2, 9))
        );
        let data = Message::Price { resource: 0, mu: 1.0, congested: false };
        assert_eq!(data.membership_parts(), None);
    }

    #[test]
    fn addresses_are_ordered_and_hashable() {
        let mut v = vec![
            Address::ControlPlane,
            Address::Controller(1),
            Address::Resource(0),
            Address::Controller(0),
        ];
        v.sort();
        assert_eq!(v[0], Address::Resource(0));
        let set: std::collections::HashSet<Address> = v.into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
