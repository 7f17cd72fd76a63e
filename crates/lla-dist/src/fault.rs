//! Scheduled fault injection for the virtual-time runtime.
//!
//! The paper's operational claim (§4.1–4.3) is that LLA runs
//! *continuously* on a real distributed system; real systems crash,
//! partition, and lose capacity. A [`FaultPlan`] scripts those events on
//! the virtual clock — deterministically, so every failure scenario is
//! exactly reproducible:
//!
//! * **Partitions** — for a time window, messages between two address
//!   groups are dropped (messages already in flight still arrive, as on a
//!   real network).
//! * **Crash / restart** — an actor loses its in-memory state
//!   ([`Actor::on_crash`](crate::runtime::Actor::on_crash)) and stops
//!   receiving ticks and messages; on restart it rebuilds from a
//!   checkpoint or from scratch
//!   ([`Actor::on_restart`](crate::runtime::Actor::on_restart)).
//! * **Availability drops** — a resource's capacity `B_r` changes; the
//!   update is disseminated through the control plane (reliably, if a
//!   [`ControlPlaneAgent`](crate::agents::ControlPlaneAgent) is
//!   registered).

use crate::protocol::Address;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires (ms).
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// The kinds of injectable faults.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Drop all messages between group `a` and group `b` (both
    /// directions) for `duration` virtual ms from the event time.
    Partition {
        /// One side of the partition.
        a: Vec<Address>,
        /// The other side.
        b: Vec<Address>,
        /// How long the partition lasts (ms).
        duration: f64,
    },
    /// Crash the actor: wipe its volatile state and stop delivering ticks
    /// and messages to it.
    Crash {
        /// The actor to crash.
        addr: Address,
    },
    /// Restart a crashed actor: ticks and deliveries resume, and the
    /// actor may rebuild state from its checkpoint.
    Restart {
        /// The actor to restart.
        addr: Address,
    },
    /// Change resource `resource`'s availability to `availability`,
    /// announced through the control plane.
    SetAvailability {
        /// The resource index.
        resource: usize,
        /// The new availability fraction.
        availability: f64,
    },
    /// Change the wire-mode frame-corruption probability (no effect on a
    /// struct-passing run — there are no bytes to corrupt). Fault plans
    /// use paired events to open and close corruption windows for A/B
    /// survival soaks.
    SetCorruption {
        /// The new per-copy corruption probability, in `[0, 1]`.
        probability: f64,
    },
}

/// A deterministic schedule of faults, driven by the virtual clock.
///
/// Event times are absolute. A plan scheduled after some of its times
/// have passed fires those events at the current time, in plan order
/// (see [`VirtualRuntime::schedule_faults`]).
///
/// [`VirtualRuntime::schedule_faults`]: crate::runtime::VirtualRuntime::schedule_faults
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a partition between `a` and `b` at time `at` for
    /// `duration` ms.
    ///
    /// # Panics
    ///
    /// Panics if `at` or `duration` is negative or non-finite.
    pub fn partition(
        mut self,
        at: f64,
        duration: f64,
        a: impl Into<Vec<Address>>,
        b: impl Into<Vec<Address>>,
    ) -> Self {
        assert!(at.is_finite() && at >= 0.0, "partition time must be finite and ≥ 0");
        assert!(duration.is_finite() && duration >= 0.0, "partition duration must be ≥ 0");
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Partition { a: a.into(), b: b.into(), duration },
        });
        self
    }

    /// Schedules a crash of `addr` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or non-finite.
    pub fn crash(mut self, at: f64, addr: Address) -> Self {
        assert!(at.is_finite() && at >= 0.0, "crash time must be finite and ≥ 0");
        self.events.push(FaultEvent { at, kind: FaultKind::Crash { addr } });
        self
    }

    /// Schedules a restart of `addr` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or non-finite.
    pub fn restart(mut self, at: f64, addr: Address) -> Self {
        assert!(at.is_finite() && at >= 0.0, "restart time must be finite and ≥ 0");
        self.events.push(FaultEvent { at, kind: FaultKind::Restart { addr } });
        self
    }

    /// Schedules a crash at `at` followed by a restart `down_for` ms
    /// later.
    pub fn crash_for(self, at: f64, down_for: f64, addr: Address) -> Self {
        assert!(down_for.is_finite() && down_for >= 0.0, "downtime must be ≥ 0");
        self.crash(at, addr).restart(at + down_for, addr)
    }

    /// Schedules an availability change of resource `resource` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative/non-finite or `availability` is not in
    /// `(0, 1]`.
    pub fn set_availability(mut self, at: f64, resource: usize, availability: f64) -> Self {
        assert!(at.is_finite() && at >= 0.0, "event time must be finite and ≥ 0");
        assert!(
            availability.is_finite() && availability > 0.0 && availability <= 1.0,
            "availability {availability} outside (0, 1]"
        );
        self.events
            .push(FaultEvent { at, kind: FaultKind::SetAvailability { resource, availability } });
        self
    }

    /// Schedules a change of the wire-mode frame-corruption probability
    /// at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative/non-finite or `probability` is not in
    /// `[0, 1]`.
    pub fn set_corruption(mut self, at: f64, probability: f64) -> Self {
        assert!(at.is_finite() && at >= 0.0, "event time must be finite and ≥ 0");
        assert!(
            probability.is_finite() && (0.0..=1.0).contains(&probability),
            "corruption probability {probability} outside [0, 1]"
        );
        self.events.push(FaultEvent { at, kind: FaultKind::SetCorruption { probability } });
        self
    }

    /// Schedules a corruption window: probability `probability` from `at`
    /// for `duration` ms, then back to zero.
    pub fn corrupt_window(self, at: f64, duration: f64, probability: f64) -> Self {
        assert!(duration.is_finite() && duration >= 0.0, "window duration must be ≥ 0");
        self.set_corruption(at, probability).set_corruption(at + duration, 0.0)
    }

    /// The scheduled events, in insertion order (the runtime orders them
    /// by time on its event queue).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let plan = FaultPlan::new()
            .partition(10.0, 5.0, vec![Address::Controller(0)], vec![Address::Resource(0)])
            .crash_for(20.0, 3.0, Address::Controller(1))
            .set_availability(30.0, 2, 0.5);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[1].kind, FaultKind::Crash { addr: Address::Controller(1) });
        assert_eq!(plan.events()[2].at, 23.0);
        assert_eq!(
            plan.events()[3].kind,
            FaultKind::SetAvailability { resource: 2, availability: 0.5 }
        );
    }

    #[test]
    fn corruption_window_opens_and_closes() {
        let plan = FaultPlan::new().corrupt_window(50.0, 25.0, 0.1);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::SetCorruption { probability: 0.1 });
        assert_eq!(plan.events()[1].at, 75.0);
        assert_eq!(plan.events()[1].kind, FaultKind::SetCorruption { probability: 0.0 });
    }

    #[test]
    #[should_panic(expected = "corruption probability")]
    fn rejects_corruption_probability_above_one() {
        let _ = FaultPlan::new().set_corruption(0.0, 1.2);
    }

    #[test]
    #[should_panic(expected = "availability")]
    fn rejects_zero_availability() {
        let _ = FaultPlan::new().set_availability(0.0, 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn rejects_negative_partition_duration() {
        let _ = FaultPlan::new().partition(0.0, -1.0, vec![], vec![]);
    }
}
