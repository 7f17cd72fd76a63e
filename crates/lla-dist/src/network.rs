//! The simulated network between controllers and resources.
//!
//! Substitutes for the paper's real network: messages experience a base
//! propagation delay, uniform jitter, independent loss, independent
//! duplication, and occasional reordering spikes (a large extra delay that
//! lets later messages overtake this one). The model is deterministic
//! given its seed, so distributed runs are reproducible.
//!
//! Time-windowed *partitions* between address groups are not part of this
//! per-message model — they depend on who talks to whom and on the virtual
//! clock, so they live in the runtime's fault layer
//! ([`FaultPlan`](crate::fault::FaultPlan)).

use crate::codec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Delay/loss/duplication model applied to every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fixed propagation delay added to every delivery (virtual ms).
    pub base_delay: f64,
    /// Extra uniform-random delay in `[0, jitter)` (virtual ms).
    pub jitter: f64,
    /// Probability that a message is silently dropped, in `[0, 1]`.
    /// `1` is a full blackout — the degenerate case partition modeling
    /// builds on.
    pub loss_probability: f64,
    /// Probability that a message is delivered twice (the duplicate takes
    /// an independent delay sample), in `[0, 1]`.
    pub duplicate_probability: f64,
    /// Probability that a delivery takes an extra [`reorder_spike`]
    /// delay, in `[0, 1]`. With a spike longer than the message interval,
    /// later messages overtake this one — out-of-order delivery.
    ///
    /// [`reorder_spike`]: NetworkModel::reorder_spike
    pub reorder_probability: f64,
    /// The extra delay of a reordering spike (virtual ms).
    pub reorder_spike: f64,
}

impl NetworkModel {
    /// A perfect network: zero delay, zero loss. Under round-based ticking
    /// this makes the distributed runtime bit-equivalent to the
    /// centralized optimizer.
    pub fn perfect() -> Self {
        NetworkModel {
            base_delay: 0.0,
            jitter: 0.0,
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_spike: 0.0,
        }
    }

    /// A lossy, jittery network.
    ///
    /// # Panics
    ///
    /// Panics if parameters are negative, non-finite, or
    /// `loss_probability > 1`. A `loss_probability` of exactly `1` is
    /// accepted: it models a total blackout, which partition modeling
    /// needs as its degenerate case.
    pub fn lossy(base_delay: f64, jitter: f64, loss_probability: f64) -> Self {
        assert!(base_delay.is_finite() && base_delay >= 0.0);
        assert!(jitter.is_finite() && jitter >= 0.0);
        assert!((0.0..=1.0).contains(&loss_probability));
        NetworkModel { base_delay, jitter, loss_probability, ..NetworkModel::perfect() }
    }

    /// Adds independent message duplication with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplication probability {p} outside [0, 1]");
        self.duplicate_probability = p;
        self
    }

    /// Adds reordering spikes: with probability `p` a delivery takes an
    /// extra `spike` ms of delay, letting later messages overtake it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `spike` is negative/non-finite.
    pub fn with_reordering(mut self, p: f64, spike: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder probability {p} outside [0, 1]");
        assert!(spike.is_finite() && spike >= 0.0, "reorder spike must be finite and ≥ 0");
        self.reorder_probability = p;
        self.reorder_spike = spike;
        self
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::perfect()
    }
}

/// Stateful sampler applying a [`NetworkModel`] with a seeded RNG.
#[derive(Debug, Clone)]
pub struct NetworkSampler {
    model: NetworkModel,
    rng: StdRng,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
}

/// The sampled fate of one message: the delays of each delivered copy,
/// held inline (a message is delivered at most twice).
///
/// Empty means the message was dropped; two entries mean it was
/// duplicated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deliveries {
    delays: [f64; 2],
    len: usize,
}

impl Deliveries {
    const DROPPED: Deliveries = Deliveries { delays: [0.0; 2], len: 0 };

    fn once(delay: f64) -> Self {
        Deliveries { delays: [delay, 0.0], len: 1 }
    }

    fn twice(delay: f64, dup: f64) -> Self {
        Deliveries { delays: [delay, dup], len: 2 }
    }

    /// The delay of each delivered copy, in sampling order.
    pub fn as_slice(&self) -> &[f64] {
        &self.delays[..self.len]
    }

    /// Number of delivered copies.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the message was dropped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl NetworkSampler {
    /// Creates a sampler.
    pub fn new(model: NetworkModel, seed: u64) -> Self {
        NetworkSampler {
            model,
            rng: StdRng::seed_from_u64(seed),
            delivered: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    fn one_delay(&mut self) -> f64 {
        let jitter =
            if self.model.jitter > 0.0 { self.rng.gen_range(0.0..self.model.jitter) } else { 0.0 };
        let spike = if self.model.reorder_probability > 0.0
            && self.rng.gen_bool(self.model.reorder_probability)
        {
            self.model.reorder_spike
        } else {
            0.0
        };
        self.model.base_delay + jitter + spike
    }

    /// Samples the fate of one message: `Some(delay)` to deliver after
    /// `delay` virtual milliseconds, `None` if dropped. Ignores
    /// duplication — use [`sample_deliveries`](Self::sample_deliveries)
    /// for the full model.
    pub fn sample(&mut self) -> Option<f64> {
        if self.model.loss_probability > 0.0 && self.rng.gen_bool(self.model.loss_probability) {
            self.dropped += 1;
            return None;
        }
        self.delivered += 1;
        Some(self.one_delay())
    }

    /// Samples the full fate of one message: the delay of every copy the
    /// network delivers (empty on loss, two entries on duplication).
    pub fn sample_deliveries(&mut self) -> Deliveries {
        match self.sample() {
            None => Deliveries::DROPPED,
            Some(delay) => {
                if self.model.duplicate_probability > 0.0
                    && self.rng.gen_bool(self.model.duplicate_probability)
                {
                    self.duplicated += 1;
                    let dup = self.one_delay();
                    Deliveries::twice(delay, dup)
                } else {
                    Deliveries::once(delay)
                }
            }
        }
    }

    /// Messages delivered so far (duplicates not counted).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }
}

/// Parameters of injected frame corruption (applies in wire mode only —
/// corruption garbles *bytes*, and only wire mode has bytes to garble).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionModel {
    /// Probability that a delivered frame copy is corrupted, in `[0, 1]`.
    pub probability: f64,
}

impl CorruptionModel {
    /// No corruption.
    pub fn off() -> Self {
        CorruptionModel { probability: 0.0 }
    }

    /// Corrupts each delivered frame copy independently with probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_probability(p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "corruption probability {p} outside [0, 1]"
        );
        CorruptionModel { probability: p }
    }

    /// Whether this model never corrupts.
    pub fn is_off(&self) -> bool {
        self.probability == 0.0
    }
}

impl Default for CorruptionModel {
    fn default() -> Self {
        CorruptionModel::off()
    }
}

/// Seeded, deterministic frame corruptor: byte flips, truncations, and
/// field fuzz over encoded [`codec`] frames.
///
/// Three mutation classes, chosen per corruption by the seeded RNG:
///
/// * **byte-flip** (½ of corruptions) — XOR one random bit anywhere in
///   the frame, length prefix and checksum included. Models line noise;
///   always caught by the CRC or the framing.
/// * **truncation** (¼) — cut the frame to a random proper prefix.
///   Models a dropped tail; caught by the length/truncation checks.
/// * **field-fuzz** (¼) — overwrite up to 8 random payload bytes with
///   random values and *recompute the checksum*. Models a byzantine
///   sender: valid framing around garbage values, exercising the
///   semantic validation layer rather than the transport layer. A fuzzed
///   value that happens to land inside its domain is delivered — that is
///   the residual perturbation LLA's price dynamics must (and do)
///   re-converge through.
///
/// The corruptor draws randomness **only** when its probability is
/// nonzero and **never** from the [`NetworkSampler`]'s stream, so a
/// wire-mode run with zero corruption is bit-identical to a plain run.
#[derive(Debug, Clone)]
pub struct FrameCorruptor {
    model: CorruptionModel,
    rng: StdRng,
    corrupted: u64,
}

impl FrameCorruptor {
    /// Creates a corruptor with its own seeded RNG.
    pub fn new(model: CorruptionModel, seed: u64) -> Self {
        FrameCorruptor { model, rng: StdRng::seed_from_u64(seed), corrupted: 0 }
    }

    /// The current corruption probability.
    pub fn probability(&self) -> f64 {
        self.model.probability
    }

    /// Changes the corruption probability (fault plans use this to open
    /// and close corruption windows).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_probability(&mut self, p: f64) {
        self.model = CorruptionModel::with_probability(p);
    }

    /// Possibly corrupts `frame` in place; returns whether it mutated.
    pub fn maybe_corrupt(&mut self, frame: &mut Vec<u8>) -> bool {
        if self.model.probability == 0.0 || frame.is_empty() {
            return false;
        }
        if !self.rng.gen_bool(self.model.probability) {
            return false;
        }
        self.corrupted += 1;
        match self.rng.gen_range(0..4u8) {
            0 | 1 => self.flip_bit(frame),
            2 => {
                let keep = self.rng.gen_range(0..frame.len());
                frame.truncate(keep);
            }
            _ => self.fuzz_field(frame),
        }
        true
    }

    fn flip_bit(&mut self, frame: &mut [u8]) {
        let byte = self.rng.gen_range(0..frame.len());
        let bit = self.rng.gen_range(0..8u8);
        frame[byte] ^= 1 << bit;
    }

    fn fuzz_field(&mut self, frame: &mut [u8]) {
        // Payload region: skip the 4-byte length prefix and the tag byte,
        // stop before the 4-byte checksum. Frames too small to have a
        // payload fall back to a bit flip.
        let lo = 5;
        let hi = frame.len().saturating_sub(4);
        if hi <= lo {
            self.flip_bit(frame);
            return;
        }
        let span = (hi - lo).min(8);
        let start = lo + self.rng.gen_range(0..=(hi - lo - span));
        let noise = self.rng.gen::<u64>().to_le_bytes();
        frame[start..start + span].copy_from_slice(&noise[..span]);
        codec::refresh_checksum(frame);
    }

    /// Frames corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_network_never_drops_or_delays() {
        let mut s = NetworkSampler::new(NetworkModel::perfect(), 0);
        for _ in 0..100 {
            assert_eq!(s.sample(), Some(0.0));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.delivered(), 100);
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut s = NetworkSampler::new(NetworkModel::lossy(0.0, 0.0, 0.3), 7);
        let n = 20_000;
        for _ in 0..n {
            s.sample();
        }
        let rate = s.dropped() as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn delay_within_bounds() {
        let mut s = NetworkSampler::new(NetworkModel::lossy(2.0, 3.0, 0.0), 9);
        for _ in 0..1000 {
            let d = s.sample().unwrap();
            assert!((2.0..5.0).contains(&d), "delay {d} out of bounds");
        }
    }

    #[test]
    fn sampler_is_deterministic() {
        let a: Vec<Option<f64>> = (0..50)
            .map(|_| NetworkSampler::new(NetworkModel::lossy(1.0, 2.0, 0.1), 5).sample())
            .collect();
        let b: Vec<Option<f64>> = (0..50)
            .map(|_| NetworkSampler::new(NetworkModel::lossy(1.0, 2.0, 0.1), 5).sample())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn accepts_full_loss_as_blackout() {
        let mut s = NetworkSampler::new(NetworkModel::lossy(0.0, 0.0, 1.0), 1);
        for _ in 0..100 {
            assert_eq!(s.sample(), None);
        }
        assert_eq!(s.dropped(), 100);
        assert_eq!(s.delivered(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_loss_above_one() {
        let _ = NetworkModel::lossy(0.0, 0.0, 1.0 + 1e-9);
    }

    #[test]
    fn duplication_rate_is_respected() {
        let mut s = NetworkSampler::new(NetworkModel::perfect().with_duplication(0.25), 13);
        let n = 20_000;
        let mut copies = 0usize;
        for _ in 0..n {
            copies += s.sample_deliveries().len();
        }
        let rate = copies as f64 / n as f64 - 1.0;
        assert!((rate - 0.25).abs() < 0.02, "observed duplication {rate}");
        assert_eq!(s.duplicated() as usize, copies - n);
    }

    #[test]
    fn reorder_spikes_delay_a_fraction_of_messages() {
        let mut s =
            NetworkSampler::new(NetworkModel::lossy(1.0, 1.0, 0.0).with_reordering(0.2, 50.0), 17);
        let n = 10_000;
        let mut spiked = 0usize;
        for _ in 0..n {
            let d = s.sample().unwrap();
            if d >= 50.0 {
                spiked += 1;
            } else {
                assert!((1.0..2.0).contains(&d), "non-spiked delay {d}");
            }
        }
        let rate = spiked as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed spike rate {rate}");
    }

    #[test]
    fn duplication_off_means_single_copies() {
        let mut s = NetworkSampler::new(NetworkModel::perfect(), 3);
        for _ in 0..100 {
            assert_eq!(s.sample_deliveries().as_slice(), [0.0]);
        }
        assert_eq!(s.duplicated(), 0);
    }

    fn sample_frame() -> Vec<u8> {
        codec::encode(&crate::protocol::Message::Price { resource: 1, mu: 2.5, congested: false })
    }

    #[test]
    fn corruptor_off_never_mutates_or_draws() {
        // A corruptor held at zero probability draws no randomness: after
        // 100 idle calls its first real corruption matches a fresh
        // corruptor's byte for byte.
        let mut idle = FrameCorruptor::new(CorruptionModel::off(), 42);
        for _ in 0..100 {
            let mut f = sample_frame();
            assert!(!idle.maybe_corrupt(&mut f));
            assert_eq!(f, sample_frame());
        }
        idle.set_probability(1.0);
        let mut fresh = FrameCorruptor::new(CorruptionModel::with_probability(1.0), 42);
        let (mut a, mut b) = (sample_frame(), sample_frame());
        assert!(idle.maybe_corrupt(&mut a));
        assert!(fresh.maybe_corrupt(&mut b));
        assert_eq!(a, b);
        assert_eq!(idle.corrupted(), 1);
    }

    #[test]
    fn corruptor_is_deterministic_and_respects_rate() {
        let run = || {
            let mut c = FrameCorruptor::new(CorruptionModel::with_probability(0.3), 9);
            let mut frames = Vec::new();
            for _ in 0..2000 {
                let mut f = sample_frame();
                c.maybe_corrupt(&mut f);
                frames.push(f);
            }
            (frames, c.corrupted())
        };
        let (a, hits_a) = run();
        let (b, hits_b) = run();
        assert_eq!(a, b);
        assert_eq!(hits_a, hits_b);
        let rate = hits_a as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "observed corruption rate {rate}");
    }

    #[test]
    fn every_corruption_changes_the_frame_and_most_are_rejected() {
        let mut c = FrameCorruptor::new(CorruptionModel::with_probability(1.0), 7);
        let mut rejected = 0usize;
        let n = 500;
        for _ in 0..n {
            let clean = sample_frame();
            let mut f = clean.clone();
            assert!(c.maybe_corrupt(&mut f));
            if codec::decode(&f).is_err() {
                rejected += 1;
            } else {
                // A field-fuzz survivor must still be a semantically
                // valid message — that is the whole guarantee.
                assert_ne!(f, clean);
                let msg = codec::decode(&f).unwrap();
                assert!(codec::validate(&msg).is_ok());
            }
        }
        // Bit flips and truncations are always caught; only in-domain
        // field fuzz can slip through, so rejections dominate.
        assert!(rejected > n / 2, "only {rejected}/{n} corruptions rejected");
    }

    #[test]
    #[should_panic(expected = "corruption probability")]
    fn corruption_model_rejects_bad_probability() {
        let _ = CorruptionModel::with_probability(1.5);
    }
}
