//! Adversarial-input hardening: wire-codec round trips, golden
//! corrupted-frame rejection vectors, wire-mode bit-identity, and
//! corruption-soak survival.
//!
//! Property cases are driven by an explicit seeded RNG (the offline
//! stand-in for `proptest`; see `proptest_invariants.rs` for the idiom).

use lla::core::{
    AllocationSettings, Problem, Resource, ResourceId, ResourceKind, TaskBuilder, TaskId,
};
use lla::dist::codec;
use lla::dist::supervisor::RemediationKind;
use lla::dist::{
    run_supervised, Address, DistConfig, DistTelemetry, DistributedLla, Message, SupervisorConfig,
    SupervisorEngine,
};
use lla::telemetry::{DiagnosticsEngine, TelemetryHub, Verdict};
use lla::workloads::base_workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

fn cases(salt: u64) -> impl Iterator<Item = StdRng> {
    (0..CASES as u64).map(move |i| StdRng::seed_from_u64(salt.wrapping_mul(0x9e37_79b9) + i))
}

fn random_address(rng: &mut StdRng) -> Address {
    match rng.gen_range(0u32..3) {
        0 => Address::Resource(rng.gen_range(0usize..1000)),
        1 => Address::Controller(rng.gen_range(0usize..1000)),
        _ => Address::ControlPlane,
    }
}

/// A random wire-valid message: every field inside its codec domain.
fn random_message(rng: &mut StdRng) -> Message {
    let slot = rng.gen_range(0usize..10_000);
    let epoch = rng.gen_range(0u64..1 << 40);
    let seq = rng.gen_range(0u64..1 << 40);
    match rng.gen_range(0u32..15) {
        0 => Message::Price {
            resource: slot,
            mu: rng.gen_range(0.0..1e9f64),
            congested: rng.gen::<bool>(),
        },
        1 => Message::Latency {
            task: slot,
            subtask: rng.gen_range(0usize..64),
            latency: rng.gen_range(1e-6..1e6f64),
            // Market clearing's pressures (either sign), or none under
            // the gradient protocol.
            pressure: rng.gen_bool(0.5).then(|| rng.gen_range(-1e9..1e9f64)),
        },
        2 => Message::AvailabilityUpdate {
            resource: slot,
            availability: rng.gen_range(1e-6..=1.0f64),
            seq,
        },
        3 => Message::AvailabilityAck { resource: slot, seq, from: random_address(rng) },
        4 => Message::TaskJoin { slot, epoch, seq },
        5 => Message::TaskLeave { slot, epoch, seq },
        6 => Message::ResourceJoin { slot, epoch, seq },
        7 => Message::ResourceRetire { slot, epoch, seq },
        8 => Message::Evict { slot, epoch, seq },
        9 => Message::MembershipAck { epoch, seq, from: random_address(rng) },
        10 => Message::ReplicaUpdate { slot, replicas: rng.gen_range(1u32..=1 << 16), epoch, seq },
        11 => Message::GammaCalm { max_multiple: rng.gen_range(1.0..1e6f64), seq },
        12 => Message::DualResync { seq },
        13 => Message::CommandAck { seq, from: random_address(rng) },
        _ => {
            // Strictly increasing slots, as the wire format requires.
            let count = rng.gen_range(0usize..=8);
            let mut slots: Vec<u8> = (0..=codec::MAX_WIRE_REPORT_SLOT).collect();
            for i in 0..count {
                let j = rng.gen_range(i..slots.len());
                slots.swap(i, j);
            }
            let mut picked = slots[..count].to_vec();
            picked.sort_unstable();
            Message::TelemetryReport {
                from: random_address(rng),
                seq,
                watermark: rng.gen_range(0.0..1e9f64),
                deltas: picked.into_iter().map(|s| (s, rng.gen_range(0u32..1 << 30))).collect(),
            }
        }
    }
}

/// Every wire-valid message survives `encode → decode → validate`
/// bit-exactly (floats compared by bit pattern via `PartialEq`).
#[test]
fn encode_decode_round_trips_random_messages() {
    for mut rng in cases(0xC0DEC) {
        for _ in 0..50 {
            let msg = random_message(&mut rng);
            let frame = codec::encode(&msg);
            let back =
                codec::decode(&frame).unwrap_or_else(|e| panic!("decode failed for {msg:?}: {e}"));
            assert_eq!(back, msg, "round trip must be bit-exact");
            codec::validate(&back).unwrap_or_else(|e| panic!("validate failed for {msg:?}: {e}"));
        }
    }
}

/// Stream decoding consumes exactly one frame and reports its length, so
/// back-to-back frames in one buffer parse cleanly.
#[test]
fn decode_frame_walks_concatenated_frames() {
    for mut rng in cases(0x57EA) {
        let msgs: Vec<Message> = (0..8).map(|_| random_message(&mut rng)).collect();
        let mut buf = Vec::new();
        for m in &msgs {
            buf.extend_from_slice(&codec::encode(m));
        }
        let mut at = 0;
        for expected in &msgs {
            let (msg, used) = codec::decode_frame(&buf[at..]).expect("stream decode");
            assert_eq!(&msg, expected);
            at += used;
        }
        assert_eq!(at, buf.len(), "stream must consume every byte");
    }
}

/// The committed corruption vectors: `hex-frame<space>expected-cause`
/// lines, one per corruption class. Regenerate with
/// `LLA_REGEN_GOLDEN=1 cargo test --test wire_codec`.
#[test]
fn golden_corrupted_frames_are_rejected_with_stable_causes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corrupted_frames.txt");
    if std::env::var_os("LLA_REGEN_GOLDEN").is_some() {
        let mut lines = String::new();
        for (frame, note) in corrupted_vectors() {
            let cause = match codec::decode(&frame).and_then(|m| codec::validate(&m).map(|()| m)) {
                Err(e) => e.cause(),
                Ok(m) => panic!("vector {note:?} unexpectedly decoded to {m:?}"),
            };
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            lines.push_str(&format!("{hex} {cause} # {note}\n"));
        }
        std::fs::write(path, &lines).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden file present (LLA_REGEN_GOLDEN=1 cargo test --test wire_codec regenerates it)",
    );
    let mut checked = 0;
    for line in golden.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let hex = parts.next().expect("frame hex");
        let expected_cause = parts.next().expect("expected cause");
        let frame: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
            .collect();
        let err = codec::decode(&frame)
            .and_then(|m| codec::validate(&m).map(|()| m))
            .expect_err("corrupted frame must be rejected");
        assert_eq!(err.cause(), expected_cause, "cause drifted for {line}");
        checked += 1;
    }
    assert!(checked >= 8, "golden file must cover every corruption class, got {checked}");
}

/// One deliberately corrupted frame per rejection class (plus a note for
/// the golden file). Each starts from a valid encoding so the vectors
/// stay in sync with the codec.
fn corrupted_vectors() -> Vec<(Vec<u8>, &'static str)> {
    let price = Message::Price { resource: 3, mu: 2.5, congested: true };
    let mut vectors = Vec::new();

    let mut flipped = codec::encode(&price);
    flipped[6] ^= 0x40;
    vectors.push((flipped, "payload bit flip breaks the checksum"));

    let mut truncated = codec::encode(&price);
    truncated.truncate(truncated.len() - 3);
    vectors.push((truncated, "frame cut mid-checksum"));

    vectors.push((codec::encode(&price)[..2].to_vec(), "header shorter than the length prefix"));

    let mut huge_len = codec::encode(&price);
    huge_len[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
    vectors.push((huge_len, "length prefix beyond the body cap"));

    let mut bad_tag = codec::encode(&price);
    bad_tag[4] = 0x7F;
    codec::refresh_checksum(&mut bad_tag);
    vectors.push((bad_tag, "unknown message tag with a valid checksum"));

    let mut nan_mu = codec::encode(&price);
    // Body layout of Price: tag(1) id(4) mu(8) bool(1); floats travel as
    // IEEE-754 bits, so overwrite mu with NaN and re-checksum.
    nan_mu[9..17].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    codec::refresh_checksum(&mut nan_mu);
    vectors.push((nan_mu, "NaN price smuggled behind a valid checksum"));

    let mut absurd_id = codec::encode(&price);
    absurd_id[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    codec::refresh_checksum(&mut absurd_id);
    vectors.push((absurd_id, "resource id beyond the wire cap"));

    let mut bad_bool = codec::encode(&price);
    let at = bad_bool.len() - 5;
    bad_bool[at] = 7;
    codec::refresh_checksum(&mut bad_bool);
    vectors.push((bad_bool, "congested flag outside 0/1"));

    let mut trailing = codec::encode(&price);
    let body_len = u32::from_le_bytes(trailing[0..4].try_into().unwrap());
    trailing[0..4].copy_from_slice(&(body_len + 2).to_le_bytes());
    let crc_at = trailing.len() - 4;
    trailing.splice(crc_at..crc_at, [0u8, 0u8]);
    codec::refresh_checksum(&mut trailing);
    vectors.push((trailing, "two stray bytes after the payload"));

    let mut out_of_domain =
        codec::encode(&Message::AvailabilityUpdate { resource: 1, availability: 0.5, seq: 9 });
    out_of_domain[9..17].copy_from_slice(&42.0f64.to_bits().to_le_bytes());
    codec::refresh_checksum(&mut out_of_domain);
    vectors.push((out_of_domain, "availability far outside (0, 1] passes decode, fails validate"));

    vectors
}

/// Two pipelines over two CPUs with generous deadlines: schedulable
/// with slack, so a supervised clean run settles and stays settled.
fn comfortable_problem() -> Problem {
    let resources = vec![
        Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
        Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
    ];
    let mut tasks = Vec::new();
    for (i, critical) in [(0usize, 40.0), (1usize, 60.0)] {
        let mut b = TaskBuilder::new(format!("t{i}"));
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(critical);
        tasks.push(b.build(TaskId::new(i)).unwrap());
    }
    Problem::new(resources, tasks).unwrap()
}

/// The fuzz-target body (`fuzz/fuzz_targets/frame_decode.rs`), run here
/// for a fixed number of seeded iterations so the property is exercised
/// on every `cargo test` without libfuzzer: the decoder never panics,
/// and anything it accepts is canonical (re-encodes to the same bytes).
fn fuzz_body(data: &[u8]) {
    if let Ok(msg) = codec::decode(data) {
        let _ = codec::validate(&msg);
        assert_eq!(codec::encode(&msg), data, "accepted frame must be canonical");
    }
    let mut at = 0usize;
    while at < data.len() {
        match codec::decode_frame(&data[at..]) {
            Ok((_, used)) => {
                assert!(used > 0, "stream decode must consume bytes");
                at += used;
            }
            Err(_) => break,
        }
    }
}

/// 20k adversarial inputs — replayed corpus seeds, mutated valid
/// frames, and raw random buffers — through the fuzz-target body.
#[test]
fn fuzz_smoke_decoder_never_panics() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/corpus/frame_decode");
    for entry in std::fs::read_dir(corpus).expect("committed seed corpus") {
        fuzz_body(&std::fs::read(entry.expect("corpus entry").path()).expect("corpus bytes"));
    }
    for mut rng in cases(0xF022) {
        for _ in 0..20_000 / CASES {
            if rng.gen_bool(0.5) {
                // Mutate a valid frame: flip, truncate, or splice bytes.
                let mut frame = codec::encode(&random_message(&mut rng));
                match rng.gen_range(0u32..3) {
                    0 => {
                        let at = rng.gen_range(0..frame.len());
                        frame[at] ^= 1 << rng.gen_range(0u8..8);
                    }
                    1 => frame.truncate(rng.gen_range(0..frame.len())),
                    _ => {
                        let at = rng.gen_range(0..frame.len());
                        let n = rng.gen::<u64>().to_le_bytes();
                        let end = (at + 8).min(frame.len());
                        frame[at..end].copy_from_slice(&n[..end - at]);
                    }
                }
                fuzz_body(&frame);
            } else {
                // Raw random bytes, occasionally with a plausible prefix.
                let len = rng.gen_range(0usize..64);
                let mut buf: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
                if rng.gen_bool(0.25) && buf.len() >= 4 {
                    let body = rng.gen_range(0u32..40);
                    buf[0..4].copy_from_slice(&body.to_le_bytes());
                }
                fuzz_body(&buf);
            }
        }
    }
}

/// The seed corpus's `valid_*` frames are live encodings: each decodes,
/// validates and re-encodes to its own bytes, so a codec change that
/// retires a layout fails here instead of leaving a dead seed. The
/// corpus covers both latency layouts.
#[test]
fn fuzz_corpus_valid_seeds_round_trip() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz/corpus/frame_decode");
    let (mut seeds, mut layouts) = (0, [false; 2]);
    for entry in std::fs::read_dir(corpus).expect("committed seed corpus") {
        let path = entry.expect("corpus entry").path();
        if !path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("valid_")) {
            continue;
        }
        let bytes = std::fs::read(&path).expect("corpus bytes");
        let msg = codec::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        codec::validate(&msg).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(codec::encode(&msg), bytes, "{} must re-encode to itself", path.display());
        if let Message::Latency { pressure, .. } = msg {
            layouts[usize::from(pressure.is_some())] = true;
        }
        seeds += 1;
    }
    assert!(seeds >= 15, "the corpus holds a valid seed per layout, found {seeds}");
    assert_eq!(layouts, [true; 2], "both latency layouts have a seed");
}

fn wire_config(wire_mode: bool, corruption: f64, seed: u64) -> DistConfig {
    DistConfig {
        allocation: AllocationSettings { throughput_floor: false },
        network: lla::dist::NetworkModel::lossy(1.0, 2.0, 0.05),
        seed,
        wire_mode,
        corruption,
        ..DistConfig::default()
    }
}

/// The tentpole invariant: wire mode with zero corruption is *bit
/// identical* to a struct-passing run — the codec round trip is exact,
/// so turning it on changes nothing but the representation in flight.
#[test]
fn wire_mode_without_corruption_is_bit_identical() {
    let mut plain = DistributedLla::new(base_workload(), wire_config(false, 0.0, 42));
    let mut wired = DistributedLla::new(base_workload(), wire_config(true, 0.0, 42));
    plain.run_rounds(400);
    wired.run_rounds(400);

    assert_eq!(wired.frames_rejected(), 0, "nothing to reject without corruption");
    assert_eq!(wired.frames_corrupted(), 0);
    assert_eq!(plain.messages_sent(), wired.messages_sent());
    assert_eq!(plain.messages_dropped(), wired.messages_dropped());
    let (pu, wu) = (plain.utilities(), wired.utilities());
    assert_eq!(pu.len(), wu.len());
    for (round, (a, b)) in pu.iter().zip(wu).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "utility diverged at round {round}: {a} vs {b}");
    }
}

/// Survival through a 2% frame-corruption window: every malformed frame
/// is rejected (rejected + slipped == corrupted), no NaN ever reaches a
/// price, and once the window closes the deployment settles back to a
/// converging, feasible operating point on its own — the dual updates
/// keep re-broadcasting state, so validated rejection plus ordinary
/// protocol traffic is enough to wash the damage out. The corruptor
/// fixes checksums on fuzzed fields — an in-path attacker, not line
/// noise — so a handful of in-domain forgeries *will* be delivered; the
/// point is that the dynamics absorb them.
#[test]
fn corruption_soak_rejects_malformed_frames_and_reconverges() {
    let hub = TelemetryHub::recording();
    let tel = DistTelemetry::from_hub(&hub);
    // A comfortably schedulable deployment (the paper's base workload is
    // deliberately congested): the clean run genuinely converges, so the
    // post-window verdict isolates the corruption damage.
    let config = DistConfig { seed: 7, wire_mode: true, ..DistConfig::default() };
    let mut noisy = DistributedLla::with_telemetry(comfortable_problem(), config, tel);
    // Rounds are 10 virtual ms: corrupt rounds ~200..600, then recover.
    noisy.schedule_faults(&lla::dist::FaultPlan::new().corrupt_window(2_000.0, 4_000.0, 0.02));
    noisy.run_rounds(4_000);

    let corrupted = noisy.frames_corrupted();
    assert!(corrupted > 0, "a 2% rate over a 400-round window must corrupt something");
    assert_eq!(
        noisy.frames_rejected() + noisy.corrupted_delivered(),
        corrupted,
        "every corrupted frame is either rejected or decoded clean"
    );
    assert!(noisy.frames_rejected() > 0, "most corruption classes must be caught");

    // Sample a tail window well after the corruption window closed: the
    // deployment must read as converging and feasible again.
    let mut tail = DiagnosticsEngine::new();
    for _ in 0..16 {
        noisy.run_rounds(1);
        tail.push(noisy.diag_sample());
    }
    let d = tail.diagnose();
    assert_eq!(d.verdict, Verdict::Converging, "{}", d.render());
    let sample = noisy.diag_sample();
    assert!(
        sample.prices.iter().all(|p| p.is_finite()),
        "no corrupted frame may poison a price: {:?}",
        sample.prices
    );
    assert!(
        sample.worst_violation_factor <= 1.05,
        "post-window allocation must be feasible again: {}",
        sample.worst_violation_factor
    );
    let rejected_events =
        hub.events.snapshot().iter().filter(|e| e.kind == "frame_rejected").count() as u64;
    assert_eq!(rejected_events, noisy.frames_rejected(), "one event per rejection");
}

/// The supervisor quarantines a sender whose frames keep failing
/// validation, and releases it after the configured term with a dual
/// re-sync so the deployment warms back up.
#[test]
fn supervisor_quarantines_and_releases_corrupting_sender() {
    let hub = TelemetryHub::recording();
    let tel = DistTelemetry::from_hub(&hub);
    let mut dist = DistributedLla::with_telemetry(base_workload(), wire_config(true, 0.5, 11), tel);
    let mut sup = SupervisorEngine::new(SupervisorConfig::default());
    run_supervised(&mut dist, &mut sup, 300);

    let quarantines: Vec<_> =
        sup.actions().iter().filter(|a| a.kind == RemediationKind::Quarantine).collect();
    assert!(
        !quarantines.is_empty(),
        "half the frames corrupted must trip the quarantine threshold: {:?}",
        sup.actions()
    );
    assert!(dist.dist_telemetry().agent_quarantines.get() >= quarantines.len() as u64);
    assert!(dist.quarantine_drops() > 0, "quarantined senders must be silenced");
    let released = hub.events.snapshot().iter().filter(|e| e.kind == "agent_released").count();
    assert!(released > 0, "quarantine terms must expire and release");
}
