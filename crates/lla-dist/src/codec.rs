//! Validated wire codec for [`protocol::Message`](crate::protocol::Message).
//!
//! Every robustness layer before this one moved messages as in-memory Rust
//! structs: well-formed by construction. A real deployment (the ROADMAP's
//! wall-clock socket runtime) moves *bytes*, and bytes arrive truncated,
//! bit-flipped, or adversarially fuzzed. This module defines the frame
//! format those bytes will use and a strict `decode → validate` pipeline
//! that refuses to construct a [`Message`] from anything malformed — no
//! NaN price, negative latency, or absurd id ever crosses the codec
//! boundary into agent state.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────┬───────────┬─────────────┬──────────────┐
//! │ len: u32LE │ tag: u8   │ payload …   │ crc32: u32LE │
//! └────────────┴───────────┴─────────────┴──────────────┘
//!               `len` bytes (tag + payload)
//! ```
//!
//! * `len` — byte length of the body (tag + payload); bounded by
//!   [`MAX_BODY`] so a corrupted length prefix cannot demand gigabytes.
//! * `tag` — one byte per [`Message`] variant, in declaration order,
//!   then `0x10` for a [`Message::Latency`] that carries a pressure (the
//!   market-clearing protocol's): the same payload with the pressure
//!   appended, so the gradient protocol's latency frames keep their
//!   layout.
//! * `crc32` — IEEE CRC-32 over the body. Catches every single-bit flip
//!   (pinned exhaustively in tests) and all but ~2⁻³² of multi-bit burst
//!   errors.
//!
//! Integers are little-endian; floats travel as IEEE-754 bit patterns, so
//! `encode ∘ decode` is the identity (bit-exact — the property that makes
//! wire mode byte-identical to struct passing under zero corruption).
//!
//! ## Validation
//!
//! Decoding is only half the pipeline: a frame that parses still passes
//! through [`validate`], which enforces the *semantic* domain of every
//! field — finite floats, `μ_r ≥ 0`, latency `> 0`, `|pressure|` under
//! [`MAX_WIRE_PRICE`], availability in
//! `(0, 1]`, ids/epochs/sequences under sanity caps. This is the layer
//! that stops a "byzantine sender" (valid framing and checksum, garbage
//! values — modeled by the field-fuzz corruption in
//! [`FrameCorruptor`](crate::network::FrameCorruptor)) from poisoning
//! [`PriceState`](lla_core::PriceState).

use crate::protocol::{Address, Message};

/// Maximum accepted body (tag + payload) length in bytes. The largest
/// real message body is a full telemetry report at 143 bytes; the cap
/// bounds the damage of a corrupted length prefix.
pub const MAX_BODY: usize = 256;

/// Maximum accepted task/resource/subtask slot index on the wire.
pub const MAX_WIRE_ID: u32 = 1 << 20;

/// Maximum accepted epoch or sequence number on the wire.
pub const MAX_WIRE_SEQ: u64 = 1 << 48;

/// Maximum accepted replica count on the wire.
pub const MAX_WIRE_REPLICAS: u32 = 1 << 16;

/// Maximum accepted resource price `μ_r` on the wire. The cap rejects
/// garbage — near-overflow bit patterns one flip away from infinity —
/// without bounding the economics: under sustained corruption the dual
/// dynamics can legitimately drive finite prices through hundreds of
/// orders of magnitude before re-converging, and refusing those frames
/// would starve controllers of the very updates that restore agreement.
pub const MAX_WIRE_PRICE: f64 = 1e300;

/// Maximum accepted latency assignment (virtual ms) on the wire. Same
/// rationale as [`MAX_WIRE_PRICE`]: a garbage filter, not a domain bound.
pub const MAX_WIRE_LATENCY: f64 = 1e300;

/// Maximum accepted gamma-calm growth multiple on the wire.
pub const MAX_WIRE_MULTIPLE: f64 = 1e9;

/// Maximum accepted delta entries in one telemetry report. The fleet
/// metric dictionary is far smaller; the cap bounds a forged count byte.
pub const MAX_WIRE_REPORT_ENTRIES: usize = 24;

/// Maximum accepted dictionary slot index in a telemetry report delta.
pub const MAX_WIRE_REPORT_SLOT: u8 = 63;

/// Maximum accepted telemetry watermark (virtual ms) on the wire. Same
/// rationale as [`MAX_WIRE_PRICE`]: a garbage filter, not a domain bound.
pub const MAX_WIRE_WATERMARK: f64 = 1e300;

/// Frame-level overhead: length prefix (4) + trailing checksum (4).
pub const FRAME_OVERHEAD: usize = 8;

/// Why a frame was refused by [`decode`].
///
/// Every variant corresponds to a distinct failure layer: transport
/// (truncation, length, checksum), framing (tag, address, bool), and
/// semantics (non-finite or out-of-domain values).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FrameError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Bytes remain after a complete frame (or after a variant's payload
    /// inside the body).
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The length prefix is zero or exceeds [`MAX_BODY`].
    BadLength {
        /// The rejected body length.
        len: usize,
    },
    /// The trailing CRC-32 does not match the body.
    BadChecksum {
        /// Checksum computed over the received body.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// The tag byte names no known [`Message`] variant.
    UnknownTag {
        /// The rejected tag.
        tag: u8,
    },
    /// An address field carries an unknown address kind.
    BadAddress {
        /// The rejected address-kind byte.
        tag: u8,
    },
    /// A boolean field carries a byte other than 0 or 1.
    BadBool {
        /// The field name.
        field: &'static str,
        /// The rejected byte.
        value: u8,
    },
    /// A float field decoded to NaN or ±infinity.
    NonFiniteFloat {
        /// The field name.
        field: &'static str,
    },
    /// An integer field (id, epoch, seq, replicas) exceeds its wire cap
    /// or is below its minimum.
    OutOfRange {
        /// The field name.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A float field is finite but outside its semantic domain
    /// (e.g. negative price, zero latency, availability above 1).
    InvalidFloat {
        /// The field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "frame truncated: needs {needed} bytes, got {got}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            FrameError::BadLength { len } => write!(f, "bad body length {len}"),
            FrameError::BadChecksum { expected, got } => {
                write!(f, "checksum mismatch: computed {expected:#010x}, frame carries {got:#010x}")
            }
            FrameError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            FrameError::BadAddress { tag } => write!(f, "unknown address kind {tag:#04x}"),
            FrameError::BadBool { field, value } => {
                write!(f, "non-boolean byte {value} in `{field}`")
            }
            FrameError::NonFiniteFloat { field } => write!(f, "non-finite float in `{field}`"),
            FrameError::OutOfRange { field, value } => {
                write!(f, "value {value} out of range for `{field}`")
            }
            FrameError::InvalidFloat { field, value } => {
                write!(f, "value {value} outside the domain of `{field}`")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The short kebab-case layer a [`FrameError`] belongs to — used as a
/// telemetry event field so rejection events aggregate cleanly.
impl FrameError {
    /// Stable kebab-case name of the rejection cause.
    pub fn cause(&self) -> &'static str {
        match self {
            FrameError::Truncated { .. } => "truncated",
            FrameError::TrailingBytes { .. } => "trailing-bytes",
            FrameError::BadLength { .. } => "bad-length",
            FrameError::BadChecksum { .. } => "bad-checksum",
            FrameError::UnknownTag { .. } => "unknown-tag",
            FrameError::BadAddress { .. } => "bad-address",
            FrameError::BadBool { .. } => "bad-bool",
            FrameError::NonFiniteFloat { .. } => "non-finite-float",
            FrameError::OutOfRange { .. } => "out-of-range",
            FrameError::InvalidFloat { .. } => "invalid-float",
        }
    }
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 (the Ethernet/zip polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

const TAG_PRICE: u8 = 0x01;
const TAG_LATENCY: u8 = 0x02;
const TAG_AVAILABILITY_UPDATE: u8 = 0x03;
const TAG_AVAILABILITY_ACK: u8 = 0x04;
const TAG_TASK_JOIN: u8 = 0x05;
const TAG_TASK_LEAVE: u8 = 0x06;
const TAG_RESOURCE_JOIN: u8 = 0x07;
const TAG_RESOURCE_RETIRE: u8 = 0x08;
const TAG_EVICT: u8 = 0x09;
const TAG_MEMBERSHIP_ACK: u8 = 0x0A;
const TAG_REPLICA_UPDATE: u8 = 0x0B;
const TAG_GAMMA_CALM: u8 = 0x0C;
const TAG_DUAL_RESYNC: u8 = 0x0D;
const TAG_COMMAND_ACK: u8 = 0x0E;
const TAG_TELEMETRY_REPORT: u8 = 0x0F;
const TAG_LATENCY_PRESSURE: u8 = 0x10;

const ADDR_RESOURCE: u8 = 0x00;
const ADDR_CONTROLLER: u8 = 0x01;
const ADDR_CONTROL_PLANE: u8 = 0x02;
const ADDR_COLLECTOR: u8 = 0x03;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_id(buf: &mut Vec<u8>, id: usize) {
    let id = u32::try_from(id).expect("slot index exceeds the wire format's u32 range");
    put_u32(buf, id);
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_addr(buf: &mut Vec<u8>, addr: Address) {
    match addr {
        Address::Resource(r) => {
            buf.push(ADDR_RESOURCE);
            put_id(buf, r);
        }
        Address::Controller(t) => {
            buf.push(ADDR_CONTROLLER);
            put_id(buf, t);
        }
        Address::ControlPlane => {
            buf.push(ADDR_CONTROL_PLANE);
            put_u32(buf, 0);
        }
        Address::Collector => {
            buf.push(ADDR_COLLECTOR);
            put_u32(buf, 0);
        }
    }
}

/// Encodes `msg` into a complete length-prefixed, checksummed frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(32 + FRAME_OVERHEAD);
    encode_into(msg, &mut frame);
    frame
}

/// Encodes `msg` into `frame`, replacing its contents with exactly the
/// bytes [`encode`] returns. A caller that reuses one buffer across
/// messages encodes without allocating once the buffer has grown to the
/// largest frame.
pub fn encode_into(msg: &Message, frame: &mut Vec<u8>) {
    frame.clear();
    // Length prefix placeholder, patched once the body is written.
    put_u32(frame, 0);
    put_body(frame, msg);
    let len = frame.len() - 4;
    debug_assert!(len <= MAX_BODY);
    frame[..4].copy_from_slice(&u32::try_from(len).expect("body exceeds u32 range").to_le_bytes());
    let crc = crc32(&frame[4..]);
    put_u32(frame, crc);
}

/// Appends the body (tag + payload) of `msg` to `buf`.
fn put_body(buf: &mut Vec<u8>, msg: &Message) {
    match *msg {
        Message::Price { resource, mu, congested } => {
            buf.push(TAG_PRICE);
            put_id(buf, resource);
            put_f64(buf, mu);
            put_bool(buf, congested);
        }
        Message::Latency { task, subtask, latency, pressure } => {
            buf.push(if pressure.is_some() { TAG_LATENCY_PRESSURE } else { TAG_LATENCY });
            put_id(buf, task);
            put_id(buf, subtask);
            put_f64(buf, latency);
            if let Some(pressure) = pressure {
                put_f64(buf, pressure);
            }
        }
        Message::AvailabilityUpdate { resource, availability, seq } => {
            buf.push(TAG_AVAILABILITY_UPDATE);
            put_id(buf, resource);
            put_f64(buf, availability);
            put_u64(buf, seq);
        }
        Message::AvailabilityAck { resource, seq, from } => {
            buf.push(TAG_AVAILABILITY_ACK);
            put_id(buf, resource);
            put_u64(buf, seq);
            put_addr(buf, from);
        }
        Message::TaskJoin { slot, epoch, seq } => {
            buf.push(TAG_TASK_JOIN);
            put_id(buf, slot);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::TaskLeave { slot, epoch, seq } => {
            buf.push(TAG_TASK_LEAVE);
            put_id(buf, slot);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::ResourceJoin { slot, epoch, seq } => {
            buf.push(TAG_RESOURCE_JOIN);
            put_id(buf, slot);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::ResourceRetire { slot, epoch, seq } => {
            buf.push(TAG_RESOURCE_RETIRE);
            put_id(buf, slot);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::Evict { slot, epoch, seq } => {
            buf.push(TAG_EVICT);
            put_id(buf, slot);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::MembershipAck { epoch, seq, from } => {
            buf.push(TAG_MEMBERSHIP_ACK);
            put_u64(buf, epoch);
            put_u64(buf, seq);
            put_addr(buf, from);
        }
        Message::ReplicaUpdate { slot, replicas, epoch, seq } => {
            buf.push(TAG_REPLICA_UPDATE);
            put_id(buf, slot);
            put_u32(buf, replicas);
            put_u64(buf, epoch);
            put_u64(buf, seq);
        }
        Message::GammaCalm { max_multiple, seq } => {
            buf.push(TAG_GAMMA_CALM);
            put_f64(buf, max_multiple);
            put_u64(buf, seq);
        }
        Message::DualResync { seq } => {
            buf.push(TAG_DUAL_RESYNC);
            put_u64(buf, seq);
        }
        Message::CommandAck { seq, from } => {
            buf.push(TAG_COMMAND_ACK);
            put_u64(buf, seq);
            put_addr(buf, from);
        }
        Message::TelemetryReport { from, seq, watermark, ref deltas } => {
            buf.push(TAG_TELEMETRY_REPORT);
            put_addr(buf, from);
            put_u64(buf, seq);
            put_f64(buf, watermark);
            buf.push(u8::try_from(deltas.len()).expect("report entries exceed u8 range"));
            for &(slot, delta) in deltas {
                buf.push(slot);
                put_u32(buf, delta);
            }
        }
    }
}

/// Recomputes and rewrites the trailing CRC-32 of a structurally complete
/// frame in place.
///
/// Used by field-fuzz corruption injection to model a *byzantine sender*:
/// valid framing and checksum around garbage field values, so the frame
/// reaches the semantic validation layer instead of dying at the
/// transport layer. No-op on buffers too short to be a frame.
pub fn refresh_checksum(frame: &mut [u8]) {
    if frame.len() < FRAME_OVERHEAD {
        return;
    }
    let body_end = frame.len() - 4;
    let crc = crc32(&frame[4..body_end]);
    frame[body_end..].copy_from_slice(&crc.to_le_bytes());
}

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos + n;
        if end > self.buf.len() {
            return Err(FrameError::Truncated { needed: end, got: self.buf.len() });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn id(&mut self, field: &'static str) -> Result<usize, FrameError> {
        let v = self.u32()?;
        if v > MAX_WIRE_ID {
            return Err(FrameError::OutOfRange { field, value: u64::from(v) });
        }
        Ok(v as usize)
    }

    fn seq(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let v = self.u64()?;
        if v > MAX_WIRE_SEQ {
            return Err(FrameError::OutOfRange { field, value: v });
        }
        Ok(v)
    }

    fn boolean(&mut self, field: &'static str) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(FrameError::BadBool { field, value }),
        }
    }

    fn addr(&mut self) -> Result<Address, FrameError> {
        let kind = self.u8()?;
        let id = self.id("address id")?;
        match kind {
            ADDR_RESOURCE => Ok(Address::Resource(id)),
            ADDR_CONTROLLER => Ok(Address::Controller(id)),
            ADDR_CONTROL_PLANE => Ok(Address::ControlPlane),
            ADDR_COLLECTOR => Ok(Address::Collector),
            tag => Err(FrameError::BadAddress { tag }),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn finite(field: &'static str, v: f64) -> Result<f64, FrameError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(FrameError::NonFiniteFloat { field })
    }
}

fn in_domain(
    field: &'static str,
    v: f64,
    lo_excl: bool,
    lo: f64,
    hi: f64,
) -> Result<(), FrameError> {
    let below = if lo_excl { v <= lo } else { v < lo };
    if below || v > hi {
        return Err(FrameError::InvalidFloat { field, value: v });
    }
    Ok(())
}

/// Semantic validation of a (possibly decoded) message: every float must
/// be finite and inside its domain, every count inside its wire cap.
///
/// This is the second half of the `decode → validate` pipeline; it is
/// also usable standalone by agents that receive struct-passed messages
/// (non-wire mode) and want the same guardrails.
///
/// # Errors
///
/// Returns the [`FrameError`] describing the first violated constraint.
pub fn validate(msg: &Message) -> Result<(), FrameError> {
    match *msg {
        Message::Price { mu, .. } => {
            finite("price mu", mu)?;
            in_domain("price mu", mu, false, 0.0, MAX_WIRE_PRICE)?;
        }
        Message::Latency { latency, pressure, .. } => {
            finite("latency", latency)?;
            in_domain("latency", latency, true, 0.0, MAX_WIRE_LATENCY)?;
            if let Some(pressure) = pressure {
                finite("latency pressure", pressure)?;
                in_domain("latency pressure", pressure, false, -MAX_WIRE_PRICE, MAX_WIRE_PRICE)?;
            }
        }
        Message::AvailabilityUpdate { availability, .. } => {
            finite("availability", availability)?;
            in_domain("availability", availability, true, 0.0, 1.0)?;
        }
        Message::ReplicaUpdate { replicas, .. } => {
            if replicas == 0 || replicas > MAX_WIRE_REPLICAS {
                return Err(FrameError::OutOfRange {
                    field: "replicas",
                    value: u64::from(replicas),
                });
            }
        }
        Message::GammaCalm { max_multiple, .. } => {
            finite("gamma-calm max multiple", max_multiple)?;
            in_domain("gamma-calm max multiple", max_multiple, false, 1.0, MAX_WIRE_MULTIPLE)?;
        }
        Message::TelemetryReport { watermark, ref deltas, .. } => {
            finite("report watermark", watermark)?;
            in_domain("report watermark", watermark, false, 0.0, MAX_WIRE_WATERMARK)?;
            if deltas.len() > MAX_WIRE_REPORT_ENTRIES {
                return Err(FrameError::OutOfRange {
                    field: "report entries",
                    value: deltas.len() as u64,
                });
            }
            // Slots strictly increasing: rejects forged duplicates and
            // keeps the encoding canonical (one byte layout per report).
            let mut prev: Option<u8> = None;
            for &(slot, _) in deltas {
                if slot > MAX_WIRE_REPORT_SLOT {
                    return Err(FrameError::OutOfRange {
                        field: "report slot",
                        value: u64::from(slot),
                    });
                }
                if prev.is_some_and(|p| slot <= p) {
                    return Err(FrameError::OutOfRange {
                        field: "report slot order",
                        value: u64::from(slot),
                    });
                }
                prev = Some(slot);
            }
        }
        Message::AvailabilityAck { .. }
        | Message::TaskJoin { .. }
        | Message::TaskLeave { .. }
        | Message::ResourceJoin { .. }
        | Message::ResourceRetire { .. }
        | Message::Evict { .. }
        | Message::MembershipAck { .. }
        | Message::DualResync { .. }
        | Message::CommandAck { .. } => {}
    }
    Ok(())
}

/// Decodes and validates exactly one frame that must span the whole
/// buffer.
///
/// # Errors
///
/// Any [`FrameError`]; in particular [`FrameError::TrailingBytes`] if the
/// buffer continues past the frame.
pub fn decode(bytes: &[u8]) -> Result<Message, FrameError> {
    let (msg, used) = decode_frame(bytes)?;
    if used != bytes.len() {
        return Err(FrameError::TrailingBytes { extra: bytes.len() - used });
    }
    Ok(msg)
}

/// Decodes and validates one frame from the front of `bytes`, returning
/// the message and the number of bytes consumed (for stream decoding).
///
/// # Errors
///
/// Any [`FrameError`] raised by the transport, framing, or semantic
/// layer.
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), FrameError> {
    if bytes.len() < 4 {
        return Err(FrameError::Truncated { needed: 4, got: bytes.len() });
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len == 0 || len > MAX_BODY {
        return Err(FrameError::BadLength { len });
    }
    let total = 4 + len + 4;
    if bytes.len() < total {
        return Err(FrameError::Truncated { needed: total, got: bytes.len() });
    }
    let body = &bytes[4..4 + len];
    let carried = u32::from_le_bytes([
        bytes[4 + len],
        bytes[4 + len + 1],
        bytes[4 + len + 2],
        bytes[4 + len + 3],
    ]);
    let expected = crc32(body);
    if carried != expected {
        return Err(FrameError::BadChecksum { expected, got: carried });
    }
    let mut rd = Rd::new(body);
    let tag = rd.u8()?;
    let msg = match tag {
        TAG_PRICE => Message::Price {
            resource: rd.id("price resource")?,
            mu: rd.f64()?,
            congested: rd.boolean("price congested")?,
        },
        TAG_LATENCY | TAG_LATENCY_PRESSURE => Message::Latency {
            task: rd.id("latency task")?,
            subtask: rd.id("latency subtask")?,
            latency: rd.f64()?,
            pressure: if tag == TAG_LATENCY_PRESSURE { Some(rd.f64()?) } else { None },
        },
        TAG_AVAILABILITY_UPDATE => Message::AvailabilityUpdate {
            resource: rd.id("availability resource")?,
            availability: rd.f64()?,
            seq: rd.seq("availability seq")?,
        },
        TAG_AVAILABILITY_ACK => Message::AvailabilityAck {
            resource: rd.id("ack resource")?,
            seq: rd.seq("ack seq")?,
            from: rd.addr()?,
        },
        TAG_TASK_JOIN => Message::TaskJoin {
            slot: rd.id("join slot")?,
            epoch: rd.seq("join epoch")?,
            seq: rd.seq("join seq")?,
        },
        TAG_TASK_LEAVE => Message::TaskLeave {
            slot: rd.id("leave slot")?,
            epoch: rd.seq("leave epoch")?,
            seq: rd.seq("leave seq")?,
        },
        TAG_RESOURCE_JOIN => Message::ResourceJoin {
            slot: rd.id("join slot")?,
            epoch: rd.seq("join epoch")?,
            seq: rd.seq("join seq")?,
        },
        TAG_RESOURCE_RETIRE => Message::ResourceRetire {
            slot: rd.id("retire slot")?,
            epoch: rd.seq("retire epoch")?,
            seq: rd.seq("retire seq")?,
        },
        TAG_EVICT => Message::Evict {
            slot: rd.id("evict slot")?,
            epoch: rd.seq("evict epoch")?,
            seq: rd.seq("evict seq")?,
        },
        TAG_MEMBERSHIP_ACK => Message::MembershipAck {
            epoch: rd.seq("ack epoch")?,
            seq: rd.seq("ack seq")?,
            from: rd.addr()?,
        },
        TAG_REPLICA_UPDATE => Message::ReplicaUpdate {
            slot: rd.id("replica slot")?,
            replicas: rd.u32()?,
            epoch: rd.seq("replica epoch")?,
            seq: rd.seq("replica seq")?,
        },
        TAG_GAMMA_CALM => Message::GammaCalm { max_multiple: rd.f64()?, seq: rd.seq("calm seq")? },
        TAG_DUAL_RESYNC => Message::DualResync { seq: rd.seq("resync seq")? },
        TAG_COMMAND_ACK => Message::CommandAck { seq: rd.seq("ack seq")?, from: rd.addr()? },
        TAG_TELEMETRY_REPORT => {
            let from = rd.addr()?;
            let seq = rd.seq("report seq")?;
            let watermark = rd.f64()?;
            let count = rd.u8()? as usize;
            if count > MAX_WIRE_REPORT_ENTRIES {
                return Err(FrameError::OutOfRange {
                    field: "report entries",
                    value: count as u64,
                });
            }
            let mut deltas = Vec::with_capacity(count);
            for _ in 0..count {
                let slot = rd.u8()?;
                let delta = rd.u32()?;
                deltas.push((slot, delta));
            }
            Message::TelemetryReport { from, seq, watermark, deltas }
        }
        tag => return Err(FrameError::UnknownTag { tag }),
    };
    if rd.remaining() != 0 {
        return Err(FrameError::TrailingBytes { extra: rd.remaining() });
    }
    validate(&msg)?;
    Ok((msg, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Message> {
        let from = Address::Controller(3);
        vec![
            Message::Price { resource: 2, mu: 1.75, congested: true },
            Message::Latency { task: 1, subtask: 4, latency: 12.5, pressure: None },
            Message::Latency { task: 1, subtask: 4, latency: 12.5, pressure: Some(-0.75) },
            Message::AvailabilityUpdate { resource: 0, availability: 0.9, seq: 7 },
            Message::AvailabilityAck { resource: 0, seq: 7, from },
            Message::TaskJoin { slot: 5, epoch: 2, seq: 9 },
            Message::TaskLeave { slot: 5, epoch: 3, seq: 10 },
            Message::ResourceJoin { slot: 6, epoch: 4, seq: 11 },
            Message::ResourceRetire { slot: 6, epoch: 5, seq: 12 },
            Message::Evict { slot: 1, epoch: 6, seq: 13 },
            Message::MembershipAck { epoch: 6, seq: 13, from: Address::Resource(6) },
            Message::ReplicaUpdate { slot: 6, replicas: 3, epoch: 7, seq: 14 },
            Message::GammaCalm { max_multiple: 8.0, seq: 15 },
            Message::DualResync { seq: 16 },
            Message::CommandAck { seq: 16, from: Address::ControlPlane },
            Message::TelemetryReport {
                from: Address::Resource(2),
                seq: 17,
                watermark: 190.0,
                deltas: vec![(0, 19), (3, 2), (5, 40)],
            },
        ]
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_every_variant() {
        for msg in every_variant() {
            let frame = encode(&msg);
            let back = decode(&frame).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn encode_into_a_dirty_reused_buffer_matches_encode() {
        // Start from leftover bytes longer than any frame, then reuse the
        // one buffer for every variant, largest and smallest in turn.
        let mut buf = vec![0xA5; 2 * MAX_BODY];
        for msg in every_variant().iter().chain(every_variant().iter().rev()) {
            encode_into(msg, &mut buf);
            assert_eq!(buf, encode(msg), "{msg:?}");
        }
    }

    #[test]
    fn round_trip_preserves_float_bits_exactly() {
        let mu = 0.1 + 0.2; // a value with a non-terminating binary tail
        let frame = encode(&Message::Price { resource: 0, mu, congested: false });
        match decode(&frame).unwrap() {
            Message::Price { mu: back, .. } => assert_eq!(back.to_bits(), mu.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for msg in every_variant() {
            let frame = encode(&msg);
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode(&bad).is_err(),
                        "flip of byte {byte} bit {bit} in {msg:?} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for msg in every_variant() {
            let frame = encode(&msg);
            for cut in 0..frame.len() {
                assert!(decode(&frame[..cut]).is_err(), "prefix {cut} of {msg:?} decoded");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode(&Message::DualResync { seq: 1 });
        frame.push(0xAA);
        assert_eq!(decode(&frame), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let mut frame = encode(&Message::DualResync { seq: 1 });
        frame[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::BadLength { len: 0 }));
        let huge = u32::try_from(MAX_BODY + 1).unwrap();
        frame[..4].copy_from_slice(&huge.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::BadLength { len: MAX_BODY + 1 }));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut frame = encode(&Message::DualResync { seq: 1 });
        frame[4] = 0xFF;
        refresh_checksum(&mut frame);
        assert_eq!(decode(&frame), Err(FrameError::UnknownTag { tag: 0xFF }));
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = encode(&Message::Price { resource: 0, mu: bad, congested: false });
            assert_eq!(decode(&frame), Err(FrameError::NonFiniteFloat { field: "price mu" }));
            let frame = encode(&Message::Latency {
                task: 0,
                subtask: 0,
                latency: 1.0,
                pressure: Some(bad),
            });
            assert_eq!(
                decode(&frame),
                Err(FrameError::NonFiniteFloat { field: "latency pressure" })
            );
        }
    }

    #[test]
    fn out_of_domain_floats_are_rejected() {
        let cases = [
            Message::Price { resource: 0, mu: -1.0, congested: false },
            Message::Price { resource: 0, mu: MAX_WIRE_PRICE * 2.0, congested: false },
            Message::Latency { task: 0, subtask: 0, latency: 0.0, pressure: None },
            Message::Latency { task: 0, subtask: 0, latency: -2.0, pressure: Some(1.0) },
            Message::Latency { task: 0, subtask: 0, latency: 1.0, pressure: Some(-2e300) },
            Message::AvailabilityUpdate { resource: 0, availability: 0.0, seq: 1 },
            Message::AvailabilityUpdate { resource: 0, availability: 1.5, seq: 1 },
            Message::GammaCalm { max_multiple: 0.5, seq: 1 },
        ];
        for msg in cases {
            let frame = encode(&msg);
            match decode(&frame) {
                Err(FrameError::InvalidFloat { .. }) => {}
                other => panic!("{msg:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_ids_and_seqs_are_rejected() {
        let frame = encode(&Message::Price {
            resource: MAX_WIRE_ID as usize + 1,
            mu: 1.0,
            congested: false,
        });
        assert!(matches!(
            decode(&frame),
            Err(FrameError::OutOfRange { field: "price resource", .. })
        ));
        let frame = encode(&Message::DualResync { seq: MAX_WIRE_SEQ + 1 });
        assert!(matches!(decode(&frame), Err(FrameError::OutOfRange { field: "resync seq", .. })));
        let frame = encode(&Message::ReplicaUpdate { slot: 0, replicas: 0, epoch: 1, seq: 1 });
        assert!(matches!(
            decode(&frame),
            Err(FrameError::OutOfRange { field: "replicas", value: 0 })
        ));
    }

    #[test]
    fn bad_bool_and_bad_address_are_rejected() {
        let mut frame = encode(&Message::Price { resource: 0, mu: 1.0, congested: false });
        let congested_at = frame.len() - 4 - 1; // last body byte
        frame[congested_at] = 7;
        refresh_checksum(&mut frame);
        assert_eq!(decode(&frame), Err(FrameError::BadBool { field: "price congested", value: 7 }));

        let mut frame = encode(&Message::CommandAck { seq: 1, from: Address::ControlPlane });
        let addr_kind_at = 4 + 1 + 8; // len prefix + tag + seq
        frame[addr_kind_at] = 9;
        refresh_checksum(&mut frame);
        assert_eq!(decode(&frame), Err(FrameError::BadAddress { tag: 9 }));
    }

    #[test]
    fn decode_frame_reports_consumed_length_for_streams() {
        let a = encode(&Message::DualResync { seq: 1 });
        let b = encode(&Message::GammaCalm { max_multiple: 4.0, seq: 2 });
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (m1, used) = decode_frame(&stream).unwrap();
        assert_eq!(m1, Message::DualResync { seq: 1 });
        assert_eq!(used, a.len());
        let (m2, used2) = decode_frame(&stream[used..]).unwrap();
        assert_eq!(m2, Message::GammaCalm { max_multiple: 4.0, seq: 2 });
        assert_eq!(used2, b.len());
    }

    #[test]
    fn validate_rejects_struct_passed_poison() {
        assert!(validate(&Message::Price { resource: 0, mu: f64::NAN, congested: false }).is_err());
        assert!(validate(&Message::Latency { task: 0, subtask: 0, latency: -1.0, pressure: None })
            .is_err());
        let pressure =
            |p| Message::Latency { task: 0, subtask: 0, latency: 1.0, pressure: Some(p) };
        assert!(validate(&pressure(f64::NAN)).is_err());
        assert!(validate(&pressure(-MAX_WIRE_PRICE)).is_ok());
        assert!(validate(&Message::DualResync { seq: 3 }).is_ok());
    }

    #[test]
    fn telemetry_report_garbage_is_rejected() {
        let base = |deltas: Vec<(u8, u32)>| Message::TelemetryReport {
            from: Address::Resource(0),
            seq: 1,
            watermark: 10.0,
            deltas,
        };
        // Non-increasing slots (dup or out of order) are forged layouts.
        for deltas in [vec![(3, 1), (3, 2)], vec![(5, 1), (2, 2)]] {
            assert!(matches!(
                validate(&base(deltas)),
                Err(FrameError::OutOfRange { field: "report slot order", .. })
            ));
        }
        assert!(matches!(
            validate(&base(vec![(MAX_WIRE_REPORT_SLOT + 1, 1)])),
            Err(FrameError::OutOfRange { field: "report slot", .. })
        ));
        let too_many: Vec<(u8, u32)> =
            (0..=MAX_WIRE_REPORT_ENTRIES as u8).map(|i| (i, 1)).collect();
        assert!(matches!(
            validate(&base(too_many)),
            Err(FrameError::OutOfRange { field: "report entries", .. })
        ));
        let mut bad = base(vec![]);
        if let Message::TelemetryReport { watermark, .. } = &mut bad {
            *watermark = f64::NAN;
        }
        assert!(matches!(
            validate(&bad),
            Err(FrameError::NonFiniteFloat { field: "report watermark" })
        ));
    }

    #[test]
    fn full_size_telemetry_report_fits_the_body_cap() {
        let deltas: Vec<(u8, u32)> =
            (0..MAX_WIRE_REPORT_ENTRIES as u8).map(|i| (i, u32::MAX)).collect();
        let msg = Message::TelemetryReport {
            from: Address::Collector,
            seq: MAX_WIRE_SEQ,
            watermark: MAX_WIRE_WATERMARK,
            deltas,
        };
        let frame = encode(&msg);
        assert!(frame.len() - FRAME_OVERHEAD <= MAX_BODY, "{} bytes", frame.len());
        assert_eq!(decode(&frame).unwrap(), msg);
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let e = FrameError::BadLength { len: 0 };
        assert!(!e.to_string().is_empty());
        assert!(!e.to_string().ends_with('.'));
        assert_eq!(e.cause(), "bad-length");
    }
}
