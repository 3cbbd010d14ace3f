//! The length-prefixed localhost TCP protocol of the resident service.
//!
//! Framing: every message is `[len: u32 LE][tag: u8][body]`, where
//! `len` counts the tag plus body bytes. Integers are little-endian;
//! `f64` values travel as their IEEE-754 bit pattern (`to_bits`), so a
//! device's transition levels round-trip bit-exactly and the verdicts a
//! client reads are bit-identical to an in-process
//! [`Screener::run`](bist_core::screener::Screener::run).
//!
//! Client → server frames: [`ClientFrame::Submit`] (one device),
//! [`ClientFrame::Telemetry`] (request a snapshot),
//! [`ClientFrame::Done`] (no more submissions — answer with
//! [`ServerFrame::Finished`] once every accepted verdict has been
//! delivered). Server → client: [`ServerFrame::Ack`] per submission
//! (accepted / busy / rejected), [`ServerFrame::Verdict`] as each
//! device latches, [`ServerFrame::Telemetry`] (flat-JSON snapshot) and
//! [`ServerFrame::Finished`].
//!
//! Decoding is total: malformed bytes yield a [`ProtoError`], never a
//! panic — a submission is validated (resolution range, transition
//! count/order/finiteness, reference range) before any constructor
//! that asserts is called.

use std::fmt;
use std::io::{self, Read, Write};

use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::dynamic::DynamicVerdict;
use bist_core::harness::BistVerdict;
use bist_core::sequencer::{SeqDecision, SeqOutcome};
use bist_core::shard::{JobKind, ShardVerdict};
use bist_core::ScreenVerdict;

use crate::service::Submission;

/// Hard cap on one frame's payload. Bounds per-connection memory and
/// caps wire submissions at 18-bit devices (2^18 − 1 transition levels
/// ≈ 2 MiB); higher resolutions screen through the in-process door.
pub const MAX_FRAME: usize = 1 << 22;

/// Frames up to this many bytes are read into a buffer sized up front;
/// a longer one grows its buffer only as its bytes arrive, so a length
/// prefix alone cannot claim [`MAX_FRAME`] bytes of memory.
const EAGER_FRAME: usize = 1 << 16;

/// Largest device resolution accepted over the wire (see
/// [`MAX_FRAME`]).
pub const MAX_WIRE_BITS: u32 = 18;

/// Submission acknowledgement status carried by [`ServerFrame::Ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Queued; a verdict will stream back.
    Accepted,
    /// The submission queue is full — retry after draining verdicts.
    Busy,
    /// The service cannot screen this submission (workload not
    /// resident, or the service is shutting down). Never retried.
    Rejected,
}

/// A frame the client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Submit one device for screening.
    Submit(Submission),
    /// Request a telemetry snapshot.
    Telemetry,
    /// No more submissions; deliver remaining verdicts then finish.
    Done,
}

/// A frame the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Acknowledges one submission by id.
    Ack {
        /// The submission id being acknowledged.
        id: u64,
        /// Whether it was queued, turned away busy, or rejected.
        status: AckStatus,
    },
    /// One device's verdict, tagged with its submission id.
    Verdict(ShardVerdict),
    /// A telemetry snapshot as flat perf-record JSON.
    Telemetry(String),
    /// All accepted verdicts have been delivered.
    Finished,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the advertised fields.
    Truncated,
    /// Bytes remained after the last field.
    Trailing,
    /// Unknown frame tag.
    BadTag(u8),
    /// A submission failed validation.
    BadSubmission(&'static str),
    /// A telemetry payload was not UTF-8.
    BadUtf8,
    /// An enum discriminant was out of range.
    BadValue(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::Trailing => write!(f, "trailing bytes after frame body"),
            ProtoError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            ProtoError::BadSubmission(why) => write!(f, "invalid submission: {why}"),
            ProtoError::BadUtf8 => write!(f, "telemetry payload is not UTF-8"),
            ProtoError::BadValue(what) => write!(f, "field out of range: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Reads one length-prefixed frame into `buf`, returning `None` on a
/// clean EOF at a frame boundary.
pub fn read_frame<'a>(r: &mut impl Read, buf: &'a mut Vec<u8>) -> io::Result<Option<&'a [u8]>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < len_bytes.len() {
        let n = r.read(&mut len_bytes[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            };
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    if len <= EAGER_FRAME {
        buf.resize(len, 0);
        r.read_exact(buf)?;
    } else {
        buf.clear();
        if r.take(len as u64).read_to_end(buf)? < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame body",
            ));
        }
    }
    Ok(Some(&buf[..]))
}

/// Writes one length-prefixed frame (`payload` = tag + body). An empty
/// or over-[`MAX_FRAME`] payload fails here at the sender with
/// [`io::ErrorKind::InvalidInput`] — framing it anyway would make the
/// peer abort the whole session with `InvalidData` (and a payload past
/// `u32::MAX` would silently wrap in the length prefix).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} outside 1..={MAX_FRAME}", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.at).ok_or(ProtoError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.at.checked_add(4).ok_or(ProtoError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(ProtoError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.at.checked_add(8).ok_or(ProtoError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(ProtoError::Truncated)?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Trailing)
        }
    }
}

const TAG_SUBMIT: u8 = 0x01;
const TAG_CLIENT_TELEMETRY: u8 = 0x02;
const TAG_DONE: u8 = 0x03;
const TAG_ACK: u8 = 0x81;
const TAG_VERDICT: u8 = 0x82;
const TAG_SERVER_TELEMETRY: u8 = 0x83;
const TAG_FINISHED: u8 = 0x84;

impl ClientFrame {
    /// Appends the frame's tag + body to `out` (cleared first).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            ClientFrame::Submit(sub) => {
                out.push(TAG_SUBMIT);
                out.extend_from_slice(&sub.id.to_le_bytes());
                out.push(match sub.kind {
                    JobKind::Static => 0,
                    JobKind::Dynamic => 1,
                });
                out.extend_from_slice(&sub.seed.to_le_bytes());
                out.push(sub.adc.resolution().bits() as u8);
                out.extend_from_slice(&sub.adc.low().0.to_bits().to_le_bytes());
                out.extend_from_slice(&sub.adc.high().0.to_bits().to_le_bytes());
                let transitions = sub.adc.transitions();
                out.extend_from_slice(&(transitions.len() as u32).to_le_bytes());
                for t in transitions {
                    out.extend_from_slice(&t.to_bits().to_le_bytes());
                }
            }
            ClientFrame::Telemetry => out.push(TAG_CLIENT_TELEMETRY),
            ClientFrame::Done => out.push(TAG_DONE),
        }
    }

    /// Decodes a client frame from one framed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let frame = match tag {
            TAG_SUBMIT => {
                let id = c.u64()?;
                let kind = match c.u8()? {
                    0 => JobKind::Static,
                    1 => JobKind::Dynamic,
                    _ => return Err(ProtoError::BadValue("job kind")),
                };
                let seed = c.u64()?;
                let bits = u32::from(c.u8()?);
                if bits == 0 || bits > MAX_WIRE_BITS {
                    return Err(ProtoError::BadSubmission("resolution outside 1..=18 bits"));
                }
                let resolution = Resolution::new(bits)
                    .map_err(|_| ProtoError::BadSubmission("invalid resolution"))?;
                let low = c.f64()?;
                let high = c.f64()?;
                if !(low.is_finite() && high.is_finite() && low < high) {
                    return Err(ProtoError::BadSubmission(
                        "reference range must be finite and ordered",
                    ));
                }
                let count = c.u32()? as usize;
                if count != resolution.transition_count() as usize {
                    return Err(ProtoError::BadSubmission("transition count mismatch"));
                }
                let mut transitions = Vec::with_capacity(count);
                for _ in 0..count {
                    transitions.push(c.f64()?);
                }
                if !transitions.iter().all(|t| t.is_finite()) {
                    return Err(ProtoError::BadSubmission("non-finite transition level"));
                }
                if !transitions.windows(2).all(|w| w[0] <= w[1]) {
                    return Err(ProtoError::BadSubmission(
                        "transition levels must be non-decreasing",
                    ));
                }
                let adc = TransferFunction::from_transitions(
                    resolution,
                    Volts(low),
                    Volts(high),
                    transitions,
                );
                ClientFrame::Submit(Submission {
                    id,
                    kind,
                    adc,
                    seed,
                })
            }
            TAG_CLIENT_TELEMETRY => ClientFrame::Telemetry,
            TAG_DONE => ClientFrame::Done,
            other => return Err(ProtoError::BadTag(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

fn encode_decision(decision: SeqDecision, out: &mut Vec<u8>) {
    let (tag, at) = match decision {
        SeqDecision::Continue => (0u8, 0u64),
        SeqDecision::AcceptEarly(at) => (1, at),
        SeqDecision::RejectEarly(at) => (2, at),
    };
    out.push(tag);
    out.extend_from_slice(&at.to_le_bytes());
}

fn decode_decision(c: &mut Cursor<'_>) -> Result<SeqDecision, ProtoError> {
    let tag = c.u8()?;
    let at = c.u64()?;
    match tag {
        0 => Ok(SeqDecision::Continue),
        1 => Ok(SeqDecision::AcceptEarly(at)),
        2 => Ok(SeqDecision::RejectEarly(at)),
        _ => Err(ProtoError::BadValue("sequencer decision")),
    }
}

impl ServerFrame {
    /// Appends the frame's tag + body to `out` (cleared first).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            ServerFrame::Ack { id, status } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(match status {
                    AckStatus::Accepted => 1,
                    AckStatus::Busy => 0,
                    AckStatus::Rejected => 2,
                });
            }
            ServerFrame::Verdict(v) => {
                out.push(TAG_VERDICT);
                out.extend_from_slice(&v.id.to_le_bytes());
                match &v.verdict {
                    ScreenVerdict::Static(o) => {
                        out.push(0);
                        encode_decision(o.decision, out);
                        for field in [
                            o.verdict.codes_judged,
                            o.verdict.dnl_failures,
                            o.verdict.inl_failures,
                            o.verdict.functional_checks,
                            o.verdict.functional_mismatches,
                            o.verdict.expected_codes,
                            o.verdict.samples,
                        ] {
                            out.extend_from_slice(&field.to_le_bytes());
                        }
                    }
                    ScreenVerdict::Dynamic(o) => {
                        out.push(1);
                        encode_decision(o.decision, out);
                        for field in [
                            o.verdict.sinad_db,
                            o.verdict.thd_db,
                            o.verdict.enob,
                            o.verdict.noise_power_lsb2,
                        ] {
                            out.extend_from_slice(&field.to_bits().to_le_bytes());
                        }
                        out.extend_from_slice(&o.verdict.samples.to_le_bytes());
                        out.extend_from_slice(&o.verdict.expected_samples.to_le_bytes());
                        let checks = &o.verdict.checks;
                        let mask = u8::from(checks.complete)
                            | u8::from(checks.sinad) << 1
                            | u8::from(checks.thd) << 2
                            | u8::from(checks.enob) << 3
                            | u8::from(checks.noise) << 4;
                        out.push(mask);
                    }
                }
            }
            ServerFrame::Telemetry(json) => {
                out.push(TAG_SERVER_TELEMETRY);
                out.extend_from_slice(json.as_bytes());
            }
            ServerFrame::Finished => out.push(TAG_FINISHED),
        }
    }

    /// Decodes a server frame from one framed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let frame = match tag {
            TAG_ACK => {
                let id = c.u64()?;
                let status = match c.u8()? {
                    1 => AckStatus::Accepted,
                    0 => AckStatus::Busy,
                    2 => AckStatus::Rejected,
                    _ => return Err(ProtoError::BadValue("ack status")),
                };
                ServerFrame::Ack { id, status }
            }
            TAG_VERDICT => {
                let id = c.u64()?;
                let verdict = match c.u8()? {
                    0 => {
                        let decision = decode_decision(&mut c)?;
                        ScreenVerdict::Static(SeqOutcome {
                            decision,
                            verdict: BistVerdict {
                                codes_judged: c.u64()?,
                                dnl_failures: c.u64()?,
                                inl_failures: c.u64()?,
                                functional_checks: c.u64()?,
                                functional_mismatches: c.u64()?,
                                expected_codes: c.u64()?,
                                samples: c.u64()?,
                            },
                        })
                    }
                    1 => {
                        let decision = decode_decision(&mut c)?;
                        let sinad_db = c.f64()?;
                        let thd_db = c.f64()?;
                        let enob = c.f64()?;
                        let noise_power_lsb2 = c.f64()?;
                        let samples = c.u64()?;
                        let expected_samples = c.u64()?;
                        let mask = c.u8()?;
                        ScreenVerdict::Dynamic(SeqOutcome {
                            decision,
                            verdict: DynamicVerdict {
                                sinad_db,
                                thd_db,
                                enob,
                                noise_power_lsb2,
                                samples,
                                expected_samples,
                                checks: bist_core::DynChecks {
                                    complete: mask & 1 != 0,
                                    sinad: mask & 2 != 0,
                                    thd: mask & 4 != 0,
                                    enob: mask & 8 != 0,
                                    noise: mask & 16 != 0,
                                },
                            },
                        })
                    }
                    _ => return Err(ProtoError::BadValue("verdict kind")),
                };
                ServerFrame::Verdict(ShardVerdict { id, verdict })
            }
            TAG_SERVER_TELEMETRY => {
                let json = std::str::from_utf8(c.rest()).map_err(|_| ProtoError::BadUtf8)?;
                ServerFrame::Telemetry(json.to_owned())
            }
            TAG_FINISHED => ServerFrame::Finished,
            other => return Err(ProtoError::BadTag(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}
