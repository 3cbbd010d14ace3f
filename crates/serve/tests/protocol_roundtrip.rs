//! Wire-protocol totality: every frame round-trips bit-exactly through
//! encode→decode, and malformed bytes produce typed errors — never a
//! panic, never a partial parse accepted.

use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use bist_core::dynamic::DynamicVerdict;
use bist_core::harness::BistVerdict;
use bist_core::sequencer::{SeqDecision, SeqOutcome};
use bist_core::shard::ShardVerdict;
use bist_core::{DynChecks, ScreenVerdict};
use bist_mc::batch::Batch;
use bist_serve::protocol::{read_frame, write_frame, MAX_FRAME};
use bist_serve::{AckStatus, ClientFrame, JobKind, ProtoError, ServerFrame, Submission};
use proptest::prelude::*;

fn decision(tag: u8, at: u64) -> SeqDecision {
    match tag % 3 {
        0 => SeqDecision::Continue,
        1 => SeqDecision::AcceptEarly(at),
        _ => SeqDecision::RejectEarly(at),
    }
}

fn submit_frame(id: u64, seed: u64, device_seed: u64, dynamic: bool) -> ClientFrame {
    ClientFrame::Submit(Submission {
        id,
        kind: if dynamic {
            JobKind::Dynamic
        } else {
            JobKind::Static
        },
        adc: Batch::paper_simulation(device_seed, 1).device(0),
        seed,
    })
}

/// A static or dynamic verdict frame whose fields derive from `a`, `b`,
/// `c` (counters), `sinad`/`thd` (metrics) and `mask` (dynamic checks).
#[allow(clippy::too_many_arguments)]
fn verdict_frame(
    id: u64,
    dec_tag: u8,
    at: u64,
    [a, b, c]: [u64; 3],
    sinad: i32,
    thd: i32,
    mask: u8,
    dynamic: bool,
) -> ServerFrame {
    let verdict = if dynamic {
        ScreenVerdict::Dynamic(SeqOutcome {
            decision: decision(dec_tag, at),
            verdict: DynamicVerdict {
                sinad_db: f64::from(sinad) / 3.0,
                thd_db: f64::from(thd) / 7.0,
                enob: f64::from(sinad - thd) / 11.0,
                noise_power_lsb2: f64::from(thd).abs() / 13.0,
                samples: a,
                expected_samples: b,
                checks: DynChecks {
                    complete: mask & 1 != 0,
                    sinad: mask & 2 != 0,
                    thd: mask & 4 != 0,
                    enob: mask & 8 != 0,
                    noise: mask & 16 != 0,
                },
            },
        })
    } else {
        ScreenVerdict::Static(SeqOutcome {
            decision: decision(dec_tag, at),
            verdict: BistVerdict {
                codes_judged: a,
                dnl_failures: b % 64,
                inl_failures: c % 64,
                functional_checks: c,
                functional_mismatches: b % 7,
                expected_codes: a % 65,
                samples: b,
            },
        })
    };
    ServerFrame::Verdict(ShardVerdict { id, verdict })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Submissions — mismatched transfer functions included —
    /// round-trip bit-exactly.
    #[test]
    fn submit_roundtrips(
        id in any::<u64>(),
        seed in any::<u64>(),
        device_seed in any::<u64>(),
        dynamic in any::<bool>(),
    ) {
        let frame = submit_frame(id, seed, device_seed, dynamic);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        prop_assert_eq!(ClientFrame::decode(&buf).expect("round-trip"), frame);
    }

    /// Static and dynamic verdicts round-trip bit-exactly, early-stop
    /// decisions included.
    #[test]
    fn verdict_roundtrips(
        id in any::<u64>(),
        dec_tag in any::<u8>(),
        at in any::<u64>(),
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
        sinad in -200i32..200, thd in -200i32..200,
        mask in 0u8..32,
        dynamic in any::<bool>(),
    ) {
        let frame = verdict_frame(id, dec_tag, at, [a, b, c], sinad, thd, mask, dynamic);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        prop_assert_eq!(ServerFrame::decode(&buf).expect("round-trip"), frame);
    }
}

/// Every control frame, client side then server side.
fn control_frames() -> ([ClientFrame; 2], [ServerFrame; 5]) {
    let server = [
        ServerFrame::Ack {
            id: 7,
            status: AckStatus::Accepted,
        },
        ServerFrame::Ack {
            id: 8,
            status: AckStatus::Busy,
        },
        ServerFrame::Ack {
            id: 9,
            status: AckStatus::Rejected,
        },
        ServerFrame::Telemetry("{\"metrics\": {}}".to_owned()),
        ServerFrame::Finished,
    ];
    ([ClientFrame::Telemetry, ClientFrame::Done], server)
}

#[test]
fn control_frames_roundtrip() {
    let mut buf = Vec::new();
    let (client, server) = control_frames();
    for frame in client {
        frame.encode(&mut buf);
        assert_eq!(ClientFrame::decode(&buf).unwrap(), frame);
    }
    for frame in server {
        frame.encode(&mut buf);
        assert_eq!(ServerFrame::decode(&buf).unwrap(), frame);
    }
}

#[test]
fn malformed_frames_error_without_panicking() {
    // Unknown tags.
    assert_eq!(ClientFrame::decode(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
    assert_eq!(ServerFrame::decode(&[0x10]), Err(ProtoError::BadTag(0x10)));
    // Empty payload.
    assert_eq!(ClientFrame::decode(&[]), Err(ProtoError::Truncated));
    // Trailing bytes.
    assert_eq!(
        ClientFrame::decode(&[0x03, 0x00]),
        Err(ProtoError::Trailing)
    );
    // Truncated submission.
    let sub = Submission {
        id: 1,
        kind: JobKind::Static,
        adc: TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)),
        seed: 2,
    };
    let mut buf = Vec::new();
    ClientFrame::Submit(sub).encode(&mut buf);
    assert_eq!(
        ClientFrame::decode(&buf[..buf.len() - 3]),
        Err(ProtoError::Truncated)
    );
    // Transition-count mismatch: claim 7-bit resolution on a 6-bit body.
    // The resolution byte sits after tag(1) + id(8) + kind(1) + seed(8).
    let mut lying = buf.clone();
    lying[18] = 7;
    assert!(matches!(
        ClientFrame::decode(&lying),
        Err(ProtoError::BadSubmission(_))
    ));
    // Resolution outside the wire range.
    let mut zero_bits = buf.clone();
    zero_bits[18] = 0;
    assert!(matches!(
        ClientFrame::decode(&zero_bits),
        Err(ProtoError::BadSubmission(_))
    ));
    // Non-monotone transitions: swap the first two levels. They start
    // after the header (19 bytes) + low/high f64s (16) + count u32 (4).
    let mut swapped = buf.clone();
    let (lo, hi) = (39, 39 + 8);
    let tmp: Vec<u8> = swapped[lo..lo + 8].to_vec();
    let next: Vec<u8> = swapped[hi..hi + 8].to_vec();
    swapped[lo..lo + 8].copy_from_slice(&next);
    swapped[hi..hi + 8].copy_from_slice(&tmp);
    assert!(matches!(
        ClientFrame::decode(&swapped),
        Err(ProtoError::BadSubmission(_))
    ));
}

#[test]
fn framing_reads_what_it_writes() {
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    let frames = [ClientFrame::Telemetry, ClientFrame::Done];
    for frame in &frames {
        frame.encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();
    }
    let mut reader = &wire[..];
    let mut buf = Vec::new();
    for expect in &frames {
        let bytes = read_frame(&mut reader, &mut buf).unwrap().expect("frame");
        assert_eq!(&ClientFrame::decode(bytes).unwrap(), expect);
    }
    assert!(
        read_frame(&mut reader, &mut buf).unwrap().is_none(),
        "clean EOF at a frame boundary"
    );
}

#[test]
fn framing_rejects_oversize_and_truncation() {
    // Oversized length prefix.
    let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
    let mut reader = &huge[..];
    let mut buf = Vec::new();
    assert!(read_frame(&mut reader, &mut buf).is_err());
    // Zero-length frame.
    let zero = 0u32.to_le_bytes();
    let mut reader = &zero[..];
    assert!(read_frame(&mut reader, &mut buf).is_err());
    // EOF inside the length prefix.
    let partial = [5u8, 0];
    let mut reader = &partial[..];
    assert!(read_frame(&mut reader, &mut buf).is_err());
    // EOF inside the body.
    let mut wire = Vec::new();
    write_frame(&mut wire, &[0x03]).unwrap();
    wire.pop();
    let mut reader = &wire[..];
    assert!(read_frame(&mut reader, &mut buf).is_err());
}

#[test]
fn a_length_prefix_alone_claims_no_frame_buffer() {
    // The peer announces the largest frame, sends 16 body bytes and
    // closes: the read fails, and the buffer grew only with what came.
    let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0x01; 16]);
    let mut reader = &wire[..];
    let mut buf = Vec::new();
    let err = read_frame(&mut reader, &mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(buf.capacity() < 1 << 16, "capacity {}", buf.capacity());
    // A large frame that does arrive reads back whole.
    let payload: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut reader = &wire[..];
    assert_eq!(
        read_frame(&mut reader, &mut buf).unwrap(),
        Some(&payload[..])
    );
}

#[test]
fn writer_rejects_out_of_bounds_payloads() {
    // The sender fails fast (InvalidInput) instead of framing a
    // payload the peer would abort the session over.
    let mut wire = Vec::new();
    let err = write_frame(&mut wire, &[]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let oversize = vec![0u8; MAX_FRAME + 1];
    let err = write_frame(&mut wire, &oversize).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(wire.is_empty(), "nothing hits the wire on a rejected frame");
}

/// Every prefix truncation and every single-bit flip of `frame` must
/// decode to `Ok` or a typed `ProtoError` (a panic fails the test), and
/// every `Ok` must re-encode to bytes that decode back to the same
/// frame. Frames are compared by their encoding, which is bit-exact
/// (a flipped exponent bit may decode to a NaN metric).
fn fuzz_decoder<F>(
    frame: &[u8],
    decode: fn(&[u8]) -> Result<F, ProtoError>,
    encode: fn(&F, &mut Vec<u8>),
) {
    let truncations = (0..frame.len()).map(|n| frame[..n].to_vec());
    let flips = (0..frame.len() * 8).map(|bit| {
        let mut flipped = frame.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    for input in truncations.chain(flips) {
        if let Ok(decoded) = decode(&input) {
            let (mut once, mut twice) = (Vec::new(), Vec::new());
            encode(&decoded, &mut once);
            let again = decode(&once).expect("a re-encoded frame decodes");
            encode(&again, &mut twice);
            assert_eq!(
                once, twice,
                "decode(encode(frame)) != frame for {input:02x?}"
            );
        }
    }
}

#[test]
fn decoders_survive_truncation_and_bit_flips() {
    let mut buf = Vec::new();
    let (client, server) = control_frames();
    let submits = [submit_frame(1, 9, 1, false), submit_frame(2, 9, 2, true)];
    for frame in submits.into_iter().chain(client) {
        frame.encode(&mut buf);
        fuzz_decoder(&buf, ClientFrame::decode, ClientFrame::encode);
    }
    let verdicts = [false, true]
        .map(|dynamic| verdict_frame(3, 2, 640, [40, 2, 1], 112, -175, 0b11110, dynamic));
    for frame in verdicts.into_iter().chain(server) {
        frame.encode(&mut buf);
        fuzz_decoder(&buf, ServerFrame::decode, ServerFrame::encode);
    }
}
