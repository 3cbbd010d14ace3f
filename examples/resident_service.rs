//! Resident service: spawn the fleet-screening service, submit a small
//! mixed fleet over its localhost TCP door, and print the streamed
//! verdicts plus a live telemetry snapshot.
//!
//! This is the paper's screen run as infrastructure: the same batched
//! engines behind `Screener::run` stay resident in its workers, and
//! devices arrive one TCP frame at a time instead of one `Vec` per
//! call — with bounded queues, explicit `Busy` backpressure, and
//! verdicts streaming back the moment they latch.
//!
//! Run with: `cargo run --release --example resident_service`

use std::io::Write as _;
use std::net::TcpStream;

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::Workload;
use bist_mc::batch::Batch;
use bist_serve::protocol::{read_frame, write_frame};
use bist_serve::{ClientFrame, JobKind, ServerFrame, ServiceConfig, Submission};

const N_STATIC: usize = 12;
const N_DYN: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A service resident for both workloads of the paper: the static
    // ramp BIST at the §4 operating point, and the coherent sine
    // dynamic test.
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .build()?;
    let mut handle = ServiceConfig::new()
        .with_workload(Workload::static_ramp(config))
        .with_workload(Workload::dynamic_sine(DynamicConfig::paper_default()))
        .with_workers(2)
        .start();
    let addr = handle.serve_tcp(0)?;
    println!("resident service listening on {addr} (2 workers, both workloads)\n");

    // A small mismatched fleet, submitted over TCP one frame at a time.
    let batch = Batch::paper_simulation(1997, N_STATIC + N_DYN);
    let mut stream = TcpStream::connect(addr)?;
    let mut payload = Vec::new();
    for i in 0..N_STATIC + N_DYN {
        let sub = Submission {
            id: i as u64,
            kind: if i < N_STATIC {
                JobKind::Static
            } else {
                JobKind::Dynamic
            },
            adc: batch.device(i),
            seed: 1997 + i as u64,
        };
        ClientFrame::Submit(sub).encode(&mut payload);
        write_frame(&mut stream, &payload)?;
    }
    ClientFrame::Telemetry.encode(&mut payload);
    write_frame(&mut stream, &payload)?;
    ClientFrame::Done.encode(&mut payload);
    write_frame(&mut stream, &payload)?;
    stream.flush()?;

    // Everything streams back on the same connection: acks, verdicts
    // as they latch, the telemetry snapshot, then Finished.
    let mut buf = Vec::new();
    let mut accepted = 0u64;
    while let Some(bytes) = read_frame(&mut stream, &mut buf)? {
        match ServerFrame::decode(bytes)? {
            ServerFrame::Ack { id, status } => {
                println!("ack     device {id:>2}: {status:?}");
            }
            ServerFrame::Verdict(v) => {
                let outcome = if v.verdict.accepted() { "PASS" } else { "FAIL" };
                let detail = match v.verdict.as_static() {
                    Some(s) => format!(
                        "static  | {} DNL + {} INL failures over {} codes",
                        s.verdict.dnl_failures, s.verdict.inl_failures, s.verdict.codes_judged
                    ),
                    None => {
                        let d = v.verdict.as_dynamic().expect("static or dynamic");
                        format!(
                            "dynamic | SINAD {:6.2} dB, ENOB {:5.2} bits",
                            d.verdict.sinad_db, d.verdict.enob
                        )
                    }
                };
                if v.verdict.accepted() {
                    accepted += 1;
                }
                println!("verdict device {:>2}: {outcome} {detail}", v.id);
            }
            ServerFrame::Telemetry(json) => {
                println!("\nlive telemetry snapshot (flat perf-record JSON):\n{json}");
            }
            ServerFrame::Finished => {
                println!("finished: every accepted verdict delivered");
                break;
            }
        }
    }

    let report = handle.shutdown();
    println!(
        "\nshutdown drain: {} devices completed, {accepted} accepted, \
         {:.0} devices/s over {:.3} s uptime",
        report.telemetry.completed, report.telemetry.devices_per_s, report.telemetry.uptime_seconds,
    );
    Ok(())
}
