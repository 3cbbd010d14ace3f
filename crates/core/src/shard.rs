//! Resident worker shard: the reusable compute unit behind the
//! screening service (`bist-serve`).
//!
//! A [`ResidentShard`] keeps one [`ScreenBatch`] per resident workload
//! — the same engine [`crate::pool`] hands its scoped workers — alive
//! between bursts, so a long-running service screens continuously
//! without re-allocating: after the first burst warms the engines
//! (scratch, report buffers, sine table), every later submit→verdict
//! round trip is allocation-free — proven by the counting-allocator
//! test in `crates/core/tests/zero_alloc.rs`.
//!
//! A job's id is its engine device index, so each verdict comes back
//! tagged with the id of the job it answers. Because every engine
//! verdict is bit-identical to the scalar screener for any queue and
//! refill order (the batch-equivalence property), any arrival
//! order, burst grouping, or worker count yields the same per-id
//! verdicts as one [`crate::screener::Screener::run`] pass.

use crate::backend::Backend;
use crate::batch::{BatchDevice, ScreenBatch};
use crate::screener::{ScreenVerdict, Workload};
use crate::sequencer::SequencerConfig;
use bist_adc::Adc;
use rand::RngCore;

/// Which engine a [`ShardJob`] is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The static LSB-monitor linearity test.
    Static,
    /// The dynamic (coherent sine) spectral test.
    Dynamic,
}

/// One tagged device submission for a [`ResidentShard`].
#[derive(Debug)]
pub struct ShardJob<A, R> {
    /// Submission id, unique within a burst, echoed on the matching
    /// [`ShardVerdict`].
    pub id: u64,
    /// Which workload screens this device.
    pub kind: JobKind,
    /// The device under test.
    pub adc: A,
    /// The device's noise/dither stream.
    pub rng: R,
}

/// One streamed verdict from a [`ResidentShard`], tagged with the
/// submission id it answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardVerdict {
    /// The id of the [`ShardJob`] this verdict answers.
    pub id: u64,
    /// The device's decision and verdict — bit-identical to what
    /// [`crate::screener::Screener::run`] reports for the same device.
    pub verdict: ScreenVerdict,
}

/// A resident worker shard: long-lived batch engines, one per resident
/// workload, reused burst after burst.
#[derive(Debug)]
pub struct ResidentShard<A, R, B> {
    engines: Vec<ScreenBatch<A, R>>,
    backend: B,
}

impl<A: Adc, R: RngCore, B: Backend> ResidentShard<A, R, B> {
    /// Builds a shard resident for each of `workloads`, every engine
    /// under the early-stop `sequencer` policy (when given), judging
    /// with `backend`. Jobs of a kind go to the first workload of that
    /// kind.
    ///
    /// # Panics
    ///
    /// Panics when `workloads` is empty.
    pub fn new(
        workloads: impl IntoIterator<Item = Workload>,
        sequencer: Option<SequencerConfig>,
        backend: B,
    ) -> Self {
        let engines: Vec<_> = workloads
            .into_iter()
            .map(|w| ScreenBatch::new(w, sequencer))
            .collect();
        assert!(
            !engines.is_empty(),
            "a resident shard needs at least one workload"
        );
        ResidentShard { engines, backend }
    }

    // bist-lint: hot-path — service steady state: every burst is screened through here
    /// Screens one burst of jobs, streaming one [`ShardVerdict`] per
    /// job into `sink` (grouped by workload in the order the shard was
    /// built with, each group in id order). After the first burst the
    /// engines are warm and this path allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when a job's [`JobKind`] has no resident engine — the
    /// service validates kinds at the ingest seam, so reaching this is
    /// a routing bug, not load.
    pub fn process<I, F>(&mut self, jobs: I, mut sink: F)
    where
        I: IntoIterator<Item = ShardJob<A, R>>,
        F: FnMut(ShardVerdict),
    {
        for job in jobs {
            let Some(engine) = self
                .engines
                .iter_mut()
                .find(|e| e.workload().kind() == job.kind)
            else {
                let kind = match job.kind {
                    JobKind::Static => "static",
                    JobKind::Dynamic => "dynamic",
                };
                panic!("shard is not resident for {kind} jobs");
            };
            let index = usize::try_from(job.id).expect("job id fits a device index");
            engine.push(BatchDevice::new(index, job.adc, job.rng));
        }
        for engine in &mut self.engines {
            if engine.queued() > 0 {
                self.backend.process_batch(engine);
                for report in engine.finish_reports() {
                    sink(ShardVerdict {
                        id: report.device as u64,
                        verdict: report.verdict,
                    });
                }
                engine.clear_reports();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BehavioralBackend;
    use crate::config::BistConfig;
    use crate::dynamic::DynamicConfig;
    use crate::screener::Screener;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn static_workload() -> Workload {
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(5)
            .build()
            .unwrap();
        Workload::static_ramp(config)
    }

    fn device(i: u64) -> (TransferFunction, StdRng) {
        let adc = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
        (adc, StdRng::seed_from_u64(i))
    }

    #[test]
    fn verdicts_match_screener_across_bursts_and_ids() {
        let workloads = [
            static_workload(),
            Workload::dynamic_sine(DynamicConfig::paper_default()),
        ];
        let mut shard = ResidentShard::new(workloads, None, BehavioralBackend);
        // Screen 6 static devices in two bursts with shuffled ids.
        let ids = [40u64, 11, 32, 23, 14, 5];
        let mut streamed = Vec::new();
        for burst in ids.chunks(3) {
            let jobs = burst.iter().map(|&id| {
                let (adc, rng) = device(id);
                ShardJob {
                    id,
                    kind: JobKind::Static,
                    adc,
                    rng,
                }
            });
            shard.process(jobs, |v| streamed.push(v));
        }
        assert_eq!(streamed.len(), ids.len());
        let mut screener = Screener::new(static_workload());
        for v in &streamed {
            let (adc, mut rng) = device(v.id);
            let reference = screener.screen_one(&adc, &mut rng);
            assert_eq!(v.verdict, reference, "id {}", v.id);
        }
    }

    #[test]
    fn mixed_burst_streams_both_workloads() {
        let workloads = [
            static_workload(),
            Workload::dynamic_sine(DynamicConfig::paper_default()),
        ];
        let mut shard = ResidentShard::new(workloads, None, BehavioralBackend);
        let jobs = (0..4u64).map(|id| {
            let (adc, rng) = device(id);
            ShardJob {
                id,
                kind: if id % 2 == 0 {
                    JobKind::Static
                } else {
                    JobKind::Dynamic
                },
                adc,
                rng,
            }
        });
        let mut got = Vec::new();
        shard.process(jobs, |v| got.push(v));
        assert_eq!(got.len(), 4);
        got.sort_by_key(|v| v.id);
        assert!(got[0].verdict.as_static().is_some());
        assert!(got[1].verdict.as_dynamic().is_some());
    }

    #[test]
    #[should_panic(expected = "not resident for dynamic")]
    fn unrouted_kind_panics() {
        let mut shard = ResidentShard::new([static_workload()], None, BehavioralBackend);
        let (adc, rng) = device(0);
        shard.process(
            [ShardJob {
                id: 0,
                kind: JobKind::Dynamic,
                adc,
                rng,
            }],
            |_| {},
        );
    }
}
