//! The workspace's one work-stealing pool: scoped workers claiming
//! small chunks of work from an atomic cursor.
//!
//! A [`Screener`] screens its device stream one device at a time on
//! one core; the paper's §5 economics rest on testing "several A/D
//! converters … in parallel", and on a workstation that parallelism is
//! the host's cores. This module supplies them, in two shapes:
//!
//! * [`run_pool`] screens a device fleet — the pool behind
//!   [`Screener::run`]. With one worker the fleet streams straight into
//!   the caller's screener. Otherwise a [`DeviceQueue`] packs the fleet
//!   into [`DEFAULT_CHUNK`]-device chunks; each worker owns one
//!   [`Screener`] for the caller's workload and policy (sequencer,
//!   stimulus table, scratch, its own backend — the zero-alloc steady
//!   state proven by the workspace's `tests/zero_alloc.rs`) and
//!   [`drain`]s the queue, streaming each chunk it claims into it.
//!   Reports merge by device index.
//! * [`map_ranges`] maps index ranges `[from, to)` of `0..size` — the
//!   fan-out behind `bist_mc`'s experiments, differential sweeps and
//!   tables, where devices derive from `(seed, index)`. Results come
//!   back in range order.
//!
//! Both claim through one cursor (one `fetch_add`, allocation-free), so
//! a worker whose early-stop sequencer finishes its chunk quickly comes
//! back for more while slower workers are still busy, instead of idling
//! behind a contiguous pre-partition. Each worker keeps its results in
//! a local `Vec`; the pool merges them after the scoped join, which is
//! the only synchronisation the merge needs.
//!
//! **Determinism.** Every device carries its own RNG and every
//! verdict is a pure function of `(device, rng)` — which worker
//! screens a device, and in which order, cannot change its report.
//! Merging by device index (or range start) therefore makes pooled
//! output bit-identical for any worker count and chunk size; the
//! `batch_equivalence` property tests pin that invariant against the
//! scalar engine.

use std::iter;
use std::mem;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::backend::Backend;
use crate::batch::BatchDevice;
use crate::screener::{ScreenReport, Screener};
use bist_adc::Adc;
use rand::RngCore;

/// Devices per claimed chunk: small enough that a worker whose
/// sequencer early-stops whole chunks refills promptly, large enough
/// to amortise the claim.
pub const DEFAULT_CHUNK: usize = 32;

/// Resolves a worker-count knob: `0` selects the host's available
/// parallelism (falling back to 1 when it cannot be queried).
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
}

/// The claim cursor: hands out the indices `0, 1, 2, …`, each exactly
/// once, to any number of workers.
#[derive(Debug, Default)]
struct Cursor(AtomicUsize);

impl Cursor {
    /// The next unclaimed index below `limit`, or `None` once all are
    /// claimed.
    fn claim(&self, limit: usize) -> Option<usize> {
        // ORDERING: Relaxed suffices. The cursor only needs to hand out
        // *distinct* indices, which `fetch_add`'s atomicity guarantees
        // regardless of memory ordering; whatever a claimed index
        // refers to is either immutable or guarded by its own `Mutex`
        // (acquire/release on lock), and the scoped-thread join in
        // `fan_out` provides the happens-before edge that makes all
        // worker results visible before they merge. No claim is ever
        // ordered against another worker's data through this cursor.
        let i = self.0.fetch_add(1, Ordering::Relaxed);
        (i < limit).then_some(i)
    }
}

/// Runs `job` on `workers` scoped threads and concatenates the vectors
/// they return. Each worker builds its part locally; the join is the
/// merge's only synchronisation. A worker panic is re-raised here with
/// its original payload.
fn fan_out<T: Send>(workers: usize, job: impl Fn() -> Vec<T> + Sync) -> Vec<T> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&job)).collect();
        let mut merged = Vec::new();
        for handle in handles {
            merged.append(&mut handle.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        }
        merged
    })
}

/// Maps the index range `0..size` in ranges of about eight per worker
/// across a scoped pool of `workers` threads (`0` = available
/// parallelism), returning one `work(&mut state, from, to)` result per
/// range, in range order.
///
/// Each worker builds one `state` from `init` and threads it through
/// every range it claims — the seam that lets a fleet worker keep a warm
/// backend (RTL tops, batch scratch) across chunks. Workers are clamped to
/// the chunk count; when that leaves one, the whole range is a single
/// inline `work(&mut init(), 0, size)` call.
pub fn map_ranges<S, T, Init, F>(size: usize, workers: usize, init: Init, work: F) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize) -> T + Sync,
{
    // Clamp the knob to the index count before any arithmetic.
    let workers = resolve_workers(workers).min(size.max(1));
    let chunk = range_chunk(size, workers);
    let chunks = size.div_ceil(chunk);
    let workers = workers.min(chunks);
    if workers <= 1 {
        return vec![work(&mut init(), 0, size)];
    }
    let cursor = Cursor::default();
    let mut parts = fan_out(workers, || {
        let mut state = init();
        let mut local = Vec::new();
        while let Some(i) = cursor.claim(chunks) {
            let from = i * chunk;
            local.push((from, work(&mut state, from, (from + chunk).min(size))));
        }
        local
    });
    parts.sort_unstable_by_key(|&(from, _)| from);
    parts.into_iter().map(|(_, t)| t).collect()
}

/// The [`map_ranges`] chunk size for `size` indices over `workers`
/// resolved workers: about eight chunks per worker, clamped to
/// `16..=512`. Small chunks keep uneven per-device costs balanced; the
/// clamp bounds claim traffic on huge ranges and chunk count on small
/// ones. The product saturates, so a huge knob cannot wrap it.
fn range_chunk(size: usize, workers: usize) -> usize {
    (size / workers.saturating_mul(8)).clamp(16, 512)
}

/// A fleet sharded into chunks behind the claim cursor — the
/// work-stealing seam of [`run_pool`].
///
/// Chunks are boxed up once at construction; [`claim`](Self::claim)
/// hands the next one to the calling worker with a `fetch_add` and a
/// buffer move, so the steady-state drain performs no allocation.
#[derive(Debug)]
pub struct DeviceQueue<A, R> {
    cursor: Cursor,
    chunks: Vec<Mutex<Vec<BatchDevice<A, R>>>>,
}

impl<A, R> DeviceQueue<A, R> {
    /// Packs `devices` into chunks of at most `chunk` devices each.
    ///
    /// # Panics
    ///
    /// Panics when `chunk` is zero.
    pub fn new(devices: impl IntoIterator<Item = BatchDevice<A, R>>, chunk: usize) -> Self {
        assert!(chunk >= 1, "a device queue needs a positive chunk size");
        let mut chunks = Vec::new();
        let mut current: Vec<BatchDevice<A, R>> = Vec::with_capacity(chunk);
        for dev in devices {
            current.push(dev);
            if current.len() == chunk {
                let full = mem::replace(&mut current, Vec::with_capacity(chunk));
                chunks.push(Mutex::new(full));
            }
        }
        if !current.is_empty() {
            chunks.push(Mutex::new(current));
        }
        DeviceQueue {
            cursor: Cursor::default(),
            chunks,
        }
    }

    /// Number of chunks the fleet was sharded into.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Claims the next unclaimed chunk, or `None` once the queue is
    /// dry. Each chunk is handed out exactly once.
    // bist-lint: hot-path — the pool's steady-state claim
    pub fn claim(&self) -> Option<Vec<BatchDevice<A, R>>> {
        let slot = &self.chunks[self.cursor.claim(self.chunks.len())?];
        Some(mem::take(&mut *slot.lock().expect("chunk mutex poisoned")))
    }
}

/// A worker's inner loop: streams every chunk it claims from `queue`
/// into `screener` through its backend's batch seam, appending the
/// reports to `reports`, until the queue is dry. Allocation-free once
/// the screener and `reports` are warm.
// bist-lint: hot-path — per-worker drain loop
pub fn drain<A: Adc, R: RngCore, B: Backend>(
    screener: &mut Screener<B>,
    queue: &DeviceQueue<A, R>,
    reports: &mut Vec<ScreenReport>,
) {
    screener.screen(iter::from_fn(|| queue.claim()).flatten(), reports);
}

/// Screens a fleet across a scoped pool of `workers` threads (`0` =
/// available parallelism) claiming [`DEFAULT_CHUNK`]-device chunks from
/// a shared [`DeviceQueue`]; every worker owns one screener for
/// `screener`'s workload and policy and a `B::default()` backend.
///
/// Workers are clamped to the chunk count. With a single worker the
/// fleet streams through `screener` — the caller's own, warm one — one
/// device at a time.
///
/// Returns reports sorted by device index — bit-identical to a
/// single-worker run for any worker count.
pub fn run_pool<A, R, B>(
    devices: impl IntoIterator<Item = BatchDevice<A, R>>,
    workers: usize,
    screener: &mut Screener<B>,
) -> Vec<ScreenReport>
where
    A: Adc + Send,
    R: RngCore + Send,
    B: Backend + Default,
{
    let devices = devices.into_iter();
    let workers = resolve_workers(workers);
    if workers <= 1 {
        let mut reports = Vec::with_capacity(devices.size_hint().0);
        screener.screen(devices, &mut reports);
        return reports;
    }
    let queue = DeviceQueue::new(devices, DEFAULT_CHUNK);
    let workers = workers.min(queue.chunk_count());
    if workers <= 1 {
        let mut reports = Vec::new();
        drain(screener, &queue, &mut reports);
        return reports;
    }
    let fork = screener.forks();
    let mut reports = fan_out(workers, || {
        let mut local = Vec::new();
        drain(&mut fork(), &queue, &mut local);
        local
    });
    reports.sort_unstable_by_key(|r| r.device);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BistConfig;
    use crate::dynamic::DynamicConfig;
    use crate::screener::Workload;
    use bist_adc::spec::LinearitySpec;
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Resolution, Volts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(n: usize) -> impl Iterator<Item = BatchDevice<TransferFunction, StdRng>> {
        (0..n).map(|i| {
            BatchDevice::new(
                i,
                TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)),
                StdRng::seed_from_u64(i as u64),
            )
        })
    }

    fn queue_of(n: usize, chunk: usize) -> DeviceQueue<TransferFunction, StdRng> {
        DeviceQueue::new(fleet(n), chunk)
    }

    #[test]
    fn queue_packs_exact_and_ragged_chunks() {
        let q = queue_of(10, 4);
        assert_eq!(q.chunk_count(), 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| q.claim()).map(|c| c.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert!(q.claim().is_none(), "a drained queue stays dry");

        let q = queue_of(8, 4);
        assert_eq!(q.chunk_count(), 2);
        let q = queue_of(0, 4);
        assert_eq!(q.chunk_count(), 0);
        assert!(q.claim().is_none());
    }

    #[test]
    fn claim_hands_each_device_out_exactly_once() {
        let q = queue_of(23, 3);
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.claim())
            .flatten()
            .map(|d| d.index)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    fn workload() -> Workload {
        let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
            .counter_bits(6)
            .build()
            .expect("paper-range counter");
        Workload::static_ramp(config)
    }

    fn run(n: usize, workers: usize) -> Vec<ScreenReport> {
        run_pool(fleet(n), workers, &mut Screener::new(workload()))
    }

    #[test]
    fn pooled_reports_are_sorted_and_worker_count_invariant() {
        // Three default chunks, so every worker count above one pools.
        let n = 2 * DEFAULT_CHUNK + 5;
        let reference = run(n, 1);
        assert_eq!(reference.len(), n);
        for (i, r) in reference.iter().enumerate() {
            assert_eq!(r.device, i, "reports merge by device index");
        }
        for workers in [2, 3, 16] {
            assert_eq!(run(n, workers), reference, "workers={workers}");
        }
        for chunk in [1, 4, 32] {
            let mut reports = Vec::new();
            let queue = DeviceQueue::new(fleet(n), chunk);
            drain(&mut Screener::new(workload()), &queue, &mut reports);
            assert_eq!(reports, reference, "chunk={chunk}");
        }
    }

    /// A noise RNG for a noiseless fleet — never drawn — that counts
    /// how many of its kind are alive.
    struct Live<'a>(&'a AtomicUsize);

    impl RngCore for Live<'_> {
        fn next_u64(&mut self) -> u64 {
            unreachable!("a noiseless fleet draws no noise")
        }
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            // ORDERING: Relaxed — the counters are only read after the
            // single-threaded run returns.
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn one_worker_holds_one_device_at_a_time() {
        let dynamic = Workload::dynamic_sine(DynamicConfig::paper_default());
        for workload in [workload(), dynamic] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let devices = fleet(3 * DEFAULT_CHUNK).map(|d| {
                // ORDERING: Relaxed — as in `Live::drop`.
                peak.fetch_max(live.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                BatchDevice::new(d.index, d.adc, Live(&live))
            });
            let reports = run_pool(devices, 1, &mut Screener::new(workload));
            assert_eq!(reports.len(), 3 * DEFAULT_CHUNK);
            // ORDERING: Relaxed — as in `Live::drop`.
            assert_eq!(peak.load(Ordering::Relaxed), 1, "{workload:?}");
        }
    }

    #[test]
    fn map_ranges_tiles_the_range_in_order() {
        let parts = map_ranges(103, 4, || (), |_, from, to| (from, to));
        assert_eq!(parts.first().unwrap().0, 0);
        assert_eq!(parts.last().unwrap().1, 103);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
        assert_eq!(map_ranges(0, 4, || (), |_, from, to| (from, to)), [(0, 0)]);
    }

    #[test]
    fn map_ranges_reuses_worker_state_across_chunks() {
        // Count how many states were built: one per spawned worker, not
        // one per chunk.
        let inits = AtomicUsize::new(0);
        let parts = map_ranges(
            1000,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |claims, from, to| {
                *claims += 1;
                (*claims, from, to)
            },
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
        assert!(parts.len() > 4, "dispatch must be chunked, not pre-split");
        let mut covered = 0;
        for (claims, from, to) in &parts {
            assert!(*claims >= 1);
            assert_eq!(*from, covered, "chunks must tile the range in order");
            covered = *to;
        }
        assert_eq!(covered, 1000);
        assert!(
            parts.iter().any(|(claims, _, _)| *claims > 1),
            "some worker must claim more than one chunk"
        );
    }

    #[test]
    fn one_worker_maps_the_whole_range_inline() {
        let parts = map_ranges(1000, 1, || (), |_, from, to| (from, to));
        assert_eq!(parts, [(0, 1000)]);
    }

    #[test]
    fn a_huge_worker_knob_neither_wraps_nor_changes_results() {
        let sum = |workers: usize| -> u64 {
            map_ranges(
                200,
                workers,
                || (),
                |_, from, to| (from..to).map(|i| i as u64 * i as u64).sum::<u64>(),
            )
            .into_iter()
            .sum()
        };
        assert_eq!(range_chunk(200, 1 << 63), 16);
        assert_eq!(range_chunk(1 << 20, 1 << 63), 16);
        assert_eq!(range_chunk(1 << 20, 1), 512);
        assert_eq!(sum(1 << 63), sum(1));
    }
}
