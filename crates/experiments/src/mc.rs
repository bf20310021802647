//! Deterministic parallel Monte Carlo trial engine.
//!
//! Every experiment binary runs its per-point trials through [`Engine::run`]
//! (or the free function [`run_trials`]). The engine shards trials across
//! scoped worker threads while keeping results **bit-identical
//! for any thread count**:
//!
//! * Each trial's RNG is derived from a counter-based seed
//!   `mix(base_seed, point_key, trial_index)` — no state is carried between
//!   trials, so a trial's random stream does not depend on which thread ran
//!   it or on how many trials preceded it on that thread.
//! * Trials are grouped into fixed-size chunks (a constant, independent of
//!   the thread count). Each chunk folds into its own [`Accum`]; workers
//!   claim chunks from a shared counter, and the per-chunk accumulators are
//!   merged sequentially in chunk-index order afterwards. The
//!   floating-point addition order is therefore a function of the trial
//!   count alone.
//!
//! The engine reports per-point wall-clock time and trial throughput to
//! **stderr**, keeping stdout (tables) and `results/*.csv` byte-comparable
//! across runs with different `--threads` values.

use crate::stats::Accum;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Trials per work unit. A constant so the chunk layout — and with it the
/// accumulator merge order — never depends on the thread count.
pub const CHUNK: usize = 64;

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Counter-based seed for one trial: a pure function of the experiment seed,
/// the point label, and the trial index.
pub fn trial_seed(base_seed: u64, point_key: u64, trial: u64) -> u64 {
    mix64(
        base_seed
            .wrapping_add(mix64(point_key))
            .wrapping_add(trial.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// FNV-1a hash of a point label, used as the RNG domain separator so equal
/// trial indices at different sweep points draw unrelated streams.
pub fn point_key(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shared trial engine: a thread count plus the experiment base seed.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    /// Worker threads per point (1 = run on the calling thread).
    pub threads: usize,
    /// Experiment-wide RNG seed (`--seed`).
    pub base_seed: u64,
}

impl Engine {
    /// Engine for the given thread count and seed.
    pub fn new(threads: usize, base_seed: u64) -> Engine {
        Engine { threads: threads.max(1), base_seed }
    }

    /// Run `trials` trials of `f` for the sweep point named `label` and
    /// return the merged accumulator.
    ///
    /// `f` is called once per trial with the trial index, a freshly seeded
    /// RNG, and the chunk's accumulator. The result is bit-identical for
    /// every thread count; timing goes to stderr.
    pub fn run<A, F>(&self, label: &str, trials: usize, f: F) -> A
    where
        A: Accum,
        F: Fn(u64, &mut StdRng, &mut A) + Sync,
    {
        let started = Instant::now();
        let acc = self.run_quiet(label, trials, f);
        let secs = started.elapsed().as_secs_f64();
        eprintln!(
            "[mc] {label}: {trials} trials, {} thread(s), {:.3}s wall ({:.0} trials/s)",
            self.threads,
            secs,
            trials as f64 / secs.max(1e-9),
        );
        acc
    }

    /// As [`Engine::run`] but without the stderr timing line (used by tests
    /// and by callers doing their own reporting).
    pub fn run_quiet<A, F>(&self, label: &str, trials: usize, f: F) -> A
    where
        A: Accum,
        F: Fn(u64, &mut StdRng, &mut A) + Sync,
    {
        if trials == 0 {
            return A::default();
        }
        let key = point_key(label);
        let n_chunks = trials.div_ceil(CHUNK);

        let run_chunk = |chunk: usize| {
            let mut acc = A::default();
            let lo = chunk * CHUNK;
            let hi = ((chunk + 1) * CHUNK).min(trials);
            for t in lo..hi {
                let mut rng = StdRng::seed_from_u64(trial_seed(self.base_seed, key, t as u64));
                f(t as u64, &mut rng, &mut acc);
            }
            acc
        };

        let mut chunks: Vec<(usize, A)> = if self.threads <= 1 || n_chunks == 1 {
            (0..n_chunks).map(|c| (c, run_chunk(c))).collect()
        } else {
            let next = AtomicUsize::new(0);
            let workers = self.threads.min(n_chunks);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let run_chunk = &run_chunk;
                        scope.spawn(move || {
                            let mut mine: Vec<(usize, A)> = Vec::new();
                            loop {
                                let c = next.fetch_add(1, Ordering::Relaxed);
                                if c >= n_chunks {
                                    break;
                                }
                                mine.push((c, run_chunk(c)));
                            }
                            mine
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("mc worker panicked")).collect()
            })
        };

        // Merge in chunk order so the fold sequence is thread-count
        // independent.
        chunks.sort_by_key(|&(c, _)| c);
        let mut out = A::default();
        for (_, acc) in chunks {
            out.merge(acc);
        }
        out
    }
}

/// One-shot convenience: run `trials` trials on all available cores with
/// the given base seed. Figure binaries use [`Engine`] (via
/// [`crate::RunOpts`]) so `--threads` is honoured; this entry point serves
/// ad-hoc callers and tests.
pub fn run_trials<A, F>(trials: usize, base_seed: u64, f: F) -> A
where
    A: Accum,
    F: Fn(u64, &mut StdRng, &mut A) + Sync,
{
    Engine::new(default_threads(), base_seed).run_quiet("run_trials", trials, f)
}

/// The default worker count: available hardware parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{MeanAcc, PropAcc};
    use rand::RngExt;

    fn mean_with_threads(threads: usize) -> (u64, f64, f64) {
        let engine = Engine::new(threads, 0xeca1);
        let acc: MeanAcc = engine.run_quiet("test-point", 1000, |_, rng, acc: &mut MeanAcc| {
            acc.push(rng.random::<f64>());
        });
        let (m, ci) = acc.ci95();
        (acc.n(), m, ci)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let one = mean_with_threads(1);
        for threads in [2, 3, 8, 16] {
            let t = mean_with_threads(threads);
            assert_eq!(one.0, t.0);
            assert_eq!(one.1.to_bits(), t.1.to_bits(), "{threads} threads: mean differs");
            assert_eq!(one.2.to_bits(), t.2.to_bits(), "{threads} threads: ci differs");
        }
    }

    #[test]
    fn trial_indices_each_seen_once() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct SeenAcc(Vec<u64>);
        impl Accum for SeenAcc {
            fn merge(&mut self, other: Self) {
                self.0.extend(other.0);
            }
        }

        let log = Mutex::new(Vec::new());
        let engine = Engine::new(4, 7);
        let local: SeenAcc = engine.run_quiet("indices", 130, |t, _, acc: &mut SeenAcc| {
            acc.0.push(t);
            log.lock().unwrap().push(t);
        });
        // Merged in chunk order => sorted; the shared log sees every index.
        assert_eq!(local.0, (0..130).collect::<Vec<u64>>());
        let mut global = log.into_inner().unwrap();
        global.sort_unstable();
        assert_eq!(global, (0..130).collect::<Vec<u64>>());
    }

    #[test]
    fn point_label_separates_streams() {
        let engine = Engine::new(1, 42);
        let a: MeanAcc =
            engine.run_quiet("point-a", 64, |_, rng, acc: &mut MeanAcc| acc.push(rng.random()));
        let b: MeanAcc =
            engine.run_quiet("point-b", 64, |_, rng, acc: &mut MeanAcc| acc.push(rng.random()));
        assert_ne!(a.mean().to_bits(), b.mean().to_bits());
    }

    #[test]
    fn base_seed_separates_streams() {
        let roll = |_: u64, rng: &mut StdRng, acc: &mut PropAcc| acc.push(rng.random_bool(0.5));
        let one: PropAcc = Engine::new(1, 1).run_quiet("p", 200, roll);
        let two: PropAcc = Engine::new(1, 2).run_quiet("p", 200, roll);
        assert_ne!(one.successes(), two.successes());
    }

    #[test]
    fn zero_trials_is_default() {
        let acc: MeanAcc = Engine::new(4, 0).run_quiet("empty", 0, |_, _, _| {});
        assert_eq!(acc.n(), 0);
    }

    #[test]
    fn run_trials_matches_engine() {
        let draw = |_: u64, rng: &mut StdRng, acc: &mut MeanAcc| acc.push(rng.random());
        let free: MeanAcc = run_trials(100, 5, draw);
        let eng: MeanAcc = Engine::new(1, 5).run_quiet("run_trials", 100, draw);
        assert_eq!(free.mean().to_bits(), eng.mean().to_bits());
    }
}
