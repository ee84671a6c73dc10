//! Workspace-local, offline subset of the `criterion` 0.5 API.
//!
//! The build hosts for this repository cannot reach crates.io, so this
//! crate provides the pieces the workspace's benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BatchSize`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple wall-clock sampler.
//!
//! Versus upstream: no statistical analysis, plots, or baselines. Each
//! benchmark runs a short warm-up, then `sample_size` timed samples with
//! an iteration count chosen so a sample lasts roughly
//! 50 ms; the median, minimum, and maximum per-iteration
//! times are printed to stdout.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Warm-up budget per benchmark.
const WARMUP_TIME: Duration = Duration::from_millis(300);
/// Rough wall-clock target for one timed sample.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(50);

/// How per-iteration inputs are sized in [`Bencher::iter_batched`].
/// The sampler here runs one setup per routine call regardless, so the
/// variants only exist for API compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: upstream batches many per sample.
    SmallInput,
    /// Large inputs: upstream batches few per sample.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Top-level benchmark driver (upstream `criterion::Criterion`).
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 30 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (consuming, to
    /// support `Criterion::default().sample_size(n)` in `config =`
    /// expressions).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.to_string(), sample_size: self.sample_size, _parent: self }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Ends the group (upstream emits summary artifacts here; this shim
    /// has nothing left to do).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; measures the routine it is given.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on fresh inputs from `setup`, excluding setup time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = black_box(setup());
            let start = Instant::now();
            let out = routine(input);
            elapsed += start.elapsed();
            black_box(out);
        }
        self.elapsed = elapsed;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    // Warm up and estimate the per-iteration cost from one-iteration
    // samples so the timed phase can pick a sensible batch size.
    let warmup_start = Instant::now();
    let mut warmup_iters: u64 = 0;
    let mut per_iter_estimate = Duration::from_nanos(1);
    while warmup_start.elapsed() < WARMUP_TIME && warmup_iters < 1_000_000 {
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        per_iter_estimate = b.elapsed.max(Duration::from_nanos(1));
        warmup_iters += 1;
    }

    let iters_per_sample = (TARGET_SAMPLE_TIME.as_nanos() / per_iter_estimate.as_nanos().max(1))
        .clamp(1, 1_000_000) as u64;

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher { iters: iters_per_sample, elapsed: Duration::ZERO };
        f(&mut b);
        per_iter_ns.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let lo = per_iter_ns[0];
    let hi = per_iter_ns[per_iter_ns.len() - 1];

    println!(
        "{id:<48} time: [{} {} {}]  ({sample_size} samples x {iters_per_sample} iters)",
        format_ns(lo),
        format_ns(median),
        format_ns(hi),
    );
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function; supports both the positional form
/// `criterion_group!(name, target, ...)` and the configured form
/// `criterion_group! { name = n; config = expr; targets = t, ... }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group in order.
/// Accepts (and ignores) the CLI arguments `cargo bench` forwards.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        c.bench_function("trivial/add", |b| b.iter(|| black_box(2u64) + black_box(3u64)));
    }

    criterion_group!(positional, trivial);
    criterion_group! {
        name = configured;
        config = Criterion::default().sample_size(5);
        targets = trivial
    }

    #[test]
    fn groups_run_without_panicking() {
        positional();
        configured();
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        let mut calls = 0u64;
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
            calls += 1;
        });
        group.finish();
        assert!(calls > 0);
    }
}
