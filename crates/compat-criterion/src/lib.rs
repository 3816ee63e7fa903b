//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of criterion's API its benches use: [`Criterion`],
//! benchmark groups with `sample_size` / `throughput` / `bench_function` /
//! `bench_with_input`, [`BenchmarkId`], [`Throughput`], [`black_box`] and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple: each benchmark is warmed up, then
//! timed for `sample_size` samples (bounded by a wall-clock budget), and
//! the mean and min nanoseconds per iteration are printed. Nothing is
//! written: the workspace's performance numbers come from `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`], criterion's optimization
/// barrier.
pub use std::hint::black_box;

/// Throughput annotation for a benchmark group (accepted, not reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    default_sample_size: usize,
    sample_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
            sample_budget: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Sets the default number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.default_sample_size = n.max(1);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().to_string();
        let sample_size = self.default_sample_size;
        let budget = self.sample_budget;
        record(id, sample_size, budget, f);
        self
    }
}

fn record<F>(id: String, sample_size: usize, budget: Duration, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Warm-up & calibration: run once to size the per-sample iteration
    // count so one sample lasts roughly 10 ms (or a single iteration,
    // whichever is longer).
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let once = bencher.elapsed.max(Duration::from_nanos(1));
    let iters_per_sample =
        (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

    let start = Instant::now();
    let mut per_iter_ns = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        if start.elapsed() > budget {
            break;
        }
    }
    let samples = per_iter_ns.len();
    let mean_ns = per_iter_ns.iter().sum::<f64>() / samples as f64;
    let min_ns = per_iter_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "bench {id:<60} mean {:>12} min {:>12} ({samples} samples x {iters_per_sample} iters)",
        fmt_ns(mean_ns),
        fmt_ns(min_ns),
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// A named benchmark group; configuration set here applies to the
/// benchmarks registered through it.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Declares the per-iteration throughput of subsequent benchmarks
    /// (accepted for API compatibility; the stub reports time only).
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        let sample_size = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        let budget = self.criterion.sample_budget;
        record(full, sample_size, budget, f);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (a no-op; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// Passed to benchmark closures; [`iter`](Self::iter) times the payload.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a function running a list of benchmark functions, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares a `main` running benchmark groups, mirroring criterion's
/// macro of the same name.
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
    use std::cell::Cell;

    #[test]
    fn runs_every_registered_benchmark() {
        let calls = [Cell::new(0u64), Cell::new(0), Cell::new(0)];
        let mut c = Criterion::default().sample_size(3);
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(3);
            g.throughput(Throughput::Elements(64));
            g.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
                calls[0].set(calls[0].get() + 1);
                b.iter(|| (0..n).sum::<u64>())
            });
            g.bench_function("noop", |b| {
                calls[1].set(calls[1].get() + 1);
                b.iter(|| 1u64 + 1)
            });
            g.finish();
        }
        c.bench_function("top_level", |b| {
            calls[2].set(calls[2].get() + 1);
            b.iter(|| black_box(2u64) * 3)
        });
        // One calibration run, then at most `sample_size` timed samples.
        assert!(calls.iter().all(|n| (2..=4).contains(&n.get())));
        assert_eq!(BenchmarkId::new("sum", 64).to_string(), "sum/64");
    }
}
