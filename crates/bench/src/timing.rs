//! A minimal wall-clock micro-benchmark runner for the `benches/`
//! harnesses (`harness = false`).
//!
//! Each measurement runs a short calibration pass to pick an iteration
//! count targeting ~100ms, then reports the best of several batches
//! (the usual defense against scheduling noise) along with the batch
//! mean ± standard deviation, so noisy environments are visible in the
//! output. Setting the `BENCH_JSON` environment variable additionally
//! emits one machine-readable JSON line per measurement. This is
//! intentionally simple: the benches exist to spot order-of-magnitude
//! regressions in the hashing substrate and the simulator, not to
//! resolve 1% deltas.

use std::hint::black_box;
use std::time::{Duration, Instant};

const TARGET: Duration = Duration::from_millis(100);
const BATCHES: usize = 5;

/// Times `f` and prints one result row. The closure's return value is
/// black-boxed so the work cannot be optimized away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Calibrate: grow the iteration count until one batch is long
    // enough to time reliably.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET / 4 || iters >= 1 << 30 {
            // Scale to the target, then take the best of BATCHES.
            if elapsed < TARGET {
                let factor = TARGET.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64;
                iters = ((iters as f64 * factor) as u64).max(1);
            }
            break;
        }
        iters *= 8;
    }
    let mut per_iter_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let best = per_iter_ns.iter().copied().fold(f64::MAX, f64::min);
    let (mean, stddev) = mean_stddev(&per_iter_ns);
    println!(
        "{name:<44} {:>12} /iter  (mean {} ± {}, {iters} iters/batch)",
        format_ns(best),
        format_ns(mean),
        format_ns(stddev),
    );
    if std::env::var_os("BENCH_JSON").is_some() {
        let mut line = String::from("{\"name\": ");
        obs::json::write_str(&mut line, name);
        line.push_str(&format!(
            ", \"best_ns\": {best:?}, \"mean_ns\": {mean:?}, \"stddev_ns\": {stddev:?}, \
             \"iters\": {iters}}}"
        ));
        println!("{line}");
    }
}

/// Times `reps` executions of `f` and returns each repetition's wall
/// time in milliseconds — for macro measurements (whole checking
/// campaigns) where [`bench()`]'s calibrated nanosecond loop would be
/// overkill.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_stddev(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Formats a nanosecond quantity with a readable unit.
fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_units() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn mean_and_stddev() {
        let (m, s) = mean_stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
        let (m1, s1) = mean_stddev(&[3.5]);
        assert!((m1 - 3.5).abs() < 1e-12);
        assert_eq!(s1, 0.0);
    }
}
