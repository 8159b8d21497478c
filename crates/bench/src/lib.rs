//! Shared helpers for the benchmark harness and the `paper` table
//! regenerator.
//!
//! The benchmarks use the self-contained [`bench()`] timer rather than an
//! external harness crate: the workspace must build with no dependencies
//! outside the standard library (offline environments), and plain
//! wall-clock medians are enough to catch the order-of-magnitude
//! regressions these benches exist to guard.

use std::hint::black_box;
use std::time::Instant;

use qpredict_core::paper::Scale;
use qpredict_obs::json::Json;

/// One-iteration smoke mode, for CI: `QPREDICT_BENCH_SMOKE=1` makes
/// every [`bench()`] call run its closure exactly once and report that
/// single timing. The numbers are meaningless as benchmarks; the point
/// is that every bench *executes* (panics, assertion failures, and JSON
/// emission bugs surface) in seconds instead of minutes.
pub fn smoke_mode() -> bool {
    std::env::var_os("QPREDICT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Write a bench's headline numbers as the JSON object `members` to
/// `<workspace root>/<file>`, the committed trajectory artifact. Smoke
/// runs write to the temp directory instead, so they never clobber it.
/// Returns the path written.
pub fn write_artifact(file: &str, members: Vec<(&str, Json)>) -> std::path::PathBuf {
    let root = if smoke_mode() {
        std::env::temp_dir()
    } else {
        let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest.join("../..").canonicalize().unwrap_or(manifest)
    };
    let path = root.join(file);
    let members = members
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    std::fs::write(&path, Json::Obj(members).to_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Time `f` and print its median per-iteration cost as
/// `<group>/<label>  <time>`. Runs a few warm-up iterations, then enough
/// timed batches to damp scheduler noise. Returns the median seconds per
/// iteration so callers can post-process if they wish.
pub fn bench<T>(group: &str, label: &str, mut f: impl FnMut() -> T) -> f64 {
    if smoke_mode() {
        let t = Instant::now();
        black_box(f());
        let s = t.elapsed().as_secs_f64().max(1e-9);
        println!("{group}/{label:<28} {} (smoke)", human_iter_time(s));
        return s;
    }
    // Warm up and estimate a batch size targeting ~50 ms per batch.
    let warm = Instant::now();
    black_box(f());
    black_box(f());
    let per_iter = (warm.elapsed().as_secs_f64() / 2.0).max(1e-9);
    let batch = ((0.05 / per_iter) as usize).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[samples.len() / 2];
    println!("{group}/{label:<28} {}", human_iter_time(median));
    median
}

/// Render a per-iteration time with an adaptive unit.
fn human_iter_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s/iter")
    } else if s >= 1e-3 {
        format!("{:.3} ms/iter", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs/iter", s * 1e6)
    } else {
        format!("{:.1} ns/iter", s * 1e9)
    }
}

/// Parse a `--jobs N` style scale argument (`full` or a job count).
pub fn parse_scale(s: &str) -> Option<Scale> {
    if s.eq_ignore_ascii_case("full") {
        return Some(Scale::Full);
    }
    s.parse::<usize>().ok().map(Scale::Jobs)
}

/// Render a duration in seconds human-readably.
pub fn human_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("FULL"), Some(Scale::Full));
        assert_eq!(parse_scale("2500"), Some(Scale::Jobs(2500)));
        assert_eq!(parse_scale("x"), None);
    }

    #[test]
    fn human_times() {
        assert_eq!(human_secs(5.0), "5.0 s");
        assert_eq!(human_secs(120.0), "2.0 min");
    }
}
