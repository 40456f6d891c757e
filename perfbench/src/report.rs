//! The result line, summary statistics and process-level readings shared
//! by every workload.

/// One run's result: the last line of stdout.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check of the operations that did not fail passed.
    pub correct: bool,
    /// Operations attempted (training batches or grid cells).
    pub attempted: u64,
    /// Operations that failed (non-finite loss or weights; a cell that
    /// panicked, produced a non-finite metric or failed a check).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    /// Adds a metric; a non-finite value marks the run incorrect.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            self.correct = false;
        }
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a named check; prints it and folds it into `correct`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        println!(
            "check {} {name}: {detail}",
            if ok { "ok  " } else { "FAIL" }
        );
        self.correct &= ok;
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `xs` (mean of the middle two for even counts); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples above it, with its value, or `None` below forty samples (a
/// percentile with fewer than ten samples beyond it is no tail).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 40 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
        .map(|p| {
            let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
            (p, v[idx])
        })
}

/// Prints a timing distribution's median, sample count and tail line.
pub fn print_distribution(name: &str, xs: &[f64]) {
    match tail_percentile(xs) {
        Some((p, v)) => println!(
            "dist {name}: n={} median={:.3} ms p{p}={v:.3} ms",
            xs.len(),
            median(xs)
        ),
        None => println!(
            "dist {name}: n={} median={:.3} ms (under 40 samples: no tail reported)",
            xs.len(),
            median(xs)
        ),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time and /proc as 64-bit Linux provides them");

/// CPU time every thread of this process has used so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). On a VM guest with paravirtual steal
/// accounting it leaves out time the host gave to other guests, which
/// wall time includes.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A tiny deterministic generator for benchmark-side choices (grid order,
/// sampled cells); model inputs use the program's own `Prng`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
