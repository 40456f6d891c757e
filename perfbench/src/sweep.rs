//! The sweep rounds both training workloads interleave with their
//! training rounds: cold evaluation of the fig17-ws, fig18-rs, fig19-is
//! and `bandwidth` grids through `adagp_sweep::runner::run_grid`. They run
//! `accel`, `sim` and `sweep` with no `tensor`, `nn` or `core` work, so a
//! trainer-side change should leave `cells_per_s` unchanged.
//!
//! The roofline-knee memo and the shape cache are process-global, so a
//! grid evaluated twice in one process measures memo hits. Each round is
//! therefore a fresh child process (this binary, re-executed with
//! [`CHILD_FLAG`]) that evaluates each grid exactly once; the parent only
//! waits for it, so at most one process computes at a time. An operation
//! is one grid cell. A cell fails on a panic inside its grid, a
//! non-finite metric, or a failed check: `speedup` equals
//! `baseline_cycles / adagp_cycles` recomputed here, `speedup > 1`, and
//! `sim_cycles >= adagp_cycles`.
//!
//! The traced run's children call each layer per cell instead
//! (`accel` analytic cycles, `sim` event simulation, `sweep` cold knee
//! search, each in its own span), then run the grids for their checks and
//! the CSV render, and re-simulate a seed-chosen sample of cells with
//! contention off: those cycles must equal the analytic `adagp_cycles`
//! bit for bit.

use crate::report::{median, peak_rss_mb, process_cpu_s, splitmix, Report};
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::speedup::{adagp_training_cycles, baseline_training_cycles};
use adagp_accel::{AcceleratorConfig, Dataflow};
use adagp_obs as obs;
use adagp_sim::SimConfig;
use adagp_sweep::roofline::{cell_knee, KneeMemoKey, KNEE_TOLERANCE};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::{cell_sim_config, presets, run_grid, simulate_cell, GridSpec, SweepRun};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that turns the binary into one sweep round.
pub const CHILD_FLAG: &str = "--sweep-round";

/// The paper's average ADA-GP training speedup.
const PAPER_SPEEDUP: f64 = 1.47;

/// Cells per grid re-simulated with contention off in the traced run.
const CONTENTION_OFF_SAMPLE: usize = 6;

const GRID_NAMES: [&str; 4] = ["fig17-ws", "fig18-rs", "fig19-is", "bandwidth"];

fn grid(name: &str) -> GridSpec {
    match name {
        "fig17-ws" => presets::speedup_figure(Dataflow::WeightStationary),
        "fig18-rs" => presets::speedup_figure(Dataflow::RowStationary),
        "fig19-is" => presets::speedup_figure(Dataflow::InputStationary),
        _ => presets::bandwidth(),
    }
}

/// The grid order a seed picks (a Fisher–Yates shuffle).
fn grid_order(seed: u64) -> Vec<&'static str> {
    let mut state = seed;
    let mut names = GRID_NAMES.to_vec();
    for i in (1..names.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        names.swap(i, j);
    }
    names
}

/// Parent side: runs sweep rounds one child process at a time and folds
/// what they print.
pub struct SweepRounds {
    exe: PathBuf,
    mode: &'static str,
    order: String,
    seed: u64,
    rounds: Vec<BTreeMap<String, f64>>,
}

impl SweepRounds {
    /// Rounds in `layers` mode (per-layer spans) when `trace`, else in
    /// `grids` mode (plain `run_grid`).
    pub fn new(seed: u64, trace: bool) -> Self {
        let rounds = SweepRounds {
            exe: std::env::current_exe().expect("path of the running benchmark binary"),
            mode: if trace { "layers" } else { "grids" },
            order: grid_order(seed).join(","),
            seed,
            rounds: Vec::new(),
        };
        println!(
            "sweep rounds: mode {}, grid order {}, one child process per round",
            rounds.mode, rounds.order
        );
        rounds
    }

    /// Runs one round and waits for its process; returns whether it exited
    /// cleanly (a round that did not is a failed check).
    pub fn run_one(&mut self, rep: &mut Report) -> bool {
        let out = Command::new(&self.exe)
            .args([CHILD_FLAG, self.mode, &self.order, &self.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn sweep round");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut values = BTreeMap::new();
        for line in text.lines() {
            match line.strip_prefix("value ").and_then(|l| l.split_once(' ')) {
                Some((k, v)) => {
                    values.insert(k.to_string(), v.parse::<f64>().unwrap_or(f64::NAN));
                }
                None => println!("  {line}"),
            }
        }
        let ok = out.status.success();
        rep.check(
            &format!("sweep round {} exited cleanly", self.rounds.len()),
            ok,
            out.status,
        );
        if ok {
            self.rounds.push(values);
        }
        ok
    }

    fn col(&self, k: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.get(k).copied())
            .collect()
    }

    /// Adds the rounds' cells to `rep`'s operations.
    pub fn count_operations(&self, rep: &mut Report) {
        rep.attempted += self.col("cells").iter().sum::<f64>() as u64;
        rep.failed += self.col("failed").iter().sum::<f64>() as u64;
        if self.rounds.is_empty() {
            rep.check("at least one sweep round ran", false, "none");
        }
    }

    /// `cells_per_cpu_s`: cells over the CPU time of a round's `run_grid`
    /// calls, median over rounds; the wall-time rate is printed beside it.
    pub fn cells_per_cpu_s(&self) -> f64 {
        let rate = |k: &str| -> f64 {
            let rates: Vec<f64> = self.rounds.iter().map(|r| r["cells"] / r[k]).collect();
            median(&rates)
        };
        println!("wall: cells_per_s {:.3}", rate("wall_s"));
        rate("cpu_s")
    }

    /// The per-layer metrics of `layers`-mode rounds, medians over rounds.
    pub fn layer_metrics(&self, rep: &mut Report) {
        for (name, unit) in [
            ("accel.analytic_us", "us"),
            ("sim.simulate_us", "us"),
            ("sweep.knee_us", "us"),
            ("sweep.csv_ms", "ms"),
        ] {
            rep.metric(name, median(&self.col(name)), unit);
        }
    }
}

/// Child side: one round. Returns the process exit code.
pub fn child_main(args: &[String]) -> i32 {
    let [mode, order, seed] = args else {
        eprintln!("perfbench {CHILD_FLAG}: expected <grids|layers> <order> <seed>");
        return 2;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("perfbench {CHILD_FLAG}: bad seed {seed}");
        return 2;
    };
    let grids: Vec<GridSpec> = order.split(',').map(grid).collect();
    let cells: usize = grids.iter().map(GridSpec::cell_count).sum();
    let _ = adagp_runtime::pool();

    let (t, cpu) = (Instant::now(), process_cpu_s());
    let runs: Vec<Option<SweepRun>> = match mode.as_str() {
        "grids" => grids.iter().map(guarded_run).collect(),
        "layers" => layered(&grids),
        other => {
            eprintln!("perfbench {CHILD_FLAG}: unknown mode {other}");
            return 2;
        }
    };
    let cpu_s = process_cpu_s() - cpu;
    let wall_s = t.elapsed().as_secs_f64();

    // Per-cell checks, outside the timed region.
    let mut failed = 0usize;
    let mut fig_speedups = Vec::new();
    for (g, run) in grids.iter().zip(&runs) {
        let Some(run) = run else {
            failed += g.cell_count();
            continue;
        };
        let mut bad = 0;
        for c in &run.cells {
            let m = &c.metrics;
            let finite = [
                m.speedup,
                m.baseline_cycles,
                m.adagp_cycles,
                m.baseline_energy_j,
                m.adagp_energy_j,
                m.sim_cycles,
                m.pe_utilization,
                m.overlap_efficiency,
                m.spill_cycles,
                m.dram_stall_frac,
                m.knee_words_per_cycle,
            ]
            .iter()
            .all(|v| v.is_finite());
            let ok = finite
                && m.speedup == m.baseline_cycles / m.adagp_cycles
                && m.speedup > 1.0
                && m.sim_cycles >= m.adagp_cycles;
            if !ok {
                eprintln!("cell {} failed its checks: {m:?}", c.spec.key());
                bad += 1;
            } else if g.name.starts_with("fig") {
                fig_speedups.push(m.speedup);
            }
        }
        if run.cells.len() != g.cell_count() {
            bad = g.cell_count();
        }
        failed += bad;
    }
    if mode == "layers" {
        failed += contention_off_mismatches(&runs, seed);
    }
    let mean = fig_speedups.iter().sum::<f64>() / fig_speedups.len().max(1) as f64;
    println!(
        "round {mode}: {cells} cells in {wall_s:.3} s, {failed} failed; mean modelled fig17-19 speedup {mean:.3}x (paper: {PAPER_SPEEDUP}x); peak RSS {:.1} MB",
        peak_rss_mb()
    );
    for (k, v) in [
        ("wall_s", wall_s),
        ("cpu_s", cpu_s),
        ("cells", cells as f64),
        ("failed", failed as f64),
    ] {
        println!("value {k} {v}");
    }
    if mode == "layers" {
        for (k, v) in layer_values() {
            println!("value {k} {v}");
        }
    }
    0
}

/// `run_grid` with a panic counted against the grid's cells.
fn guarded_run(g: &GridSpec) -> Option<SweepRun> {
    match std::panic::catch_unwind(|| run_grid(g)) {
        Ok(run) => Some(run),
        Err(_) => {
            eprintln!("grid {} panicked", g.name);
            None
        }
    }
}

const SPAN_ANALYTIC: &str = "accel.analytic";
const SPAN_SIM: &str = "sim.simulate";
const SPAN_KNEE_COLD: &str = "sweep.knee (cold)";
const SPAN_KNEE_HIT: &str = "sweep.knee (memo hit)";
const SPAN_CSV: &str = "sweep.csv";

/// The traced round: each layer per cell in its own span, then each grid
/// through `run_grid` (knees now memoized) for the checks and the CSV
/// render.
fn layered(grids: &[GridSpec]) -> Vec<Option<SweepRun>> {
    obs::set_enabled(true);
    let acc = AcceleratorConfig::default();
    let ecfg = EnergyConfig::default();
    let base = SimConfig::default();
    let mut seen = HashSet::new();
    for g in grids {
        for spec in g.expand() {
            let layers = cached_shapes(spec.model, spec.dataset.input_scale());
            let mix = spec.schedule.mix();
            std::hint::black_box(obs::span(
                "bench",
                || SPAN_ANALYTIC.to_string(),
                || {
                    (
                        baseline_training_cycles(&acc, spec.dataflow, &layers, &mix),
                        adagp_training_cycles(&acc, spec.dataflow, spec.design, &layers, &mix),
                        baseline_energy_joules(&ecfg, &layers, &mix),
                        adagp_energy_joules(&ecfg, &layers, &mix, spec.design),
                    )
                },
            ));
            std::hint::black_box(obs::span(
                "bench",
                || SPAN_SIM.to_string(),
                || simulate_cell(&spec, &base),
            ));
            let key = KneeMemoKey::new(&spec, &cell_sim_config(&spec, &base), KNEE_TOLERANCE);
            let name = if seen.insert(key) {
                SPAN_KNEE_COLD
            } else {
                SPAN_KNEE_HIT
            };
            std::hint::black_box(obs::span(
                "bench",
                || name.to_string(),
                || cell_knee(&spec, &base, KNEE_TOLERANCE),
            ));
        }
    }
    let runs: Vec<Option<SweepRun>> = grids
        .iter()
        .map(|g| {
            let run = guarded_run(g)?;
            std::hint::black_box(obs::span(
                "bench",
                || SPAN_CSV.to_string(),
                || adagp_sweep::store::to_csv_string(&run),
            ));
            Some(run)
        })
        .collect();
    obs::set_enabled(false);

    runs
}

/// Re-simulates `CONTENTION_OFF_SAMPLE` seed-chosen cells per grid with
/// contention off; returns how many differ from the analytic
/// `adagp_cycles` in any bit.
fn contention_off_mismatches(runs: &[Option<SweepRun>], seed: u64) -> usize {
    let mut state = seed ^ 0x5A5A_5A5A;
    let (mut checked, mut mismatched) = (0, 0);
    for run in runs.iter().flatten() {
        for _ in 0..CONTENTION_OFF_SAMPLE {
            let cell = &run.cells[(splitmix(&mut state) % run.cells.len() as u64) as usize];
            let free = simulate_cell(&cell.spec, &SimConfig::no_contention()).sim_cycles;
            checked += 1;
            if free.to_bits() != cell.metrics.adagp_cycles.to_bits() {
                eprintln!(
                    "cell {}: contention-off sim {free} != analytic {}",
                    cell.spec.key(),
                    cell.metrics.adagp_cycles
                );
                mismatched += 1;
            }
        }
    }
    println!(
        "contention-off re-simulation: {}/{checked} sampled cells equal the analytic adagp_cycles bit for bit",
        checked - mismatched
    );
    mismatched
}

/// Per-cell medians (µs) of each layer span, and the per-grid CSV median
/// (ms), from this process's trace.
fn layer_values() -> Vec<(&'static str, f64)> {
    let snap = obs::snapshot();
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for lane in &snap.lanes {
        for s in lane.spans.iter().filter(|s| s.cat == "bench") {
            by_name
                .entry(match s.name.as_str() {
                    SPAN_ANALYTIC => SPAN_ANALYTIC,
                    SPAN_SIM => SPAN_SIM,
                    SPAN_KNEE_COLD => SPAN_KNEE_COLD,
                    SPAN_CSV => SPAN_CSV,
                    _ => continue,
                })
                .or_default()
                .push((s.end_ns - s.start_ns) as f64);
        }
    }
    let med = |k: &str| median(by_name.get(k).map_or(&[][..], |v| v.as_slice()));
    vec![
        ("accel.analytic_us", med(SPAN_ANALYTIC) / 1e3),
        ("sim.simulate_us", med(SPAN_SIM) / 1e3),
        ("sweep.knee_us", med(SPAN_KNEE_COLD) / 1e3),
        ("sweep.csv_ms", med(SPAN_CSV) / 1e6),
    ]
}
