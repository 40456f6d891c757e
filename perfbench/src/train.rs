//! The training harness shared by `train_cnn` and `train_transformer`.
//!
//! A *round* trains both arms from freshly built models (same seed, same
//! materialised batches), interleaved epoch by epoch so that a slow spell
//! on the machine lands on both arms alike. Every round runs the whole
//! phase schedule, so every run measures the same phase mix however many
//! rounds fit in `--seconds`. Model construction and held-out evaluation
//! sit outside the timed batches.
//!
//! After every training round the run evaluates [`SWEEPS_PER_ROUND`]
//! rounds of the sweep grids, each in a child process (see `sweep.rs`),
//! for `cells_per_cpu_s` and the `accel`/`sim`/`sweep` layer metrics.
//!
//! Every timing metric of the end-to-end run is CPU time of the process
//! (all its threads), not wall time: on a shared 2-vCPU VM the hypervisor
//! stole up to a fifth of the CPU time in spells lasting minutes, and a
//! 2-thread step waits for its slower thread, so wall times of whole runs
//! moved by up to 2x while CPU times moved far less (see `README.md`).
//! Wall-time figures are printed beside them.
//!
//! An operation is one training batch or one grid cell. A batch fails on
//! a non-finite loss or non-finite weights after the optimizer step (a
//! non-finite gradient always shows up there). The round-level checks are
//! the schedule arithmetic, the backward-call count, learning on held-out
//! data, and bit-identical loss/phase sequences across rounds and across
//! traced and untraced rounds.

use crate::kernels;
use crate::report::{median, peak_rss_mb, print_distribution, process_cpu_s, Report};
use crate::sweep::SweepRounds;
use adagp_accel::designs::{self, AdaGpDesign};
use adagp_accel::layer_cost::{model_costs, PredictorCostModel};
use adagp_accel::speedup::MODEL_BATCH;
use adagp_accel::{AcceleratorConfig, Dataflow};
use adagp_core::{Phase, ScheduleConfig};
use adagp_nn::models::shapes::LayerShape;
use adagp_nn::{SiteKind, SiteMeta};
use adagp_obs as obs;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span names the benchmark records around calls into each layer.
pub const SPAN_FORWARD: &str = "nn.forward";
pub const SPAN_BACKWARD: &str = "nn.backward";
pub const SPAN_OPTIM: &str = "nn.optim_step";
pub const SPAN_PRED_TRAIN: &str = "core.predictor_train";
pub const SPAN_PRED_APPLY: &str = "core.predictor_apply";
const LAYER_SPANS: [&str; 5] = [
    SPAN_FORWARD,
    SPAN_BACKWARD,
    SPAN_OPTIM,
    SPAN_PRED_TRAIN,
    SPAN_PRED_APPLY,
];
const SPAN_CAT: &str = "bench";
const BATCH_SPAN: &str = "batch";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Sweep rounds after each training round. A sweep round's cost varies
/// by about 15% from one round to the next, so `cells_per_cpu_s` needs
/// more rounds than the training metrics do.
const SWEEPS_PER_ROUND: usize = 2;

/// One training arm over the workload's materialised batches.
pub trait Trainer {
    /// Trains batch `batch` of the current epoch; returns the phase it ran
    /// in (`None` for plain backprop) and its loss.
    fn step(&mut self, batch: usize) -> (Option<Phase>, f32);
    /// Marks an epoch boundary.
    fn end_epoch(&mut self);
    /// Whether every trainable weight is finite.
    fn weights_finite(&mut self) -> bool;
    /// `(mean loss, top-1 accuracy in [0, 1])` on the held-out batches.
    fn held_out(&mut self) -> (f64, f64);
}

/// The ADA-GP arm also reports what the round checks need.
pub trait AdaGpArm: Trainer {
    /// `PhaseController::phase_counts()`.
    fn phase_counts(&mut self) -> (u64, u64, u64);
    /// `(forward, backward)` calls the benchmark saw during ADA-GP
    /// training batches.
    fn calls(&self) -> (u64, u64);
    /// Prediction sites with the output activation shape the last
    /// recording forward pass produced at each.
    fn site_shapes(&self) -> Vec<(SiteMeta, Vec<usize>)>;
}

/// A training workload: materialised inputs plus arm construction.
pub trait TrainWorkload: Sized {
    type Ada: AdaGpArm;
    type Base: Trainer;
    /// Generates every input (training and held-out batches) from `seed`.
    fn setup(seed: u64) -> Self;
    /// Fresh arms built from the workload seed.
    fn arms(&self) -> (Self::Ada, Self::Base);
    fn schedule(&self) -> ScheduleConfig;
    fn epochs(&self) -> usize;
    fn batches_per_epoch(&self) -> usize;
    /// Samples per batch (sentences for the transformer).
    fn batch_size(&self) -> usize;
    /// Chance accuracy on the held-out task (1 / classes).
    fn chance(&self) -> f64;
    /// The margin held-out accuracy must beat chance by, or `None` where
    /// the accuracy is reported but does not gate (see the transformer
    /// workload for why).
    fn accuracy_margin(&self) -> Option<f64>;
    /// One line describing the model and inputs.
    fn describe(&self) -> String;
}

/// One timed batch.
#[derive(Debug, Clone, Copy)]
struct BatchRec {
    phase: Option<Phase>,
    /// Wall time.
    ms: f64,
    /// CPU time of all the process's threads.
    cpu_ms: f64,
    loss: f32,
}

/// What one round produced.
struct Round {
    ada: Vec<BatchRec>,
    base: Vec<BatchRec>,
    failed: u64,
    ada_held: (f64, f64),
    base_held: (f64, f64),
    phase_counts: (u64, u64, u64),
    calls: (u64, u64),
    site_shapes: Vec<(SiteMeta, Vec<usize>)>,
}

impl Round {
    /// The bit patterns of the per-batch phase/loss sequence of both arms.
    fn sequence(&self) -> Vec<(Option<Phase>, u32)> {
        self.ada
            .iter()
            .chain(&self.base)
            .map(|b| (b.phase, b.loss.to_bits()))
            .collect()
    }

    fn wall_s(recs: &[BatchRec]) -> f64 {
        recs.iter().map(|b| b.ms).sum::<f64>() / 1e3
    }

    fn cpu_s(recs: &[BatchRec]) -> f64 {
        recs.iter().map(|b| b.cpu_ms).sum::<f64>() / 1e3
    }
}

/// Collects a traced round's spans batch by batch: each batch's lanes are
/// read and cleared right after it (the pool is idle then, as
/// `obs::reset` requires), so the pool's per-task spans never fill a lane.
#[derive(Default)]
struct Tracer {
    batches: Vec<BTreeMap<&'static str, f64>>,
    dropped: u64,
    profiled: Vec<&'static str>,
}

impl Tracer {
    fn after_batch(&mut self, phase: Option<Phase>) {
        let snap = obs::snapshot();
        obs::reset();
        self.dropped += snap.lanes.iter().map(|l| l.dropped).sum::<u64>();
        self.batches.push(fold_batch(&snap));
        let label = phase_label(phase);
        if !self.profiled.contains(&label) {
            self.profiled.push(label);
            print_self_time_profile(label, &snap);
        }
    }
}

fn phase_label(p: Option<Phase>) -> &'static str {
    match p {
        None => "baseline",
        Some(Phase::WarmUp) => "warm-up",
        Some(Phase::BP) => "BP",
        Some(Phase::GP) => "GP",
    }
}

/// Runs one batch of `arm` as a timed operation.
fn timed_step(
    arm: &mut dyn Trainer,
    b: usize,
    failed: &mut u64,
    tracer: Option<&mut Tracer>,
) -> BatchRec {
    let (t, cpu) = (Instant::now(), process_cpu_s());
    let (phase, loss) = obs::span(SPAN_CAT, || BATCH_SPAN.to_string(), || arm.step(b));
    let cpu_ms = (process_cpu_s() - cpu) * 1e3;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    // Outside the timed region: a non-finite gradient leaves non-finite
    // weights behind after the optimizer step.
    if !loss.is_finite() || !arm.weights_finite() {
        *failed += 1;
    }
    if let Some(tracer) = tracer {
        tracer.after_batch(phase);
    }
    BatchRec {
        phase,
        ms,
        cpu_ms,
        loss,
    }
}

fn train_round<W: TrainWorkload>(w: &W, mut tracer: Option<&mut Tracer>) -> Round {
    let (mut ada, mut base) = w.arms();
    let mut failed = 0;
    let mut ada_recs = Vec::new();
    let mut base_recs = Vec::new();
    for _ in 0..w.epochs() {
        for b in 0..w.batches_per_epoch() {
            ada_recs.push(timed_step(&mut ada, b, &mut failed, tracer.as_deref_mut()));
        }
        for b in 0..w.batches_per_epoch() {
            base_recs.push(timed_step(&mut base, b, &mut failed, tracer.as_deref_mut()));
        }
        ada.end_epoch();
        base.end_epoch();
    }
    Round {
        ada: ada_recs,
        base: base_recs,
        failed,
        ada_held: ada.held_out(),
        base_held: base.held_out(),
        phase_counts: ada.phase_counts(),
        calls: ada.calls(),
        site_shapes: ada.site_shapes(),
    }
}

/// `(warm-up, BP, GP)` batch counts re-derived from the schedule: warm-up
/// epochs are all warm-up; afterwards epoch `e` runs the ratio of stage
/// `(e - warmup) / epochs_per_stage` (the last stage persists) in
/// GP-first cycles of `k + m` batches.
pub fn expected_phase_counts(
    s: &ScheduleConfig,
    epochs: usize,
    per_epoch: usize,
) -> (u64, u64, u64) {
    let (mut wu, mut bp, mut gp) = (0u64, 0u64, 0u64);
    for e in 0..epochs {
        if e < s.warmup_epochs {
            wu += per_epoch as u64;
            continue;
        }
        let stage = ((e - s.warmup_epochs) / s.epochs_per_stage).min(s.ratios.len() - 1);
        let (k, m) = s.ratios[stage];
        for b in 0..per_epoch {
            if b % (k + m) < k {
                gp += 1;
            } else {
                bp += 1;
            }
        }
    }
    (wu, bp, gp)
}

/// Layer span totals of one traced batch (the lanes hold only that batch).
fn fold_batch(snap: &obs::TraceSnapshot) -> BTreeMap<&'static str, f64> {
    let mut per = BTreeMap::new();
    for s in snap.lanes.iter().flat_map(|l| &l.spans) {
        if let Some(name) = LAYER_SPANS
            .iter()
            .find(|n| s.cat == SPAN_CAT && **n == s.name)
        {
            *per.entry(*name).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    per
}

/// Runs a training workload for `budget` and returns its report.
pub fn run<W: TrainWorkload>(
    process_start: Instant,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Report {
    let mut rep = Report::new();

    // Set-up, several times: generate the inputs, build both arms (models
    // and predictor) and evaluate them on the held-out batches, the
    // reference for the learning checks. The first set-up counts from
    // process start and includes starting the pool. `setup_s` is CPU
    // time, like every timing metric of the end-to-end run; wall time is
    // printed beside it.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for i in 0..SETUPS {
        let (t, cpu) = if i == 0 {
            (process_start, 0.0)
        } else {
            (Instant::now(), process_cpu_s())
        };
        let pool_threads = adagp_runtime::pool().size();
        let w = W::setup(seed);
        let (mut ada, mut base) = w.arms();
        let held = (ada.held_out(), base.held_out());
        setup_s.push(process_cpu_s() - cpu);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        if i == 0 {
            println!("pool threads: {pool_threads}; nproc: {}", nproc());
        }
        workload = Some((w, held));
    }
    let (w, held_init) = workload.expect("at least one set-up");
    println!("workload: {}", w.describe());
    let expected = expected_phase_counts(&w.schedule(), w.epochs(), w.batches_per_epoch());
    println!(
        "schedule: {:?}; {} epochs x {} batches; expected (warm-up, BP, GP) = {expected:?}",
        w.schedule(),
        w.epochs(),
        w.batches_per_epoch()
    );

    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_flags: Vec<bool> = Vec::new();
    let mut tracer = Tracer::default();
    let mut sweeps = SweepRounds::new(seed, trace);
    let t0 = Instant::now();
    loop {
        // The traced run alternates untraced and traced rounds, starting
        // untraced; the end-to-end run never traces.
        let traced = trace && rounds.len() % 2 == 1;
        let round = if traced {
            obs::reset();
            obs::set_enabled(true);
            let round = train_round(&w, Some(&mut tracer));
            obs::set_enabled(false);
            round
        } else {
            train_round(&w, None)
        };
        rounds.push(round);
        traced_flags.push(traced);
        // Sweep rounds after every training round, so a slow spell on the
        // machine lands on both alike.
        if !(0..SWEEPS_PER_ROUND).all(|_| sweeps.run_one(&mut rep)) {
            break;
        }
        let n = rounds.len() as u32;
        let elapsed = t0.elapsed();
        // A traced run needs at least one untraced and one traced round.
        let min_rounds = if trace { 2 } else { 1 };
        if n >= min_rounds && elapsed + elapsed / n > budget {
            break;
        }
    }
    println!(
        "rounds: {} training + sweep in {:.2} s",
        rounds.len(),
        t0.elapsed().as_secs_f64()
    );
    sweeps.count_operations(&mut rep);

    // Checks, on every round.
    let (held_ada0, held_base0) = held_init;
    let chance = w.chance();
    let reference = rounds[0].sequence();
    for (i, r) in rounds.iter().enumerate() {
        rep.attempted += (r.ada.len() + r.base.len()) as u64;
        rep.failed += r.failed;
        rep.check(
            &format!("round {i}: phase counts match schedule arithmetic"),
            r.phase_counts == expected,
            format!("controller {:?}, derived {expected:?}", r.phase_counts),
        );
        let all = expected.0 + expected.1 + expected.2;
        rep.check(
            &format!(
                "round {i}: forward calls = ADA-GP batches, backward calls = warm-up + BP batches"
            ),
            r.calls == (all, expected.0 + expected.1),
            format!(
                "(forward, backward) {:?} vs ({all}, {})",
                r.calls,
                expected.0 + expected.1
            ),
        );
        for (arm, held0, held) in [
            ("adagp", held_ada0, r.ada_held),
            ("baseline", held_base0, r.base_held),
        ] {
            rep.check(
                &format!("round {i}: {arm} held-out loss below its initial loss"),
                held.0 < held0.0,
                format!("{:.4} -> {:.4}", held0.0, held.0),
            );
            let detail = format!("{:.1}% vs chance {:.1}%", 100.0 * held.1, 100.0 * chance);
            match w.accuracy_margin() {
                Some(margin) => rep.check(
                    &format!(
                        "round {i}: {arm} held-out accuracy beats chance + {:.0} points",
                        100.0 * margin
                    ),
                    held.1 >= chance + margin,
                    detail,
                ),
                None => println!("info round {i}: {arm} held-out accuracy {detail} (not gated)"),
            }
        }
        let label = if traced_flags[i] {
            "traced"
        } else {
            "untraced"
        };
        rep.check(
            &format!(
                "round {i} ({label}): per-batch loss and phase sequence bit-identical to round 0"
            ),
            r.sequence() == reference,
            format!("{} batches", reference.len()),
        );
    }

    let batch = w.batch_size() as f64;
    let e2e: Vec<&Round> = rounds
        .iter()
        .zip(&traced_flags)
        .filter(|(_, t)| !**t)
        .map(|(r, _)| r)
        .collect();
    let ada_samples: f64 = e2e.iter().map(|r| r.ada.len() as f64 * batch).sum();
    let base_samples: f64 = e2e.iter().map(|r| r.base.len() as f64 * batch).sum();
    fn arm(r: &Round, ada: bool) -> &[BatchRec] {
        if ada {
            &r.ada
        } else {
            &r.base
        }
    }
    let per_s = |samples: f64, secs: fn(&[BatchRec]) -> f64, ada: bool| -> f64 {
        samples / e2e.iter().map(|r| secs(arm(r, ada))).sum::<f64>()
    };
    let samples_per_cpu_s = per_s(ada_samples, Round::cpu_s, true);
    let baseline_samples_per_cpu_s = per_s(base_samples, Round::cpu_s, false);
    let samples_per_s = per_s(ada_samples, Round::wall_s, true);
    let baseline_samples_per_s = per_s(base_samples, Round::wall_s, false);
    let times = |ada: bool, pick: fn(Option<Phase>) -> bool, ms: fn(&BatchRec) -> f64| {
        e2e.iter()
            .flat_map(|r| arm(r, ada))
            .filter(|b| pick(b.phase))
            .map(ms)
            .collect::<Vec<f64>>()
    };
    let is_bp = |p: Option<Phase>| matches!(p, Some(Phase::WarmUp | Phase::BP));
    let is_gp = |p: Option<Phase>| p == Some(Phase::GP);
    let any = |_: Option<Phase>| true;
    let cpu = |b: &BatchRec| b.cpu_ms;
    let wall = |b: &BatchRec| b.ms;
    let bp = times(true, is_bp, cpu);
    let gp = times(true, is_gp, cpu);
    let base_cpu = times(false, any, cpu);
    print_distribution("bp_step_cpu_ms (warm-up + BP)", &bp);
    print_distribution("gp_step_cpu_ms", &gp);
    print_distribution("baseline_step_cpu_ms", &base_cpu);
    print_distribution("wall bp_step_ms (warm-up + BP)", &times(true, is_bp, wall));
    print_distribution("wall gp_step_ms", &times(true, is_gp, wall));
    print_distribution("wall baseline_step_ms", &times(false, any, wall));
    println!(
        "wall: samples_per_s {samples_per_s:.3}, baseline_samples_per_s {baseline_samples_per_s:.3}, setup_s {:.4}",
        median(&setup_wall_s)
    );
    println!(
        "measured software speedup samples_per_s / baseline_samples_per_s = {:.3} (wall), {:.3} (CPU)",
        samples_per_s / baseline_samples_per_s,
        samples_per_cpu_s / baseline_samples_per_cpu_s
    );
    let shapes = &rounds[0].site_shapes;
    print_cycle_model(shapes, w.batch_size(), expected);

    if !trace {
        rep.metric("setup_s", median(&setup_s), "s");
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
        rep.metric("samples_per_cpu_s", samples_per_cpu_s, "1/s");
        rep.metric(
            "baseline_samples_per_cpu_s",
            baseline_samples_per_cpu_s,
            "1/s",
        );
        rep.metric("bp_step_cpu_ms", median(&bp), "ms");
        rep.metric("gp_step_cpu_ms", median(&gp), "ms");
        rep.metric("baseline_step_cpu_ms", median(&base_cpu), "ms");
        rep.metric("cells_per_cpu_s", sweeps.cells_per_cpu_s(), "1/s");
        return rep;
    }

    // Per-layer metrics from the traced rounds.
    rep.check(
        "traced rounds dropped no spans",
        tracer.dropped == 0,
        format!("{} dropped", tracer.dropped),
    );
    let batch_spans = &tracer.batches;
    let layer = |name: &str, pick: &dyn Fn(&BTreeMap<&'static str, f64>) -> bool| -> f64 {
        let v: Vec<f64> = batch_spans
            .iter()
            .filter(|m| pick(m))
            .filter_map(|m| m.get(name).copied())
            .collect();
        median(&v)
    };
    let bp_batch = |m: &BTreeMap<&'static str, f64>| m.contains_key(SPAN_PRED_TRAIN);
    let gp_batch = |m: &BTreeMap<&'static str, f64>| m.contains_key(SPAN_PRED_APPLY);
    rep.metric("nn.forward_ms", layer(SPAN_FORWARD, &|_| true), "ms");
    rep.metric("nn.backward_ms", layer(SPAN_BACKWARD, &|_| true), "ms");
    rep.metric("nn.optim_step_ms", layer(SPAN_OPTIM, &|_| true), "ms");
    rep.metric(
        "core.predictor_train_ms",
        layer(SPAN_PRED_TRAIN, &bp_batch),
        "ms",
    );
    rep.metric(
        "core.predictor_apply_ms",
        layer(SPAN_PRED_APPLY, &gp_batch),
        "ms",
    );
    rep.metric("core.sites", shapes.len() as f64, "count");
    let rows: usize = shapes.iter().map(|(m, _)| m.out_channels()).sum();
    rep.metric("core.predicted_rows", rows as f64, "count");

    let pool = kernels::kernel_pass(shapes, seed, true, &mut rep);
    for (kernel, gflops) in &pool.by_kernel {
        println!("kernel {kernel}: {gflops:.3} GFLOP/s");
    }
    for (role, gflops) in &pool.by_role {
        rep.metric(&format!("tensor.{role}.gflops"), *gflops, "GFLOP/s");
    }
    rep.metric("tensor.kernel_ms", pool.total_ms, "ms");
    let threads = adagp_runtime::pool().size();
    rep.metric("runtime.pool_threads", threads as f64, "count");
    let serial =
        adagp_runtime::with_threads(1, || kernels::kernel_pass(shapes, seed, false, &mut rep));
    rep.check(
        "kernel outputs bit-identical at 1 thread and at pool size",
        serial.outputs == pool.outputs,
        format!("{} outputs", pool.outputs.len()),
    );
    rep.metric(
        "runtime.kernel_scaling",
        serial.total_ms / pool.total_ms,
        "ratio",
    );

    // Tracing overhead: matched untraced/traced round pairs, in CPU time
    // like the end-to-end metrics.
    let pairs: Vec<f64> = rounds
        .chunks_exact(2)
        .map(|p| {
            let untraced = Round::cpu_s(&p[0].ada) + Round::cpu_s(&p[0].base);
            let traced = Round::cpu_s(&p[1].ada) + Round::cpu_s(&p[1].base);
            100.0 * (traced / untraced - 1.0)
        })
        .collect();
    rep.metric("obs.trace_overhead_pct", median(&pairs), "%");
    sweeps.layer_metrics(&mut rep);
    rep
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the span self-time profile of one traced batch through the
/// `obs` profile fold: where the batch's time goes once nested spans (pool
/// tasks, the trainer's own phase spans) are taken out.
fn print_self_time_profile(label: &str, snap: &obs::TraceSnapshot) {
    let flat = obs::build_profile(snap).flat();
    let (tasks, named): (Vec<_>, Vec<_>) = flat.iter().partition(|l| l.name.starts_with("task "));
    println!("self-time profile of the first traced {label} batch (obs profile fold):");
    for line in named.iter().take(10) {
        println!(
            "  {:<28} calls {:>5}  total {:>9.3} ms  self {:>9.3} ms",
            line.name,
            line.calls,
            line.total_ns as f64 / 1e6,
            line.self_ns as f64 / 1e6
        );
    }
    println!(
        "  {:<28} calls {:>5}  total {:>9.3} ms  (pool task spans, summed)",
        "task *",
        tasks.iter().map(|l| l.calls).sum::<u64>(),
        tasks.iter().map(|l| l.total_ns).sum::<u64>() as f64 / 1e6
    );
}

/// The cycle model's speedup for the trained model itself: its site
/// shapes as `LayerShape`s, at the round's exact phase counts.
fn print_cycle_model(
    shapes: &[(SiteMeta, Vec<usize>)],
    batch: usize,
    (wu, bp, gp): (u64, u64, u64),
) {
    let layers: Vec<LayerShape> = shapes
        .iter()
        .map(|(m, act)| match m.kind {
            SiteKind::Conv2d => LayerShape {
                label: m.label.clone(),
                kind: adagp_nn::models::shapes::LayerKind::Conv,
                in_ch: m.weight_shape[1],
                out_ch: m.weight_shape[0],
                k: m.weight_shape[2],
                h_out: act[2],
                w_out: act[3],
            },
            // A linear layer applied to each of a sample's `rows / batch`
            // tokens costs what a 1x1 convolution over that many
            // positions costs; a plain fc layer has one row per sample.
            SiteKind::Linear => LayerShape {
                label: m.label.clone(),
                kind: adagp_nn::models::shapes::LayerKind::Conv,
                in_ch: m.weight_shape[1],
                out_ch: m.weight_shape[0],
                k: 1,
                h_out: act[0] / batch,
                w_out: 1,
            },
        })
        .collect();
    let cfg = AcceleratorConfig::default();
    let costs = model_costs(
        &cfg,
        Dataflow::WeightStationary,
        &PredictorCostModel::default(),
        &layers,
        MODEL_BATCH,
    );
    let base = designs::baseline_batch_cycles(&costs) as f64;
    for design in AdaGpDesign::all() {
        let b = designs::bp_batch_cycles(design, &costs) as f64;
        let g = designs::gp_batch_cycles(design, &costs) as f64;
        let total = (wu + bp + gp) as f64;
        println!(
            "cycle model (WS, {}): speedup {:.3} at this phase mix (baseline {base} / BP {b} / GP {g} cycles per batch)",
            design.name(),
            total * base / ((wu + bp) as f64 * b + gp as f64 * g)
        );
    }
}
