//! `train_cnn`: a scaled zoo ResNet-50 on the CIFAR-10 stand-in at 32x32,
//! ADA-GP through `AdaGp::train_batch` against `BaselineTrainer`.
//!
//! The benchmark sees inside `train_batch` only through two wrappers of
//! its own: [`Spanned`] around the model (a `Module` that counts and spans
//! `forward`/`backward`, and spans the one `visit_sites` walk each batch's
//! predictor hook makes) and [`SpannedOpt`] around the optimizer.

use crate::train::{
    AdaGpArm, TrainWorkload, Trainer, SPAN_BACKWARD, SPAN_FORWARD, SPAN_OPTIM, SPAN_PRED_APPLY,
    SPAN_PRED_TRAIN,
};
use adagp_core::{AdaGp, AdaGpConfig, BaselineTrainer, Phase, ScheduleConfig};
use adagp_nn::data::{DatasetSpec, VisionDataset};
use adagp_nn::models::{build_cnn, CnnModel, ModelConfig};
use adagp_nn::module::{ForwardCtx, Module, PredictionSite};
use adagp_nn::optim::{Optimizer, Sgd};
use adagp_nn::{Param, SiteMeta};
use adagp_obs as obs;
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::{Prng, Tensor};

const CLASSES: usize = 10;
const IMAGE: usize = 32;
const BATCH: usize = 16;
const BATCHES_PER_EPOCH: usize = 5;
const EPOCHS: usize = 6;
const HELD_OUT_BATCHES: usize = 4;
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;

/// Delegates to the model; counts and spans the calls the trainer makes.
pub struct Spanned<M: Module> {
    pub inner: M,
    /// Span name for the next `visit_sites` walk (the predictor hook of
    /// the batch about to run), or `None` outside training batches.
    hook: Option<&'static str>,
    forwards: u64,
    backwards: u64,
    site_shapes: Vec<(SiteMeta, Vec<usize>)>,
}

impl<M: Module> Spanned<M> {
    pub fn new(inner: M) -> Self {
        Spanned {
            inner,
            hook: None,
            forwards: 0,
            backwards: 0,
            site_shapes: Vec::new(),
        }
    }
}

impl<M: Module> Module for Spanned<M> {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        self.forwards += 1;
        let inner = &mut self.inner;
        obs::span(
            "bench",
            || SPAN_FORWARD.to_string(),
            || inner.forward(x, ctx),
        )
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backwards += 1;
        let inner = &mut self.inner;
        obs::span("bench", || SPAN_BACKWARD.to_string(), || inner.backward(dy))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        let Some(name) = self.hook else {
            return self.inner.visit_sites(f);
        };
        let (inner, shapes) = (&mut self.inner, &mut self.site_shapes);
        let record = shapes.is_empty();
        obs::span(
            "bench",
            || name.to_string(),
            || {
                inner.visit_sites(&mut |site| {
                    if record {
                        if let Some(act) = site.activation() {
                            shapes.push((site.meta(), act.shape().to_vec()));
                        }
                    }
                    f(site)
                })
            },
        );
    }
}

/// Spans `Optimizer::step`.
pub struct SpannedOpt<O: Optimizer>(pub O);

impl<O: Optimizer> Optimizer for SpannedOpt<O> {
    fn step(&mut self, model: &mut dyn Module) {
        let inner = &mut self.0;
        obs::span("bench", || SPAN_OPTIM.to_string(), || inner.step(model));
    }

    fn lr(&self) -> f32 {
        self.0.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.0.set_lr(lr);
    }
}

type Batch = (Tensor, Vec<usize>);

pub struct CnnWorkload {
    seed: u64,
    train: Vec<Batch>,
    held_out: Vec<Batch>,
}

fn model_config() -> ModelConfig {
    ModelConfig {
        width: 0.125,
        depth_div: 4,
        classes: CLASSES,
    }
}

fn schedule() -> ScheduleConfig {
    // The default schedule (2 warm-up epochs, 4:1 -> 3:1 -> 2:1 -> 1:1)
    // with one epoch per annealing stage instead of four.
    ScheduleConfig {
        epochs_per_stage: 1,
        ..ScheduleConfig::default()
    }
}

/// Shared state of a CNN arm.
pub struct CnnArm {
    model: Spanned<adagp_nn::containers::Sequential>,
    opt: SpannedOpt<Sgd>,
    batches: Vec<Batch>,
    held_out: Vec<Batch>,
}

impl CnnArm {
    fn new(seed: u64, w: &CnnWorkload) -> (Self, Prng) {
        let mut rng = Prng::seed_from_u64(seed);
        let model = build_cnn(CnnModel::ResNet50, &model_config(), 3, IMAGE, &mut rng);
        let arm = CnnArm {
            model: Spanned::new(model),
            opt: SpannedOpt(Sgd::new(LR, MOMENTUM)),
            batches: w.train.clone(),
            held_out: w.held_out.clone(),
        };
        (arm, rng)
    }

    fn weights_finite(&mut self) -> bool {
        let mut ok = true;
        self.model
            .visit_params(&mut |p| ok &= p.value.data().iter().all(|v| v.is_finite()));
        ok
    }

    fn held_out(&mut self) -> (f64, f64) {
        let (mut loss, mut correct, mut total) = (0.0f64, 0usize, 0usize);
        for (x, y) in &self.held_out {
            let logits = self.model.inner.forward(x, &mut ForwardCtx::eval());
            loss += cross_entropy(&logits, y).0 as f64;
            let c = logits.dim(1);
            for (i, &t) in y.iter().enumerate() {
                let row = &logits.data()[i * c..(i + 1) * c];
                let pred = (0..c)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .unwrap_or(0);
                correct += usize::from(pred == t);
                total += 1;
            }
        }
        (
            loss / self.held_out.len() as f64,
            correct as f64 / total as f64,
        )
    }
}

pub struct CnnAda {
    arm: CnnArm,
    adagp: AdaGp,
}

pub struct CnnBase {
    arm: CnnArm,
    trainer: BaselineTrainer,
}

impl Trainer for CnnAda {
    fn step(&mut self, b: usize) -> (Option<Phase>, f32) {
        let phase = self.adagp.controller_mut().peek();
        let model = &mut self.arm.model;
        model.hook = Some(if phase == Phase::GP {
            SPAN_PRED_APPLY
        } else {
            SPAN_PRED_TRAIN
        });
        let (x, y) = &self.arm.batches[b];
        let stats = self.adagp.train_batch(model, &mut self.arm.opt, x, y);
        model.hook = None;
        (Some(stats.phase), stats.loss)
    }

    fn end_epoch(&mut self) {
        self.adagp.controller_mut().end_epoch();
    }

    fn weights_finite(&mut self) -> bool {
        self.arm.weights_finite()
    }

    fn held_out(&mut self) -> (f64, f64) {
        self.arm.held_out()
    }
}

impl AdaGpArm for CnnAda {
    fn phase_counts(&mut self) -> (u64, u64, u64) {
        self.adagp.controller_mut().phase_counts()
    }

    fn calls(&self) -> (u64, u64) {
        (self.arm.model.forwards, self.arm.model.backwards)
    }

    fn site_shapes(&self) -> Vec<(SiteMeta, Vec<usize>)> {
        self.arm.model.site_shapes.clone()
    }
}

impl Trainer for CnnBase {
    fn step(&mut self, b: usize) -> (Option<Phase>, f32) {
        let (x, y) = &self.arm.batches[b];
        let stats = self
            .trainer
            .train_batch(&mut self.arm.model, &mut self.arm.opt, x, y);
        (None, stats.loss)
    }

    fn end_epoch(&mut self) {}

    fn weights_finite(&mut self) -> bool {
        self.arm.weights_finite()
    }

    fn held_out(&mut self) -> (f64, f64) {
        self.arm.held_out()
    }
}

impl TrainWorkload for CnnWorkload {
    type Ada = CnnAda;
    type Base = CnnBase;

    fn setup(seed: u64) -> Self {
        let spec = DatasetSpec {
            classes: CLASSES,
            channels: 3,
            size: IMAGE,
            train_len: BATCHES_PER_EPOCH * BATCH,
            test_len: HELD_OUT_BATCHES * BATCH,
        };
        let data = VisionDataset::new(spec, seed);
        CnnWorkload {
            seed,
            train: (0..BATCHES_PER_EPOCH)
                .map(|b| data.train_batch(b, BATCH))
                .collect(),
            held_out: (0..HELD_OUT_BATCHES)
                .map(|b| data.test_batch(b, BATCH))
                .collect(),
        }
    }

    fn arms(&self) -> (CnnAda, CnnBase) {
        let (mut ada_arm, mut rng) = CnnArm::new(self.seed, self);
        let cfg = AdaGpConfig {
            schedule: schedule(),
            ..AdaGpConfig::default()
        };
        let adagp = AdaGp::new(cfg, &mut ada_arm.model, &mut rng);
        // Only forward/backward calls made inside training batches count.
        ada_arm.model.forwards = 0;
        ada_arm.model.backwards = 0;
        let (base_arm, _) = CnnArm::new(self.seed, self);
        (
            CnnAda {
                arm: ada_arm,
                adagp,
            },
            CnnBase {
                arm: base_arm,
                trainer: BaselineTrainer::new(),
            },
        )
    }

    fn schedule(&self) -> ScheduleConfig {
        schedule()
    }

    fn epochs(&self) -> usize {
        EPOCHS
    }

    fn batches_per_epoch(&self) -> usize {
        BATCHES_PER_EPOCH
    }

    fn batch_size(&self) -> usize {
        BATCH
    }

    fn chance(&self) -> f64 {
        1.0 / CLASSES as f64
    }

    fn accuracy_margin(&self) -> Option<f64> {
        Some(0.2)
    }

    fn describe(&self) -> String {
        format!(
            "ResNet-50 (width 0.125, depth/4), {CLASSES} classes, 3x{IMAGE}x{IMAGE} inputs, batch {BATCH}, \
             {BATCHES_PER_EPOCH} training + {HELD_OUT_BATCHES} held-out batches from seed {}, SGD lr {LR} momentum {MOMENTUM}",
            self.seed
        )
    }
}
