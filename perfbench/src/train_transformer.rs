//! `train_transformer`: the Table-2 encoder–decoder on the Multi30k
//! stand-in, driven through the public ADA-GP hooks the way
//! `adagp_bench::translation` drives it (`forward_with_ctx`, `backward`,
//! `train_predictor_from_sites`, `apply_predicted_gradients`), against a
//! plain-backprop arm. The benchmark makes every call itself, so each one
//! gets its own span.

use crate::train::{
    AdaGpArm, TrainWorkload, Trainer, SPAN_BACKWARD, SPAN_FORWARD, SPAN_OPTIM, SPAN_PRED_APPLY,
    SPAN_PRED_TRAIN,
};
use adagp_core::{AdaGp, AdaGpConfig, Phase, ScheduleConfig};
use adagp_nn::data::{TranslationDataset, BOS};
use adagp_nn::models::{Transformer, TransformerConfig};
use adagp_nn::module::{ForwardCtx, Module};
use adagp_nn::optim::{Adam, Optimizer};
use adagp_nn::SiteMeta;
use adagp_obs as obs;
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::{Prng, Tensor};

const VOCAB: usize = 64;
const SENTENCE: usize = 16;
const BATCH: usize = 16;
const BATCHES_PER_EPOCH: usize = 5;
const EPOCHS: usize = 6;
const HELD_OUT_BATCHES: usize = 2;
const LR: f32 = 2e-3;

fn model_config() -> TransformerConfig {
    TransformerConfig {
        vocab: VOCAB,
        d_model: 64,
        n_heads: 4,
        d_ff: 256,
        n_enc: 3,
        n_dec: 3,
        max_len: 64,
    }
}

fn schedule() -> ScheduleConfig {
    // The default schedule with one epoch per annealing stage.
    ScheduleConfig {
        epochs_per_stage: 1,
        ..ScheduleConfig::default()
    }
}

/// One materialised batch: sources, teacher-forced decoder inputs and
/// flattened targets.
#[derive(Clone)]
struct Batch {
    src: Vec<Vec<usize>>,
    tgt_in: Vec<Vec<usize>>,
    targets: Vec<usize>,
}

fn make_batch(pairs: Vec<(Vec<usize>, Vec<usize>)>) -> Batch {
    let mut b = Batch {
        src: Vec::new(),
        tgt_in: Vec::new(),
        targets: Vec::new(),
    };
    for (s, t) in pairs {
        let mut tin = Vec::with_capacity(t.len());
        tin.push(BOS);
        tin.extend_from_slice(&t[..t.len() - 1]);
        b.targets.extend_from_slice(&t);
        b.src.push(s);
        b.tgt_in.push(tin);
    }
    b
}

pub struct TransformerWorkload {
    seed: u64,
    train: Vec<Batch>,
    held_out: Vec<Batch>,
}

pub struct TfArm {
    model: Transformer,
    opt: Adam,
    batches: Vec<Batch>,
    held_out: Vec<Batch>,
}

impl TfArm {
    fn new(w: &TransformerWorkload) -> (Self, Prng) {
        let mut rng = Prng::seed_from_u64(w.seed);
        let model = Transformer::new(model_config(), &mut rng);
        let arm = TfArm {
            model,
            opt: Adam::new(LR),
            batches: w.train.clone(),
            held_out: w.held_out.clone(),
        };
        (arm, rng)
    }

    fn forward(&mut self, b: usize, ctx: ForwardCtx) -> Tensor {
        let (model, batch) = (&mut self.model, &self.batches[b]);
        obs::span(
            "bench",
            || SPAN_FORWARD.to_string(),
            || model.forward_with_ctx(&batch.src, &batch.tgt_in, &mut { ctx }),
        )
    }

    fn backward(&mut self, dlogits: &Tensor) {
        let model = &mut self.model;
        obs::span(
            "bench",
            || SPAN_BACKWARD.to_string(),
            || model.backward(dlogits),
        );
    }

    fn optim_step(&mut self) {
        let (model, opt) = (&mut self.model, &mut self.opt);
        obs::span("bench", || SPAN_OPTIM.to_string(), || opt.step(model));
    }

    fn weights_finite(&mut self) -> bool {
        let mut ok = true;
        self.model
            .visit_params(&mut |p| ok &= p.value.data().iter().all(|v| v.is_finite()));
        ok
    }

    /// Token-level held-out loss and accuracy under teacher forcing.
    fn held_out(&mut self) -> (f64, f64) {
        let (mut loss, mut correct, mut total) = (0.0f64, 0usize, 0usize);
        for batch in &self.held_out {
            let logits =
                self.model
                    .forward_with_ctx(&batch.src, &batch.tgt_in, &mut ForwardCtx::eval());
            loss += cross_entropy(&logits, &batch.targets).0 as f64;
            let v = logits.dim(1);
            for (i, &t) in batch.targets.iter().enumerate() {
                let row = &logits.data()[i * v..(i + 1) * v];
                let pred = (0..v)
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

pub struct TfAda {
    arm: TfArm,
    adagp: AdaGp,
    forwards: u64,
    backwards: u64,
    site_shapes: Vec<(SiteMeta, Vec<usize>)>,
}

pub struct TfBase {
    arm: TfArm,
}

impl Trainer for TfAda {
    fn step(&mut self, b: usize) -> (Option<Phase>, f32) {
        let phase = self.adagp.controller_mut().next_phase();
        let logits = self.arm.forward(b, ForwardCtx::train_recording());
        self.forwards += 1;
        if self.site_shapes.is_empty() {
            let shapes = &mut self.site_shapes;
            self.arm.model.visit_sites(&mut |s| {
                if let Some(act) = s.activation() {
                    shapes.push((s.meta(), act.shape().to_vec()));
                }
            });
        }
        let (loss, dlogits) = cross_entropy(&logits, &self.arm.batches[b].targets);
        let adagp = &mut self.adagp;
        match phase {
            Phase::WarmUp | Phase::BP => {
                self.arm.backward(&dlogits);
                self.backwards += 1;
                let model = &mut self.arm.model;
                let (_, mape) = obs::span(
                    "bench",
                    || SPAN_PRED_TRAIN.to_string(),
                    || adagp.train_predictor_from_sites(model),
                );
                if let Some(m) = mape {
                    adagp.controller_mut().report_mape(m);
                }
            }
            Phase::GP => {
                let model = &mut self.arm.model;
                obs::span(
                    "bench",
                    || SPAN_PRED_APPLY.to_string(),
                    || adagp.apply_predicted_gradients(model),
                );
            }
        }
        self.arm.optim_step();
        (Some(phase), loss)
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

impl AdaGpArm for TfAda {
    fn phase_counts(&mut self) -> (u64, u64, u64) {
        self.adagp.controller_mut().phase_counts()
    }

    fn calls(&self) -> (u64, u64) {
        (self.forwards, self.backwards)
    }

    fn site_shapes(&self) -> Vec<(SiteMeta, Vec<usize>)> {
        self.site_shapes.clone()
    }
}

impl Trainer for TfBase {
    fn step(&mut self, b: usize) -> (Option<Phase>, f32) {
        let logits = self.arm.forward(b, ForwardCtx::train());
        let (loss, dlogits) = cross_entropy(&logits, &self.arm.batches[b].targets);
        self.arm.backward(&dlogits);
        self.arm.optim_step();
        (None, loss)
    }

    fn end_epoch(&mut self) {}

    fn weights_finite(&mut self) -> bool {
        self.arm.weights_finite()
    }

    fn held_out(&mut self) -> (f64, f64) {
        self.arm.held_out()
    }
}

impl TrainWorkload for TransformerWorkload {
    type Ada = TfAda;
    type Base = TfBase;

    fn setup(seed: u64) -> Self {
        let data = TranslationDataset::new(
            VOCAB,
            SENTENCE,
            BATCHES_PER_EPOCH * BATCH,
            HELD_OUT_BATCHES * BATCH,
            seed,
        );
        let train = (0..BATCHES_PER_EPOCH)
            .map(|b| make_batch((0..BATCH).map(|i| data.train_pair(b * BATCH + i)).collect()))
            .collect();
        let held_out = (0..HELD_OUT_BATCHES)
            .map(|b| make_batch((0..BATCH).map(|i| data.test_pair(b * BATCH + i)).collect()))
            .collect();
        TransformerWorkload {
            seed,
            train,
            held_out,
        }
    }

    fn arms(&self) -> (TfAda, TfBase) {
        let (mut arm, mut rng) = TfArm::new(self);
        let cfg = AdaGpConfig {
            schedule: schedule(),
            ..AdaGpConfig::default()
        };
        let adagp = AdaGp::new(cfg, &mut arm.model, &mut rng);
        let ada = TfAda {
            arm,
            adagp,
            forwards: 0,
            backwards: 0,
            site_shapes: Vec::new(),
        };
        let (base, _) = TfArm::new(self);
        (ada, TfBase { arm: base })
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
        1.0 / VOCAB as f64
    }

    /// Not gated: at this size the 3+3-layer model stays at the target
    /// marginal (held-out loss ~ln(VOCAB - 3), accuracy ~chance) for
    /// hundreds of Adam steps, far beyond one round's 30 batches; the
    /// repo's own Table-2 harness ends at chance too. The held-out loss
    /// check still gates: both arms must move from the initial loss to
    /// below it.
    fn accuracy_margin(&self) -> Option<f64> {
        None
    }

    fn describe(&self) -> String {
        let c = model_config();
        format!(
            "Transformer d_model {} heads {} d_ff {} layers {}+{}, vocab {VOCAB}, {SENTENCE}-token sentences, batch {BATCH}, \
             {BATCHES_PER_EPOCH} training + {HELD_OUT_BATCHES} held-out batches from seed {}, Adam lr {LR}",
            c.d_model, c.n_heads, c.d_ff, c.n_enc, c.n_dec, self.seed
        )
    }
}
