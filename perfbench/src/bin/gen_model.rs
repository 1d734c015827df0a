//! Trains the paper-topology snapshot the serve workloads load.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin gen_model
//! ```
//!
//! Seeds data, weights and the training loop from `MODEL_SEED` and
//! trains with the one fixed budget below, so it reproduces exactly
//! the committed snapshot. Prints the held-out accuracy and the
//! content hash, which must equal `MODEL_FNV64`.

use std::time::Instant;

use perfbench::{model_path, synth, CLASSES, MODEL_SEED, TIMESTEPS};
use snn_core::{
    evaluate, fit, LifConfig, LrSchedule, NetworkSnapshot, SpikingNetwork, TrainConfig,
};
use snn_data::SpikeEncoding;
use snn_tensor::{derive_seed, Shape};

/// Training samples.
const TRAIN_SAMPLES: usize = 2048;
/// Passes over the training samples.
const EPOCHS: usize = 4;
/// Held-out samples the printed accuracy is measured on.
const TEST_SAMPLES: usize = 512;

fn main() {
    let train = synth().generate(TRAIN_SAMPLES, derive_seed(MODEL_SEED, "train"));
    let test = synth().generate(TEST_SAMPLES, derive_seed(MODEL_SEED, "test"));
    let mut net = SpikingNetwork::paper_topology(
        Shape::d3(3, 32, 32),
        CLASSES,
        LifConfig::paper_default(),
        derive_seed(MODEL_SEED, "weights"),
    )
    .expect("paper topology builds");
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 32,
        timesteps: TIMESTEPS,
        base_lr: 5e-3,
        schedule: LrSchedule::CosineAnnealing {
            t_max: 0,
            eta_min: 0.0,
        },
        encoding: SpikeEncoding::Direct,
        seed: derive_seed(MODEL_SEED, "train-loop"),
        ..TrainConfig::default()
    };
    let started = Instant::now();
    let report = fit(&cfg, &mut net, &train).expect("training runs");
    let eval = evaluate(&mut net, &test, SpikeEncoding::Direct, TIMESTEPS, 32, 0);
    println!(
        "trained {TRAIN_SAMPLES} samples x {EPOCHS} epochs in {:.1} s: train acc {:.3}, held-out acc {:.3}, firing rate {:.3}",
        started.elapsed().as_secs_f64(),
        report.final_train_accuracy(),
        eval.accuracy,
        eval.profile.mean_firing_rate()
    );
    let path = model_path();
    NetworkSnapshot::from_network(&net)
        .save_json(&path)
        .expect("writing snapshot");
    let bytes = std::fs::read(&path).expect("reading snapshot back");
    println!(
        "wrote {} ({} bytes), fnv64 {}",
        path.display(),
        bytes.len(),
        snn_store::fnv64_hex(&bytes)
    );
}
