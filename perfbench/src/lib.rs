//! The repository benchmark: its modules, and the definitions they
//! share — the image distribution, the served network's presentation
//! length, and where the committed trained snapshot lives.

pub mod client;
pub mod images;
pub mod ledger;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

use snn_data::SynthConfig;

/// Timesteps every served inference and the DSE point run for.
pub const TIMESTEPS: usize = 8;

/// Classes of the synthetic digit task.
pub const CLASSES: usize = 10;

/// Seed the committed snapshot was trained from (`gen_model`).
pub const MODEL_SEED: u64 = 2024;

/// FNV-1a 64 content hash of the committed snapshot file.
pub const MODEL_FNV64: &str = "0053d3a9b99d77a9";

/// The synthetic SVHN-like 32×32×3 digit distribution every workload
/// draws from: the repository's reduced-difficulty task (single ink
/// polarity, less clutter) at the paper's full image size.
pub fn synth() -> SynthConfig {
    SynthConfig {
        size: 32,
        channels: 3,
        ..SynthConfig::small()
    }
}

/// Path of the committed trained paper-topology f32 snapshot.
pub fn model_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("model")
        .join("paper_f32.json")
}
