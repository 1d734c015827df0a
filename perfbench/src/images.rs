//! The seeded image pool requests are drawn from.

use snn_data::Dataset;
use snn_serve::parse_infer_body;
use snn_tensor::derive_seed;

use crate::synth;

/// Labeled synthetic digits, each pre-rendered as an `/infer` body.
pub struct ImagePool {
    /// Request bodies, `{"input":[...]}`.
    pub bodies: Vec<String>,
    /// The exact f32 inputs the server decodes from each body.
    pub inputs: Vec<Vec<f32>>,
    /// Digit label of each image.
    pub labels: Vec<usize>,
    /// The same images as a dataset, for the evaluation APIs.
    pub dataset: Dataset,
}

impl ImagePool {
    /// Renders `n` digits from `seed`. Inputs are decoded back from
    /// the bodies with the server's own parser, so reference engines
    /// see bit for bit what the served engine sees.
    pub fn generate(n: usize, seed: u64) -> ImagePool {
        let ds = synth().generate(n, derive_seed(seed, "image-pool"));
        let mut bodies = Vec::new();
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..ds.len() {
            let (img, label) = ds.item(i);
            let values: Vec<String> = img.as_slice().iter().map(|v| v.to_string()).collect();
            let body = format!("{{\"input\":[{}]}}", values.join(","));
            let (input, _) =
                parse_infer_body(&body, img.len()).expect("rendered bodies are well formed");
            bodies.push(body);
            inputs.push(input);
            labels.push(label);
        }
        ImagePool {
            bodies,
            inputs,
            labels,
            dataset: ds,
        }
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}
