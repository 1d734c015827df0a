//! The per-layer synaptic-current memo must not change a single bit.
//!
//! Direct-coded frames that share one buffer let the first layer reuse
//! its timestep-0 current; frames that are deep copies of the same
//! image force a recomputation at every step. Both must yield the same
//! output counts, layer activities and (in training mode) gradients,
//! bit for bit, on either conv route.

use snn_core::{LifConfig, Loss, SpikingNetwork};
use snn_tensor::dispatch::with_event_density_threshold;
use snn_tensor::{Shape, Tensor};

const T: usize = 4;

fn paper_net() -> SpikingNetwork {
    let lif = LifConfig { theta: 0.25, ..LifConfig::paper_default() };
    SpikingNetwork::paper_topology(Shape::d3(3, 32, 32), 10, lif, 9).expect("network")
}

/// Two deterministic analog 32×32×3 images.
fn batch() -> Tensor {
    Tensor::from_fn(Shape::d4(2, 3, 32, 32), |i| ((i * 13 + 5) % 17) as f32 / 16.0)
}

/// `T` clones of one image batch (one shared buffer).
fn shared_frames() -> Vec<Tensor> {
    vec![batch(); T]
}

/// `T` deep copies of the same image batch (`T` distinct buffers).
fn copied_frames() -> Vec<Tensor> {
    let x = batch();
    let frames: Vec<Tensor> = (0..T)
        .map(|_| Tensor::from_vec(x.shape(), x.as_slice().to_vec()).unwrap())
        .collect();
    assert!(!frames[0].shares_buffer(&frames[1]));
    frames
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Output counts and every layer's `(total_spikes, neuron_steps)`, as
/// bit patterns.
fn inference_bits(frames: &[Tensor]) -> (Vec<u32>, Vec<(u64, u64)>) {
    let mut net = paper_net();
    let out = net.run_sequence(frames, false);
    let acts = net
        .activities()
        .iter()
        .map(|a| (a.total_spikes.to_bits(), a.neuron_steps.to_bits()))
        .collect();
    (bits(&out.counts), acts)
}

/// Output counts and every parameter gradient after one BPTT pass.
fn training_bits(frames: &[Tensor]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut net = paper_net();
    let out = net.run_sequence(frames, true);
    let (_, grad) = Loss::CountCrossEntropy.forward(&out.counts, &[3, 7], T);
    net.backward_sequence(&grad, T);
    let grads = net.params_mut().iter().map(|p| bits(p.grad)).collect();
    (bits(&out.counts), grads)
}

#[test]
fn shared_and_copied_frames_agree_bitwise_on_both_routes() {
    for threshold in [-1.0, 1.0] {
        with_event_density_threshold(threshold, || {
            let shared = inference_bits(&shared_frames());
            let copied = inference_bits(&copied_frames());
            assert!(shared.0.iter().any(|&c| c != 0), "the net must emit output spikes");
            assert_eq!(shared, copied, "inference, threshold {threshold}");
        });
    }
}

#[test]
fn shared_and_copied_frames_train_to_identical_gradients() {
    for threshold in [-1.0, 1.0] {
        with_event_density_threshold(threshold, || {
            let shared = training_bits(&shared_frames());
            let copied = training_bits(&copied_frames());
            assert!(
                shared.1.iter().any(|g| g.iter().any(|&b| f32::from_bits(b) != 0.0)),
                "gradients must be nonzero"
            );
            assert_eq!(shared, copied, "training, threshold {threshold}");
        });
    }
}
