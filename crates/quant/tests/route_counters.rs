//! The int8 conv route counters count kernel calls, so they pin the
//! hoisted first stage: with direct-coded input its convolution runs
//! once per batch, not once per timestep.
//!
//! One test in its own binary: the counters are process-wide, and a
//! concurrently running test would move them.

use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_obs::Instrument;
use snn_quant::{calibrate, quantize_snapshot, QuantNetwork};
use snn_tensor::dispatch::with_event_density_threshold;
use snn_tensor::Shape;

fn counter(name: &str) -> u64 {
    match snn_obs::global().get(name) {
        Some(Instrument::Counter(c)) => c.get(),
        _ => 0,
    }
}

#[test]
fn first_stage_conv_runs_once_per_batch() {
    // Two conv stages: the first sees the invariant input, the second
    // sees spikes that change every step.
    let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), 5)
        .conv(3, 3, 1, 1, LifConfig::paper_default())
        .unwrap()
        .conv(3, 3, 1, 1, LifConfig::paper_default())
        .unwrap()
        .flatten()
        .unwrap()
        .dense(4, LifConfig::paper_default())
        .unwrap()
        .build()
        .expect("network");
    let snap = NetworkSnapshot::from_network(&net);
    let items: Vec<Vec<f32>> =
        (0..3).map(|i| (0..64).map(|j| ((i * 64 + j) % 9) as f32 / 8.0).collect()).collect();
    let cal = calibrate(&snap, &items, 4).unwrap();
    let mut q = QuantNetwork::from_snapshot(&quantize_snapshot(&snap, &cal, 8).unwrap()).unwrap();

    const T: usize = 6;
    let dense = "snn_tensor_qconv2d_route_dense_total";
    with_event_density_threshold(-1.0, || {
        let before = counter(dense);
        for _ in 0..2 {
            q.infer_batch(&items, T).unwrap();
        }
        // Per batch: stage 0 once, stage 1 once per timestep.
        assert_eq!(counter(dense) - before, 2 * (1 + T as u64));
    });
}
