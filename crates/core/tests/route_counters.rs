//! The conv route counters count kernel calls, so they pin the
//! first layer's current memo: under direct coding the conv runs once
//! per sequence, under rate coding once per timestep.
//!
//! One test in its own binary: the counters are process-wide, and a
//! concurrently running test would move them.

use snn_core::{LifConfig, SpikingNetwork};
use snn_data::SpikeEncoding;
use snn_obs::Instrument;
use snn_tensor::{Shape, Tensor};

fn conv_calls() -> u64 {
    ["snn_tensor_conv2d_route_dense_total", "snn_tensor_conv2d_route_event_total"]
        .iter()
        .map(|name| match snn_obs::global().get(name) {
            Some(Instrument::Counter(c)) => c.get(),
            _ => 0,
        })
        .sum()
}

#[test]
fn first_layer_conv_runs_once_per_direct_sequence() {
    const T: usize = 6;
    let mut net = SpikingNetwork::builder(Shape::d3(3, 8, 8), 4)
        .conv(4, 3, 1, 1, LifConfig::paper_default())
        .unwrap()
        .flatten()
        .unwrap()
        .dense(5, LifConfig::paper_default())
        .unwrap()
        .build()
        .expect("network");
    let batch = Tensor::from_fn(Shape::d4(2, 3, 8, 8), |i| (i % 7) as f32 / 6.0);

    let before = conv_calls();
    for seq in 0..2 {
        let frames = SpikeEncoding::Direct.encode(&batch, T, seq);
        net.run_sequence(&frames, false);
    }
    assert_eq!(conv_calls() - before, 2, "direct coding: one conv call per sequence");

    let before = conv_calls();
    let frames = SpikeEncoding::Rate { gain: 1.0 }.encode(&batch, T, 0);
    net.run_sequence(&frames, false);
    assert_eq!(conv_calls() - before, T as u64, "rate coding: one conv call per timestep");
}
