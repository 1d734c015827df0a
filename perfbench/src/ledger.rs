//! Per-layer CPU attribution and the accelerator ledger.
//!
//! Layers are timed from outside the engines: the observer callbacks
//! of `SpikingNetwork::run_inference_observed` and
//! `QuantNetwork::infer_batch_observed` fire after every layer of
//! every timestep, so the time between two callbacks is the layer in
//! between. The callbacks count each spiking layer's output spikes
//! the way the serving engines do, so a layer's time includes the
//! per-request spike accounting the engine spends on it. Dense/event routes come from deltas of the dispatch
//! counters read at the same callbacks. The same batches also run
//! through the real engine's `infer_batch`, whose time the per-layer
//! sum must match within [`SUM_TOLERANCE`].

use std::time::Instant;

use snn_accel::{simulate_trace, AccelReport, AcceleratorConfig, EventSimReport};
use snn_core::{evaluate, trace_spikes, NetworkSnapshot};
use snn_data::{Dataset, SpikeEncoding};
use snn_obs::Instrument;
use snn_quant::{QuantNetwork, QuantizedSnapshot};
use snn_serve::{InferenceEngine, QuantEngine};
use snn_tensor::{Shape, Tensor};

use crate::report::Report;
use crate::TIMESTEPS;

/// Largest accepted gap between the per-layer sum and the engine's
/// `infer_batch` time, as a share of the latter.
pub const SUM_TOLERANCE: f64 = 0.10;

/// Items per ledger batch: the batcher's `max_batch`.
const BATCH: usize = 8;

/// CPU cost of one layer over a ledger run.
#[derive(Debug, Clone, Default)]
pub struct LayerCost {
    /// Layer name (`conv1` … `fc2`).
    pub name: String,
    /// Wall time between the callbacks bracketing this layer, ns.
    pub ns: f64,
    /// Nonzero input elements seen.
    pub in_nnz: f64,
    /// Input elements seen.
    pub in_len: f64,
    /// Forward calls that took the dense route.
    pub dense: f64,
    /// Forward calls that took the event route.
    pub event: f64,
}

impl LayerCost {
    /// Fraction of nonzero inputs.
    pub fn in_density(&self) -> f64 {
        if self.in_len > 0.0 {
            self.in_nnz / self.in_len
        } else {
            0.0
        }
    }

    /// Share of routed forward calls that took the event route.
    pub fn event_frac(&self) -> f64 {
        let calls = self.dense + self.event;
        if calls > 0.0 {
            self.event / calls
        } else {
            0.0
        }
    }
}

/// Per-layer costs plus the engine time they must add up to.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Layers in forward order.
    pub layers: Vec<LayerCost>,
    /// Items run through each path.
    pub items: usize,
    /// Total `infer_batch` time of the real engine over the same
    /// batches, ns.
    pub engine_ns: f64,
}

impl Ledger {
    /// Per-layer sum over the engine's `infer_batch` time.
    pub fn sum_ratio(&self) -> f64 {
        self.layers.iter().map(|l| l.ns).sum::<f64>() / self.engine_ns
    }

    /// Milliseconds per item spent in layer `l`.
    pub fn ms_per_item(&self, l: &LayerCost) -> f64 {
        l.ns / self.items as f64 / 1e6
    }
}

fn counter(name: &str) -> f64 {
    match snn_obs::global().get(name) {
        Some(Instrument::Counter(c)) => c.get() as f64,
        _ => 0.0,
    }
}

/// Reads the two route counters of one dispatch family.
struct Routes {
    dense: &'static str,
    event: &'static str,
    last: (f64, f64),
}

impl Routes {
    fn new(dense: &'static str, event: &'static str) -> Routes {
        Routes {
            dense,
            event,
            last: (counter(dense), counter(event)),
        }
    }

    /// Route counts since the previous call.
    fn delta(&mut self) -> (f64, f64) {
        let now = (counter(self.dense), counter(self.event));
        let d = (now.0 - self.last.0, now.1 - self.last.1);
        self.last = now;
        d
    }
}

fn nnz(v: &[f32]) -> f64 {
    v.iter().filter(|&&x| x != 0.0).count() as f64
}

/// Spike count of a binary output, summed the way the serving engines
/// count per-request spikes, so the callback costs what theirs does.
fn spike_sum(v: &[f32]) -> f64 {
    v.iter().map(|&x| x as f64).sum()
}

/// Attributes the f32 engine's time to its layers over `inputs`,
/// interleaving each observed batch with the same batch through a
/// real [`InferenceEngine`].
pub fn f32_ledger(snapshot: &NetworkSnapshot, inputs: &[Vec<f32>]) -> Ledger {
    let mut net = snapshot.clone().into_network();
    let mut engine = InferenceEngine::new(snapshot.clone(), TIMESTEPS).expect("snapshot validated");
    let mut ledger = Ledger {
        layers: net
            .layers()
            .iter()
            .map(|l| LayerCost {
                name: l.name().to_string(),
                ..LayerCost::default()
            })
            .collect(),
        ..Ledger::default()
    };
    let item_dims = net.input_item_shape();
    let spiking: Vec<bool> = net
        .layers()
        .iter()
        .map(|l| l.lif_config().is_some())
        .collect();
    let mut routes = Routes::new(
        "snn_tensor_conv2d_route_dense_total",
        "snn_tensor_conv2d_route_event_total",
    );
    for batch in inputs.chunks(BATCH) {
        let t = Instant::now();
        std::hint::black_box(engine.infer_batch(batch));
        ledger.engine_ns += t.elapsed().as_nanos() as f64;

        let n = batch.len();
        let mut dims = vec![n];
        dims.extend_from_slice(item_dims.dims());
        let data: Vec<f32> = batch.concat();
        let image_nnz = nnz(&data);
        let frame = Tensor::from_vec(Shape::from_dims(&dims), data).expect("batch dims");
        let frames = vec![frame; TIMESTEPS];
        ledger.layers[0].in_nnz += image_nnz * TIMESTEPS as f64;
        ledger.layers[0].in_len += (n * item_dims.len() * TIMESTEPS) as f64;
        routes.delta();
        let layers = &mut ledger.layers;
        let mut last = Instant::now();
        let out = net.run_inference_observed(&frames, |li, _name, y| {
            let now = Instant::now();
            layers[li].ns += (now - last).as_nanos() as f64;
            last = now;
            let (d, e) = routes.delta();
            layers[li].dense += d;
            layers[li].event += e;
            let out_nnz = if spiking[li] {
                spike_sum(y.as_slice())
            } else {
                nnz(y.as_slice())
            };
            if let Some(next) = layers.get_mut(li + 1) {
                next.in_nnz += out_nnz;
                next.in_len += y.len() as f64;
            }
        });
        std::hint::black_box(out);
        ledger.items += n;
    }
    ledger
}

/// [`f32_ledger`] for the integer engine: observed
/// `QuantNetwork::infer_batch_observed` against a real
/// [`QuantEngine`]. The first stage's input density is the request
/// input's (the engine's quantized copy is internal).
pub fn int8_ledger(artifact: &QuantizedSnapshot, inputs: &[Vec<f32>]) -> Ledger {
    let mut net = QuantNetwork::from_snapshot(artifact).expect("artifact validated");
    let mut engine = QuantEngine::new(artifact, TIMESTEPS).expect("artifact validated");
    let mut ledger = Ledger {
        layers: net
            .stage_meta()
            .iter()
            .map(|m| LayerCost {
                name: m.name.clone(),
                ..LayerCost::default()
            })
            .collect(),
        ..Ledger::default()
    };
    let spiking: Vec<bool> = net.stage_meta().iter().map(|m| m.spiking).collect();
    let mut routes = Routes::new(
        "snn_tensor_qconv2d_route_dense_total",
        "snn_tensor_qconv2d_route_event_total",
    );
    for batch in inputs.chunks(BATCH) {
        let t = Instant::now();
        std::hint::black_box(engine.infer_batch(batch));
        ledger.engine_ns += t.elapsed().as_nanos() as f64;

        let n = batch.len();
        ledger.layers[0].in_nnz += batch.iter().map(|v| nnz(v)).sum::<f64>() * TIMESTEPS as f64;
        ledger.layers[0].in_len += (batch.iter().map(Vec::len).sum::<usize>() * TIMESTEPS) as f64;
        routes.delta();
        let layers = &mut ledger.layers;
        let mut last = Instant::now();
        let out = net
            .infer_batch_observed(batch, TIMESTEPS, |si, _name, acts, _n| {
                let now = Instant::now();
                layers[si].ns += (now - last).as_nanos() as f64;
                last = now;
                let (d, e) = routes.delta();
                layers[si].dense += d;
                layers[si].event += e;
                let out_nnz = if spiking[si] {
                    acts.iter().map(|&v| v as f64).sum::<f64>()
                } else {
                    acts.iter().filter(|&&x| x != 0).count() as f64
                };
                if let Some(next) = layers.get_mut(si + 1) {
                    next.in_nnz += out_nnz;
                    next.in_len += acts.len() as f64;
                }
            })
            .expect("pool inputs are valid");
        std::hint::black_box(out);
        ledger.items += n;
    }
    ledger
}

/// The hardware side of one model: mapped onto both accelerator
/// configurations, then the recorded spike trace replayed through the
/// sparsity-aware pipeline.
pub struct AccelLedger {
    /// Sparsity-aware mapping.
    pub report: AccelReport,
    /// Event-driven replay of the traced spikes.
    pub sim: EventSimReport,
    /// Host time of `evaluate` (the sparsity profile), s.
    pub evaluate_s: f64,
    /// Host time of mapping onto both configurations, ms.
    pub map_ms: f64,
    /// Host time of `trace_spikes` plus `simulate_trace`, ms.
    pub simulate_ms: f64,
}

/// Profiles `snapshot` on `ds`, maps it, traces it and simulates the
/// trace.
///
/// # Errors
///
/// The mapping or simulation error, as text.
pub fn accel_ledger(snapshot: &NetworkSnapshot, ds: &Dataset) -> Result<AccelLedger, String> {
    let mut net = snapshot.clone().into_network();
    let t = Instant::now();
    let eval = evaluate(&mut net, ds, SpikeEncoding::Direct, TIMESTEPS, 32, 0);
    let evaluate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = AcceleratorConfig::sparsity_aware()
        .map(snapshot, &eval.profile)
        .map_err(|e| e.to_string())?;
    AcceleratorConfig::dense_baseline()
        .map(snapshot, &eval.profile)
        .map_err(|e| e.to_string())?;
    let map_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let trace = trace_spikes(&mut net, ds, SpikeEncoding::Direct, TIMESTEPS, 32, 0);
    let sim = simulate_trace(
        &report.workload,
        &report.allocation,
        &trace,
        report.timing.sync_overhead_cycles,
        report.timing.latency_cycles(),
    )
    .map_err(|e| e.to_string())?;
    let simulate_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(AccelLedger {
        report,
        sim,
        evaluate_s,
        map_ms,
        simulate_ms,
    })
}

/// Prints CPU ms per layer beside the simulated cycles per stage and
/// names the bottleneck on each side.
fn print_side_by_side(cpu: &Ledger, accel: &AccelLedger) {
    println!(
        "{:<8} {:>12} {:>10} {:>10} | {:>14} {:>14}",
        "layer", "cpu ms/item", "in dens", "event", "sim busy cyc", "sim stall cyc"
    );
    for l in &cpu.layers {
        let stage = accel.sim.stages.iter().find(|s| s.name == l.name);
        let cyc = |f: fn(&snn_accel::StageSimStats) -> u64| {
            stage.map_or_else(|| "-".to_string(), |s| f(s).to_string())
        };
        println!(
            "{:<8} {:>12.4} {:>10.4} {:>10.3} | {:>14} {:>14}",
            l.name,
            cpu.ms_per_item(l),
            l.in_density(),
            l.event_frac(),
            cyc(|s| s.busy_cycles),
            cyc(|s| s.stall_cycles),
        );
    }
    let cpu_top = cpu
        .layers
        .iter()
        .max_by(|a, b| a.ns.total_cmp(&b.ns))
        .map_or("-", |l| &l.name);
    let sim_top = accel
        .sim
        .stages
        .iter()
        .max_by_key(|s| s.busy_cycles)
        .map_or("-", |s| s.name.as_str());
    println!(
        "bottleneck: cpu {cpu_top}, accelerator {sim_top}; per-layer sum / infer_batch = {:.3}",
        cpu.sum_ratio()
    );
}

/// The CPU ledger's sum check: a failure marks the run incorrect.
pub fn check_sum(report: &mut Report, cpu: &Ledger) {
    let ratio = cpu.sum_ratio();
    report.note(format!(
        "per-layer sum / engine infer_batch time = {ratio:.3} over {} items",
        cpu.items
    ));
    if (ratio - 1.0).abs() > SUM_TOLERANCE {
        report.fail(format!(
            "per-layer times sum to {ratio:.3}x the engine's infer_batch time (limit ±{})",
            SUM_TOLERANCE
        ));
    }
}

/// Layers of the paper network, in forward order.
const LEDGER_LAYERS: [&str; 7] = ["conv1", "pool1", "conv2", "pool2", "flatten", "fc1", "fc2"];

/// Emits `<prefix>.<l>.{ms,in_density[,event_frac]}`; zeros when the
/// workload does not run that engine.
pub fn report_layers(report: &mut Report, prefix: &str, ledger: Option<&Ledger>) {
    for name in LEDGER_LAYERS {
        let l = ledger.and_then(|g| g.layers.iter().find(|l| l.name == name).map(|l| (g, l)));
        report.metric(
            &format!("{prefix}.{name}.ms"),
            l.map_or(0.0, |(g, l)| g.ms_per_item(l)),
        );
        report.metric(
            &format!("{prefix}.{name}.in_density"),
            l.map_or(0.0, |(_, l)| l.in_density()),
        );
        if name.starts_with("conv") {
            report.metric(
                &format!("{prefix}.{name}.event_frac"),
                l.map_or(0.0, |(_, l)| l.event_frac()),
            );
        }
    }
}

/// Pipeline stages of the paper network on the accelerator (pooling
/// and flatten are fused into them).
const ACCEL_STAGES: [&str; 4] = ["conv1", "conv2", "fc1", "fc2"];

/// Emits the `accel.*` metrics and prints the CPU and accelerator
/// ledgers side by side.
pub fn report_accel(report: &mut Report, accel: &AccelLedger, cpu: &Ledger) {
    for name in ACCEL_STAGES {
        let s = accel.sim.stages.iter().find(|s| s.name == name);
        report.metric(
            &format!("accel.{name}.busy_cycles"),
            s.map_or(0.0, |s| s.busy_cycles as f64),
        );
        report.metric(
            &format!("accel.{name}.stall_cycles"),
            s.map_or(0.0, |s| s.stall_cycles as f64),
        );
    }
    report.metric("accel.latency_cycles", accel.sim.total_cycles as f64);
    report.metric("accel.fps_per_w", accel.report.fps_per_watt());
    report.metric("accel.analytic_error", accel.sim.analytic_error());
    report.metric("accel.map_ms", accel.map_ms);
    report.metric("accel.simulate_ms", accel.simulate_ms);
    print_side_by_side(cpu, accel);
}

/// Existing spans whose self time the traced run reports.
const SPANS: [&str; 11] = [
    "conv2d_fwd",
    "maxpool",
    "matmul",
    "lif_step",
    "lif_step_masked",
    "qinfer_batch",
    "conv2d_bwd",
    "matmul_tn",
    "matmul_nt",
    "forward_seq",
    "backward_seq",
];

/// Self time of each span in [`SPANS`] from the profile tree, ms per
/// `per` units of work.
pub fn report_spans(report: &mut Report, per: f64) {
    let rows = snn_obs::profile_rows();
    for name in SPANS {
        let mut self_ns = 0u128;
        for (path, stats) in &rows {
            if path.rsplit('/').next() != Some(name) {
                continue;
            }
            let prefix = format!("{path}/");
            let children: u128 = rows
                .iter()
                .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
                .map(|(_, s)| s.total_ns)
                .sum();
            self_ns += stats.total_ns.saturating_sub(children);
        }
        report.metric(&format!("span.{name}.self_ms"), self_ns as f64 / 1e6 / per);
    }
}
