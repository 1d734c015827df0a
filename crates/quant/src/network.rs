//! The integer-only inference runtime for quantized artifacts.
//!
//! [`QuantNetwork`] executes a validated [`QuantizedSnapshot`]:
//! activations are `u8` (level-coded input on the first layer, binary
//! spikes after), weights `i8`, accumulators `i32`, membranes
//! Q-format `i32`. The input is quantized **once per request**; after
//! that the hot loop performs no f32 arithmetic at all — the multiply
//! path is integer end-to-end, so there is no silent f32 fallback to
//! mask quantization error or break cross-platform determinism.
//!
//! Every kernel in the loop is exact integer arithmetic with
//! order-independent sums, so outputs are bit-identical across thread
//! counts and across the dense/event convolution routes.
//!
//! Inputs are direct-coded: the same quantized frame drives every
//! timestep, so every stage up to and including the first spiking one
//! sees the same input at every step. Those stages run their kernels
//! once per batch, at t = 0, and the first spiking stage keeps its
//! rescaled current for the later steps; only its LIF state evolves.
//! Integer arithmetic makes this exact: the held current is the very
//! value each step would recompute.

use snn_tensor::conv::Conv2dGeometry;
use snn_tensor::par;
use snn_tensor::pool::Pool2dGeometry;
use snn_tensor::qmat::{qconv2d_forward_routed, qlinear_into, transpose_i8, QConvScratch};

use crate::error::QuantError;
use crate::fixed::{FixedLif, Rescale};
use crate::snapshot::{QuantStage, QuantizedSnapshot};

/// Static description of one runtime stage (for engines that report
/// per-layer firing statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct StageMeta {
    /// Layer name from the artifact.
    pub name: String,
    /// Activation values per batch item at this stage's output.
    pub item_len: usize,
    /// Whether the stage emits spikes (conv/dense).
    pub spiking: bool,
}

/// One executable stage: quantized parameters plus reusable batch
/// state.
enum RunStage {
    Conv {
        geom: Conv2dGeometry,
        w: Vec<i8>,
        wt: Vec<i8>,
        scratch: QConvScratch,
        neurons: Neurons,
    },
    Dense {
        wt: Vec<i8>,
        in_len: usize,
        out_n: usize,
        neurons: Neurons,
    },
    Pool {
        geom: Pool2dGeometry,
    },
    Flatten,
}

/// An executable quantized network.
///
/// Owns all scratch and state buffers; like the f32 serve engine it
/// is intended for single-owner use (one engine per worker), not
/// shared access.
pub struct QuantNetwork {
    input_item_dims: Vec<usize>,
    classes: usize,
    input_max: f32,
    input_levels: i32,
    bits: u32,
    stages: Vec<RunStage>,
    meta: Vec<StageMeta>,
    /// Per-stage output activations, `[n, item_len]` each; kept
    /// outside [`RunStage`] so stage `i` can read stage `i-1`'s
    /// output while writing its own. The previous timestep's content
    /// doubles as the LIF reset's "previous spikes".
    outs: Vec<Vec<u8>>,
    qinput: Vec<u8>,
    /// Index of the first spiking stage: it and every stage before it
    /// see the same input at every timestep (`stages.len()` if no
    /// stage spikes).
    first_spiking: usize,
    /// That stage's rescaled current, computed at t = 0 of each batch.
    held_current: Vec<i64>,
}

impl QuantNetwork {
    /// Builds the runtime from a validated artifact.
    ///
    /// # Errors
    ///
    /// Returns whatever [`QuantizedSnapshot::validate`] finds.
    pub fn from_snapshot(snap: &QuantizedSnapshot) -> Result<Self, QuantError> {
        snap.validate()?;
        let mut stages = Vec::with_capacity(snap.stages.len());
        let mut meta = Vec::with_capacity(snap.stages.len());
        for stage in &snap.stages {
            match stage {
                QuantStage::Conv { name, geom, weight, bias_q, rescale, lif } => {
                    let wt = transpose_i8(&weight.values, weight.channels, weight.per_channel);
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: geom.out_channels * geom.out_h() * geom.out_w(),
                        spiking: true,
                    });
                    stages.push(RunStage::Conv {
                        geom: *geom,
                        w: weight.values.clone(),
                        wt,
                        scratch: QConvScratch::new(),
                        neurons: Neurons::new(bias_q, rescale, lif, geom.out_h() * geom.out_w()),
                    });
                }
                QuantStage::Dense { name, weight, bias_q, rescale, lif } => {
                    let wt = transpose_i8(&weight.values, weight.channels, weight.per_channel);
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: weight.channels,
                        spiking: true,
                    });
                    stages.push(RunStage::Dense {
                        wt,
                        in_len: weight.per_channel,
                        out_n: weight.channels,
                        neurons: Neurons::new(bias_q, rescale, lif, 1),
                    });
                }
                QuantStage::Pool { name, geom } => {
                    meta.push(StageMeta {
                        name: name.clone(),
                        item_len: geom.channels * geom.out_h() * geom.out_w(),
                        spiking: false,
                    });
                    stages.push(RunStage::Pool { geom: *geom });
                }
                QuantStage::Flatten { name, len } => {
                    meta.push(StageMeta { name: name.clone(), item_len: *len, spiking: false });
                    stages.push(RunStage::Flatten);
                }
            }
        }
        let outs = vec![Vec::new(); stages.len()];
        let first_spiking = meta.iter().position(|m| m.spiking).unwrap_or(stages.len());
        Ok(QuantNetwork {
            input_item_dims: snap.input_item_dims.clone(),
            classes: snap.classes,
            input_max: snap.input_max,
            input_levels: snap.input_levels,
            bits: snap.bits,
            stages,
            meta,
            outs,
            qinput: Vec::new(),
            first_spiking,
            held_current: Vec::new(),
        })
    }

    /// Flat input length per item.
    pub fn input_len(&self) -> usize {
        self.input_item_dims.iter().product()
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Weight bit width of the underlying artifact.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Static stage descriptions, in execution order.
    pub fn stage_meta(&self) -> &[StageMeta] {
        &self.meta
    }

    /// Runs `items` for `timesteps` and returns per-item spike counts
    /// `[n, classes]`, invoking `observer(stage_index, name,
    /// activations, n)` after every stage of every timestep (the
    /// activation slice is `[n, item_len]`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Calibration`]-style input errors for
    /// wrong item lengths or non-finite values; inference itself
    /// cannot fail.
    pub fn infer_batch_observed(
        &mut self,
        items: &[Vec<f32>],
        timesteps: usize,
        mut observer: impl FnMut(usize, &str, &[u8], usize),
    ) -> Result<Vec<u32>, QuantError> {
        let n = items.len();
        let item_len = self.input_len();
        if timesteps == 0 {
            return Err(QuantError::Calibration("zero timesteps".into()));
        }
        self.quantize_input(items, item_len)?;
        // Reset batch state: membranes to zero, previous spikes (the
        // stage output buffers) to zero.
        for (stage, (out, meta)) in
            self.stages.iter_mut().zip(self.outs.iter_mut().zip(self.meta.iter()))
        {
            out.clear();
            out.resize(n * meta.item_len, 0);
            match stage {
                RunStage::Conv { neurons, .. } | RunStage::Dense { neurons, .. } => {
                    neurons.reset(n * meta.item_len);
                }
                _ => {}
            }
        }
        let mut counts = vec![0u32; n * self.classes];
        let last = self.stages.len() - 1;
        for t in 0..timesteps {
            for i in 0..self.stages.len() {
                let (done, rest) = self.outs.split_at_mut(i);
                let x: &[u8] = if i == 0 { &self.qinput } else { &done[i - 1] };
                let out = &mut rest[0];
                // Up to the first spiking stage the input is the same
                // at every step, so the t = 0 results still hold.
                let fresh_input = t == 0 || i > self.first_spiking;
                let neurons = match &mut self.stages[i] {
                    RunStage::Conv { geom, w, wt, scratch, neurons } => {
                        if fresh_input {
                            qconv2d_forward_routed(geom, x, n, w, wt, &mut neurons.acc, scratch);
                        }
                        Some(neurons)
                    }
                    RunStage::Dense { wt, in_len, out_n, neurons } => {
                        if fresh_input {
                            qlinear_into(x, wt, &mut neurons.acc, n, *in_len, *out_n);
                        }
                        Some(neurons)
                    }
                    RunStage::Pool { geom } if fresh_input => {
                        pool_pass(geom, x, out, n);
                        None
                    }
                    RunStage::Flatten if fresh_input => {
                        out.copy_from_slice(x);
                        None
                    }
                    RunStage::Pool { .. } | RunStage::Flatten => None,
                };
                if let Some(neurons) = neurons {
                    let hoisted = i == self.first_spiking;
                    if hoisted && t == 0 {
                        neurons.rescale_into(&mut self.held_current);
                    }
                    neurons.fire(hoisted.then_some(&self.held_current[..]), out);
                }
                observer(i, &self.meta[i].name, out, n);
                if i == last {
                    for (c, &s) in counts.iter_mut().zip(out.iter()) {
                        *c += s as u32;
                    }
                }
            }
        }
        Ok(counts)
    }

    /// [`QuantNetwork::infer_batch_observed`] without the observer.
    ///
    /// # Errors
    ///
    /// As [`QuantNetwork::infer_batch_observed`].
    pub fn infer_batch(
        &mut self,
        items: &[Vec<f32>],
        timesteps: usize,
    ) -> Result<Vec<u32>, QuantError> {
        self.infer_batch_observed(items, timesteps, |_, _, _, _| {})
    }

    /// Classification accuracy over a labeled set, batched
    /// internally.
    ///
    /// # Errors
    ///
    /// Input errors as [`QuantNetwork::infer_batch_observed`], plus a
    /// labels/items length mismatch.
    pub fn evaluate_accuracy(
        &mut self,
        items: &[Vec<f32>],
        labels: &[usize],
        timesteps: usize,
    ) -> Result<f64, QuantError> {
        if items.len() != labels.len() {
            return Err(QuantError::Calibration(format!(
                "{} items but {} labels",
                items.len(),
                labels.len()
            )));
        }
        if items.is_empty() {
            return Err(QuantError::Calibration("empty evaluation set".into()));
        }
        let classes = self.classes;
        let mut correct = 0usize;
        for (chunk, lchunk) in items.chunks(32).zip(labels.chunks(32)) {
            let counts = self.infer_batch(chunk, timesteps)?;
            for (row, &label) in lchunk.iter().enumerate() {
                if classify_counts(&counts[row * classes..(row + 1) * classes]) == label {
                    correct += 1;
                }
            }
        }
        Ok(correct as f64 / items.len() as f64)
    }

    /// Quantizes the f32 input batch to `[0, input_levels]` u8 with
    /// the calibrated step (values clamp into `[0, input_max]` — the
    /// documented input saturation semantics).
    fn quantize_input(&mut self, items: &[Vec<f32>], item_len: usize) -> Result<(), QuantError> {
        self.qinput.clear();
        self.qinput.reserve(items.len() * item_len);
        let inv_step = self.input_levels as f32 / self.input_max;
        for (i, item) in items.iter().enumerate() {
            if item.len() != item_len {
                return Err(QuantError::Calibration(format!(
                    "item {i} has {} values, the network expects {item_len}",
                    item.len()
                )));
            }
            for &v in item {
                if !v.is_finite() {
                    return Err(QuantError::Calibration(format!(
                        "item {i} contains non-finite value {v}"
                    )));
                }
                let q = (v * inv_step).round();
                self.qinput.push(q.clamp(0.0, self.input_levels as f32) as u8);
            }
        }
        Ok(())
    }
}

/// Argmax with lowest-index tie-breaking (matches the f32 engine's
/// `Tensor::argmax_row` semantics).
pub fn classify_counts(counts: &[u32]) -> usize {
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// A spiking stage's LIF population: requantization, membranes, and
/// the i32 accumulators its synapses write, all laid out
/// `[n, channels, plane]`.
struct Neurons {
    requant: Requant,
    lif: FixedLif,
    acc: Vec<i32>,
    mem: Vec<i32>,
}

/// Per-channel accumulator → membrane-current conversion.
struct Requant {
    bias_q: Vec<i32>,
    rescale: Vec<Rescale>,
    /// Neurons per channel (`out_h·out_w` for a conv, 1 for dense).
    plane: usize,
}

impl Requant {
    /// Current of channel plane `g` (a flat index over `[n,
    /// channels]`): `rescale(acc) + bias_q`, exactly, as i64.
    fn current<'a>(&'a self, acc: &'a [i32], g: usize) -> impl Iterator<Item = i64> + 'a {
        let oc = g % self.bias_q.len();
        let (r, b) = (self.rescale[oc], self.bias_q[oc] as i64);
        acc[g * self.plane..(g + 1) * self.plane].iter().map(move |&a| r.apply(a) as i64 + b)
    }
}

impl Neurons {
    fn new(bias_q: &[i32], rescale: &[Rescale], lif: &FixedLif, plane: usize) -> Neurons {
        Neurons {
            requant: Requant { bias_q: bias_q.to_vec(), rescale: rescale.to_vec(), plane },
            lif: *lif,
            acc: Vec::new(),
            mem: Vec::new(),
        }
    }

    /// Zeroes membranes and accumulators for a batch of `len` neurons.
    fn reset(&mut self, len: usize) {
        self.mem.clear();
        self.mem.resize(len, 0);
        self.acc.clear();
        self.acc.resize(len, 0);
    }

    /// Writes every neuron's current into `held`.
    fn rescale_into(&self, held: &mut Vec<i64>) {
        let Neurons { requant, acc, .. } = self;
        let plane = requant.plane;
        held.clear();
        held.resize(acc.len(), 0);
        par::for_each_block(held, plane, par::min_granules_for(8 * plane), |g0, block| {
            for (g, hplane) in (g0..).zip(block.chunks_exact_mut(plane)) {
                for (h, c) in hplane.iter_mut().zip(requant.current(acc, g)) {
                    *h = c;
                }
            }
        });
    }

    /// One fixed-point LIF step over the whole population, driven by
    /// `held` if given and by the rescaled accumulators otherwise.
    ///
    /// Works one channel plane per granule, so the channel comes from
    /// the granule index rather than a per-neuron division. Elementwise
    /// (each neuron touches only its own current, membrane, and
    /// previous spike), so parallel chunking is bit-exact with the
    /// serial loop. `out` enters holding the previous timestep's
    /// spikes and leaves holding this timestep's.
    fn fire(&mut self, held: Option<&[i64]>, out: &mut [u8]) {
        let Neurons { requant, lif, acc, mem } = self;
        let plane = requant.plane;
        let min_planes = par::min_granules_for(12 * plane);
        par::for_each_block2(mem, plane, out, plane, min_planes, |g0, mblock, oblock| {
            let planes = mblock.chunks_exact_mut(plane).zip(oblock.chunks_exact_mut(plane));
            for (g, (mplane, splane)) in (g0..).zip(planes) {
                match held {
                    Some(cur) => {
                        let cur = cur[g * plane..(g + 1) * plane].iter().copied();
                        step_plane(lif, mplane, splane, cur);
                    }
                    None => step_plane(lif, mplane, splane, requant.current(acc, g)),
                }
            }
        });
    }
}

/// Fixed-point LIF over one channel plane.
#[inline]
fn step_plane(
    lif: &FixedLif,
    mem: &mut [i32],
    spikes: &mut [u8],
    current: impl Iterator<Item = i64>,
) {
    for ((m, s), c) in mem.iter_mut().zip(spikes.iter_mut()).zip(current) {
        let (m_new, spike) = lif.step(*m, *s != 0, c);
        *m = m_new;
        *s = spike as u8;
    }
}

/// Integer max pooling over `[n, C, H, W]` u8 activations: an OR for
/// binary spikes, an exact max for level-coded values — identical to
/// f32 max pooling in either case.
fn pool_pass(g: &Pool2dGeometry, x: &[u8], out: &mut [u8], n: usize) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let item_in = g.channels * g.in_h * g.in_w;
    let item_out = g.channels * oh * ow;
    for item in 0..n {
        let xi = &x[item * item_in..(item + 1) * item_in];
        let oi = &mut out[item * item_out..(item + 1) * item_out];
        for c in 0..g.channels {
            let chan = &xi[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = 0u8;
                    for ky in 0..g.kernel {
                        let iy = oy * g.stride + ky;
                        for kx in 0..g.kernel {
                            let v = chan[iy * g.in_w + ox * g.stride + kx];
                            best = best.max(v);
                        }
                    }
                    oi[(c * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use crate::snapshot::quantize_snapshot;
    use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
    use snn_tensor::dispatch::with_event_density_threshold;

    fn build() -> (QuantNetwork, Vec<Vec<f32>>) {
        let net = SpikingNetwork::builder(snn_tensor::Shape::d3(1, 8, 8), 5)
            .conv(3, 3, 1, 1, LifConfig::paper_default())
            .unwrap()
            .maxpool(2)
            .unwrap()
            .flatten()
            .unwrap()
            .dense(4, LifConfig::paper_default())
            .unwrap()
            .build()
            .expect("network");
        let snap = NetworkSnapshot::from_network(&net);
        let items: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..64).map(|j| ((i * 64 + j) % 9) as f32 / 8.0).collect())
            .collect();
        let cal = calibrate(&snap, &items, 4).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        (QuantNetwork::from_snapshot(&q).unwrap(), items)
    }

    /// The paper topology (`32C3-P2-32C3-MP2-256-10`) at 32×32×3,
    /// untrained (seed 5, θ = 0.25 so every stage fires), quantized to
    /// 8 bits; three deterministic analog items.
    fn build_paper() -> (QuantNetwork, Vec<Vec<f32>>) {
        let lif = LifConfig { theta: 0.25, ..LifConfig::paper_default() };
        let shape = snn_tensor::Shape::d3(3, 32, 32);
        let net = SpikingNetwork::paper_topology(shape, 10, lif, 5).expect("network");
        let snap = NetworkSnapshot::from_network(&net);
        let items: Vec<Vec<f32>> = (0..3)
            .map(|i| (0..3072).map(|j| ((i * 7 + j * 13) % 17) as f32 / 16.0).collect())
            .collect();
        let cal = calibrate(&snap, &items, 4).unwrap();
        let q = quantize_snapshot(&snap, &cal, 8).unwrap();
        (QuantNetwork::from_snapshot(&q).unwrap(), items)
    }

    /// Output counts plus each stage's activation total summed over
    /// all timesteps.
    fn counts_and_stage_totals(
        net: &mut QuantNetwork,
        items: &[Vec<f32>],
        timesteps: usize,
    ) -> (Vec<u32>, Vec<u64>) {
        let mut totals = vec![0u64; net.stage_meta().len()];
        let counts = net
            .infer_batch_observed(items, timesteps, |i, _, acts, _| {
                totals[i] += acts.iter().map(|&v| v as u64).sum::<u64>();
            })
            .unwrap();
        (counts, totals)
    }

    /// Runs `check` at 1 and 4 threads, each on the forced dense and
    /// the forced event route.
    fn on_every_route_and_thread_count(mut check: impl FnMut(&str)) {
        for threads in [1, 4] {
            for (route, threshold) in [("dense", -1.0), ("event", 1.0)] {
                par::with_num_threads(threads, || {
                    with_event_density_threshold(threshold, || {
                        check(&format!("{threads} threads, {route} route"))
                    })
                });
            }
        }
    }

    // The literals below were captured from the engine before the
    // first spiking stage's current was hoisted out of the timestep
    // loop, so they pin the hoist to the per-step computation.
    #[test]
    fn test_net_outputs_are_pinned() {
        let (mut net, items) = build();
        on_every_route_and_thread_count(|label| {
            let (counts, totals) = counts_and_stage_totals(&mut net, &items, 4);
            assert_eq!(counts, [0, 0, 0, 3].repeat(6), "{label}");
            assert_eq!(totals, [847, 352, 352, 18], "{label}");
        });
    }

    #[test]
    fn paper_topology_outputs_are_pinned() {
        let (mut net, items) = build_paper();
        on_every_route_and_thread_count(|label| {
            let (counts, totals) = counts_and_stage_totals(&mut net, &items, 8);
            assert_eq!(
                counts,
                [
                    8, 7, 0, 4, 0, 8, 3, 0, 0, 8, 7, 5, 0, 5, 0, 8, 3, 1, 0, 8, 7, 6, 0, 5, 0, 8,
                    1, 0, 0, 8
                ],
                "{label}"
            );
            assert_eq!(totals, [345553, 142814, 67356, 23196, 23196, 1997, 110], "{label}");
        });
    }

    #[test]
    fn routes_agree_bitwise() {
        let (mut net, items) = build();
        let dense = with_event_density_threshold(-1.0, || {
            net.infer_batch(&items, 4).unwrap()
        });
        let event = with_event_density_threshold(1.0, || {
            net.infer_batch(&items, 4).unwrap()
        });
        assert_eq!(dense, event, "dense and event routes must be bit-identical");
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let (mut net, items) = build();
        let one = par::with_num_threads(1, || net.infer_batch(&items, 4).unwrap());
        let four = par::with_num_threads(4, || net.infer_batch(&items, 4).unwrap());
        assert_eq!(one, four, "outputs must not depend on the worker count");
    }

    #[test]
    fn batch_equals_serial() {
        let (mut net, items) = build();
        let batched = net.infer_batch(&items, 3).unwrap();
        for (i, item) in items.iter().enumerate() {
            let single = net.infer_batch(std::slice::from_ref(item), 3).unwrap();
            assert_eq!(&batched[i * 4..(i + 1) * 4], &single[..], "item {i}");
        }
    }

    #[test]
    fn observer_sees_every_stage_and_spikes_stay_binary() {
        let (mut net, items) = build();
        let mut seen = Vec::new();
        net.infer_batch_observed(&items[..2], 2, |i, name, acts, n| {
            seen.push((i, name.to_string()));
            assert_eq!(acts.len() % n, 0);
            assert!(acts.iter().all(|&v| v <= 1), "post-conv activations must be binary spikes");
        })
        .unwrap();
        assert_eq!(seen.len(), 2 * net.stage_meta().len());
    }

    #[test]
    fn input_errors_are_typed() {
        let (mut net, _) = build();
        let short = vec![vec![0.0f32; 3]];
        assert!(matches!(net.infer_batch(&short, 2), Err(QuantError::Calibration(_))));
        let nan = vec![vec![f32::NAN; 64]];
        assert!(matches!(net.infer_batch(&nan, 2), Err(QuantError::Calibration(_))));
        let ok = vec![vec![0.4f32; 64]];
        assert!(matches!(net.infer_batch(&ok, 0), Err(QuantError::Calibration(_))));
    }

    #[test]
    fn classify_ties_break_low() {
        assert_eq!(classify_counts(&[3, 5, 5, 1]), 1);
        assert_eq!(classify_counts(&[0, 0, 0]), 0);
    }
}
