//! The three workloads: the committed paper network served f32 and
//! int8 through the pool, and one DSE sweep point whose trained model
//! is then served the same way.
//!
//! Every workload ends in the same serve measurement — an open-loop
//! light phase interleaved with saturation rounds against one pool
//! replica — so every end-to-end metric means the same thing on each.
//! Every workload also runs one DSE point on the model it serves:
//! `serve-*` profile, map and simulate the committed network, while
//! `dse-point` first trains two LIF points with `run_point`.

use std::time::Instant;

use snn_core::{LifConfig, NetworkSnapshot};
use snn_data::{Dataset, SpikeEncoding};
use snn_dse::{run_point, ExperimentProfile, PointResult};
use snn_pool::PoolServer;
use snn_quant::{calibrate, quantize_snapshot};
use snn_serve::{InferenceEngine, ServedModel};
use snn_tensor::derive_seed;

use crate::images::ImagePool;
use crate::ledger::{self, check_sum, report_accel, report_layers, report_spans, AccelLedger};
use crate::report::Report;
use crate::serve::{start_server, Rates, ServeBench};
use crate::stats::{median, peak_rss_mb};
use crate::{model_path, synth, MODEL_FNV64, MODEL_SEED, TIMESTEPS};

/// Images in the request pool.
const POOL_IMAGES: usize = 512;
/// Images the accelerator ledger profiles and traces.
const ACCEL_IMAGES: usize = 128;
/// Fixed calibration split for the int8 artifact.
const CALIBRATION_IMAGES: usize = 64;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Lowest served accuracy the committed model may score on the pool
/// (it scores 0.887 on 512 held-out digits): a kernel that answers
/// consistently but wrongly fails the run here.
const SERVE_ACCURACY_FLOOR: f64 = 0.8;
/// Lowest test accuracy a trained DSE point may reach: clearly above
/// chance (0.1), well below the 0.27–0.29 the points reach.
const POINT_ACCURACY_FLOOR: f64 = 0.15;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The committed f32 snapshot behind the pool.
    ServeF32,
    /// The int8 artifact derived from it at set-up.
    ServeInt8,
    /// Two trained LIF points; the latency-tuned one is served.
    DsePoint,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::ServeF32, Workload::ServeInt8, Workload::DsePoint];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeF32 => "serve-f32",
            Workload::ServeInt8 => "serve-int8",
            Workload::DsePoint => "dse-point",
        }
    }

    fn rates(self) -> Rates {
        match self {
            Workload::ServeF32 => Rates {
                light: 28.0,
                heavy: 68.0,
            },
            Workload::ServeInt8 => Rates {
                light: 14.0,
                heavy: 33.0,
            },
            Workload::DsePoint => Rates {
                light: 27.0,
                heavy: 66.0,
            },
        }
    }
}

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed: request schedule and image pool.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Runs `workload` and returns its report.
pub fn run(workload: Workload, args: RunArgs) -> Report {
    let mut report = Report::new(workload.name(), args.trace);
    let result = match workload {
        Workload::ServeF32 | Workload::ServeInt8 => serve_workload(workload, args, &mut report),
        Workload::DsePoint => dse_workload(args, &mut report),
    };
    if let Err(e) = result {
        report.fail(e);
    }
    report.metric_n("peak_rss_mb", peak_rss_mb(), 1);
    report
}

/// What a serve workload serves.
struct Model {
    served: ServedModel,
    /// The f32 network (the int8 artifact's source for `serve-int8`).
    snapshot: NetworkSnapshot,
}

/// Reads the committed snapshot and checks its content hash.
fn load_snapshot() -> Result<NetworkSnapshot, String> {
    let path = model_path();
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let hash = snn_store::fnv64_hex(&bytes);
    if hash != MODEL_FNV64 {
        return Err(format!(
            "{} has content hash {hash}, expected {MODEL_FNV64}",
            path.display()
        ));
    }
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    NetworkSnapshot::from_json(&text).map_err(|e| e.to_string())
}

fn calibration_split() -> Vec<Vec<f32>> {
    let ds = synth().generate(CALIBRATION_IMAGES, derive_seed(MODEL_SEED, "calibration"));
    (0..ds.len())
        .map(|i| ds.item(i).0.as_slice().to_vec())
        .collect()
}

/// Timings of one set-up.
struct SetupTimes {
    total_s: f64,
    parse_s: f64,
    quantize_s: f64,
}

/// Loads (and for int8 quantizes) the model and starts the server,
/// [`SETUPS`] times; keeps the last server.
fn serve_setup(workload: Workload, report: &mut Report) -> Result<(Model, PoolServer), String> {
    let calib = (workload == Workload::ServeInt8).then(calibration_split);
    let mut times = Vec::new();
    let mut last: Option<(Model, PoolServer)> = None;
    for _ in 0..SETUPS {
        if let Some((_, mut server)) = last.take() {
            server.shutdown();
        }
        let t0 = Instant::now();
        let snapshot = load_snapshot()?;
        let parse_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let served = match &calib {
            Some(items) => {
                let cal = calibrate(&snapshot, items, TIMESTEPS).map_err(|e| e.to_string())?;
                ServedModel::from(quantize_snapshot(&snapshot, &cal, 8).map_err(|e| e.to_string())?)
            }
            None => ServedModel::from(snapshot.clone()),
        };
        let quantize_s = if calib.is_some() {
            t1.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let server = start_server(served.clone())?;
        times.push(SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            parse_s,
            quantize_s,
        });
        last = Some((Model { served, snapshot }, server));
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.metric_n("setup_s", pick(|t| t.total_s), times.len());
    report.metric("setup.snapshot_parse_s", pick(|t| t.parse_s));
    report.metric("setup.quantize_s", pick(|t| t.quantize_s));
    report.metric("data.generate_s", 0.0);
    Ok(last.expect("at least one set-up"))
}

fn serve_workload(workload: Workload, args: RunArgs, report: &mut Report) -> Result<(), String> {
    let (model, server) = serve_setup(workload, report)?;
    let pool = ImagePool::generate(POOL_IMAGES, args.seed);

    // The serve workloads' DSE point has no training step: profile,
    // map, trace and simulate the served network, once before and
    // once after the load phases.
    let accel_set = pool.dataset.take(ACCEL_IMAGES);
    let (first_s, accel) = timed_point(&model.snapshot, &accel_set)?;

    if args.trace {
        let (f32_ledger, int8_ledger) = match &model.served {
            ServedModel::F32(snap) => (Some(ledger::f32_ledger(snap, &pool.inputs)), None),
            ServedModel::Int8(q) => (None, Some(ledger::int8_ledger(q, &pool.inputs))),
        };
        report_layers(report, "layer", f32_ledger.as_ref());
        report_layers(report, "qlayer", int8_ledger.as_ref());
        let cpu = f32_ledger.or(int8_ledger).expect("one engine ran");
        check_sum(report, &cpu);
        report_accel(report, &accel, &cpu);
    }

    let mut bench = ServeBench::new(&model.served, server, pool, args.seed)?;
    let accuracy = bench.measure(workload.rates(), args, report, true);
    report.metric_n("accuracy", accuracy, bench.answers());
    if accuracy < SERVE_ACCURACY_FLOOR {
        report.fail(format!(
            "served accuracy {accuracy:.3} is below {SERVE_ACCURACY_FLOOR}"
        ));
    }
    bench.report_totals(report);

    let (second_s, again) = timed_point(&model.snapshot, &accel_set)?;
    report.metric_n("point_s", (first_s + second_s) / 2.0, 2);
    report.metric("dse.fit_s", 0.0);
    report.metric(
        "dse.evaluate_s",
        (accel.evaluate_s + again.evaluate_s) / 2.0,
    );
    Ok(())
}

/// One training-free DSE point on `snapshot`: its wall time and
/// ledger.
fn timed_point(snapshot: &NetworkSnapshot, ds: &Dataset) -> Result<(f64, AccelLedger), String> {
    let t = Instant::now();
    let accel = ledger::accel_ledger(snapshot, ds)?;
    Ok((t.elapsed().as_secs_f64(), accel))
}

/// The DSE sweep profile: the paper's 32×32×3 input, T = 8, batch
/// 32, one epoch over a fixed 512-sample split.
fn dse_profile() -> ExperimentProfile {
    ExperimentProfile {
        name: "perfbench",
        image_size: 32,
        channels: 3,
        train_samples: 512,
        test_samples: 128,
        epochs: 1,
        timesteps: TIMESTEPS,
        batch_size: 32,
        base_lr: 1e-2,
        seed: MODEL_SEED,
        easy_task: true,
        encoding: SpikeEncoding::Direct,
    }
}

fn dse_workload(args: RunArgs, report: &mut Report) -> Result<(), String> {
    let profile = dse_profile();
    let mut gen = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        data = Some(profile.datasets());
        gen.push(t.elapsed().as_secs_f64());
    }
    let (train, test) = data.expect("at least one set-up");
    report.metric_n("setup_s", median(&gen), gen.len());
    report.metric("data.generate_s", median(&gen));
    report.metric("setup.snapshot_parse_s", 0.0);
    report.metric("setup.quantize_s", 0.0);

    if args.trace {
        snn_obs::enable_profiling(true);
    }
    let mut points = Vec::new();
    for lif in [LifConfig::paper_default(), LifConfig::paper_latency_tuned()] {
        let t = Instant::now();
        let result = run_point(&profile, lif, &train, &test).map_err(|e| e.to_string())?;
        let run_s = t.elapsed().as_secs_f64();
        let accel = ledger::accel_ledger(&result.snapshot, &test)?;
        let wall_s = t.elapsed().as_secs_f64();
        report.note(format!(
            "point beta={} theta={}: test accuracy {:.3}, firing rate {:.4}, fit {:.2} s, point {wall_s:.2} s",
            lif.beta, lif.theta, result.test_accuracy, result.firing_rate, result.train_secs
        ));
        check_point(&result, &test, report)?;
        points.push(Point {
            result,
            run_s,
            wall_s,
            accel,
        });
    }
    if args.trace {
        report_spans(
            report,
            (profile.train_samples * profile.epochs * points.len()) as f64,
        );
        snn_obs::enable_profiling(false);
    }
    let mean = |f: fn(&Point) -> f64| points.iter().map(f).sum::<f64>() / points.len() as f64;
    report.metric_n("point_s", mean(|p| p.wall_s), points.len());
    report.metric("dse.fit_s", mean(|p| p.result.train_secs));
    report.metric("dse.evaluate_s", mean(|p| p.run_s - p.result.train_secs));
    report.metric_n(
        "accuracy",
        mean(|p| p.result.test_accuracy),
        points.len() * test.len(),
    );

    // The latency-tuned point is the one deployed.
    let served_point = points.pop().expect("two points");
    let pool = ImagePool::generate(POOL_IMAGES, args.seed);
    if args.trace {
        let cpu = ledger::f32_ledger(&served_point.result.snapshot, &pool.inputs);
        report_layers(report, "layer", Some(&cpu));
        report_layers(report, "qlayer", None);
        check_sum(report, &cpu);
        report_accel(report, &served_point.accel, &cpu);
    }
    let served = ServedModel::from(served_point.result.snapshot);
    let server = start_server(served.clone())?;
    let mut bench = ServeBench::new(&served, server, pool, args.seed)?;
    bench.measure(Workload::DsePoint.rates(), args, report, false);
    bench.report_totals(report);
    Ok(())
}

/// One trained DSE point and its timings.
struct Point {
    result: PointResult,
    /// `run_point` wall time, s.
    run_s: f64,
    /// `run_point` plus trace and simulation, s.
    wall_s: f64,
    accel: AccelLedger,
}

/// The returned snapshot, served by [`InferenceEngine`], must
/// reproduce the reported test accuracy, which must reach
/// [`POINT_ACCURACY_FLOOR`], and every result must be finite.
fn check_point(p: &PointResult, test: &Dataset, report: &mut Report) -> Result<(), String> {
    let finite = [
        p.test_accuracy,
        p.train_accuracy,
        p.firing_rate,
        p.latency_us(),
        p.fps_per_watt(),
        p.train_secs,
    ];
    if finite.iter().any(|v| !v.is_finite()) {
        report.fail(format!("point results are not finite: {finite:?}"));
    }
    let mut engine =
        InferenceEngine::new(p.snapshot.clone(), TIMESTEPS).map_err(|e| e.to_string())?;
    let items: Vec<Vec<f32>> = (0..test.len())
        .map(|i| test.item(i).0.as_slice().to_vec())
        .collect();
    let hits = items
        .chunks(8)
        .flat_map(|b| engine.infer_batch(b))
        .zip(0..test.len())
        .filter(|(o, i)| o.class == test.item(*i).1)
        .count();
    if p.test_accuracy < POINT_ACCURACY_FLOOR {
        report.fail(format!(
            "point test accuracy {:.3} is below {POINT_ACCURACY_FLOOR}",
            p.test_accuracy
        ));
    }
    let served = hits as f64 / test.len() as f64;
    if served != p.test_accuracy {
        report.fail(format!(
            "served snapshot scores {served:.4}, the point reported {:.4}",
            p.test_accuracy
        ));
    }
    Ok(())
}
