//! The serve measurement every workload ends in: one pool replica
//! under open-loop load at a light rate, interleaved with saturation
//! rounds that keep every connection busy; every answer is checked
//! against a reference engine. The traced run adds a heavy phase.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_pool::{PoolServer, PoolServerConfig};
use snn_serve::{AnyEngine, BatcherConfig, ModelRegistry, ServedModel};
use snn_tensor::derive_seed;

use crate::client::{self, Outcome, Sample};
use crate::images::ImagePool;
use crate::ledger::report_spans;
use crate::report::Report;
use crate::stats::{median, percentile, tail, Hist, Scrape};
use crate::workload::RunArgs;
use crate::TIMESTEPS;

/// Share of `--seconds` the light phase offers load for; the
/// saturation rounds take about the rest.
const LIGHT_SHARE: f64 = 0.75;
/// Share of `--seconds` each of the traced run's two light phases
/// offers load for.
const TRACED_LIGHT_SHARE: f64 = 0.2;
/// Share of `--seconds` the traced run's heavy phase offers load for.
const TRACED_HEAVY_SHARE: f64 = 0.3;
/// Rounds the light phase is split over, each followed by a
/// saturation round, so that both sample the host across the whole
/// run rather than one stretch of it.
const ROUNDS: usize = 5;
/// Fewest requests a phase offers: enough for a p90 with ten samples
/// beyond it.
const MIN_REQUESTS: usize = 100;
/// Back-to-back requests per saturation round.
const SATURATION_REQUESTS: usize = 100;
/// Warm-up requests at the heavy rate before measuring.
const WARMUP_REQUESTS: usize = 20;
/// Highest share of attempted requests that may fail (refused, shed,
/// transport failure, wrong answer or unsent) before the run fails.
const ERROR_LIMIT: f64 = 0.001;

/// Offered rates of one workload, requests per second, frozen from
/// the capacity each workload measured at the commit that defined
/// the benchmark (≈25% and ≈60% of it).
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Light phase.
    pub light: f64,
    /// Heavy phase.
    pub heavy: f64,
}

/// Starts one pool replica with the shipped batcher defaults and
/// waits for the first healthy `/healthz`.
pub fn start_server(model: ServedModel) -> Result<PoolServer, String> {
    let registry = Arc::new(ModelRegistry::new(model, "paper").map_err(|e| e.to_string())?);
    let cfg = PoolServerConfig {
        replicas: 1,
        batcher: BatcherConfig {
            timesteps: TIMESTEPS,
            ..BatcherConfig::default()
        },
        ..PoolServerConfig::default()
    };
    let server = PoolServer::start(registry, cfg).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if matches!(client::get(server.addr(), "/healthz"), Some((200, _))) {
            return Ok(server);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("server never reported healthy".into())
}

/// Answers, failures and label matches over every request sent.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    answers: u64,
    label_hits: u64,
    mismatches: u64,
    unsent: u64,
}

/// One served model under open-loop load.
pub struct ServeBench {
    server: PoolServer,
    addr: SocketAddr,
    pool: ImagePool,
    /// Reference `(class, counts)` per pool image.
    reference: Vec<(usize, Vec<f32>)>,
    tally: Tally,
    seed: u64,
    phases: u64,
}

impl ServeBench {
    /// Wraps a started server and computes the reference answer of
    /// every pool image with an engine built from `served`.
    ///
    /// # Errors
    ///
    /// The engine build error, as text.
    pub fn new(
        served: &ServedModel,
        server: PoolServer,
        pool: ImagePool,
        seed: u64,
    ) -> Result<ServeBench, String> {
        let mut engine = AnyEngine::new(served, TIMESTEPS).map_err(|e| e.to_string())?;
        let reference = pool
            .inputs
            .chunks(8)
            .flat_map(|batch| engine.infer_batch(batch))
            .map(|o| (o.class, o.counts))
            .collect();
        let addr = server.addr();
        Ok(ServeBench {
            server,
            addr,
            pool,
            reference,
            tally: Tally::default(),
            seed,
            phases: 0,
        })
    }

    /// Offers one phase and checks every answer against the reference.
    fn phase(&mut self, rate: f64, requests: usize) -> Vec<Sample> {
        let seed = self.next_seed();
        let samples = client::run(self.addr, &self.pool, rate, requests, seed);
        self.check(&samples);
        samples
    }

    /// Answers per second with every connection kept busy, over
    /// `requests` checked requests.
    fn saturation(&mut self, requests: usize) -> f64 {
        let seed = self.next_seed();
        let (samples, seconds) = client::saturate(self.addr, &self.pool, requests, seed);
        self.check(&samples);
        answered(&samples).count() as f64 / seconds
    }

    fn next_seed(&mut self) -> u64 {
        self.phases += 1;
        derive_seed(self.seed, &format!("phase{}", self.phases))
    }

    /// Tallies `samples`, checking every answer against the reference.
    fn check(&mut self, samples: &[Sample]) {
        for s in samples {
            self.tally.attempted += 1;
            match &s.outcome {
                Outcome::Answer { class, counts } => {
                    let (ref_class, ref_counts) = &self.reference[s.image];
                    if class != ref_class || counts != ref_counts {
                        self.tally.mismatches += 1;
                        self.tally.failed += 1;
                    } else {
                        self.tally.answers += 1;
                        if *class == self.pool.labels[s.image] {
                            self.tally.label_hits += 1;
                        }
                    }
                }
                Outcome::Unsent => {
                    self.tally.unsent += 1;
                    self.tally.failed += 1;
                }
                _ => self.tally.failed += 1,
            }
        }
    }

    /// Warm-up, then light phase and saturation rounds; returns
    /// served accuracy. `spans` says whether the traced run reports
    /// kernel self times from its phases.
    pub fn measure(
        &mut self,
        rates: Rates,
        args: RunArgs,
        report: &mut Report,
        spans: bool,
    ) -> f64 {
        self.phase(rates.heavy, WARMUP_REQUESTS);
        if args.trace {
            return self.measure_traced(rates, args.seconds, report, spans);
        }
        let light_n = requests(rates.light, LIGHT_SHARE * args.seconds);
        let mut light = Vec::new();
        let mut max_rps = Vec::new();
        let mut rounds = Vec::new();
        for round in 0..ROUNDS {
            let chunk = light_n * (round + 1) / ROUNDS - light_n * round / ROUNDS;
            let got = self.phase(rates.light, chunk);
            let lat = latencies(&got);
            if !lat.is_empty() {
                rounds.push(format!("{:.1}", median(&lat)));
            }
            light.extend(got);
            let rps = self.saturation(SATURATION_REQUESTS);
            rounds.push(format!("{rps:.1} rps;"));
            max_rps.push(rps);
        }
        // Per-round figures show how far the host drifted within the run.
        report.note(format!("rounds (light p50 ms, saturation): {}", rounds.join(" ")));
        report.metric_n("max_rps", median(&max_rps), max_rps.len());
        if let Some(p50) = report_latency(report, "light", &light) {
            report.metric_n("light.p50_ms", p50, latencies(&light).len());
        }
        self.accuracy()
    }

    /// Traced run: untraced and traced light phases (the difference
    /// is the tracing overhead), then a traced heavy phase; serve
    /// stages come from `/metrics.json` deltas and kernel self times
    /// from the span profile.
    fn measure_traced(
        &mut self,
        rates: Rates,
        seconds: f64,
        report: &mut Report,
        spans: bool,
    ) -> f64 {
        let light_n = requests(rates.light, TRACED_LIGHT_SHARE * seconds);
        let heavy_n = requests(rates.heavy, TRACED_HEAVY_SHARE * seconds);
        let untraced = self.phase(rates.light, light_n);
        snn_obs::enable_profiling(spans);
        let m0 = Scrape::fetch(self.addr);
        let traced = self.phase(rates.light, light_n);
        let m1 = Scrape::fetch(self.addr);
        let heavy = self.phase(rates.heavy, heavy_n);
        let m2 = Scrape::fetch(self.addr);
        if spans {
            report_spans(report, (light_n + heavy_n) as f64);
            snn_obs::enable_profiling(false);
        }

        let base = report_latency(report, "light (untraced)", &untraced);
        let with = report_latency(report, "light (traced)", &traced);
        report_latency(report, "heavy (traced)", &heavy);
        if let (Some(base), Some(with)) = (base, with) {
            report.metric("trace.overhead_ms", with - base);
        }
        let lag = lags(&heavy);
        if lag.len() > 10 {
            report.metric("client.lag_ms.tail", tail(&lag).1);
        }

        let stage = |m: &Scrape, earlier: &Scrape, name: &str| -> Hist {
            m.hist(&format!("snn_serve_stage_{name}_seconds"))
                .since(&earlier.hist(&format!("snn_serve_stage_{name}_seconds")))
        };
        report.metric("pool.parse_us", stage(&m1, &m0, "parse").mean() * 1e6);
        report.metric("pool.respond_us", stage(&m1, &m0, "respond").mean() * 1e6);
        let wait = stage(&m2, &m1, "queue_wait");
        report.metric("serve.queue_wait_ms.p50", wait.quantile(0.50) * 1e3);
        report.metric("serve.queue_wait_ms.p99", wait.quantile(0.99) * 1e3);
        report.metric(
            "serve.batch_form_us",
            stage(&m2, &m1, "batch_form").mean() * 1e6,
        );
        report.metric("serve.forward_ms", stage(&m2, &m1, "forward").mean() * 1e3);
        let batch = m2
            .hist("snn_serve_batch_size")
            .since(&m1.hist("snn_serve_batch_size"));
        report.metric("serve.batch_size.mean", batch.mean());
        let shed = |m: &Scrape| {
            m.value("snn_serve_admit_shed_total")
                + m.value("snn_serve_rejected_full_total")
                + m.value("snn_serve_rejected_deadline_total")
        };
        report.metric("serve.shed_total", shed(&m2) - shed(&m0));
        self.accuracy()
    }

    /// Correct answers so far.
    pub fn answers(&self) -> usize {
        self.tally.answers as usize
    }

    fn accuracy(&self) -> f64 {
        self.tally.label_hits as f64 / self.tally.answers.max(1) as f64
    }

    /// Records request totals and fails the run on any answer that
    /// differs from the reference, or when more than [`ERROR_LIMIT`]
    /// of the attempted requests failed.
    pub fn report_totals(&self, report: &mut Report) {
        report.count(self.tally.attempted, self.tally.failed);
        let err = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        report.note(format!(
            "requests: {} attempted, {} failed ({} wrong answers, {} unsent), error_frac {err:.5}",
            self.tally.attempted, self.tally.failed, self.tally.mismatches, self.tally.unsent
        ));
        if self.tally.mismatches > 0 {
            report.fail(format!(
                "{} answers differ from the reference engine",
                self.tally.mismatches
            ));
        }
        if err > ERROR_LIMIT {
            report.fail(format!("error_frac {err:.5} exceeds {ERROR_LIMIT}"));
        }
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Requests a phase of `seconds` at `rate` offers (at least
/// [`MIN_REQUESTS`]).
fn requests(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(MIN_REQUESTS)
}

/// The samples that were answered with `200`.
fn answered(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Answer { .. }))
}

/// Latencies of the answered requests: a failure says nothing about
/// how fast the server answers, and counts in `error_frac` instead.
fn latencies(samples: &[Sample]) -> Vec<f64> {
    answered(samples).map(|s| s.latency_ms).collect()
}

/// Generator lag of every request that was sent.
fn lags(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.outcome != Outcome::Unsent)
        .map(|s| s.lag_ms)
        .collect()
}

/// Prints a phase's latency over its answered requests (median, p90
/// and the highest tail) and returns the median; fails the run when
/// too few were answered to give them.
fn report_latency(report: &mut Report, phase: &str, samples: &[Sample]) -> Option<f64> {
    let lat = latencies(samples);
    if lat.len() <= 10 {
        report.fail(format!(
            "{phase}: only {} of {} requests answered",
            lat.len(),
            samples.len()
        ));
        return None;
    }
    let (pct, q) = tail(&lat);
    let p90 = percentile(&lat, 90.0);
    let lag = lags(samples);
    report.note(format!(
        "{phase}: {} answered of {}, p50 {:.2} ms, p90 {p90:.2} ms, p{pct:.1} {q:.2} ms; generator lag p50 {:.2} ms, max {:.2} ms",
        lat.len(),
        samples.len(),
        median(&lat),
        median(&lag),
        lag.iter().copied().fold(0.0, f64::max)
    ));
    Some(median(&lat))
}
