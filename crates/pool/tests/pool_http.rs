//! End-to-end tests for the HTTP front end: `/infer` answers pinned
//! bitwise to the in-process engine, error responses pinned to their
//! exact bytes, per-replica health reporting, atomic multi-replica
//! reload, int8 promotion through `/reload`, request tracing, SLO and
//! worker-panic health transitions, the reply wakeup, and the metric
//! expositions.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_obs::{SloConfig, TailPolicy, TraceRing};
use snn_pool::{PoolServer, PoolServerConfig};
use snn_serve::{parse_infer_body, BatcherConfig, InferenceEngine, ModelRegistry};
use snn_tensor::Shape;

fn snapshot(seed: u64) -> NetworkSnapshot {
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
        .conv(4, 3, 1, 1, lif)
        .unwrap()
        .maxpool(2)
        .unwrap()
        .flatten()
        .unwrap()
        .dense(4, lif)
        .unwrap()
        .build()
        .unwrap();
    NetworkSnapshot::from_network(&net)
}

/// The default test configuration: `replicas` engines serving
/// `snapshot(11)` at T=2.
fn config(replicas: usize) -> PoolServerConfig {
    PoolServerConfig {
        replicas,
        batcher: BatcherConfig { timesteps: 2, ..BatcherConfig::default() },
        ..PoolServerConfig::default()
    }
}

fn start(cfg: PoolServerConfig) -> PoolServer {
    let registry = Arc::new(ModelRegistry::new(snapshot(11), "demo").unwrap());
    PoolServer::start(registry, cfg).unwrap()
}

fn start_pool(replicas: usize) -> PoolServer {
    start(config(replicas))
}

/// Sends raw bytes on a fresh connection and returns the whole
/// response: (status, head, body).
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head.split_whitespace().nth(1).expect("status").parse().expect("numeric");
    (status, head.to_string(), body.to_string())
}

/// One-shot HTTP client (no `Content-Type`): returns (status, head, body).
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, raw.as_bytes())
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body);
    (status, body)
}

fn infer_body() -> String {
    let input: Vec<String> = (0..64).map(|i| format!("{}", (i % 7) as f32 / 7.0)).collect();
    format!("{{\"input\":[{}]}}", input.join(","))
}

/// The `x-snn-trace-id` value from a response head.
fn trace_id_of(head: &str) -> String {
    head.lines()
        .find_map(|l| l.strip_prefix("x-snn-trace-id: "))
        .unwrap_or_else(|| panic!("no x-snn-trace-id header in {head}"))
        .trim()
        .to_string()
}

// --- JSON navigation helpers for the vendored serde Value.

fn get<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(n, _)| n == k).map(|(_, x)| x)
}

fn get_str<'a>(v: &'a Value, k: &str) -> Option<&'a str> {
    match get(v, k)? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        Value::BigInt(i) => *i as f64,
        other => panic!("non-numeric {other:?}"),
    }
}

fn get_num(v: &Value, k: &str) -> Option<f64> {
    get(v, k).map(num)
}

fn get_array<'a>(v: &'a Value, k: &str) -> &'a [Value] {
    match get(v, k) {
        Some(Value::Array(items)) => items,
        other => panic!("`{k}` is not an array: {other:?}"),
    }
}

#[test]
fn infer_matches_the_in_process_engine_bitwise() {
    let pool = start_pool(2);
    let body = infer_body();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 200, "reply: {reply}");
    let reply = serde_json::parse(&reply).unwrap();

    // The same snapshot, timesteps and parsed input, run in process.
    let (input, _) = parse_infer_body(&body, 64).unwrap();
    let solo = InferenceEngine::new(snapshot(11), 2).unwrap().infer_one(input);

    assert_eq!(get_num(&reply, "class"), Some(solo.class as f64));
    assert_eq!(get_str(&reply, "engine"), Some("f32"));
    assert_eq!(get_num(&reply, "model_version"), Some(1.0));
    let counts: Vec<u32> =
        get_array(&reply, "counts").iter().map(|c| (num(c) as f32).to_bits()).collect();
    let want: Vec<u32> = solo.counts.iter().map(|c| c.to_bits()).collect();
    assert_eq!(counts, want, "spike counts differ from the in-process engine");
    let layers = get_array(&reply, "layers");
    assert_eq!(layers.len(), solo.layers.len());
    for (got, want) in layers.iter().zip(&solo.layers) {
        assert_eq!(get_str(got, "layer"), Some(want.layer.as_str()));
        assert_eq!(
            get_num(got, "rate").unwrap().to_bits(),
            want.rate.to_bits(),
            "layer {} rate differs",
            want.layer
        );
    }
}

/// Every error path answers the exact status and body bytes the
/// server has always returned; clients match on these strings.
#[test]
fn error_responses_are_pinned_byte_for_byte() {
    let pool = start_pool(2);
    let cases: [(&str, &str, &str, u16, &str); 10] = [
        (
            "POST",
            "/infer",
            "not json at all",
            400,
            r#"{"error":"invalid JSON: invalid literal at byte 0 of JSON input"}"#,
        ),
        ("POST", "/infer", "[1,2,3]", 400, r#"{"error":"request body must be a JSON object"}"#),
        (
            "POST",
            "/infer",
            r#"{"input":"nope"}"#,
            400,
            r#"{"error":"`input` must be an array of numbers"}"#,
        ),
        (
            "POST",
            "/infer",
            r#"{"input":[1,2]}"#,
            400,
            r#"{"error":"bad input: expected 64 values, got 2"}"#,
        ),
        (
            "POST",
            "/infer",
            r#"{"input":[1e999]}"#,
            400,
            r#"{"error":"`input` values must be finite"}"#,
        ),
        ("POST", "/infer", "{}", 400, r#"{"error":"missing required field `input`"}"#),
        ("GET", "/nope", "", 404, r#"{"error":"no such route"}"#),
        ("PUT", "/infer", "", 405, r#"{"error":"method not allowed"}"#),
        (
            "POST",
            "/reload",
            r#"{"bad":1}"#,
            400,
            r#"{"error":"rejected snapshot: malformed snapshot JSON: missing field `input_item_dims` while decoding NetworkSnapshot"}"#,
        ),
        (
            "GET",
            "/debug/traces/nope",
            "",
            400,
            r#"{"error":"trace id must be 32 lowercase hex chars"}"#,
        ),
    ];
    for (method, path, body, want_status, want_body) in cases {
        let (status, got) = request(pool.addr(), method, path, body);
        assert_eq!((status, got.as_str()), (want_status, want_body), "{method} {path} {body}");
    }
    // The seven malformed /infer and /reload bodies count as bad requests.
    assert_eq!(pool.metrics().bad_requests.get(), 7);

    // A declared non-JSON content type is refused on both POST routes;
    // a JSON one with parameters is accepted and fails validation on
    // its own merits.
    let json = r#"{"input":[]}"#;
    let refused = r#"{"error":"unsupported content-type `text/plain`; use application/json"}"#;
    for (path, content_type, want) in [
        ("/infer", "text/plain", refused),
        ("/reload", "text/plain", refused),
        (
            "/infer",
            "application/json; charset=utf-8",
            r#"{"error":"bad input: expected 64 values, got 0"}"#,
        ),
    ] {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{json}",
            json.len()
        );
        let (status, _, body) = raw_request(pool.addr(), raw.as_bytes());
        assert_eq!((status, body.as_str()), (400, want), "{path} as {content_type}");
    }

    // 9 MiB declared, none sent: refused from the head alone.
    let (status, _, body) = raw_request(
        pool.addr(),
        b"POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: 9437184\r\nConnection: close\r\n\r\n",
    );
    let too_large = r#"{"error":"request body too large (limit 8388608 bytes)"}"#;
    assert_eq!((status, body.as_str()), (413, too_large));
}

#[test]
fn healthz_reports_every_replica() {
    let pool = start_pool(3);
    let (status, body) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"degraded_mode\":\"none\""), "body: {body}");
    assert!(body.contains("\"model\":\"demo\""), "body: {body}");
    for i in 0..3 {
        assert!(
            body.contains(&format!("{{\"replica\":{i},\"circuit\":\"closed\"}}")),
            "missing replica {i} in {body}"
        );
    }
}

#[test]
fn reload_swaps_every_replica_atomically() {
    let pool = start_pool(2);
    let body = infer_body();
    let (_, before) = request(pool.addr(), "POST", "/infer", &body);
    assert!(before.contains("\"model_version\":1"), "before: {before}");

    let good = serde_json::to_string(&snapshot(77)).unwrap();
    let (status, receipt) = request(pool.addr(), "POST", "/reload", &good);
    assert_eq!(status, 200, "receipt: {receipt}");
    for field in ["\"ok\":true", "\"old_version\":1", "\"new_version\":2", "\"model_hash\":"] {
        assert!(receipt.contains(field), "missing {field} in {receipt}");
    }

    // Every replica polls the same registry version at its next batch
    // boundary: all subsequent responses (across many routed requests,
    // hence both replicas) carry the new version — never a torn batch.
    for _ in 0..12 {
        let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
        assert_eq!(status, 200, "reply: {reply}");
        assert!(reply.contains("\"model_version\":2"), "stale replica reply: {reply}");
    }
    // With >12 routed requests, p2c has touched both replicas with
    // overwhelming probability.
    let routed = pool.pool().routed_counts();
    assert!(routed.iter().all(|&c| c > 0), "router starved a replica: {routed:?}");
}

#[test]
fn reload_with_quantized_artifact_serves_int8_end_to_end() {
    let pool = start_pool(1);
    let infer = infer_body();
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer);
    assert_eq!(status, 200, "reply: {reply}");
    assert!(reply.contains("\"engine\":\"f32\""), "reply: {reply}");

    // Quantize the served model and promote it through /reload.
    let snap = snapshot(11);
    let split: Vec<Vec<f32>> =
        (0..4).map(|s| (0..64).map(|j| ((s + j) % 7) as f32 / 7.0).collect()).collect();
    let cal = snn_quant::calibrate(&snap, &split, 2).unwrap();
    let artifact = snn_quant::quantize_snapshot(&snap, &cal, 8).unwrap();
    let (status, receipt) =
        request(pool.addr(), "POST", "/reload", &serde_json::to_string(&artifact).unwrap());
    assert_eq!(status, 200, "receipt: {receipt}");
    for field in ["\"dtype\":\"int8\"", "\"quant\":", "\"bits\":8"] {
        assert!(receipt.contains(field), "missing {field} in {receipt}");
    }

    // /healthz reflects the dtype, /infer runs the integer engine,
    // /metrics counts the route.
    let (_, health) = request(pool.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"dtype\":\"int8\""), "health: {health}");
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer);
    assert_eq!(status, 200, "reply: {reply}");
    for field in ["\"engine\":\"int8\"", "\"class\":", "\"counts\":", "\"layers\":", "\"rate\":"] {
        assert!(reply.contains(field), "missing {field} in {reply}");
    }
    let (_, metrics) = request(pool.addr(), "GET", "/metrics", "");
    for series in
        ["snn_serve_engine_int8_requests_total 1", "snn_serve_engine_f32_requests_total 1"]
    {
        assert!(metrics.contains(series), "missing {series} in {metrics}");
    }

    // A quantized artifact with a different interface is refused.
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let small = SpikingNetwork::builder(Shape::d3(1, 6, 6), 5)
        .flatten()
        .unwrap()
        .dense(4, lif)
        .unwrap()
        .build()
        .unwrap();
    let small = NetworkSnapshot::from_network(&small);
    let cal = snn_quant::calibrate(&small, &vec![vec![0.5f32; 36]; 3], 2).unwrap();
    let other = snn_quant::quantize_snapshot(&small, &cal, 8).unwrap();
    let (status, body) =
        request(pool.addr(), "POST", "/reload", &serde_json::to_string(&other).unwrap());
    assert_eq!(status, 409, "reply: {body}");
}

/// One replica whose worker panics: the request gets a typed 503, the
/// open breaker turns `/healthz` into a 503 (nothing can serve), and
/// after the cooldown the half-open probe heals it.
#[test]
fn worker_panic_surfaces_as_503_and_healthz_degrades_then_recovers() {
    let plan = Arc::new(snn_fault::FaultPlan::parse("panic@serve.worker:1", 0).unwrap());
    let _guard = snn_fault::install(plan);
    let pool = start(PoolServerConfig {
        batcher: BatcherConfig {
            timesteps: 2,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            ..BatcherConfig::default()
        },
        ..config(1)
    });
    let body = infer_body();

    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 503, "reply: {reply}");
    assert!(reply.contains("panicked"), "reply: {reply}");

    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "an only replica with an open breaker answers 503");
    assert!(health.contains("\"status\":\"degraded\""), "health: {health}");
    assert!(health.contains("\"degraded_mode\":\"none\""), "health: {health}");
    assert!(health.contains("\"circuit\":\"open\""), "health: {health}");

    // The occurrence rule already fired, so the half-open probe after
    // the cooldown succeeds and service self-heals.
    std::thread::sleep(Duration::from_millis(60));
    let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
    assert_eq!(status, 200, "probe reply: {reply}");
    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "healed instance answers 200 again");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert_eq!(pool.metrics().worker_panics.get(), 1);
    assert_eq!(pool.pool().quarantined_flags(), [false], "the last replica is never quarantined");
}

#[test]
fn healthz_degrades_on_fast_slo_burn() {
    let pool = start(PoolServerConfig {
        slo: Some(SloConfig::parse("avail=99.9").unwrap()),
        ..config(1)
    });
    let (_, health) = request(pool.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert!(health.contains("\"slo_fast_burn\":false"), "health: {health}");
    // Burn the error budget far past the fast threshold.
    for _ in 0..50 {
        pool.metrics().slo_record(false, 1_000);
    }
    // Fast burn with no brownout artifact published means there is no
    // mitigation: the health check flips hard to 503.
    let (status, health) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 503, "unmitigated fast burn answers 503");
    assert!(health.contains("\"status\":\"degraded\""), "health: {health}");
    assert!(health.contains("\"degraded_mode\":\"none\""), "health: {health}");
    assert!(health.contains("\"slo_fast_burn\":true"), "health: {health}");
    assert!(health.contains("\"circuit\":\"closed\""), "degradation is SLO-driven");
    let (_, metrics) = request(pool.addr(), "GET", "/metrics", "");
    assert!(metrics.contains("\nsnn_slo_fast_burn 1\n"), "metrics: {metrics}");
}

fn traced_pool(policy: TailPolicy) -> PoolServer {
    start(PoolServerConfig { trace_ring: Some(Arc::new(TraceRing::new(64, policy))), ..config(1) })
}

#[test]
fn infer_trace_is_locatable_by_header_id_with_five_stages_summing_to_wall() {
    let pool = traced_pool(TailPolicy::default());
    let (status, head, reply) = request_full(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200, "reply: {reply}");
    assert!(reply.contains("\"batch_form_us\":"), "reply: {reply}");
    let id = trace_id_of(&head);
    assert!(snn_obs::tracectx::is_trace_hex(&id), "malformed id {id}");

    // Non-traced routes still carry the header.
    let (_, head, _) = request_full(pool.addr(), "GET", "/healthz", "");
    assert_ne!(trace_id_of(&head), id, "each request gets its own id");

    let (status, listing) = request(pool.addr(), "GET", "/debug/traces", "");
    assert_eq!(status, 200, "listing: {listing}");
    let parsed = serde_json::parse(&listing).unwrap();
    assert_eq!(get_num(&parsed, "capacity"), Some(64.0));
    assert!(get_num(&parsed, "kept").unwrap() >= 1.0, "listing: {listing}");

    let (status, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{id}"), "");
    assert_eq!(status, 200, "record: {rec}");
    let rec = serde_json::parse(&rec).unwrap();
    assert_eq!(get_str(&rec, "trace_id"), Some(id.as_str()));
    assert_eq!(get_str(&rec, "route"), Some("/infer"));
    assert_eq!(get_str(&rec, "outcome"), Some("ok"));
    assert_eq!(get_str(&rec, "engine"), Some("f32"));
    assert!(get_num(&rec, "batch_size").unwrap() >= 1.0);
    let total = get_num(&rec, "total_us").unwrap();
    let stages = get_array(&rec, "stages");
    let names: Vec<&str> = stages.iter().map(|s| get_str(s, "stage").unwrap()).collect();
    assert_eq!(names, ["parse", "queue_wait", "batch_form", "forward", "respond"]);
    let sum: f64 = stages.iter().map(|s| get_num(s, "micros").unwrap()).sum();
    assert!((sum - total).abs() <= 0.05 * total + 5.0, "stages sum {sum}us vs wall {total}us");
    assert!(
        stages.iter().any(|s| get_num(s, "micros").unwrap() > 0.0),
        "all stages zero: {stages:?}"
    );

    // Chrome export: meta event + one X event per stage.
    let (status, chrome) = request(pool.addr(), "GET", &format!("/debug/traces/{id}/chrome"), "");
    assert_eq!(status, 200, "chrome: {chrome}");
    let Value::Array(events) = serde_json::parse(&chrome).unwrap() else {
        panic!("chrome export must be an array")
    };
    assert_eq!(events.len(), 1 + 5, "chrome: {chrome}");

    // An unknown (well-formed) id is a typed 404.
    let (status, _) = request(pool.addr(), "GET", &format!("/debug/traces/{}", "0".repeat(32)), "");
    assert_eq!(status, 404);
}

#[test]
fn tail_sampling_drops_fast_successes_but_keeps_client_errors() {
    // sample=0, slow threshold unreachable: only failures survive.
    let pool = traced_pool(TailPolicy { slow_us: u64::MAX, sample: 0.0 });
    let (status, head, _) = request_full(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200);
    let ok_id = trace_id_of(&head);
    let (status, head, _) = request_full(pool.addr(), "POST", "/infer", "{\"input\":[1]}");
    assert_eq!(status, 400);
    let bad_id = trace_id_of(&head);

    let (_, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{ok_id}"), "");
    assert!(rec.contains("no such trace"), "fast success must be sampled out: {rec}");
    let (status, rec) = request(pool.addr(), "GET", &format!("/debug/traces/{bad_id}"), "");
    assert_eq!(status, 200, "error outcome must always be kept: {rec}");
    assert!(rec.contains("\"outcome\":\"bad_input\""), "record: {rec}");
}

#[test]
fn debug_traces_404_when_tracing_disabled() {
    let pool = start(PoolServerConfig { trace_ring: None, ..config(1) });
    for path in ["/debug/traces", &format!("/debug/traces/{}", "0".repeat(32))] {
        let (status, body) = request(pool.addr(), "GET", path, "");
        assert_eq!(
            (status, body.as_str()),
            (404, r#"{"error":"request tracing disabled (SNN_TRACE_RING=0)"}"#),
            "{path}"
        );
    }
}

/// Replies wake the event loop at once. Were the reply signal lost,
/// each request would wait for the loop's 250ms idle tick instead.
#[test]
fn replies_wake_the_loop_without_waiting_for_a_tick() {
    let pool = start_pool(1);
    let body = infer_body();
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let (status, reply) = request(pool.addr(), "POST", "/infer", &body);
            assert_eq!(status, 200, "reply: {reply}");
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(50), "median /infer round trip {median:?}");
}

#[test]
fn metrics_expose_per_replica_labeled_series() {
    let pool = start_pool(2);
    let body = infer_body();
    for _ in 0..4 {
        let (status, _) = request(pool.addr(), "POST", "/infer", &body);
        assert_eq!(status, 200);
    }
    let (status, text) = request(pool.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    for series in [
        "snn_pool_replica_queue_depth{replica=\"0\"}",
        "snn_pool_replica_queue_depth{replica=\"1\"}",
        "snn_pool_replica_circuit_state{replica=\"0\"}",
        "snn_pool_replica_routed_total{replica=\"1\"}",
        "snn_pool_replica_infer_seconds_bucket{replica=\"0\",le=",
        "snn_pool_router_p2c_total",
        "snn_pool_router_fallback_total",
        "snn_pool_router_rerouted_total",
        "snn_pool_open_connections",
        // The shared serve-side instruments still render.
        "snn_serve_requests_received_total",
        "# TYPE snn_serve_requests_completed_total counter\n",
        "# TYPE snn_serve_batch_size histogram\n",
        "# TYPE snn_serve_stage_queue_wait_seconds histogram\n",
        "# TYPE snn_slo_fast_burn gauge\n",
    ] {
        assert!(text.contains(series), "missing {series} in exposition");
    }
    // HELP/TYPE are declared once per family, not once per labeled
    // series.
    let declarations = text.matches("# TYPE snn_pool_replica_queue_depth gauge").count();
    assert_eq!(declarations, 1, "family declared {declarations} times");

    // The JSON exposition carries the same labeled instruments.
    let (status, json) = request(pool.addr(), "GET", "/metrics.json", "");
    assert_eq!(status, 200);
    for field in ["\"summary\":", "\"mean_batch_size\":", "\"latency_us\":", "\"instruments\":"] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    assert!(
        json.contains("snn_pool_replica_routed_total{replica=\\\"0\\\"}")
            || json.contains("snn_pool_replica_routed_total{replica=\"0\"}"),
        "labeled series missing from metrics.json"
    );
}

/// The text and JSON expositions must not drift: every sample in
/// `/metrics` appears in `/metrics.json` — with the same value for this
/// instance's `snn_serve_*`/`snn_slo_*` families (globals are shared
/// with concurrently running tests, so only presence is asserted
/// there) — and histogram sums and counts agree with their buckets.
#[test]
fn metrics_text_and_json_expositions_agree() {
    let pool = start_pool(1);
    let body = infer_body();
    for _ in 0..3 {
        let (status, _) = request(pool.addr(), "POST", "/infer", &body);
        assert_eq!(status, 200);
    }
    let (_, text) = request(pool.addr(), "GET", "/metrics", "");
    let (_, json) = request(pool.addr(), "GET", "/metrics.json", "");
    let parsed = serde_json::parse(&json).unwrap();

    // Reconstruct the expected sample set from the JSON dump. A name
    // may carry a label block (`family{replica="0"}`); histogram series
    // put `le` after those labels.
    let mut expected: std::collections::BTreeMap<String, f64> = Default::default();
    for inst in get_array(&parsed, "instruments") {
        let name = get_str(inst, "name").unwrap();
        if get_str(inst, "kind") != Some("histogram") {
            expected.insert(name.to_string(), get_num(inst, "value").unwrap());
            continue;
        }
        let (family, labels) = match name.split_once('{') {
            Some((family, rest)) => (family, rest.trim_end_matches('}')),
            None => (name, ""),
        };
        let (le_prefix, plain) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let bounds: Vec<f64> = get_array(inst, "bounds").iter().map(num).collect();
        let counts: Vec<f64> = get_array(inst, "counts").iter().map(num).collect();
        assert_eq!(counts.len(), bounds.len() + 1, "{name}: overflow bucket");
        let (sum, count, max) = (
            get_num(inst, "sum").unwrap(),
            get_num(inst, "count").unwrap(),
            get_num(inst, "max").unwrap(),
        );
        assert_eq!(counts.iter().sum::<f64>(), count, "{name}: bucket counts vs count");
        if count > 0.0 {
            assert!(sum / count <= max + 1e-9, "{name}: mean above max");
        }
        let mut cum = 0.0;
        for (b, c) in bounds.iter().zip(&counts) {
            cum += c;
            expected.insert(format!("{family}_bucket{{{le_prefix}le=\"{b}\"}}"), cum);
        }
        expected.insert(format!("{family}_bucket{{{le_prefix}le=\"+Inf\"}}"), count);
        expected.insert(format!("{family}_sum{plain}"), sum);
        expected.insert(format!("{family}_count{plain}"), count);
    }

    let mut samples = 0usize;
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        samples += 1;
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line}"));
        let got = expected
            .get(name)
            .unwrap_or_else(|| panic!("`{name}` in /metrics but not /metrics.json"));
        if name.starts_with("snn_serve_") || name.starts_with("snn_slo_") {
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value {line}"));
            assert!(
                (got - value).abs() <= 1e-9 * value.abs().max(1.0),
                "`{name}`: text {value} vs json {got}"
            );
        }
    }
    assert!(samples > 40, "suspiciously small exposition ({samples} samples):\n{text}");
    assert!(
        text.contains("\nsnn_serve_stage_queue_wait_seconds_count 3\n"),
        "stage histogram missed the 3 requests: {text}"
    );
}

#[test]
fn keep_alive_pipelines_requests_in_order() {
    let pool = start_pool(2);
    let body = infer_body();
    let mut stream = TcpStream::connect(pool.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Two /infer requests and a /healthz, written back-to-back before
    // reading anything.
    let mut batch = String::new();
    for _ in 0..2 {
        batch.push_str(&format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    batch.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(batch.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let statuses: Vec<&str> = text.matches("HTTP/1.1 200 OK").collect();
    assert_eq!(statuses.len(), 3, "three pipelined responses: {text}");
    let healthz_pos = text.find("\"status\":\"ok\"").expect("healthz body last");
    let infer_pos = text.rfind("\"model_version\"").expect("infer bodies first");
    assert!(infer_pos < healthz_pos, "responses out of order");
}

#[test]
fn single_replica_pool_still_serves() {
    let pool = start_pool(1);
    let (status, reply) = request(pool.addr(), "POST", "/infer", &infer_body());
    assert_eq!(status, 200, "reply: {reply}");
    let (status, body) = request(pool.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"replicas\":[{\"replica\":0,\"circuit\":\"closed\"}]"));
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut pool = start_pool(1);
    let addr = pool.addr();
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    pool.shutdown();
    pool.shutdown();
    // After shutdown the listener is gone: either the connection is
    // refused or it resets without a response.
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = Vec::new();
            matches!(s.read_to_end(&mut out), Ok(0) | Err(_)) && out.is_empty()
        }
    };
    assert!(gone, "server still answering after shutdown");
}
