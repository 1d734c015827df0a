//! Seeded open-loop HTTP client: Poisson arrivals over the image pool.
//!
//! Arrival times and image choices are drawn up front from the seed,
//! so the same seed offers the same schedule. A request is due at its
//! scheduled instant whatever the server is doing; when every
//! connection is busy it waits, and its latency is charged from the
//! instant it was due, so a stall shows in every request behind it.
//! How late each send left is recorded as the generator's lag.
//! [`saturate`] instead keeps every connection busy, for the highest
//! rate the server answers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::images::ImagePool;

/// SplitMix64: a tiny seeded generator for schedules.
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `200` with the decoded answer.
    Answer {
        /// Predicted class.
        class: usize,
        /// Output spike counts.
        counts: Vec<f32>,
    },
    /// Any other HTTP status (shed, refused, failed).
    Status(u16),
    /// The connection failed or the response did not parse.
    Transport,
    /// Still unsent when its chunk ran out of time (see [`OVERRUN`]).
    Unsent,
}

/// One measured request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Pool index of the image sent.
    pub image: usize,
    /// From the scheduled instant to the last response byte, ms
    /// (NaN when unsent).
    pub latency_ms: f64,
    /// How late the send left after its scheduled instant, ms (NaN
    /// when unsent).
    pub lag_ms: f64,
    /// Result.
    pub outcome: Outcome,
}

/// Client connections: one per available core, at most two.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A chunk stops sending once it has run this many times its
/// scheduled length: past capacity the backlog would otherwise grow
/// the run without bound. Requests left unsent still count as
/// attempted, and as failed.
const OVERRUN: f64 = 2.0;

/// Offers `requests` Poisson arrivals at `rate` per second to
/// `addr`'s `/infer` over [`connections`] keep-alive connections and
/// returns the samples in schedule order.
pub fn run(
    addr: SocketAddr,
    pool: &ImagePool,
    rate: f64,
    requests: usize,
    seed: u64,
) -> Vec<Sample> {
    let mut rng = Rng::new(seed);
    let mut at = 0.0f64;
    let schedule: Vec<(Duration, usize)> = (0..requests)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            (Duration::from_secs_f64(at), rng.below(pool.len()))
        })
        .collect();
    drive(
        addr,
        pool,
        &schedule,
        Some(Duration::from_secs_f64(at * OVERRUN)),
    )
}

/// Sends `requests` back to back over every connection (a closed loop
/// without think time) and returns the samples with the wall seconds
/// they took. Their latencies count from the start, so only the
/// outcomes and the rate mean anything.
pub fn saturate(
    addr: SocketAddr,
    pool: &ImagePool,
    requests: usize,
    seed: u64,
) -> (Vec<Sample>, f64) {
    let mut rng = Rng::new(seed);
    let schedule: Vec<(Duration, usize)> = (0..requests)
        .map(|_| (Duration::ZERO, rng.below(pool.len())))
        .collect();
    let started = Instant::now();
    let samples = drive(addr, pool, &schedule, None);
    (samples, started.elapsed().as_secs_f64())
}

/// Sends each `(offset, image)` of `schedule` when due, marking
/// [`Outcome::Unsent`] whatever is left once `overrun` past the
/// start, and returns one sample per entry in schedule order.
fn drive(
    addr: SocketAddr,
    pool: &ImagePool,
    schedule: &[(Duration, usize)],
    overrun: Option<Duration>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let cutoff = overrun.map(|d| start + d);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections())
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, image)) = schedule.get(i) else {
                            break;
                        };
                        let due = start + offset;
                        let now = Instant::now();
                        if cutoff.is_some_and(|c| now > c) {
                            out.push((
                                i,
                                Sample {
                                    image,
                                    latency_ms: f64::NAN,
                                    lag_ms: f64::NAN,
                                    outcome: Outcome::Unsent,
                                },
                            ));
                            continue;
                        }
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = conn.infer(&pool.bodies[image]);
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                image,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                                outcome,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// A keep-alive connection that reconnects after a failure.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    fn infer(&mut self, body: &str) -> Outcome {
        match self.request("POST", "/infer", body) {
            Some((200, text)) => parse_answer(&text).unwrap_or(Outcome::Transport),
            Some((status, _)) => Outcome::Status(status),
            None => Outcome::Transport,
        }
    }

    /// Sends one request and reads its response; `None` (and a
    /// dropped connection) on any transport failure.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        let result = self.exchange(method, path, body);
        if result.is_none() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)).ok()?;
            s.set_nodelay(true).ok()?;
            s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut()?;
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body.as_bytes());
        stream.write_all(&msg).ok()?;

        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .ok()?
            .to_ascii_lowercase();
        let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .map_or(Some(0), |v| v.trim().parse().ok())?;
        let close = head
            .lines()
            .any(|l| l.starts_with("connection:") && l.contains("close"));
        while self.buf.len() < head_end + len {
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8(self.buf[head_end..head_end + len].to_vec()).ok()?;
        self.buf.drain(..head_end + len);
        if close {
            self.stream = None;
        }
        Some((status, text))
    }
}

fn parse_answer(text: &str) -> Option<Outcome> {
    let Value::Object(entries) = serde_json::parse(text).ok()? else {
        return None;
    };
    let field = |k: &str| entries.iter().find(|(name, _)| name == k).map(|(_, v)| v);
    let Value::Number(class) = field("class")? else {
        return None;
    };
    let Value::Array(items) = field("counts")? else {
        return None;
    };
    let counts = items
        .iter()
        .map(|v| match v {
            Value::Number(c) => Some(*c as f32),
            _ => None,
        })
        .collect::<Option<Vec<f32>>>()?;
    Some(Outcome::Answer {
        class: *class as usize,
        counts,
    })
}

/// One `GET` (fresh connection): the status and body, or `None`.
pub fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    Conn::new(addr).request("GET", path, "")
}
