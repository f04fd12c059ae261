//! `serve_mixed`: the in-process `wb-serve` server under closed-loop
//! keep-alive clients, a mixed phase of fresh (model) and hot (cache)
//! pages, then a hit-only phase on one connection.

use crate::client::{stage_ms, Conn};
use crate::oracle::{self, Expected, Tally};
use crate::setup::{self, SetupTimes};
use crate::stats::{self, median, quantile, Delta, Metrics};
use crate::{inputs, Args, Outcome, WorkDir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wb_core::Briefer;
use wb_serve::{ServeConfig, ServerHandle};

/// Pages in the hot set, warmed into the cache during set-up.
const HOT: usize = 16;
/// Pages of untimed warm-up traffic.
const WARM: usize = 64;
/// Fresh pages generated; more than a run can send.
const FRESH: usize = 8000;
/// Share of mixed-phase requests that repeat a hot page.
const HIT_SHARE: f64 = 0.2;
/// Connections in the mixed phase.
const MIX_CONNS: usize = 2;
/// Longest the warm-up traffic may take; it normally ends when the warm
/// pages run out.
const WARMUP_SECS: f64 = 30.0;

/// One `/brief` exchange of the mixed phase.
struct Sample {
    /// A hot-set page (expected cache hit) rather than a fresh one.
    pub hot: bool,
    /// Index into the hot set or the fresh pages.
    pub page: usize,
    /// Client-side latency.
    pub latency_ms: f64,
    /// The reply, or `None` after a transport error.
    pub reply: Option<crate::client::Response>,
}

/// A running server and the threads it added to the process.
pub struct Server {
    /// The server; dropping it shuts the server down.
    pub handle: ServerHandle,
    /// Threads started with the server.
    pub threads: u64,
}

/// Starts the server with default settings on a free port and warms the
/// cache with `hot`.
pub fn start_warm(briefer: Briefer, hot: &[String]) -> Result<Server, String> {
    let before = stats::threads();
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let handle = wb_serve::start(briefer, cfg).map_err(|e| format!("start server: {e}"))?;
    let threads = stats::threads().saturating_sub(before);
    let mut conn = Conn::new(handle.addr());
    for page in hot {
        let r = conn.brief(page.as_bytes(), false).map_err(|e| format!("warm server: {e}"))?;
        if r.status != 200 {
            return Err(format!("warming the server got status {}", r.status));
        }
    }
    Ok(Server { handle, threads })
}

/// Closed-loop keep-alive traffic on `MIX_CONNS` connections for `secs`:
/// each request repeats a hot page with probability `HIT_SHARE`, else sends the
/// next unsent fresh page. Stops early when the fresh pages run out.
/// Returns the samples and the phase's wall time.
fn mixed(
    addr: SocketAddr,
    hot: &[String],
    fresh: &[String],
    next: &AtomicUsize,
    secs: f64,
    seed: u64,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..MIX_CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    let mut errors = 0;
                    while Instant::now() < deadline && errors < 100 {
                        let (is_hot, page) = if !hot.is_empty() && rng.gen_bool(HIT_SHARE) {
                            (true, rng.gen_range(0..hot.len()))
                        } else {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= fresh.len() {
                                break;
                            }
                            (false, i)
                        };
                        let html = if is_hot { &hot[page] } else { &fresh[page] };
                        let t = Instant::now();
                        let reply = conn.brief(html.as_bytes(), !is_hot).ok();
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        errors = if reply.is_some() { 0 } else { errors + 1 };
                        out.push(Sample { hot: is_hot, page, latency_ms, reply });
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (per_conn.into_iter().flatten().collect(), elapsed)
}

/// Checks mixed-phase samples against the references of the hot set and
/// of the fresh pages; a transport error counts as failed.
fn check(samples: &[Sample], hot: &[Expected], fresh: &[Expected]) -> Tally {
    let mut tally = Tally::default();
    for s in samples {
        let want = if s.hot { &hot[s.page] } else { &fresh[s.page] };
        tally.record(s.reply.as_ref().is_some_and(|r| want.matches_reply(r.status, &r.body)));
    }
    tally
}

/// Fresh pages sent by the samples: the prefix `0..n` of the pool.
fn fresh_sent(samples: &[Sample]) -> usize {
    samples.iter().filter(|s| !s.hot).map(|s| s.page + 1).max().unwrap_or(0)
}

/// [`oracle::reference`] over contiguous slices of `htmls` on one thread
/// per core; each page is still briefed on its own by `brief_html`.
fn reference_par(briefer: &Briefer, htmls: &[String]) -> Vec<Expected> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = htmls.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = htmls
            .chunks(per)
            .map(|part| s.spawn(move || oracle::reference(briefer, part)))
            .collect();
        parts.into_iter().flat_map(|p| p.join().expect("reference thread panicked")).collect()
    })
}

/// Hit-only traffic on one connection, cycling through the hot set.
/// Returns latencies, the tally and how many replies were not cache hits.
fn hits(
    addr: SocketAddr,
    hot: &[String],
    want: &[Expected],
    secs: f64,
) -> (Vec<f64>, Tally, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut conn = Conn::new(addr);
    let (mut lat, mut tally, mut not_hit) = (Vec::new(), Tally::default(), 0);
    let mut i = 0;
    while Instant::now() < deadline {
        let t = Instant::now();
        let reply = conn.brief(hot[i].as_bytes(), false);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(r) => {
                tally.record(want[i].matches_reply(r.status, &r.body));
                not_hit += u64::from(!r.cache_hit);
            }
            Err(_) => tally.record(false),
        }
        i = (i + 1) % hot.len();
    }
    (lat, tally, not_hit)
}

fn latencies(samples: &[Sample], hot: bool) -> Vec<f64> {
    samples.iter().filter(|s| s.hot == hot && s.reply.is_some()).map(|s| s.latency_ms).collect()
}

/// Per-layer serving metrics: an untraced then a traced mixed phase over
/// `fresh`, split in two. Every metric comes from the untraced phase, the
/// stage times from its miss replies' `Server-Timing` headers; the traced
/// phase only gives the traced/untraced per-request time ratio, returned
/// minus one with the tally.
pub fn profile(
    briefer: &Briefer,
    server: &Server,
    hot: (&[String], &[Expected]),
    fresh: &[String],
    secs: f64,
    m: &mut Metrics,
) -> Result<(Tally, f64), String> {
    let addr = server.handle.addr();
    let (plain, traced) = fresh.split_at(fresh.len() / 2);
    let (n0, n1) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let batch = || -> Result<(u64, f64), String> {
        let r = Conn::new(addr).get("/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
        stats::histogram_in(&String::from_utf8_lossy(&r.body), "serve.batch.size")
    };
    let b0 = batch()?;
    let (s0, t0) = mixed(addr, hot.0, plain, &n0, secs, 11);
    let b1 = batch()?;
    wb_obs::trace::start();
    let (s1, t1) = mixed(addr, hot.0, traced, &n1, secs, 12);
    wb_obs::trace::stop();

    let mut tally = check(&s0, hot.1, &reference_par(briefer, &plain[..fresh_sent(&s0)]));
    tally.merge(check(&s1, hot.1, &reference_par(briefer, &traced[..fresh_sent(&s1)])));

    let misses: Vec<(&Sample, &str)> = s0
        .iter()
        .filter(|s| !s.hot)
        .filter_map(|s| Some((s, s.reply.as_ref()?.server_timing.as_deref()?)))
        .collect();
    let stage = |name: &str, scale: f64| {
        misses.iter().map(|(_, h)| stage_ms(h, name) * scale).collect::<Vec<_>>()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // The header has 1 µs resolution: the µs-scale stages report their mean,
    // whose median would be a step.
    m.set("serve.queue_wait_ms", mean(stage("queue_wait", 1.0)), "ms");
    m.set("serve.batch_wait_ms", median(&stage("batch_wait", 1.0)), "ms");
    m.set("serve.model_ms", median(&stage("model", 1.0)), "ms");
    m.set("serve.parse_us", mean(stage("parse", 1e3)), "us");
    m.set("serve.serialize_us", mean(stage("serialize", 1e3)), "us");
    let overhead: Vec<f64> =
        misses.iter().map(|(s, h)| s.latency_ms - stage_ms(h, "model")).collect();
    m.set("serve.overhead_ms", median(&overhead), "ms");
    let (count, sum) = (b1.0.saturating_sub(b0.0), b1.1 - b0.1);
    m.set("serve.batch_size_mean", if count == 0 { 0.0 } else { sum / count as f64 }, "pages");
    m.set("serve.threads", server.threads as f64, "count");
    m.set("serve.mix_hit_p50_ms", median(&latencies(&s0, true)), "ms");
    let miss_lat = latencies(&s0, false);
    m.set("serve.miss_p90_ms", quantile(&miss_lat, 0.9), "ms");
    m.set("serve.miss_p99_ms", quantile(&miss_lat, 0.99), "ms");
    m.set("serve.miss_samples", miss_lat.len() as f64, "count");
    let per_req = |s: &[Sample], t: f64| t / s.len().max(1) as f64;
    Ok((tally, per_req(&s1, t1) / per_req(&s0, t0) - 1.0))
}

/// One set-up: train, round-trip the checkpoint, generate the stream,
/// start the server and warm its cache. Returns the checkpoint bytes.
pub fn prepare(args: &Args, work: &WorkDir, times: &mut SetupTimes) -> Result<Vec<u8>, String> {
    let (bytes, briefer) = setup::train(&work.path(crate::CHECKPOINT), times)?;
    let t = Instant::now();
    let stream = inputs::stream(args.seed, HOT, WARM, FRESH);
    times.gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server = start_warm(briefer, &stream.hot)?;
    times.start_s = t.elapsed().as_secs_f64();
    server.handle.shutdown();
    Ok(bytes)
}

/// The timed phases, in the child process, against a server it starts.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let briefer = crate::reload(work)?;
    let stream = inputs::stream(args.seed, HOT, WARM, FRESH);
    let server = start_warm(crate::reload(work)?, &stream.hot)?;
    let hot_ref = oracle::reference(&briefer, &stream.hot);
    let addr = server.handle.addr();
    let mut out = Outcome::default();
    if args.trace {
        stats::reset_peak_rss()?;
        let secs = 0.4 * args.seconds;
        let (tally, overhead) = profile(
            &briefer,
            &server,
            (&stream.hot, &hot_ref),
            &stream.fresh,
            secs,
            &mut out.metrics,
        )?;
        out.tally.merge(tally);
        out.metrics.set("obs.trace_overhead_frac", overhead, "fraction");
        let sample: Vec<String> = stream.fresh.iter().rev().take(48).cloned().collect();
        crate::layers::profile(&briefer, &sample, &mut out.metrics);
        let site = inputs::site_of(&sample);
        let (tally, _) = crate::crawl::profile_site(&briefer, &site, work, &mut out.metrics)?;
        out.tally.merge(tally);
        out.digest_of(&hot_ref);
        return Ok(out);
    }

    // Warm-up traffic fills the server's buffers and the tensor scratch
    // pool before the RSS peak is reset and the timed phases start.
    let warm_next = AtomicUsize::new(0);
    mixed(addr, &stream.hot, &stream.warm, &warm_next, WARMUP_SECS, 1);
    stats::reset_peak_rss()?;

    let next = AtomicUsize::new(0);
    let before = Delta::begin();
    let (samples, secs) =
        mixed(addr, &stream.hot, &stream.fresh, &next, 0.8 * args.seconds, args.seed);
    let delta = Delta::end(before);
    let (hit_lat, hit_tally, not_hit) = hits(addr, &stream.hot, &hot_ref, 0.2 * args.seconds);
    let peak = stats::peak_rss_mb();
    drop(server);

    let sent = fresh_sent(&samples);
    if sent >= stream.fresh.len() {
        out.checks.push(format!("the mixed phase ran out of fresh pages ({sent})"));
    }
    let misses = delta.counter("serve.cache.miss");
    if misses != sent as u64 {
        out.checks.push(format!("server counted {misses} cache misses for {sent} fresh pages"));
    }
    if not_hit > 0 {
        out.checks.push(format!("{not_hit} hit-phase replies were not cache hits"));
    }
    let fresh_ref = reference_par(&briefer, &stream.fresh[..sent]);
    out.tally.merge(check(&samples, &hot_ref, &fresh_ref));
    out.tally.merge(hit_tally);
    out.digest_of(&[hot_ref, fresh_ref].concat());

    let miss_lat = latencies(&samples, false);
    eprintln!(
        "serve_mixed: {} requests ({} misses, {} hits) in {secs:.2}s; {} hit-phase requests",
        samples.len(),
        miss_lat.len(),
        samples.len() - miss_lat.len(),
        hit_lat.len()
    );
    let m = &mut out.metrics;
    m.set("pages_per_s", samples.len() as f64 / secs, "1/s");
    m.set("peak_rss_mb", peak, "MB");
    m.set("miss_p50_ms", median(&miss_lat), "ms");
    m.set("hit_p50_ms", median(&hit_lat), "ms");
    Ok(out)
}
