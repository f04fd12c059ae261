//! `brief_offline`: `Briefer::brief_corpus` over seeded corpus pages of the
//! generator's default shape, at the rayon pool's default thread count.

use crate::oracle::{self, Expected, Tally};
use crate::setup::{self, SetupTimes};
use crate::stats::{self, median};
use crate::{inputs, Args, Outcome, WorkDir};
use std::time::Instant;
use wb_core::Briefer;

/// Pages in the corpus one pass briefs.
const PAGES: usize = 128;
/// Pages the per-layer profile of a traced run takes apart.
const PROFILED: usize = 48;
/// Hot-set pages for the serving profile of a traced run.
const HOT: usize = 8;

/// One `brief_corpus` pass: its wall time and tally.
fn pass(briefer: &Briefer, pages: &[String], want: &[Expected]) -> (f64, Tally) {
    let t = Instant::now();
    let out = briefer.brief_corpus(pages);
    let wall = t.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for (got, want) in out.iter().zip(want) {
        tally.record(want.matches(got));
    }
    tally.missing(pages.len().saturating_sub(out.len()) as u64);
    (wall, tally)
}

/// One set-up: train, round-trip the checkpoint, generate the corpus and
/// warm `brief_corpus` on its first page. Returns the checkpoint bytes.
pub fn prepare(args: &Args, work: &WorkDir, times: &mut SetupTimes) -> Result<Vec<u8>, String> {
    let (bytes, briefer) = setup::train(&work.path(crate::CHECKPOINT), times)?;
    let t = Instant::now();
    let pages = inputs::corpus_pages(args.seed, 1, PAGES);
    times.gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(briefer.brief_corpus(&pages[..1]));
    times.start_s = t.elapsed().as_secs_f64();
    Ok(bytes)
}

/// The timed phases, in the child process.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let briefer = crate::reload(work)?;
    let pages = inputs::corpus_pages(args.seed, 1, PAGES);
    let mut out = Outcome::default();
    let want = oracle::reference(&briefer, &pages);
    out.digest_of(&want);
    stats::reset_peak_rss()?;

    if args.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (wall, tally) = pass(&briefer, &pages, &want);
            plain.push(wall);
            out.tally.merge(tally);
            wb_obs::trace::start();
            let (wall, tally) = pass(&briefer, &pages, &want);
            wb_obs::trace::stop();
            traced.push(wall);
            out.tally.merge(tally);
        }
        out.metrics.set(
            "obs.trace_overhead_frac",
            median(&traced) / median(&plain) - 1.0,
            "fraction",
        );
        crate::layers::profile(&briefer, &pages[..PROFILED], &mut out.metrics);
        let (tally, _) = crate::crawl::profile_site(
            &briefer,
            &inputs::site_of(&pages),
            work,
            &mut out.metrics,
        )?;
        out.tally.merge(tally);
        let server = crate::serve::start_warm(crate::reload(work)?, &pages[..HOT])?;
        let (tally, _) = crate::serve::profile(
            &briefer,
            &server,
            (&pages[..HOT], &want[..HOT]),
            &pages[HOT..],
            0.2 * args.seconds,
            &mut out.metrics,
        )?;
        out.tally.merge(tally);
        return Ok(out);
    }

    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < 0.75 * args.seconds {
        let (wall, tally) = pass(&briefer, &pages, &want);
        rates.push(pages.len() as f64 / wall);
        out.tally.merge(tally);
    }
    let probe: Vec<(&String, &Expected)> = pages.iter().zip(&want).collect();
    let lat = crate::latency_probe(&briefer, &probe, 0.25 * args.seconds, &mut out.tally);
    let peak = stats::peak_rss_mb();
    eprintln!(
        "brief_offline: {} passes of {} pages, {} probe briefs",
        rates.len(),
        pages.len(),
        lat.len()
    );
    let m = &mut out.metrics;
    m.set("pages_per_s", median(&rates), "1/s");
    m.set("peak_rss_mb", peak, "MB");
    // These paths have no cache, so there is no hit to time: `hit_p50_ms`
    // repeats the probe's median, as every workload reports every metric.
    m.set("miss_p50_ms", median(&lat), "ms");
    m.set("hit_p50_ms", median(&lat), "ms");
    Ok(out)
}
