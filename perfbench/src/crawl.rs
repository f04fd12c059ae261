//! `crawl_heavy`: `wb_core::crawl_brief` over an on-disk hostile site whose
//! content pages carry real-web weight, and the pipeline's per-layer
//! metrics on any site.

use crate::oracle::{self, Expected, Tally};
use crate::setup::{self, SetupTimes};
use crate::stats::{self, median, Delta, Metrics};
use crate::{inputs, Args, Outcome, WorkDir};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wb_core::{crawl_brief, Brief, Briefer, PipelineConfig};
use wb_corpus::{export_site, SiteFile, SiteSpec};
use wb_html::{classify_page, link_urls, parse_document, PageKind};

/// Child pages of the generated site (the index is extra).
const SITE_PAGES: usize = 64;

/// The line the sink writes for a briefed page, field for field.
#[derive(serde::Serialize)]
struct OutRecord {
    seq: usize,
    url: String,
    brief: Brief,
}

/// The reference's view of one page the crawler should sequence.
pub struct RefPage {
    /// The sequence number the crawl must give the page.
    seq: usize,
    /// The reference outcome.
    expected: Expected,
    /// The brief, when the reference briefs the page.
    brief: Option<Brief>,
    /// Sequential `brief_html` seconds.
    secs: f64,
}

/// Reference outcomes of a site's pages, by URL.
pub struct SiteRef {
    /// Pages the crawler should sequence (brief or quarantine).
    pub sequenced: HashMap<String, RefPage>,
}

/// The pages a crawl of `site` sequences, in the order it must number
/// them: breadth first from `/`, following each page's links in document
/// order (a URL once), skipping missing files and the index and media
/// pages it only takes links from. A page that does not parse is
/// sequenced, for quarantine.
fn crawl_order(site: &SiteSpec) -> Vec<&SiteFile> {
    let by_url: HashMap<&str, &SiteFile> =
        site.files.iter().map(|f| (f.url.as_str(), f)).collect();
    let mut queue = VecDeque::from(["/".to_string()]);
    let mut seen: HashSet<String> = queue.iter().cloned().collect();
    let mut order = Vec::new();
    while let Some(url) = queue.pop_front() {
        let Some(&file) = by_url.get(url.as_str()) else { continue };
        if let Ok(dom) = parse_document(&file.html) {
            for href in link_urls(&dom) {
                if !href.contains("..") && seen.insert(href.clone()) {
                    queue.push_back(href);
                }
            }
            if classify_page(&dom) != PageKind::ContentRich {
                continue;
            }
        }
        order.push(file);
    }
    order
}

impl SiteRef {
    /// Briefs every page a crawl of `site` sequences with `brief_html`.
    pub fn build(briefer: &Briefer, site: &SiteSpec) -> SiteRef {
        let mut sequenced = HashMap::new();
        for (seq, f) in crawl_order(site).into_iter().enumerate() {
            let t = Instant::now();
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                briefer.brief_html(&f.html)
            }));
            let secs = t.elapsed().as_secs_f64();
            let (expected, brief) = match got {
                Ok(Ok(brief)) => (Expected::of(&Ok(brief.clone())), Some(brief)),
                _ => (Expected::Reject, None),
            };
            sequenced.insert(f.url.clone(), RefPage { seq, expected, brief, secs });
        }
        SiteRef { sequenced }
    }

    /// Sequential reference cost of the sequenced pages.
    pub fn seq_secs(&self) -> f64 {
        self.sequenced.values().map(|p| p.secs).sum()
    }

    /// Reference outcomes in crawl order, for the digest.
    pub fn expected(&self) -> Vec<Expected> {
        let mut pages: Vec<&RefPage> = self.sequenced.values().collect();
        pages.sort_by_key(|p| p.seq);
        pages.into_iter().map(|p| p.expected.clone()).collect()
    }
}

/// Output paths of one crawl.
struct Files {
    site: PathBuf,
    out: PathBuf,
    dead: PathBuf,
}

impl Files {
    fn config(&self, dir: &Path) -> PipelineConfig {
        PipelineConfig {
            site_dir: self.site.clone(),
            out_path: self.out.clone(),
            dead_letter_path: self.dead.clone(),
            journal_path: dir.join("briefs.journal"),
            snapshot_path: dir.join("briefs.snapshot"),
            ..PipelineConfig::default()
        }
    }
}

/// Checks a finished crawl's output files against the reference.
fn check_outputs(files: &Files, want: &SiteRef) -> Result<Tally, String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    Ok(check_lines(&read(&files.out)?, &read(&files.dead)?, want))
}

/// Checks the sink's briefs (`out`) and dead letters (`dead`): every
/// sequenced page must appear exactly once, under the sequence number of
/// the reference crawl order and after the lines before it in its file;
/// briefed pages byte for byte as the sink writes them, quarantined pages
/// only where the reference rejects. A missing page counts as failed.
fn check_lines(out: &str, dead: &str, want: &SiteRef) -> Tally {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut tally = Tally::default();
    let field = |v: &serde_json::Value, k: &str| v.get(k).cloned();
    for (text, briefed) in [(out, true), (dead, false)] {
        let mut prev: Option<usize> = None;
        for line in text.lines() {
            let parsed: Option<(usize, String)> =
                serde_json::from_str::<serde_json::Value>(line).ok().and_then(|v| {
                    Some((
                        field(&v, "seq")?.as_f64().filter(|s| s.fract() == 0.0)? as usize,
                        field(&v, "url")?.as_str()?.to_string(),
                    ))
                });
            let Some((seq, url)) = parsed else {
                tally.record(false);
                continue;
            };
            let in_order = prev.is_none_or(|p| p < seq);
            prev = Some(seq);
            let ok = match want.sequenced.get_key_value(url.as_str()) {
                Some((key, page)) => {
                    seen.insert(key.as_str())
                        && in_order
                        && seq == page.seq
                        && match (briefed, &page.brief) {
                            (true, Some(b)) => {
                                serde_json::to_string(&OutRecord { seq, url, brief: b.clone() })
                                    .is_ok_and(|s| s == line)
                            }
                            (false, _) => matches!(page.expected, Expected::Reject),
                            (true, None) => false,
                        }
                }
                None => false,
            };
            tally.record(ok);
        }
    }
    tally.missing((want.sequenced.len() - seen.len()) as u64);
    tally
}

/// One crawl from scratch. Returns its wall time and tally.
fn crawl_once(
    briefer: &Briefer,
    files: &Files,
    dir: &Path,
    want: &SiteRef,
) -> Result<(f64, Tally), String> {
    let cfg = files.config(dir);
    let t = Instant::now();
    let report = crawl_brief(briefer, &cfg).map_err(|e| format!("crawl_brief: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let tally = check_outputs(files, want)?;
    if report.briefed + report.quarantined != want.sequenced.len() {
        eprintln!(
            "crawl: pipeline sequenced {} pages, reference expects {}",
            report.briefed + report.quarantined,
            want.sequenced.len()
        );
    }
    Ok((wall, tally))
}

/// Writes `site` to disk and records the `pipeline.*` metrics over it.
/// Returns the tally and the traced/untraced wall-time ratio minus one.
pub fn profile_site(
    briefer: &Briefer,
    site: &SiteSpec,
    work: &WorkDir,
    m: &mut Metrics,
) -> Result<(Tally, f64), String> {
    let dir = work.path("profile_site");
    let files = Files {
        site: dir.join("site"),
        out: dir.join("briefs.jsonl"),
        dead: dir.join("dead.jsonl"),
    };
    export_site(&files.site, site).map_err(|e| format!("write site: {e}"))?;
    let want = SiteRef::build(briefer, site);
    profile_pipeline(briefer, &files, &dir, &want, m)
}

/// Per-layer pipeline metrics: two untraced and two traced crawls,
/// alternating, each checked against the reference. Returns the tally and
/// the traced/untraced wall-time ratio minus one.
fn profile_pipeline(
    briefer: &Briefer,
    files: &Files,
    dir: &Path,
    want: &SiteRef,
    m: &mut Metrics,
) -> Result<(Tally, f64), String> {
    const PEAKS: [&str; 4] = [
        "pipeline.queue.page.depth_peak",
        "pipeline.queue.chunk.depth_peak",
        "pipeline.queue.brief.depth_peak",
        "pipeline.inflight.bytes_peak",
    ];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut fetch, mut chunk, mut sink, mut saves, mut depth, mut inflight) =
        (0.0, 0.0, 0.0, 0, 0.0f64, 0.0f64);
    let mut tally = Tally::default();
    for _ in 0..2 {
        let (wall, t) = crawl_once(briefer, files, dir, want)?;
        plain.push(wall);
        tally.merge(t);
        stats::reset_gauges(&PEAKS);
        let before = Delta::begin();
        wb_obs::trace::start();
        let (wall, t) = crawl_once(briefer, files, dir, want)?;
        wb_obs::trace::stop();
        let d = Delta::end(before);
        traced.push(wall);
        tally.merge(t);
        fetch += d.span("pipeline.fetch").1;
        chunk += d.span("pipeline.chunk").1;
        sink += d.span("pipeline.sink.write").1;
        saves += d.counter("pipeline.snapshot.saves");
        depth = PEAKS[..3].iter().map(|g| d.gauge(g)).fold(depth, f64::max);
        inflight = inflight.max(d.gauge(PEAKS[3]));
    }
    let pages = (2 * want.sequenced.len()).max(1) as f64;
    m.set("pipeline.wall_over_seq", median(&plain) / want.seq_secs(), "ratio");
    m.set("pipeline.fetch_ms", fetch * 1e3 / pages, "ms");
    m.set("pipeline.chunk_ms", chunk * 1e3 / pages, "ms");
    m.set("pipeline.sink_write_ms", sink * 1e3 / pages, "ms");
    m.set("pipeline.queue_depth_peak", depth, "count");
    m.set("pipeline.inflight_kb_peak", inflight / 1024.0, "KiB");
    m.set("pipeline.snapshot_saves", saves as f64 / 2.0, "count");
    Ok((tally, median(&traced) / median(&plain) - 1.0))
}

/// Where the site and the crawl's outputs live.
fn files(work: &WorkDir) -> (PathBuf, Files) {
    let dir = work.path("crawl");
    let files = Files {
        site: dir.join("site"),
        out: dir.join("briefs.jsonl"),
        dead: dir.join("dead.jsonl"),
    };
    (dir, files)
}

/// One set-up: train, round-trip the checkpoint, generate the site, write
/// it to disk and warm the briefer on its first page. Returns the
/// checkpoint bytes.
pub fn prepare(args: &Args, work: &WorkDir, times: &mut SetupTimes) -> Result<Vec<u8>, String> {
    let (bytes, briefer) = setup::train(&work.path(crate::CHECKPOINT), times)?;
    let t = Instant::now();
    let site = inputs::heavy_site(args.seed, SITE_PAGES);
    let (_, files) = files(work);
    let _ = std::fs::remove_dir_all(&files.site);
    export_site(&files.site, &site).map_err(|e| format!("write site: {e}"))?;
    times.gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(briefer.brief_html(&site.files[1].html).is_ok());
    times.start_s = t.elapsed().as_secs_f64();
    Ok(bytes)
}

/// The timed phases, in the child process, over the site set-up wrote.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let briefer = crate::reload(work)?;
    let site = inputs::heavy_site(args.seed, SITE_PAGES);
    let (dir, files) = files(work);
    let mut out = Outcome::default();
    let want = SiteRef::build(&briefer, &site);
    let bytes: usize = site.files.iter().map(|f| f.html.len()).sum();
    eprintln!(
        "crawl_heavy: {} files, {:.1} MB, {} sequenced pages, reference {:.2}s",
        site.files.len(),
        bytes as f64 / 1e6,
        want.sequenced.len(),
        want.seq_secs()
    );
    out.digest_of(&want.expected());
    let content: Vec<(&String, &Expected)> = site
        .files
        .iter()
        .filter_map(|f| match want.sequenced.get(&f.url) {
            Some(RefPage { expected: e @ Expected::Brief { .. }, .. }) => Some((&f.html, e)),
            _ => None,
        })
        .collect();
    stats::reset_peak_rss()?;

    if args.trace {
        let (tally, overhead) =
            profile_pipeline(&briefer, &files, &dir, &want, &mut out.metrics)?;
        out.tally.merge(tally);
        out.metrics.set("obs.trace_overhead_frac", overhead, "fraction");
        let pages: Vec<String> = content.iter().map(|(h, _)| (*h).clone()).collect();
        crate::layers::profile(&briefer, &pages, &mut out.metrics);
        let (hot, fresh) = pages.split_at(4);
        let hot_ref = oracle::reference(&briefer, hot);
        let server = crate::serve::start_warm(crate::reload(work)?, hot)?;
        let (tally, _) = crate::serve::profile(
            &briefer,
            &server,
            (hot, &hot_ref),
            fresh,
            0.2 * args.seconds,
            &mut out.metrics,
        )?;
        out.tally.merge(tally);
        return Ok(out);
    }

    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < 0.75 * args.seconds {
        let (wall, tally) = crawl_once(&briefer, &files, &dir, &want)?;
        rates.push((tally.attempted - tally.failed) as f64 / wall);
        out.tally.merge(tally);
    }
    let lat = crate::latency_probe(&briefer, &content, 0.25 * args.seconds, &mut out.tally);
    let peak = stats::peak_rss_mb();
    eprintln!("crawl_heavy: {} crawls, {} probe briefs", rates.len(), lat.len());
    let m = &mut out.metrics;
    m.set("pages_per_s", median(&rates), "1/s");
    m.set("peak_rss_mb", peak, "MB");
    // These paths have no cache, so there is no hit to time: `hit_p50_ms`
    // repeats the probe's median, as every workload reports every metric.
    m.set("miss_p50_ms", median(&lat), "ms");
    m.set("hit_p50_ms", median(&lat), "ms");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::BriefAttribute;

    fn site_ref() -> SiteRef {
        let brief = Brief {
            topic: "used cars".to_string(),
            category: None,
            attributes: vec![BriefAttribute { name: "price".into(), value: "9".into() }],
            informative_sentences: vec![1],
        };
        let page = |seq, brief: Option<Brief>| RefPage {
            seq,
            expected: brief.clone().map_or(Expected::Reject, |b| Expected::of(&Ok(b))),
            brief,
            secs: 0.0,
        };
        let mut sequenced = HashMap::new();
        sequenced.insert("/page/0".to_string(), page(0, Some(brief.clone())));
        sequenced.insert("/page/1".to_string(), page(1, None));
        sequenced.insert("/page/2".to_string(), page(2, Some(brief)));
        SiteRef { sequenced }
    }

    fn line(seq: usize, url: &str) -> String {
        let brief = site_ref().sequenced["/page/0"].brief.clone().unwrap();
        serde_json::to_string(&OutRecord { seq, url: url.into(), brief }).unwrap()
    }

    fn good_out() -> String {
        format!("{}\n{}", line(0, "/page/0"), line(2, "/page/2"))
    }

    const DEAD: &str = r#"{"seq":1,"url":"/page/1","reason":"parse failed"}"#;

    #[test]
    fn matching_output_is_all_correct() {
        let tally = check_lines(&good_out(), DEAD, &site_ref());
        assert_eq!((tally.attempted, tally.failed), (3, 0));
    }

    #[test]
    fn a_corrupted_brief_line_drives_ok_frac_below_one() {
        let corrupted = good_out().replacen("used cars", "used bikes", 1);
        let tally = check_lines(&corrupted, DEAD, &site_ref());
        assert!(tally.ok_frac() < 1.0);
    }

    #[test]
    fn a_renumbered_or_reordered_line_drives_ok_frac_below_one() {
        let renumbered = format!("{}\n{}", line(0, "/page/0"), line(3, "/page/2"));
        assert!(check_lines(&renumbered, DEAD, &site_ref()).ok_frac() < 1.0);
        let swapped = format!("{}\n{}", line(2, "/page/0"), line(0, "/page/2"));
        assert!(check_lines(&swapped, DEAD, &site_ref()).ok_frac() < 1.0);
        let reordered = format!("{}\n{}", line(2, "/page/2"), line(0, "/page/0"));
        assert!(check_lines(&reordered, DEAD, &site_ref()).ok_frac() < 1.0);
        let dead = DEAD.replace("\"seq\":1", "\"seq\":4");
        assert!(check_lines(&good_out(), &dead, &site_ref()).ok_frac() < 1.0);
    }

    #[test]
    fn missing_duplicate_and_wrongly_quarantined_pages_fail() {
        assert!(check_lines(&line(0, "/page/0"), DEAD, &site_ref()).ok_frac() < 1.0);
        let twice = format!("{}\n{}", good_out(), line(2, "/page/2"));
        assert!(check_lines(&twice, DEAD, &site_ref()).ok_frac() < 1.0);
        let dead0 = r#"{"seq":0,"url":"/page/0","reason":"panic"}"#;
        let out = line(2, "/page/2");
        assert!(check_lines(&out, &format!("{dead0}\n{DEAD}"), &site_ref()).ok_frac() < 1.0);
    }

    #[test]
    fn crawl_order_is_breadth_first_from_the_index() {
        let site = inputs::site_of(&inputs::corpus_pages(1, 1, 8));
        let urls: Vec<&str> = crawl_order(&site).iter().map(|f| f.url.as_str()).collect();
        let want: Vec<String> = (0..8).map(|i| format!("/page/{i}")).collect();
        assert_eq!(urls, want);
    }
}
