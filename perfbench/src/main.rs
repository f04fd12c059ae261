//! End-to-end and per-layer benchmark of the Webpage Briefing workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload brief_offline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run trains the fixed tiny recipe, generates its inputs from the
//! seed, checks every output against a reference briefed page by page,
//! and prints one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Set-up runs in this process; the
//! timed phases run in a child process that loads the saved checkpoint,
//! as `wb serve` or `wb brief` would, so training's heap is not what
//! the memory and timing figures see. See `README.md`.

mod client;
mod crawl;
mod inputs;
mod layers;
mod offline;
mod oracle;
mod serve;
mod setup;
mod stats;

use oracle::{Expected, Tally};
use setup::SetupTimes;
use stats::Metrics;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use wb_core::Briefer;

/// The shipped `wb` binary's allocator, so allocation costs match it.
#[global_allocator]
static ALLOC: wb_obs::alloc::Counting = wb_obs::alloc::Counting;

/// The checkpoint set-up saves in the work directory.
pub const CHECKPOINT: &str = "model.json";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Timed phases during which the hypervisor took more than this share of
/// the machine's CPU time are repeated: such bursts slowed every figure of
/// a run by a third, while outside them steal stayed under 3%.
const MAX_STEAL: f64 = 0.05;

/// Most attempts at the timed phases in one run; the run reports the one
/// with the least steal.
const ATTEMPTS: usize = 3;

/// The benchmark's definition at the repository root: its `end_to_end`
/// list names the metrics an untraced run prints, `per_layer` those a
/// traced run prints, each with its unit.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

#[derive(serde::Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(serde::Deserialize)]
struct Benchmark {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

const USAGE: &str = "usage: wb-perfbench --workload brief_offline|crawl_heavy|serve_mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BriefOffline,
    CrawlHeavy,
    ServeMixed,
}

/// Command-line arguments.
pub struct Args {
    workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phases take together.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Set in the child process: the work directory set-up filled.
    child: Option<PathBuf>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::BriefOffline,
            seed: 1,
            seconds: 10.0,
            trace: false,
            child: None,
        };
        let mut workload = None;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "brief_offline" => Workload::BriefOffline,
                        "crawl_heavy" => Workload::CrawlHeavy,
                        "serve_mixed" => Workload::ServeMixed,
                        _ => return Err(bad()),
                    })
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--child" => args.child = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// The run's scratch directory. The parent creates it and removes it when
/// dropped; the child only opens it.
pub struct WorkDir {
    dir: PathBuf,
    owned: bool,
}

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench_work")
            .join(format!("{workload:?}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir { dir, owned: true })
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.dir);
            if let Some(parent) = self.dir.parent() {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }
}

/// What a workload's timed phases hand back.
#[derive(Default)]
pub struct Outcome {
    /// Outcomes checked against the reference.
    pub tally: Tally,
    /// Workload invariants that did not hold.
    pub checks: Vec<String>,
    /// Metrics measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Prints the digest of the reference briefs to stderr.
    pub fn digest_of(&self, expected: &[Expected]) {
        eprintln!(
            "reference digest: {} over {} inputs",
            oracle::digest(expected),
            expected.len()
        );
    }
}

/// How the child hands its [`Outcome`] to the parent.
#[derive(serde::Serialize, serde::Deserialize)]
struct ChildReport {
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
    metrics: Vec<MetricRow>,
    /// Share of the machine's CPU time the hypervisor took meanwhile.
    steal_frac: f64,
}

impl ChildReport {
    /// Every output matched the reference and every check held.
    fn clean(&self) -> bool {
        self.failed == 0 && self.checks.is_empty()
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
struct MetricRow {
    name: String,
    value: f64,
    unit: String,
}

/// Runs set-up `SETUP_REPS` times (once when tracing). Each trains the
/// recipe, whose checkpoints must be identical every time.
fn set_up(args: &Args, work: &WorkDir) -> Result<Vec<SetupTimes>, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut times, mut first_bytes) = (Vec::new(), None);
    for _ in 0..reps {
        let mut t = SetupTimes::default();
        let bytes = match args.workload {
            Workload::BriefOffline => offline::prepare(args, work, &mut t)?,
            Workload::CrawlHeavy => crawl::prepare(args, work, &mut t)?,
            Workload::ServeMixed => serve::prepare(args, work, &mut t)?,
        };
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(b) if *b != bytes => {
                return Err("training is not reproducible: checkpoints differ".into())
            }
            Some(_) => {}
        }
        times.push(t);
    }
    eprintln!(
        "set-up: {:?} s",
        times.iter().map(|t| (t.total() * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    Ok(times)
}

/// A briefer restored from the checkpoint set-up saved.
pub fn reload(work: &WorkDir) -> Result<Briefer, String> {
    setup::load(&work.path(CHECKPOINT))
}

/// `brief_html` latencies in ms with one closed-loop caller per core, as
/// many as the passes keep busy, cycling through `pages` for `secs` (at
/// least 20 pages per caller). Every brief is checked.
pub fn latency_probe(
    briefer: &Briefer,
    pages: &[(&String, &Expected)],
    secs: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let callers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    let per_caller: Vec<(Vec<f64>, Tally)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || {
                    let (mut lat, mut tally) = (Vec::new(), Tally::default());
                    while lat.len() < 20 || start.elapsed().as_secs_f64() < secs {
                        let (html, want) = pages[(c + lat.len() * callers) % pages.len()];
                        let t = Instant::now();
                        let got = briefer.brief_html(html);
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        tally.record(want.matches(&got));
                    }
                    (lat, tally)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("probe thread panicked")).collect()
    });
    let mut lat = Vec::new();
    for (l, t) in per_caller {
        lat.extend(l);
        tally.merge(t);
    }
    lat
}

/// The result line: the metrics `specs` lists, in its order. A metric
/// that was not measured, or was measured in another unit, fails the run.
fn render(out: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for MetricSpec { name, unit } in specs {
        let (_, value, measured) = out
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if measured != unit {
            return Err(format!("metric {name} is measured in {measured}, listed in {unit}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        eprintln!("  {name:32} {value:>14.6} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0 && out.checks.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    ))
}

/// Runs the timed phases once, in a child process, and reads its report.
fn run_child(args: &Args, raw: &[String], work: &WorkDir) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut child = Command::new(exe);
    if args.workload == Workload::ServeMixed {
        // glibc hands threads up to 8 malloc arenas per core, picking them
        // by lock contention at the time; with that default the same
        // serving run peaked at 48 MB or at 72 MB. One arena per core keeps
        // the peak steady. The offline paths peak steadily without it, and
        // with it their rayon threads contend for arenas and slow down.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        child.env("MALLOC_ARENA_MAX", cores.to_string());
    }
    let child = child
        .args(raw)
        .arg("--child")
        .arg(&work.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start the timed phases: {e}"))?;
    if !child.status.success() {
        return Err(format!("the timed phases failed ({})", child.status));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    serde_json::from_str(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("unreadable child report: {e}"))
}

/// Set-up here, timed phases in a child process, then the result line.
fn parent(args: &Args, raw: &[String]) -> Result<String, String> {
    let work = WorkDir::create(args.workload)?;
    let times = set_up(args, &work)?;
    let mut report = run_child(args, raw, &work)?;
    for _ in 1..ATTEMPTS {
        if !report.clean() || report.steal_frac <= MAX_STEAL {
            break;
        }
        eprintln!("CPU steal above {:.0}%: repeating the timed phases", MAX_STEAL * 100.0);
        let again = run_child(args, raw, &work)?;
        if !again.clean() || again.steal_frac < report.steal_frac {
            report = again;
        }
    }
    let mut out = Outcome {
        tally: Tally { attempted: report.attempted, failed: report.failed },
        checks: report.checks,
        metrics: Metrics::default(),
    };
    for row in &report.metrics {
        out.metrics.set(&row.name, row.value, &row.unit);
    }
    let totals: Vec<f64> = times.iter().map(SetupTimes::total).collect();
    let last = times.last().copied().unwrap_or_default();
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&totals), "s");
    m.set("setup.train_s", last.train_s, "s");
    m.set("setup.load_s", last.load_s, "s");
    m.set("setup.gen_s", last.gen_s, "s");
    m.set("setup.start_s", last.start_s, "s");
    m.set("setup.peak_rss_mb", stats::peak_rss_mb(), "MB");
    m.set("ok_frac", out.tally.ok_frac(), "fraction");
    for c in &out.checks {
        eprintln!("check failed: {c}");
    }
    eprintln!("outcomes: {} attempted, {} failed", out.tally.attempted, out.tally.failed);
    let bench: Benchmark =
        serde_json::from_str(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    render(&out, if args.trace { &bench.per_layer } else { &bench.end_to_end })
}

/// The timed phases, over the checkpoint and inputs set-up left in `dir`.
fn child(args: &Args, dir: PathBuf) -> Result<String, String> {
    let work = WorkDir { dir, owned: false };
    let (steal0, t) = (stats::steal_ticks(), Instant::now());
    let out = match args.workload {
        Workload::BriefOffline => offline::run(args, &work)?,
        Workload::CrawlHeavy => crawl::run(args, &work)?,
        Workload::ServeMixed => serve::run(args, &work)?,
    };
    // Time the hypervisor took from this machine's CPUs slows every figure
    // of the run; shown so a noisy run can be told from a slow program.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen = stats::steal_ticks().saturating_sub(steal0) as f64 / 100.0;
    let steal_frac = stolen / (t.elapsed().as_secs_f64() * cpus);
    eprintln!("CPU steal: {:.1}% of CPU time", 100.0 * steal_frac);
    let report = ChildReport {
        attempted: out.tally.attempted,
        failed: out.tally.failed,
        checks: out.checks,
        metrics: out
            .metrics
            .iter()
            .map(|(name, value, unit)| MetricRow {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            })
            .collect(),
        steal_frac,
    };
    serde_json::to_string(&report).map_err(|e| format!("child report: {e}"))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.child.clone() {
        Some(dir) => child(&args, dir),
        None => parent(&args, &raw),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_definition_lists_both_metric_sets() {
        let bench: Benchmark = serde_json::from_str(BENCHMARK).unwrap();
        assert!(bench.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!bench.per_layer.is_empty());
    }
}
