//! Order statistics, process memory and thread readings, and deltas of the
//! `wb-obs` registry.

use std::collections::BTreeMap;
use wb_obs::metrics::Snapshot;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_ascii_whitespace().next()?.parse().ok()
}

/// Resets the process's peak resident set size to its current size, so a
/// later [`peak_rss_mb`] covers only what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the RSS peak via /proc/self/clear_refs: {e}"))?;
    eprintln!("RSS peak reset at {:.1} MB", peak_rss_mb());
    Ok(())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Ticks (1/100 s) the hypervisor has taken from this machine's CPUs
/// (`steal` in `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Threads in this process.
pub fn threads() -> u64 {
    status_kb("Threads:").unwrap_or(0)
}

/// Differences between two registry snapshots.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    /// Starts a measurement window.
    pub fn begin() -> Snapshot {
        wb_obs::metrics::snapshot()
    }

    /// Closes the window opened by [`Delta::begin`].
    pub fn end(before: Snapshot) -> Delta {
        Delta { before, after: wb_obs::metrics::snapshot() }
    }

    /// Growth of a counter over the window.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// A gauge's value at the end of the window.
    pub fn gauge(&self, name: &str) -> f64 {
        self.after.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// `(count, self seconds)` recorded over the window by every span whose
    /// innermost name is `leaf`, whatever it nests under.
    pub fn span(&self, leaf: &str) -> (u64, f64) {
        let sum = |s: &Snapshot| {
            let (mut n, mut ns) = (0u64, 0u64);
            for (path, sp) in &s.spans {
                if path.rsplit('/').next() == Some(leaf) {
                    n += sp.count;
                    ns += sp.self_ns;
                }
            }
            (n, ns)
        };
        let (n0, ns0) = sum(&self.before);
        let (n1, ns1) = sum(&self.after);
        (n1.saturating_sub(n0), ns1.saturating_sub(ns0) as f64 / 1e9)
    }
}

/// Zeroes the named high-watermark gauges so a window reports its own peak.
pub fn reset_gauges(names: &[&str]) {
    for name in names {
        wb_obs::metrics::registry().gauge(name).set(0.0);
    }
}

/// `(count, sum)` of a histogram in a `/metrics` JSON body.
pub fn histogram_in(body: &str, name: &str) -> Result<(u64, f64), String> {
    let snap = Snapshot::from_json(body).map_err(|e| format!("bad /metrics body: {e}"))?;
    Ok(snap.histograms.get(name).map_or((0, 0.0), |h| (h.count, h.sum)))
}

/// Named metrics with units, kept sorted by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, String)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.values.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Every recorded metric, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> + '_ {
        self.values.iter().map(|(k, (v, u))| (k.as_str(), *v, u.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
