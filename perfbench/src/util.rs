//! Small shared helpers: a seeded RNG, sample sets with percentiles,
//! the process's peak resident set, and scratch directories.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so inputs depend only
/// on the seed and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Named latency samples, in nanoseconds, each tagged with the kind of
/// operation it timed (its group) and the time window it fell in.
///
/// A quantile is taken per group and window; the windows of a group
/// are combined by their median, and the groups by their mean. Groups
/// keep a run's mix of kinds from moving a quantile: a plain median of
/// a 50/50 mixture of a 5 ms and a 40 ms operation jumps between the
/// two whenever the counts differ by one. Windows keep one stalled
/// stretch of a run from owning its tail.
#[derive(Debug, Default)]
pub struct Samples {
    map: BTreeMap<&'static str, Vec<(u32, u32, f64)>>,
}

impl Samples {
    pub fn push_at(&mut self, name: &'static str, group: u32, window: u32, d: Duration) {
        self.map
            .entry(name)
            .or_default()
            .push((group, window, d.as_nanos() as f64));
    }

    pub fn push_since(&mut self, name: &'static str, t: Instant) {
        self.push_at(name, 0, 0, t.elapsed());
    }

    pub fn count(&self, name: &str) -> usize {
        self.map.get(name).map_or(0, Vec::len)
    }

    /// Quantile `q` of `name`, in nanoseconds (0 when there are none).
    pub fn q(&self, name: &str, q: f64) -> f64 {
        let Some(v) = self.map.get(name) else {
            return 0.0;
        };
        let mut cells: BTreeMap<u32, BTreeMap<u32, Vec<f64>>> = BTreeMap::new();
        for &(g, w, x) in v {
            cells.entry(g).or_default().entry(w).or_default().push(x);
        }
        let n = cells.len() as f64;
        cells
            .into_values()
            .map(|windows| {
                let mut per: Vec<f64> = windows
                    .into_values()
                    .map(|mut xs| {
                        xs.sort_by(f64::total_cmp);
                        quantile(&xs, q)
                    })
                    .collect();
                per.sort_by(f64::total_cmp);
                quantile(&per, 0.5)
            })
            .sum::<f64>()
            / n
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `perfbench/out/` of the checkout, removed
/// on drop. Stores are kept inside the checkout on purpose: the
/// benchmark reads and writes nothing outside it.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = PathBuf::from("perfbench/out").join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Size of a file in bytes (0 if absent).
pub fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}
