//! Small numeric helpers: the input fingerprint, order statistics, and
//! the process-memory probe.

use std::time::Duration;

/// FNV-1a over 64-bit words: the input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail percentile a workload reports: its nominal one when at least
/// ten samples lie beyond it, otherwise the highest lower rung that has.
pub fn tail_percentile(nominal: f64, n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= nominal)
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Resident-set probe over `/proc/self`: the high-water mark is reset by
/// writing `5` to `clear_refs`, so the peak an interval adds can be read.
pub struct Rss;

impl Rss {
    fn status_kib(field: &str) -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Resets the high-water mark and returns the current RSS in MiB.
    pub fn reset() -> f64 {
        // Without clear_refs the reading falls back to the process peak,
        // which only overstates the interval's growth.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Self::status_kib("VmRSS:").unwrap_or(0.0) / 1024.0
    }

    /// Peak RSS in MiB since the last reset.
    pub fn peak() -> f64 {
        Self::status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
    }
}

/// The host's CPU time counters from `/proc/stat`, to report how much of
/// an interval the hypervisor gave to other guests (steal).
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(Self {
            // user nice system idle iowait irq softirq steal; guest time is
            // already inside user.
            total: fields.iter().take(8).sum(),
            steal: *fields.get(7)?,
        })
    }

    /// Percent of all CPU time since `earlier` that was stolen.
    pub fn steal_pct_since(self, earlier: Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64 * 100.0
    }
}
