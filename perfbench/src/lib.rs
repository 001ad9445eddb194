//! Stage-timed slot benchmark for the SpotDC reproduction.
//!
//! The benchmark drives the simulator's slot loop itself, the same way
//! the engine does (`pipeline::build`, `SimState::new`,
//! `SlotContext::begin`, then `SlotStage::run` per stage), so it can
//! time every call into a layer from outside the crates it measures.
//! `tests/report_equality.rs` pins that the loop's `SimReport` equals
//! `Simulation::run`'s.
//!
//! Three workloads ([`Workload`]): the Table I testbed under the
//! uniform-price market, and the 15k-tenant hyperscale colo under
//! per-PDU pricing, serial and over two in-process shards.

#![forbid(unsafe_code)]

pub mod pipeline;

use std::fmt;

use spotdc_core::ClearingCacheStats;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scenario::testbed(seed)`, uniform-price SpotDC, long horizon.
    TestbedUniform,
    /// `Scenario::hyperscale(seed, 15000)`, per-PDU SpotDC, serial.
    Hyperscale15k,
    /// The same inputs over two in-process shard agents.
    Hyperscale15kSharded,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TestbedUniform,
        Workload::Hyperscale15k,
        Workload::Hyperscale15kSharded,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedUniform => "testbed-uniform",
            Workload::Hyperscale15k => "hyperscale-15k",
            Workload::Hyperscale15kSharded => "hyperscale-15k-sharded",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Slots in one episode: the fixed horizon whose report digest every
    /// timed episode is checked against. A hyperscale episode is 20
    /// slots, so its first slot (a cold start: the per-PDU clear takes
    /// about four times its later time) is one slot in twenty, and the
    /// valuation memos and shard sessions grow over the rest.
    #[must_use]
    pub fn episode_slots(self) -> u64 {
        match self {
            Workload::TestbedUniform => 28_800,
            Workload::Hyperscale15k | Workload::Hyperscale15kSharded => 20,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// FNV-1a over everything written to it, so a report's `Debug`
/// rendering (shortest-round-trip floats: equal text means equal
/// values) can be digested without materializing the string.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one word, little-endian.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest as 16 lowercase hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a whole report: every field, via its `Debug` rendering.
#[must_use]
pub fn report_digest(report: &spotdc_sim::SimReport) -> String {
    use fmt::Write as _;
    let mut d = Digest::default();
    write!(d, "{report:?}").expect("digest writes never fail");
    d.hex()
}

/// Field-wise sum of two clearing-cache counter snapshots.
#[must_use]
pub fn add_stats(a: ClearingCacheStats, b: ClearingCacheStats) -> ClearingCacheStats {
    ClearingCacheStats {
        full_sweeps: a.full_sweeps + b.full_sweeps,
        cache_hits: a.cache_hits + b.cache_hits,
        delta_sweeps: a.delta_sweeps + b.delta_sweeps,
        legacy_scans: a.legacy_scans + b.legacy_scans,
        candidates_total: a.candidates_total + b.candidates_total,
        candidates_swept: a.candidates_swept + b.candidates_swept,
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle two of an even
/// count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
