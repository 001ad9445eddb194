//! Runs one workload of the stage-timed slot benchmark.
//!
//! ```text
//! spotdc-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      --expect-digest <hex>
//! spotdc-perfbench reference --workload <name> --seed <n>
//! ```
//!
//! `run` measures the workload and prints its metrics as one JSON
//! object on the last line of standard output; every episode's digest
//! must equal `--expect-digest`. `reference` prints the digest an
//! episode must have, computed by an independent path in its own
//! process: `Simulation::run` with the in-stage checker on.
//! `perfbench/run.py` drives both, supplies recorded digests from
//! `perfbench/reference.json`, and adds provenance.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spotdc_core::ClearingCacheStats;
use spotdc_dist::{wire_totals, WireStats};
use spotdc_perfbench::pipeline::{self, SlotLoop, StageNanos, CLEAR, COLLECT_BIDS, STAGES};
use spotdc_perfbench::{add_stats, median, peak_rss_mb, percentile, report_digest, Workload};

/// Fewest set-up timings a run takes its median over.
const MIN_SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    /// `None` for the `reference` command.
    timed: Option<Timed>,
}

struct Timed {
    seconds: f64,
    trace: bool,
    expect: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    let command = it.next().unwrap_or_default();
    if command != "run" && command != "reference" {
        return Err("the first argument is `run` or `reference`".into());
    }
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    const FLAGS: [&str; 5] = ["workload", "seed", "seconds", "trace", "expect-digest"];
    if let Some(k) = map.keys().find(|k| !FLAGS.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }
    let take = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = take("workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let timed = if command == "run" {
        let seconds: f64 = take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err("--seconds must be in (0, 3600]".into());
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let expect = take("expect-digest")?;
        Some(Timed {
            seconds,
            trace,
            expect,
        })
    } else {
        None
    };
    Ok(Args {
        workload,
        seed,
        timed,
    })
}

/// What one phase (untraced or traced) measured.
#[derive(Default)]
struct Phase {
    slot_ms: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    digests_ok: bool,
    episodes: u64,
    /// Traced only: per-stage host time of each slot.
    stage_ns: Vec<StageNanos>,
    composed: [bool; STAGES.len()],
    agents: usize,
    bids: u64,
    cache: ClearingCacheStats,
    /// Peak resident set at the end of the first episode. Later
    /// episodes repeat its work, but the allocator keeps freed episode
    /// memory resident, so a peak read at the end of a run would grow
    /// with the number of episodes in it.
    peak_rss_mb: f64,
    episode_slots: u64,
    wire: WireStats,
}

impl Phase {
    fn new(workload: Workload) -> Phase {
        Phase {
            digests_ok: true,
            episode_slots: workload.episode_slots(),
            ..Phase::default()
        }
    }

    fn record(&mut self, took: Duration, ok: bool) {
        self.slot_ms.push(took.as_secs_f64() * 1e3);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if self.attempted == self.episode_slots {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    fn slots_per_sec(&self) -> f64 {
        self.slot_ms.len() as f64 / (self.slot_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Adds the wire counters that moved between two snapshots into `sum`
/// (handshake frames excluded: they are set-up, not slot traffic).
fn add_wire(sum: &mut WireStats, before: &WireStats, after: &WireStats) {
    sum.frames_sent += after.frames_sent - before.frames_sent;
    sum.frames_recv += after.frames_recv - before.frames_recv;
    sum.bytes_sent += after.bytes_sent - before.bytes_sent;
    sum.bytes_recv += after.bytes_recv - before.bytes_recv;
    sum.delta_tasks += after.delta_tasks - before.delta_tasks;
    sum.full_tasks += after.full_tasks - before.full_tasks;
}

/// Whether to run another episode: always a first one, then another
/// while it would end nearer to `budget` than stopping now.
fn more_episodes(started: Instant, done: u64, budget: Duration) -> bool {
    if done == 0 {
        return true;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / (2 * done as u32) < budget
}

/// Runs whole pipeline episodes for about `budget` of wall time.
fn run_phase(args: &Args, expected: &str, budget: Duration, traced: bool) -> Phase {
    let w = args.workload;
    let slots = w.episode_slots();
    let mut phase = Phase::new(w);
    let started = Instant::now();
    while more_episodes(started, phase.episodes, budget) {
        let at = Instant::now();
        let mut lp = SlotLoop::new(w, args.seed, slots);
        phase.setup_s.push(at.elapsed().as_secs_f64());
        phase.composed = lp.composed();
        phase.agents = lp.agents();
        let wire = wire_totals();
        for _ in 0..slots {
            if traced {
                let mut nanos = StageNanos::default();
                let (took, ok) = lp.step(Some(&mut nanos));
                phase.bids += lp.bids_last_slot() as u64;
                phase.stage_ns.push(nanos);
                phase.record(took, ok);
            } else {
                let (took, ok) = lp.step(None);
                phase.record(took, ok);
            }
        }
        // Every episode's engines start from zero.
        phase.cache = add_stats(phase.cache, lp.cache_stats());
        add_wire(&mut phase.wire, &wire, &wire_totals());
        phase.digests_ok &= report_digest(&lp.into_report()) == expected;
        phase.episodes += 1;
    }
    phase
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(w: Workload, phase: &Phase, setup_s: f64) -> Metrics {
    let mut sorted = phase.slot_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&phase.slot_ms);
    // The tail percentile: one with at least ten slots beyond it. On the
    // testbed p99 sits on the edge between slots with one valuation-memo
    // miss (about 0.4 ms) and slots with several (about 1 ms), so it jumps
    // between the two with the seed; p98 sits inside the one-miss band.
    // A hyperscale run holds about 20 slots, too few for any tail beyond
    // the median.
    let tail = match w {
        Workload::TestbedUniform => percentile(&sorted, 0.98),
        Workload::Hyperscale15k | Workload::Hyperscale15kSharded => p50,
    };
    vec![
        ("slots_per_sec".into(), phase.slots_per_sec(), "1/s"),
        ("slot_ms_p50".into(), p50, "ms"),
        ("slot_ms_tail".into(), tail, "ms"),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), phase.peak_rss_mb, "MiB"),
    ]
}

fn per_layer(traced: &Phase, untraced: &Phase) -> Metrics {
    let mut m: Metrics = Vec::new();
    let slot_total: f64 = traced.slot_ms.iter().sum();
    let mut attributed = 0.0;
    for (id, name) in STAGES.iter().enumerate() {
        let ms: Vec<f64> = traced.stage_ns.iter().map(|n| n[id] as f64 / 1e6).collect();
        let (p50, share) = if traced.composed[id] {
            let share = ms.iter().sum::<f64>() / slot_total;
            (median(&ms), share)
        } else {
            (0.0, 0.0)
        };
        attributed += share;
        m.push((format!("stage.{name}.ms_p50"), p50, "ms"));
        m.push((format!("stage.{name}.share"), share, "ratio"));
    }
    let unattributed = if traced.stage_ns.is_empty() {
        0.0
    } else {
        1.0 - attributed
    };
    m.push(("stage.unattributed.share".into(), unattributed, "ratio"));

    let (us_per_agent, bids_per_slot) = if traced.composed[COLLECT_BIDS] && traced.agents > 0 {
        let collect: Vec<f64> = traced
            .stage_ns
            .iter()
            .map(|n| n[COLLECT_BIDS] as f64 / 1e3)
            .collect();
        (
            median(&collect) / traced.agents as f64,
            traced.bids as f64 / traced.slot_ms.len() as f64,
        )
    } else {
        (0.0, 0.0)
    };
    m.push(("tenants.us_per_agent".into(), us_per_agent, "us"));
    m.push(("tenants.bids_per_slot".into(), bids_per_slot, "count"));

    let c = traced.cache;
    let clears = (c.full_sweeps + c.delta_sweeps + c.cache_hits + c.legacy_scans) as f64;
    let share = |n: u64| if clears > 0.0 { n as f64 / clears } else { 0.0 };
    m.push(("clear.full_share".into(), share(c.full_sweeps), "ratio"));
    m.push(("clear.delta_share".into(), share(c.delta_sweeps), "ratio"));
    m.push(("clear.hit_share".into(), share(c.cache_hits), "ratio"));
    m.push(("clear.legacy_share".into(), share(c.legacy_scans), "ratio"));
    let swept = if c.candidates_total > 0 {
        c.candidates_swept as f64 / c.candidates_total as f64
    } else {
        0.0
    };
    m.push(("clear.swept_share".into(), swept, "ratio"));
    let clear_us: f64 = traced.stage_ns.iter().map(|n| n[CLEAR] as f64 / 1e3).sum();
    m.push((
        "clear.us_per_clear".into(),
        if clears > 0.0 { clear_us / clears } else { 0.0 },
        "us",
    ));

    let slots = traced.slot_ms.len() as f64;
    let w = &traced.wire;
    let tasks = w.delta_tasks + w.full_tasks;
    m.push((
        "wire.frames_per_slot".into(),
        (w.frames_sent + w.frames_recv) as f64 / slots,
        "count",
    ));
    m.push((
        "wire.bytes_per_slot".into(),
        (w.bytes_sent + w.bytes_recv) as f64 / slots,
        "B",
    ));
    m.push((
        "wire.delta_task_share".into(),
        if tasks > 0 {
            w.delta_tasks as f64 / tasks as f64
        } else {
            0.0
        },
        "ratio",
    ));
    let (plain, timed) = (untraced.slots_per_sec(), traced.slots_per_sec());
    m.push((
        "trace.overhead_pct".into(),
        (plain - timed) / plain * 100.0,
        "%",
    ));
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spotdc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let Some(timed) = &args.timed else {
        let digest = report_digest(&pipeline::reference_report(w, args.seed, w.episode_slots()));
        println!(r#"{{"digest": "{digest}"}}"#);
        return ExitCode::SUCCESS;
    };
    let expected = &timed.expect;
    let total = Duration::from_secs_f64(timed.seconds);
    // A traced run measures an untraced and a traced phase of half the
    // time each, so their difference is the tracing overhead.
    let budget = if timed.trace { total / 2 } else { total };
    let untraced = run_phase(&args, expected, budget, false);
    let traced = timed
        .trace
        .then(|| run_phase(&args, expected, budget, true));

    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let mut setups: Vec<f64> = phases.iter().flat_map(|p| p.setup_s.clone()).collect();
    // Set-up is a median of at least MIN_SETUPS timings; top up with
    // set-ups that are built and dropped.
    while setups.len() < MIN_SETUPS {
        let at = Instant::now();
        drop(SlotLoop::new(w, args.seed, w.episode_slots()));
        setups.push(at.elapsed().as_secs_f64());
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let digests_ok = phases.iter().all(|p| p.digests_ok);
    let metrics = match &traced {
        Some(t) => per_layer(t, &untraced),
        None => end_to_end(w, &untraced, median(&setups)),
    };

    println!(
        "workload {w} seed {} episodes {} slots {} failed {failed} digest {expected} {}",
        args.seed,
        untraced.episodes,
        untraced.slot_ms.len(),
        if digests_ok { "matched" } else { "MISMATCHED" },
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}, "info": {{"episodes": {}, "slots_per_run": {}, "setups": {}, "digests_matched": {digests_ok}, "failed_slot_share": {}}}}}"#,
        digests_ok && failed == 0,
        body.join(", "),
        untraced.episodes,
        untraced.slot_ms.len(),
        setups.len(),
        json_number(failed as f64 / attempted as f64),
    );
    ExitCode::SUCCESS
}
