//! The benchmark's own slot loop must compute exactly what the engine
//! computes: for every workload's configuration, stepping the stages by
//! hand (timed or not) yields the `SimReport` that `Simulation::run`
//! yields. The horizons and sizes are short so the suite stays quick in
//! a debug build; the timed runs check the full-size episodes against
//! the digests in `reference.json`.

use spotdc_perfbench::pipeline::{engine_config, reference_report, SlotLoop, StageNanos};
use spotdc_perfbench::{report_digest, Workload};
use spotdc_sim::engine::EngineConfig;
use spotdc_sim::{Scenario, SimReport, Simulation};

/// Steps `slots` slots, timing the stages of every other slot, and
/// asserts every slot passes the benchmark's checks.
fn loop_report(scenario: &Scenario, config: &EngineConfig, slots: u64) -> SimReport {
    let mut lp = SlotLoop::with(scenario, config, slots);
    for t in 0..slots {
        let mut nanos = StageNanos::default();
        let (_, ok) = lp.step((t % 2 == 1).then_some(&mut nanos));
        assert!(ok, "slot {t} failed its checks");
    }
    lp.into_report()
}

#[test]
fn slot_loop_matches_simulation_run_on_the_testbed() {
    let scenario = Scenario::testbed(42);
    for w in Workload::ALL {
        let config = engine_config(w);
        let expected = Simulation::new(scenario.clone(), config.clone()).run(720);
        assert_eq!(loop_report(&scenario, &config, 720), expected, "{w}");
    }
}

#[test]
fn slot_loop_matches_simulation_run_at_hyperscale() {
    // 304 tenants: the hyperscale composition at a size a debug build
    // steps in seconds.
    let scenario = Scenario::hyperscale(42, 304);
    for w in [Workload::Hyperscale15k, Workload::Hyperscale15kSharded] {
        let config = engine_config(w);
        let expected = Simulation::new(scenario.clone(), config.clone()).run(8);
        assert_eq!(loop_report(&scenario, &config, 8), expected, "{w}");
    }
}

#[test]
fn workload_episode_digest_matches_the_checked_reference() {
    let w = Workload::TestbedUniform;
    let mut lp = SlotLoop::new(w, 7, 720);
    for _ in 0..720 {
        assert!(lp.step(None).1);
    }
    assert_eq!(
        report_digest(&lp.into_report()),
        report_digest(&reference_report(w, 7, 720))
    );
}

#[test]
fn report_digest_sees_every_field() {
    let report = Simulation::new(
        Scenario::testbed(42),
        engine_config(Workload::TestbedUniform),
    )
    .run(30);
    let mut changed = report.clone();
    changed.faults_injected += 1;
    assert_ne!(report_digest(&report), report_digest(&changed));
    let mut changed = report.clone();
    changed.records[29].spot_sold = f64::from_bits(report.records[29].spot_sold.to_bits() ^ 1);
    assert_ne!(report_digest(&report), report_digest(&changed));
}
