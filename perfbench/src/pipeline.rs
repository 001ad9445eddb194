//! The benchmark's own slot loop over the simulator's staged pipeline.
//!
//! [`SlotLoop`] steps slots exactly as the engine's `run_one_slot`
//! does, minus the (disabled) telemetry spans: `SlotContext::begin`,
//! then `SlotStage::run` for each stage `pipeline::build` composed. The
//! per-PDU clear stage is instantiated here (as `pipeline::build` would)
//! so its private clearing engine's cache counters stay readable.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use spotdc_core::{check_allocation, ClearingCacheStats, ConstraintSet, RackBid, SpotAllocation};
use spotdc_dist::TransportKind;
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::pipeline::{self, ClearPerPdu, SimState, SlotContext, SlotStage};
use spotdc_sim::{Mode, Scenario, SimReport};
use spotdc_units::{Price, RackId, Slot, Watts};

use crate::{add_stats, Workload};

/// Tenants in the hyperscale workloads (the paper's Fig. 7b scale).
pub const HYPERSCALE_TENANTS: usize = 15_000;

/// The stages every SpotDC composition runs, in pipeline order, as the
/// benchmark reports them (`stage.<name>`). `clear` is whichever clear
/// stage the composition has: the uniform-price `stage.clear_market` or
/// the per-PDU `stage.clear_per_pdu`.
pub const STAGES: [&str; 6] = [
    "sense",
    "collect_bids",
    "predict",
    "clear",
    "enforce",
    "settle",
];
/// Index of CollectBids in [`STAGES`].
pub const COLLECT_BIDS: usize = 1;
/// Index of the clear stage in [`STAGES`].
pub const CLEAR: usize = 3;

/// The engine configuration a timed pipeline workload runs under:
/// telemetry and the flight recorder off (the defaults), `inner_jobs =
/// 1`, and the in-stage Eqns. 1–4 checker off, as in a release run.
/// (The per-PDU stage's checker audits every sub-market against every
/// bid: at 15k tenants it turns ~0.14 s of clearing per slot into
/// ~0.8 s.) [`SlotLoop::step`]
/// checks each slot from outside the timed region instead, and the
/// reference run keeps the in-stage checker on.
#[must_use]
pub fn engine_config(workload: Workload) -> EngineConfig {
    let base = EngineConfig {
        validate: false,
        inner_jobs: 1,
        ..EngineConfig::new(Mode::SpotDc)
    };
    match workload {
        Workload::TestbedUniform => base,
        Workload::Hyperscale15k => EngineConfig {
            per_pdu_pricing: true,
            ..base
        },
        Workload::Hyperscale15kSharded => EngineConfig {
            per_pdu_pricing: true,
            shards: 2,
            shard_transport: TransportKind::InProc,
            ..base
        },
    }
}

/// The scenario a pipeline workload simulates at `seed`.
#[must_use]
pub fn scenario(workload: Workload, seed: u64) -> Scenario {
    match workload {
        Workload::TestbedUniform => Scenario::testbed(seed),
        _ => Scenario::hyperscale(seed, HYPERSCALE_TENANTS),
    }
}

/// The reference run: `Simulation::run` over the same scenario and
/// horizon as one episode, with the in-stage Eqns. 1–4 checker on. Its
/// report counts any violation, so a timed episode (checker off, count
/// zero) only matches it when the checker found none.
#[must_use]
pub fn reference_report(workload: Workload, seed: u64, slots: u64) -> SimReport {
    let config = EngineConfig {
        validate: true,
        ..engine_config(workload)
    };
    Simulation::new(scenario(workload, seed), config).run(slots)
}

enum Stage {
    Built(Box<dyn SlotStage>),
    PerPdu(Box<ClearPerPdu>),
}

impl Stage {
    fn get(&mut self) -> &mut dyn SlotStage {
        match self {
            Stage::Built(s) => s.as_mut(),
            Stage::PerPdu(s) => s.as_mut(),
        }
    }
}

/// One simulation in progress, stepped slot by slot.
pub struct SlotLoop {
    state: SimState,
    ctx: SlotContext,
    stages: Vec<Stage>,
    /// Index into [`STAGES`] of each composed stage.
    stage_ids: Vec<usize>,
    /// Whether the clear stage is the uniform-price one.
    uniform: bool,
    next: u64,
}

/// Per-stage host time of one slot, indexed like [`STAGES`].
pub type StageNanos = [u64; STAGES.len()];

impl SlotLoop {
    /// Builds the scenario, the cross-slot state and the stages for a
    /// `slots`-slot run. This is the workload's set-up; on the sharded
    /// workload it includes spawning the shard agents and their
    /// `AssignShard` handshake.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, slots: u64) -> SlotLoop {
        SlotLoop::with(&scenario(workload, seed), &engine_config(workload), slots)
    }

    /// The loop for any scenario and configuration, as `Simulation::run`
    /// would step them.
    #[must_use]
    pub fn with(scenario: &Scenario, config: &EngineConfig, slots: u64) -> SlotLoop {
        let state = SimState::new(scenario, config, slots as usize);
        let ctx = SlotContext::new(state.topology.rack_count(), state.agents.len());
        let mut stages = Vec::new();
        let mut stage_ids = Vec::new();
        let mut uniform = false;
        for stage in pipeline::build(config) {
            let name = match stage.name() {
                "stage.clear_market" => {
                    uniform = true;
                    "clear"
                }
                "stage.clear_per_pdu" => "clear",
                other => other.trim_start_matches("stage."),
            };
            let id = STAGES
                .iter()
                .position(|s| *s == name)
                .unwrap_or_else(|| panic!("unexpected stage {name}"));
            stage_ids.push(id);
            stages.push(if stage.name() == "stage.clear_per_pdu" {
                Stage::PerPdu(Box::new(ClearPerPdu::new(config.operator.clearing)))
            } else {
                Stage::Built(stage)
            });
        }
        SlotLoop {
            state,
            ctx,
            stages,
            stage_ids,
            uniform,
            next: 0,
        }
    }

    /// Tenant agents bidding in this simulation.
    #[must_use]
    pub fn agents(&self) -> usize {
        self.state.agents.len()
    }

    /// Bids delivered to the market in the last slot.
    #[must_use]
    pub fn bids_last_slot(&self) -> usize {
        self.ctx.bids.len()
    }

    /// Which of [`STAGES`] this workload's composition contains.
    #[must_use]
    pub fn composed(&self) -> [bool; STAGES.len()] {
        let mut on = [false; STAGES.len()];
        for &id in &self.stage_ids {
            on[id] = true;
        }
        on
    }

    /// Sum of every clearing engine's cache counters: the operator's
    /// (uniform market), the per-PDU stage's, and each shard's.
    #[must_use]
    pub fn cache_stats(&self) -> ClearingCacheStats {
        let mut all = vec![self.state.operator.clearing_cache_stats()];
        for stage in &self.stages {
            if let Stage::PerPdu(s) = stage {
                all.push(s.cache_stats());
            }
        }
        if let Some(dist) = &self.state.dist {
            all.extend(dist.shard_cache_stats());
        }
        all.into_iter()
            .fold(ClearingCacheStats::default(), add_stats)
    }

    /// Steps the next slot and returns its host time. With `nanos`, each
    /// stage call is timed too and added into it. Also returns whether
    /// the slot passed its checks, made after the timed region: see
    /// [`SlotLoop::slot_ok`].
    pub fn step(&mut self, nanos: Option<&mut StageNanos>) -> (Duration, bool) {
        let degraded = self.state.degraded_slots;
        let t = self.next;
        self.next += 1;
        let started = Instant::now();
        self.ctx.begin(Slot::new(t), t as usize);
        match nanos {
            None => {
                for stage in &mut self.stages {
                    stage.get().run(&mut self.state, &mut self.ctx);
                }
            }
            Some(nanos) => {
                for (stage, &id) in self.stages.iter_mut().zip(&self.stage_ids) {
                    let at = Instant::now();
                    stage.get().run(&mut self.state, &mut self.ctx);
                    nanos[id] += at.elapsed().as_nanos() as u64;
                }
            }
        }
        let took = started.elapsed();
        let ok = self.state.degraded_slots == degraded && self.slot_ok();
        (took, ok)
    }

    /// Whether the slot just stepped sold a feasible allocation: the
    /// grants programmed into the rack PDUs pass `check_allocation`
    /// against the slot's predicted spot capacity (Eqns. 1–4) and,
    /// under the uniform price, against every delivered bid's demand at
    /// that price. Per-PDU sub-markets clear at their own prices, so
    /// there every granted rack must hold a bid instead.
    fn slot_ok(&self) -> bool {
        let Some(predicted) = &self.ctx.predicted else {
            return true;
        };
        let constraints =
            ConstraintSet::new(&self.state.topology, predicted.pdu.clone(), predicted.ups);
        let grants: BTreeMap<RackId, Watts> = (0..self.state.topology.rack_count())
            .map(RackId::new)
            .map(|rack| (rack, self.state.bank.spot_grant(rack)))
            .filter(|&(_, grant)| grant > Watts::ZERO)
            .collect();
        let sold: f64 = grants.values().map(|g| g.value()).sum();
        let price = Price::per_kw_hour(self.ctx.price.unwrap_or(0.0));
        let alloc = SpotAllocation::new(self.ctx.slot, price, grants);
        let ok = if self.uniform {
            let bids: Vec<RackBid> = self
                .ctx
                .bids
                .iter()
                .flat_map(|b| b.rack_bids().iter().cloned())
                .collect();
            check_allocation(&constraints, &alloc, &bids, true).is_empty()
        } else {
            let bidders: BTreeSet<RackId> = self.ctx.rack_bids.iter().map(RackBid::rack).collect();
            check_allocation(&constraints, &alloc, &[], false).is_empty()
                && alloc.granted_racks().all(|r| bidders.contains(&r))
        };
        ok && (sold - self.ctx.spot_sold).abs() <= 1e-6 * sold.max(1.0)
    }

    /// Ends the run and returns its report.
    #[must_use]
    pub fn into_report(self) -> SimReport {
        self.state.into_report()
    }
}
