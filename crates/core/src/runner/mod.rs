//! The experiment runner: wires the five controllers over the simulator
//! according to the coordination mode, executes the horizon, and collects
//! the paper's metrics.
//!
//! One module per controller layer: `server` (EC, SM, electrical clamp,
//! sensor ingestion), `enclosure` (EM), `group` (GM), `vmc`, plus `bus`
//! (grants and leases), `redundancy` (warm standbys), `invariants` (the
//! safety monitor) and `snapshot` (checkpoints). Every sharded phase
//! carves its state with `split_ranges`, runs the shard records through
//! `WorkerPool::for_each_mut`, and folds each shard's [`ShardOut`] back
//! in shard order with [`Runner::absorb`].

mod bus;
mod enclosure;
mod group;
mod invariants;
mod redundancy;
mod server;
mod snapshot;
mod vmc;

pub use snapshot::RunnerSnapshot;

use nps_control::{CapperLevel, ControllerBank, ElectricalCapper, GroupCapper};
use nps_metrics::{
    BudgetLevel, Comparison, ControllerKind, FaultStats, InvariantStats, LevelViolations, Recorder,
    RingRecorder, RunStats, TelemetryEvent, ViolationCounter,
};
use nps_models::{PState, ServerModel};
use nps_opt::Vmc;
use nps_sim::{
    reduce, ControlBus, ControllerLayer, EnclosureId, FaultInjector, FaultPlan, OutageWindow,
    RedundancyConfig, RedundancyStats, ReplicaState, ServerId, SimConfig, Simulation, VmId,
    WorkerPool,
};
use std::ops::Range;

use crate::arch::ControllerMask;
use crate::config::ExperimentConfig;
use crate::CoreError;
use bus::{GrantTarget, LinkMeta};
use enclosure::EnclosureWindows;
use group::GmChildWindow;
use redundancy::{encode_capper, SyncPeer};
use server::ServerWindows;
use vmc::VmWindows;

/// The outcome of [`run_experiment`]: the run's metrics normalized
/// against its no-controller baseline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentResult {
    /// The configuration's label.
    pub label: String,
    /// Baseline-normalized metrics (power savings, perf loss, violations).
    pub comparison: Comparison,
    /// The baseline's raw stats.
    pub baseline: RunStats,
}

/// Runs `cfg` and its baseline (same traces and fleet, no controllers),
/// returning normalized results.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let mut baseline_cfg = cfg.clone();
    baseline_cfg.mask = ControllerMask::NONE;
    baseline_cfg.label = format!("{} (baseline)", cfg.label);
    // The baseline is the normalization reference: it stays fault-free
    // even when the run under test injects faults.
    baseline_cfg.faults = FaultPlan::disabled();
    let baseline = Runner::new(&baseline_cfg).run_to_horizon();
    let run = Runner::new(cfg).run_to_horizon();
    ExperimentResult {
        label: cfg.label.clone(),
        comparison: Comparison::against_baseline(run, &baseline),
        baseline,
    }
}

/// One live experiment: the simulator plus controller instances and the
/// measurement windows connecting them.
///
/// For standard experiments use [`run_experiment`]; construct a `Runner`
/// directly to drive the system tick by tick (e.g. to sample temperature
/// or P-state trajectories in examples).
#[derive(Debug)]
pub struct Runner {
    // Configuration (flattened for the hot loop).
    label: String,
    mask: ControllerMask,
    mode: crate::arch::CoordinationMode,
    intervals: crate::intervals::Intervals,
    horizon: u64,
    // Substrate.
    sim: Simulation,
    models: Vec<ServerModel>,
    // Controllers. Per-server EC + SM state lives in a contiguous
    // structure-of-arrays bank rather than one object per server.
    bank: ControllerBank,
    ems: Vec<GroupCapper>,
    gm: GroupCapper,
    vmc: Vmc,
    elec: Option<Vec<ElectricalCapper>>,
    // Static caps.
    cap_loc: Vec<f64>,
    cap_enc: Vec<f64>,
    cap_grp: f64,
    // Runner-owned CSR copy of the enclosure membership, so the EM/GM
    // epochs walk flat arrays instead of cloning topology lists.
    enc_offsets: Vec<usize>,
    enc_members: Vec<ServerId>,
    standalone_ids: Vec<ServerId>,
    /// Static GM child caps: `CAP_ENC` per enclosure, then `CAP_LOC`
    /// per standalone server.
    gm_child_caps: Vec<f64>,
    // Reusable epoch scratch buffers (no per-epoch allocation).
    scratch_consumption: Vec<f64>,
    scratch_demands: Vec<f64>,
    // Measurement windows, one record array per index space.
    servers: Vec<ServerWindows>,
    encs: Vec<EnclosureWindows>,
    gm_children: Vec<GmChildWindow>,
    vms: Vec<VmWindows>,
    // Fault injection and graceful degradation.
    injector: FaultInjector,
    fstats: FaultStats,
    /// GM outage edge detection: the local-cap fallback fires once per
    /// down-transition, not every skipped epoch.
    gm_was_down: bool,
    // Control-plane bus: every budget grant is a sequence-numbered,
    // lease-bearing message routed through this queue.
    bus: ControlBus,
    /// Grant-lease duration in ticks (0 = leases off; sanitized copy of
    /// the bus config so the hot path avoids re-reading it).
    lease_ticks: u64,
    /// Per-link routing metadata, indexed by `LinkId.0`.
    link_meta: Vec<LinkMeta>,
    /// Server index → link slot of the grant edge terminating at that
    /// server (enclosure members and standalone servers both have one).
    server_link: Vec<Option<usize>>,
    /// Enclosure index → link slot of the GM→EM grant edge.
    em_link: Vec<usize>,
    // Violation accounting.
    violations: LevelViolations,
    win_sm: ViolationCounter,
    win_em: ViolationCounter,
    win_gm: ViolationCounter,
    // Progress.
    ticks_done: u64,
    skipped_migrations: u64,
    power_trace: Option<nps_metrics::TimeSeries>,
    cum_latency_proxy: f64,
    latency_samples: u64,
    /// Wall-clock nanoseconds spent inside VMC arbitration epochs.
    /// Timing diagnostic like the pool's `busy_nanos` — never part of a
    /// checkpoint.
    arb_ns: u64,
    /// Telemetry sink; `None` costs one discriminant test per event site.
    recorder: Option<Box<dyn Recorder>>,
    // Rack-sharded execution. The worker pool and the topology's
    // size-weighted shard partition drive the one body of the simulator
    // step, the EC/SM/EM epochs, the GM's window fan-out, and the
    // electrical clamp; at one thread the pool runs every shard inline.
    // Results are bit-identical at every thread count, so none of these
    // fields is part of a checkpoint (resuming at a different
    // `--threads` is exact by construction).
    pool: WorkerPool,
    shards: Vec<Range<usize>>,
    /// Per-shard enclosure ranges ([`nps_sim::Topology::shard_enclosures`]):
    /// `shard_encs[k]` are the enclosures whose members lie in
    /// `shards[k]`, dense and covering every enclosure.
    shard_encs: Vec<Range<usize>>,
    /// Per-shard standalone-server ranges (standalone ordinal space):
    /// the standalone tail of each server shard.
    shard_sas: Vec<Range<usize>>,
    /// Per-shard VM ranges for the VM-window and demand passes.
    vm_shards: Vec<Range<usize>>,
    /// Static copy of the fault plan's outage windows, so parallel shard
    /// workers can evaluate `offline` without borrowing the injector
    /// (whose actuator-jam state is carved into the shards).
    outage_windows: Vec<OutageWindow>,
    // Controller redundancy: optional warm standbys for the GM and EMs.
    // The failure detector and every promotion/fencing decision run in
    // the sequential global phase, so redundancy never perturbs the
    // thread-count determinism contract.
    redundancy: RedundancyConfig,
    /// GM standby replica (None when not configured).
    gm_replica: Option<ReplicaState>,
    /// Per-enclosure EM standby replicas (empty when not configured).
    em_replicas: Vec<ReplicaState>,
    rstats: RedundancyStats,
    /// First bus slot of the state-sync links. Every slot below it is a
    /// grant link with a `link_meta` entry; sync links are registered
    /// after all grant links so grant slots (and their per-link fault
    /// streams) are identical with redundancy on or off.
    sync_base: usize,
    /// Sync-link routing: `slot - sync_base` → the replica it feeds.
    sync_peers: Vec<SyncPeer>,
    /// Enclosure → sync-link slot (empty without EM standbys).
    em_sync_link: Vec<usize>,
    /// GM sync-link slot (None without a GM standby).
    gm_sync_link: Option<usize>,
    // Runtime safety-invariant monitor (side-effect-free observer).
    invariants_on: bool,
    istats: InvariantStats,
}

impl Runner {
    /// Builds the runner (simulator + controllers) for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. more
    /// workloads than the simulator accepts); scenario builders produce
    /// consistent configurations. Use [`Runner::try_new`] for
    /// hand-assembled configurations.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        Self::try_new(cfg).expect("scenario configurations are consistent")
    }

    /// Builds the runner, surfacing configuration inconsistencies (sizes
    /// that disagree, invalid gains) as errors instead of panics.
    pub fn try_new(cfg: &ExperimentConfig) -> Result<Self, CoreError> {
        if cfg.lambda <= 0.0 || !cfg.lambda.is_finite() {
            return Err(CoreError::InvalidGain {
                name: "lambda",
                value: cfg.lambda,
            });
        }
        if cfg.beta <= 0.0 || !cfg.beta.is_finite() {
            return Err(CoreError::InvalidGain {
                name: "beta",
                value: cfg.beta,
            });
        }
        if let Some(models) = &cfg.models_override {
            if models.len() != cfg.topology.num_servers() {
                return Err(CoreError::ModelCountMismatch {
                    models: models.len(),
                    servers: cfg.topology.num_servers(),
                });
            }
        }
        let models = cfg.server_models();
        let intervals = cfg.intervals.sanitized();
        let sim_cfg = SimConfig {
            alpha_v: cfg.vmc.alpha_v,
            ..cfg.sim
        };
        let sim = Simulation::with_models_and_placement(
            cfg.topology.clone(),
            models.clone(),
            cfg.traces.clone(),
            nps_sim::Placement::one_per_server(cfg.traces.len(), cfg.topology.num_servers()),
            sim_cfg,
        )
        .map_err(CoreError::Sim)?;

        let n = cfg.topology.num_servers();
        let num_vms = cfg.traces.len();
        let cap_loc: Vec<f64> = (0..n)
            .map(|i| (1.0 - cfg.budgets.local_off) * models[i].max_power())
            .collect();
        // Capacity sums run through the fixed-shape reduction tree like
        // every other fleet-indexed aggregate (one reduction story).
        let cap_enc: Vec<f64> = (0..cfg.topology.num_enclosures())
            .map(|e| {
                let servers = cfg.topology.enclosure_servers(EnclosureId(e));
                let sum =
                    reduce::tree_sum_by(servers.len(), |m| models[servers[m].index()].max_power());
                (1.0 - cfg.budgets.enclosure_off) * sum
            })
            .collect();
        let cap_grp = (1.0 - cfg.budgets.group_off)
            * reduce::tree_sum_by(models.len(), |i| models[i].max_power());

        // One EC (starting at f_max, r_ref = 0.75) and one SM (static cap
        // CAP_LOC, unbounded grant) per server, banked into flat arrays.
        let bank = ControllerBank::new(
            nps_models::ModelTable::from_models(&models),
            cfg.lambda,
            cfg.beta,
            0.75,
            &cap_loc,
        );
        let num_enclosures = cfg.topology.num_enclosures();
        let mut enc_offsets = Vec::with_capacity(num_enclosures + 1);
        let mut enc_members = Vec::new();
        enc_offsets.push(0);
        for e in 0..num_enclosures {
            enc_members.extend_from_slice(cfg.topology.enclosure_servers(EnclosureId(e)));
            enc_offsets.push(enc_members.len());
        }
        let standalone_ids = cfg.topology.standalone_servers().to_vec();
        let ems: Vec<GroupCapper> = (0..cfg.topology.num_enclosures())
            .map(|e| {
                GroupCapper::new(
                    CapperLevel::Enclosure,
                    cap_enc[e],
                    cfg.policy
                        .make(cfg.topology.enclosure_servers(EnclosureId(e)).len()),
                )
            })
            .collect();
        let gm_children = cfg.topology.num_enclosures() + cfg.topology.standalone_servers().len();
        let gm = GroupCapper::new(CapperLevel::Group, cap_grp, cfg.policy.make(gm_children));

        let mut vmc_cfg = cfg.vmc;
        vmc_cfg.use_budget_constraints =
            cfg.vmc.use_budget_constraints && cfg.mode.vmc_uses_budget_constraints();
        vmc_cfg.use_feedback = cfg.vmc.use_feedback && cfg.mode.vmc_uses_feedback();
        if !cfg.mask.ec {
            // Without ECs servers stay at P0; the power estimator must use
            // the P0 curve rather than an EC-settled operating point.
            vmc_cfg.assumed_r_ref = 0.01;
        }
        let vmc = Vmc::new(vmc_cfg);

        let elec: Option<Vec<ElectricalCapper>> = cfg.electrical_cap_frac.map(|frac| {
            (0..n)
                .map(|i| ElectricalCapper::new(&models[i], frac * models[i].max_power()))
                .collect()
        });
        let mut sim = sim;
        if let Some(elec) = &elec {
            // A fuse-level cap admits no violation at all — including the
            // very first tick before any controller has acted.
            for (i, capper) in elec.iter().enumerate() {
                let s = ServerId(i);
                sim.set_pstate(s, capper.clamp(sim.pstate(s)));
            }
        }

        // Control-plane bus: one link per grant edge, registered in a
        // fixed order (EM→member links per enclosure, then GM→EM links,
        // then GM→standalone links) so link ids are stable across runs
        // and checkpoints.
        let bus_cfg = cfg.bus.clone().sanitized();
        let mut bus = ControlBus::new(&bus_cfg);
        let mut link_meta: Vec<LinkMeta> = Vec::new();
        let mut server_link: Vec<Option<usize>> = vec![None; n];
        let mut em_link: Vec<usize> = Vec::with_capacity(num_enclosures);
        for e in 0..num_enclosures {
            for (k, &s) in enc_members[enc_offsets[e]..enc_offsets[e + 1]]
                .iter()
                .enumerate()
            {
                let link = bus.register_link();
                debug_assert_eq!(link.0, link_meta.len());
                link_meta.push(LinkMeta {
                    level: BudgetLevel::Enclosure,
                    child: k,
                    target: GrantTarget::Server(s.index()),
                });
                server_link[s.index()] = Some(link.0);
            }
        }
        for e in 0..num_enclosures {
            let link = bus.register_link();
            em_link.push(link.0);
            link_meta.push(LinkMeta {
                level: BudgetLevel::Group,
                child: e,
                target: GrantTarget::Enclosure(e),
            });
        }
        for (k, &s) in standalone_ids.iter().enumerate() {
            let link = bus.register_link();
            link_meta.push(LinkMeta {
                level: BudgetLevel::Group,
                child: num_enclosures + k,
                target: GrantTarget::Server(s.index()),
            });
            server_link[s.index()] = Some(link.0);
        }
        // Warm-standby state-sync links, registered after every grant
        // link: the grant slots (and the per-link loss streams keyed on
        // them) stay identical whether or not redundancy is configured.
        let redundancy = cfg.redundancy.sanitized();
        let sync_base = link_meta.len();
        let mut sync_peers: Vec<SyncPeer> = Vec::new();
        let mut em_sync_link: Vec<usize> = Vec::new();
        let mut gm_sync_link: Option<usize> = None;
        if redundancy.em_standby {
            for e in 0..num_enclosures {
                let link = bus.register_link();
                debug_assert_eq!(link.0, sync_base + sync_peers.len());
                em_sync_link.push(link.0);
                sync_peers.push(SyncPeer::Em(e));
            }
        }
        if redundancy.gm_standby {
            let link = bus.register_link();
            gm_sync_link = Some(link.0);
            sync_peers.push(SyncPeer::Gm);
        }
        // Both sides of a pair boot from the same configuration, so each
        // standby starts with an exact shadow of its primary.
        let em_replicas: Vec<ReplicaState> = if redundancy.em_standby {
            ems.iter()
                .map(|em| ReplicaState::new(encode_capper(&em.snapshot())))
                .collect()
        } else {
            Vec::new()
        };
        let gm_replica = redundancy
            .gm_standby
            .then(|| ReplicaState::new(encode_capper(&gm.snapshot())));

        // Seed the hold-last-good stores at each server's idle operating
        // point (P0, zero utilization) rather than 0.0: a sample dropped
        // before the first clean reading then degrades to a physically
        // plausible value instead of a phantom zero-watt observation.
        let servers: Vec<ServerWindows> = models
            .iter()
            .map(|m| ServerWindows {
                snap_util_ec: 0.0,
                last_util_ec: 0.0,
                snap_power_sm: 0.0,
                last_power_sm: m.idle_power(0),
                snap_power_em: 0.0,
                snap_power_gm: 0.0,
                sm_hold: None,
            })
            .collect();
        let encs: Vec<EnclosureWindows> = (0..num_enclosures)
            .map(|e| {
                let members = &enc_members[enc_offsets[e]..enc_offsets[e + 1]];
                EnclosureWindows {
                    snap_encpow_em: 0.0,
                    snap_encpow_gm: 0.0,
                    last_encpow_em: reduce::tree_sum_by(members.len(), |m| {
                        models[members[m].index()].idle_power(0)
                    }) + cfg.sim.enclosure_base_watts,
                    em_was_down: false,
                }
            })
            .collect();
        let gm_children: Vec<GmChildWindow> = encs
            .iter()
            .map(|w| w.last_encpow_em)
            .chain(
                standalone_ids
                    .iter()
                    .map(|&s| models[s.index()].idle_power(0)),
            )
            .map(|last| GmChildWindow { last, avg: 0.0 })
            .collect();
        let gm_child_caps: Vec<f64> = cap_enc
            .iter()
            .copied()
            .chain(standalone_ids.iter().map(|&s| cap_loc[s.index()]))
            .collect();

        // Size-weighted shard partition: up to 2 shards per thread (so the
        // pool's dynamic claiming can rebalance uneven racks), with cuts
        // snapped to enclosure boundaries; one thread takes the whole
        // fleet as one shard. The pool never has more participants than
        // there are shards to hand out.
        let shards = if cfg.threads > 1 {
            cfg.topology.shard_ranges(cfg.threads * 2)
        } else {
            cfg.topology.shard_ranges(1)
        };
        let pool = WorkerPool::new(cfg.threads.min(shards.len()));
        let shard_encs = cfg.topology.shard_enclosures(&shards);
        // Standalone servers are a dense tail after the blade region, so
        // each server shard maps to a dense standalone range.
        let flat = enc_members.len();
        let shard_sas = shards
            .iter()
            .map(|r| (r.start.max(flat) - flat)..(r.end.max(flat) - flat))
            .collect();
        let vm_shards = vm_ranges(num_vms, shards.len());

        let injector = FaultInjector::new(&cfg.faults, n, num_enclosures, standalone_ids.len());
        let outage_windows = injector.plan().outages.clone();

        Ok(Self {
            label: cfg.label.clone(),
            mask: cfg.mask,
            mode: cfg.mode,
            intervals,
            horizon: cfg.horizon,
            sim,
            bank,
            ems,
            gm,
            vmc,
            elec,
            cap_loc,
            cap_enc,
            cap_grp,
            enc_offsets,
            enc_members,
            standalone_ids,
            gm_child_caps,
            scratch_consumption: Vec::new(),
            scratch_demands: Vec::new(),
            servers,
            encs,
            gm_children,
            vms: vec![VmWindows::default(); num_vms],
            injector,
            fstats: FaultStats::default(),
            gm_was_down: false,
            lease_ticks: bus_cfg.lease_ticks,
            bus,
            link_meta,
            server_link,
            em_link,
            violations: LevelViolations::new(),
            win_sm: ViolationCounter::new(),
            win_em: ViolationCounter::new(),
            win_gm: ViolationCounter::new(),
            ticks_done: 0,
            models,
            skipped_migrations: 0,
            power_trace: None,
            cum_latency_proxy: 0.0,
            latency_samples: 0,
            arb_ns: 0,
            recorder: None,
            pool,
            shards,
            shard_encs,
            shard_sas,
            vm_shards,
            outage_windows,
            redundancy,
            gm_replica,
            em_replicas,
            rstats: RedundancyStats::default(),
            sync_base,
            sync_peers,
            em_sync_link,
            gm_sync_link,
            invariants_on: cfg.invariants,
            istats: InvariantStats::default(),
        })
    }

    /// Installs a telemetry [`Recorder`]; controller epochs emit
    /// [`TelemetryEvent`]s into it from now on.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Installs a bounded [`RingRecorder`] keeping the most recent
    /// `capacity` events (per-type counters stay exact past the bound).
    pub fn enable_ring_telemetry(&mut self, capacity: usize) {
        self.recorder = Some(Box::new(RingRecorder::new(capacity)));
    }

    /// The installed ring recorder, if [`Runner::enable_ring_telemetry`]
    /// (or an explicit `RingRecorder`) is in place.
    pub fn ring_telemetry(&self) -> Option<&RingRecorder> {
        self.recorder
            .as_ref()
            .and_then(|r| r.as_any().downcast_ref())
    }

    /// Removes and returns the recorder, leaving telemetry disabled.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    #[inline]
    fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    #[inline]
    fn emit<F: FnOnce() -> TelemetryEvent>(&mut self, event: F) {
        if let Some(r) = &mut self.recorder {
            if r.enabled() {
                r.record(event());
            }
        }
    }

    /// Fault and degradation counters accumulated so far (exact,
    /// independent of any recorder).
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Redundancy-protocol counters accumulated so far (heartbeats,
    /// promotions, fencings, sync traffic). All-zero when no standby is
    /// configured.
    pub fn redundancy_stats(&self) -> RedundancyStats {
        self.rstats
    }

    /// Safety-invariant monitor counters accumulated so far. All-zero
    /// checks when the monitor is off.
    pub fn invariant_stats(&self) -> InvariantStats {
        self.istats
    }

    /// The GM's warm-standby replica, when one is configured.
    pub fn gm_replica(&self) -> Option<&ReplicaState> {
        self.gm_replica.as_ref()
    }

    /// Enclosure `e`'s warm-standby replica, when EM standbys are
    /// configured.
    pub fn em_replica(&self, e: usize) -> Option<&ReplicaState> {
        self.em_replicas.get(e)
    }

    /// Writes a P-state unless the server's actuator is jammed; returns
    /// whether the write landed.
    fn write_pstate(&mut self, s: ServerId, p: PState, source: ControllerKind) -> bool {
        let t = self.ticks_done;
        if self.injector.pstate_write_blocked(s.index(), t) {
            self.fstats.actuator_blocked += 1;
            let server = s.index();
            self.emit(|| TelemetryEvent::ActuatorFault {
                tick: t,
                server,
                source,
            });
            return false;
        }
        self.sim.set_pstate(s, p);
        true
    }

    /// Enables recording of the group-power trajectory into a bounded
    /// [`nps_metrics::TimeSeries`] of at most `max_points` points.
    pub fn enable_power_trace(&mut self, max_points: usize) {
        self.power_trace = Some(nps_metrics::TimeSeries::new("group_power_w", max_points));
    }

    /// The recorded group-power trajectory, if enabled.
    pub fn power_trace(&self) -> Option<&nps_metrics::TimeSeries> {
        self.power_trace.as_ref()
    }

    /// The underlying simulation (read-only).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Ticks simulated so far.
    pub fn ticks_done(&self) -> u64 {
        self.ticks_done
    }

    /// Total wall-clock nanoseconds this run has spent inside parallel
    /// shard phases (simulator step, EC/SM/EM epochs, GM fan-out,
    /// electrical clamp). Zero at one thread, where every shard runs
    /// inline. The complement against the run's total wall time is the
    /// sequential global phase the `scale` bench reports.
    pub fn parallel_nanos(&self) -> u64 {
        self.pool.busy_nanos()
    }

    /// Total shard steals the pool's workers have performed this run —
    /// how often an idle worker pulled a shard from a busy peer's deque.
    /// Zero at one thread (and for perfectly balanced fleets).
    pub fn steal_count(&self) -> u64 {
        self.pool.steal_count()
    }

    /// Total wall-clock nanoseconds this run has spent inside VMC
    /// arbitration epochs (demand estimation, placement planning, and
    /// plan application). Diagnostic only — never checkpointed; the
    /// `scale` bench reports it as `arbitration_phase_fraction`.
    pub fn arbitration_nanos(&self) -> u64 {
        self.arb_ns
    }

    /// The VMC's current buffers `(b_loc, b_enc, b_grp)`.
    pub fn vmc_buffers(&self) -> (f64, f64, f64) {
        self.vmc.buffers()
    }

    /// The `r_ref` currently targeted by server `s`'s EC.
    pub fn ec_r_ref(&self, s: ServerId) -> f64 {
        self.bank.r_ref(s.index())
    }

    /// The budget server `s`'s SM enforces right now:
    /// `min(CAP_LOC, granted by EM/GM)`, watts.
    pub fn sm_effective_cap(&self, s: ServerId) -> f64 {
        self.bank.effective_cap_watts(s.index())
    }

    /// The budget enclosure `e`'s EM enforces right now:
    /// `min(CAP_ENC, granted by GM)`, watts.
    pub fn em_effective_cap(&self, e: EnclosureId) -> f64 {
        self.ems[e.index()].effective_cap_watts()
    }

    /// The static caps `(CAP_LOC for s, CAP_GRP)` in watts.
    pub fn static_caps(&self, s: ServerId) -> (f64, f64) {
        (self.cap_loc[s.index()], self.cap_grp)
    }

    /// Advances the system by one tick: controllers act on the window
    /// ending now, then the simulator steps.
    pub fn tick(&mut self) {
        if self.ticks_done > 0 {
            self.act();
        }
        self.sim
            .step_sharded(&self.pool, &self.shards, &self.shard_encs);
        if let Some(trace) = &mut self.power_trace {
            trace.push(self.ticks_done, self.sim.group_power());
        }
        self.accumulate_latency_proxy();
        self.accumulate_vm_windows();
        self.ticks_done += 1;
    }

    /// Per-tick latency-proxy accumulation: an M/M/1-style delay proxy
    /// `1/(1-util)` (capped at util 0.95 to keep saturated servers from
    /// dominating the mean) summed over powered-on servers. The sum runs
    /// through the fixed-shape reduction tree over *all* servers — an
    /// off server contributes an exact `(0.0, 0)` term, which leaves
    /// every partial's bits unchanged (all live terms are ≥ 1) while
    /// keeping the combine order a function of fleet size alone. Fleets
    /// past the grain threshold farm the leaf partials out to the pool;
    /// either driver walks the identical tree, so the one per-tick delta
    /// added to `cum_latency_proxy` is bit-identical at any thread count.
    fn accumulate_latency_proxy(&mut self) {
        let n = self.models.len();
        let sim = &self.sim;
        let term = |i: usize| -> (f64, u64) {
            let s = ServerId(i);
            if sim.is_on(s) {
                let util = sim.server_utilization(s).min(0.95);
                (1.0 / (1.0 - util), 1)
            } else {
                (0.0, 0)
            }
        };
        let combine = |a: (f64, u64), b: (f64, u64)| (a.0 + b.0, a.1 + b.1);
        let (delta, on) = if n >= PAR_VM_THRESHOLD {
            reduce::tree_reduce_pool(&self.pool, n, (0.0f64, 0u64), term, combine)
        } else {
            reduce::tree_reduce(n, (0.0f64, 0u64), term, combine)
        };
        self.cum_latency_proxy += delta;
        self.latency_samples += on;
    }

    /// Runs to the configured horizon and returns the raw stats.
    pub fn run_to_horizon(&mut self) -> RunStats {
        while self.ticks_done < self.horizon {
            self.tick();
        }
        self.stats()
    }

    /// The raw stats so far.
    pub fn stats(&self) -> RunStats {
        let num_vms = self.sim.num_vms();
        // One fixed-shape tree over (delivered, demanded) pairs — a
        // struct reduction, combined component-wise.
        let (delivered, demanded) = reduce::tree_reduce(
            num_vms,
            (0.0f64, 0.0f64),
            |j| {
                (
                    self.sim.cumulative_delivered(VmId(j)),
                    self.sim.cumulative_demand(VmId(j)),
                )
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        RunStats {
            energy: self.sim.total_energy(),
            delivered_work: delivered,
            demanded_work: demanded,
            violations: self.violations,
            pstate_conflicts: self.sim.pstate_conflicts(),
            migrations: self.sim.migrations_started(),
            failovers: self.sim.failover_events(),
            mean_latency_proxy: if self.latency_samples == 0 {
                1.0
            } else {
                self.cum_latency_proxy / self.latency_samples as f64
            },
            ticks: self.ticks_done,
        }
    }

    // `%` rather than `u64::is_multiple_of` keeps the crate building on
    // the pinned MSRV (1.75); intervals are sanitized nonzero.
    #[allow(clippy::manual_is_multiple_of)]
    fn act(&mut self) {
        let t = self.ticks_done;
        // Deferred bus traffic first: delayed grant copies and expired
        // retransmission timers from earlier ticks come due before any
        // controller epoch reads the caps they update.
        if !self.bus.is_idle() {
            self.drain_bus();
        }
        // Lease expiry sweep: a granted cap whose lease has lapsed (its
        // grantor went silent — outage, lost refresh, exhausted retries)
        // reverts to the child's static cap. This replaces the
        // edge-triggered outage fallback uniformly when leases are on.
        if self.lease_ticks > 0 {
            self.expire_leases();
        }
        // Failure detector for warm standbys: runs in the sequential
        // global phase before any controller epoch, so a promotion this
        // tick already serves this tick's epochs.
        if self.redundancy.any_enabled() {
            self.redundancy_step();
        }
        let iv = self.intervals;
        if self.mask.ec && t % iv.ec == 0 {
            self.ec_epoch(iv.ec);
        }
        if t % iv.sm == 0 {
            self.sm_epoch(iv.sm);
        }
        if t % iv.em == 0 {
            self.em_epoch(iv.em);
        }
        if t % iv.gm == 0 {
            self.gm_epoch(iv.gm);
        }
        if self.mask.vmc && t % iv.vmc == 0 {
            // Wall-clock diagnostic only (never checkpointed): how much
            // of the run the VMC arbitration step costs, reported by the
            // `scale` bench as `arbitration_phase_fraction`.
            let t0 = std::time::Instant::now();
            self.vmc_epoch();
            self.arb_ns += t0.elapsed().as_nanos() as u64;
        }
        if self.elec.is_some() {
            self.elec_clamp();
        }
        // The safety sweep observes the fully settled tick: every
        // controller, the bus, and the electrical clamp have acted.
        if self.invariants_on {
            self.invariant_sweep();
        }
    }

    /// Folds the shards' buffered side effects back in after a parallel
    /// phase, in ascending shard order — ascending server or enclosure
    /// order — so telemetry replays in the order a single shard would
    /// emit it at any thread count. Fault counters merge, and the
    /// static-cap verdicts count towards `level`'s lifetime and
    /// VMC-window violation counters (a phase that judges no cap leaves
    /// its windows empty, which merge as a no-op).
    fn absorb(&mut self, outs: impl IntoIterator<Item = ShardOut>, level: BudgetLevel) {
        let (lifetime, vmc_window) = match level {
            BudgetLevel::Server => (&mut self.violations.server, &mut self.win_sm),
            BudgetLevel::Enclosure => (&mut self.violations.enclosure, &mut self.win_em),
            BudgetLevel::Group => (&mut self.violations.group, &mut self.win_gm),
        };
        for out in outs {
            self.fstats.merge(&out.fstats);
            lifetime.merge(out.win);
            vmc_window.merge(out.win);
            if let Some(r) = &mut self.recorder {
                for ev in out.telemetry {
                    r.record(ev);
                }
            }
        }
    }
}

/// The side effects one shard buffers during a parallel phase, absorbed
/// in shard order by [`Runner::absorb`] after the barrier.
#[derive(Default)]
struct ShardOut {
    fstats: FaultStats,
    telemetry: Vec<TelemetryEvent>,
    /// Static-cap violation verdicts (order-free counters).
    win: ViolationCounter,
}

/// Offline check against a static copy of the fault plan's outage
/// windows — usable from inside a worker while the injector itself is
/// carved into actuator-draw shards. [`FaultInjector::offline`] is a
/// pure scan of the same windows, so verdicts are identical.
fn offline_in(outages: &[OutageWindow], layer: ControllerLayer, index: usize, tick: u64) -> bool {
    outages.iter().any(|w| w.covers(layer, index, tick))
}

/// Minimum VM (or server) count before the per-tick accumulators, the
/// VMC demand pass, and the fleet-wide tree reductions fan out to the
/// pool — below this the barrier costs more than the loop.
const PAR_VM_THRESHOLD: usize = 64;

/// Even partition of `0..num_vms` into `k` dense ascending ranges (VMs
/// have no enclosure-alignment constraint, so a plain even split works);
/// a single range below [`PAR_VM_THRESHOLD`].
fn vm_ranges(num_vms: usize, k: usize) -> Vec<Range<usize>> {
    let k = if num_vms >= PAR_VM_THRESHOLD {
        k.max(1)
    } else {
        1
    };
    (0..k)
        .map(|p| p * num_vms / k..(p + 1) * num_vms / k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Scenario, SystemKind};
    use crate::CoordinationMode;
    use nps_traces::Mix;

    fn quick(mode: CoordinationMode) -> ExperimentResult {
        let cfg = Scenario::paper(SystemKind::BladeA, Mix::All180, mode)
            .horizon(1_200)
            .seed(7)
            .build();
        run_experiment(&cfg)
    }

    #[test]
    fn coordinated_run_saves_power_with_small_perf_loss() {
        let r = quick(CoordinationMode::Coordinated);
        assert!(
            r.comparison.power_savings_pct > 30.0,
            "savings {:.1}%",
            r.comparison.power_savings_pct
        );
        assert!(
            r.comparison.perf_loss_pct < 10.0,
            "perf loss {:.1}%",
            r.comparison.perf_loss_pct
        );
    }

    #[test]
    fn coordinated_never_races_on_the_actuator() {
        let r = quick(CoordinationMode::Coordinated);
        assert_eq!(
            r.comparison.run.pstate_conflicts, 0,
            "coordinated mode must not produce same-tick actuator races"
        );
    }

    #[test]
    fn uncoordinated_races_on_the_actuator() {
        let r = quick(CoordinationMode::Uncoordinated);
        assert!(
            r.comparison.run.pstate_conflicts > 0,
            "uncoordinated EC/SM must collide on the P-state register"
        );
    }

    #[test]
    fn parallel_epochs_engage_and_match_sequential() {
        let mut cfg = Scenario::multi_rack(
            SystemKind::BladeA,
            CoordinationMode::Coordinated,
            2,
            2,
            4,
            2,
        )
        .horizon(200)
        .seed(9)
        .build();
        let mut seq = Runner::new(&cfg);
        let a = seq.run_to_horizon();
        cfg.threads = 4;
        let mut par = Runner::new(&cfg);
        assert!(
            par.pool.threads() > 1,
            "threads=4 on a multi-rack fleet must run more than one participant"
        );
        let b = par.run_to_horizon();
        assert_eq!(a, b);
        assert_eq!(seq.snapshot(), par.snapshot());
    }

    #[test]
    fn baseline_of_identical_config_is_deterministic() {
        let a = quick(CoordinationMode::Coordinated);
        let b = quick(CoordinationMode::Coordinated);
        assert_eq!(a.baseline, b.baseline);
        assert_eq!(a.comparison, b.comparison);
    }

    #[test]
    fn vmc_only_mask_still_consolidates() {
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::VMC_ONLY)
        .horizon(1_200)
        .seed(7)
        .build();
        let r = run_experiment(&cfg);
        assert!(r.comparison.run.migrations > 0);
        // Only ~2 VMC epochs fit in this short horizon; the full-horizon
        // numbers live in the fig8 bench.
        assert!(
            r.comparison.power_savings_pct > 10.0,
            "savings {:.1}%",
            r.comparison.power_savings_pct
        );
    }

    #[test]
    fn revival_starts_fresh_measurement_windows() {
        use crate::intervals::Intervals;
        use nps_metrics::EventKind;
        use nps_metrics::TelemetryEvent;

        // Regression: powering a server back on used to refresh only the
        // EC utilization snapshot; the SM/EM/GM power snapshots kept their
        // pre-revival values. Use intervals where no SM/EM/GM epoch
        // coincides with the reviving VMC epoch, and nonzero off-power, so
        // a stale snapshot would fold the off period into the first
        // post-revival window.
        let mut cfg = Scenario::paper(
            SystemKind::ServerB,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::VMC_ONLY)
        .horizon(3_000)
        .seed(7)
        .intervals(Intervals {
            ec: 1,
            sm: 7,
            em: 11,
            gm: 13,
            vmc: 10,
        })
        .build();
        cfg.sim.off_power_watts = 40.0;
        let mut runner = Runner::new(&cfg);
        runner.enable_ring_telemetry(1 << 20);
        let mut seen_power_on = 0;
        let mut checked = 0;
        while runner.ticks_done() < cfg.horizon {
            runner.tick();
            let ring = runner.ring_telemetry().unwrap();
            let now = ring.count(EventKind::PowerOn);
            if now == seen_power_on {
                continue;
            }
            seen_power_on = now;
            // act() ran at the tick before ticks_done was incremented.
            let t = runner.ticks_done() - 1;
            let revived: Vec<usize> = ring
                .events()
                .filter_map(|e| match e {
                    TelemetryEvent::PowerOn { tick, server } if *tick == t => Some(*server),
                    _ => None,
                })
                .collect();
            for s in revived {
                // The revival refreshed the snapshots to the act-time
                // cumulative power; exactly one sim step has run since, so
                // each snapshot trails the cumulative reading by exactly
                // the last tick's power.
                let cum = runner.sim.cumulative_power(ServerId(s));
                let last = runner.sim.server_power(ServerId(s));
                let w = runner.servers[s];
                for (name, snap) in [
                    ("sm", w.snap_power_sm),
                    ("em", w.snap_power_em),
                    ("gm", w.snap_power_gm),
                ] {
                    assert!(
                        (cum - snap - last).abs() < 1e-9,
                        "stale {name} snapshot for server {s} revived at t={t}: \
                         cum={cum} snap={snap} last={last}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "scenario must revive at least one server");
    }

    #[test]
    fn no_controllers_changes_nothing() {
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::NONE)
        .horizon(600)
        .seed(7)
        .build();
        let r = run_experiment(&cfg);
        assert_eq!(r.comparison.power_savings_pct, 0.0);
        assert_eq!(r.comparison.perf_loss_pct, 0.0);
        assert_eq!(r.comparison.run.migrations, 0);
    }
}

#[cfg(test)]
mod try_new_tests {
    use super::*;
    use crate::scenarios::{Scenario, SystemKind};
    use crate::{CoordinationMode, CoreError};
    use nps_sim::EnclosureId;
    use nps_traces::Mix;

    #[test]
    fn try_new_rejects_bad_gains() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.lambda = 0.0;
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::InvalidGain { name: "lambda", .. })
        ));
        cfg.lambda = 0.8;
        cfg.beta = f64::NAN;
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::InvalidGain { name: "beta", .. })
        ));
    }

    #[test]
    fn try_new_rejects_missized_model_override() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.models_override = Some(vec![cfg.model.clone(); 3]);
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::ModelCountMismatch { models: 3, .. })
        ));
    }

    #[test]
    fn try_new_rejects_empty_traces_via_sim() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.traces.clear();
        assert!(matches!(Runner::try_new(&cfg), Err(CoreError::Sim(_))));
    }

    #[test]
    fn effective_caps_are_observable_and_bounded() {
        let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
            .horizon(300)
            .seed(3)
            .build();
        let mut runner = Runner::new(&cfg);
        runner.run_to_horizon();
        let (cap_loc, cap_grp) = runner.static_caps(ServerId(0));
        assert!(cap_loc > 0.0 && cap_grp > cap_loc);
        for i in 0..runner.sim().topology().num_servers() {
            let eff = runner.sm_effective_cap(ServerId(i));
            assert!(eff <= cap_loc + 1e-9, "server {i}: {eff} > {cap_loc}");
            assert!(eff > 0.0);
        }
        for e in 0..runner.sim().topology().num_enclosures() {
            let eff = runner.em_effective_cap(EnclosureId(e));
            assert!(eff > 0.0);
        }
    }
}
