//! One repetition of a workload: set-up, the timed tick loop, checkpoint
//! round-trips, output checks, and (when tracing) the mid-run layer
//! probes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use nps_control::ControllerBank;
use nps_core::{ExperimentConfig, Runner, RunnerSnapshot};
use nps_metrics::{FaultStats, InvariantStats, RunStats};
use nps_opt::{ClusterContext, Vmc};
use nps_sim::{RedundancyStats, ServerId, VmId};

use crate::trace::Tracer;
use crate::workload::{Workload, CHECKPOINT_EVERY};

/// Checkpoint round-trips after the run of every repetition.
const FINAL_ROUND_TRIPS: usize = 3;

/// Output checks: each one counts as attempted, and a failing one is
/// printed and counted as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }
}

/// Stage times (s) of one `snapshot → save → load → resume` round-trip,
/// in that order, and the checkpoint's file size.
pub struct RoundTrip {
    pub stages_s: [f64; 4],
    pub bytes: u64,
}

impl RoundTrip {
    pub fn seconds(&self) -> f64 {
        self.stages_s.iter().sum()
    }
}

/// Counts reported by the mid-run `Vmc::plan` probe.
pub struct PlanCounts {
    pub migrations: usize,
    pub forced: usize,
}

pub struct Rep {
    /// `Scenario::build` + `Runner::new`, for a repetition that built its
    /// scenario; `None` when it reused the previous repetition's.
    pub setup_s: Option<f64>,
    /// Wall-clock from tick 0 to the horizon, less the resume checks and
    /// the probes.
    pub run_s: f64,
    /// Host ns of each `Runner::tick` call, indexed by ticks done.
    pub tick_ns: Vec<u64>,
    /// The chaos workload's round-trips inside the run, in tick order.
    pub mid_run_trips: Vec<RoundTrip>,
    /// The round-trips after the run.
    pub final_trips: Vec<RoundTrip>,
    pub stats: RunStats,
    pub faults: FaultStats,
    pub redundancy: RedundancyStats,
    pub invariants: InvariantStats,
    pub fingerprint: String,
    pub plan: Option<PlanCounts>,
}

impl Rep {
    pub fn power_w(&self) -> f64 {
        self.stats.mean_power()
    }

    pub fn perf_loss_pct(&self) -> f64 {
        100.0 * (1.0 - self.stats.delivery_ratio())
    }

    /// Violated capping intervals over intervals checked, SM+EM+GM, in %.
    pub fn violation_pct(&self) -> f64 {
        let v = &self.stats.violations;
        let levels = [&v.server, &v.enclosure, &v.group];
        let violated: u64 = levels.iter().map(|c| c.violated()).sum();
        let checked: u64 = levels.iter().map(|c| c.intervals()).sum();
        100.0 * violated as f64 / checked.max(1) as f64
    }
}

/// What one repetition runs.
pub struct RepSpec<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub threads: usize,
    pub horizon: u64,
    /// Round-trip a checkpoint every [`CHECKPOINT_EVERY`] ticks.
    pub mid_run_checkpoints: bool,
    pub checkpoint_path: &'a Path,
}

/// FNV-1a over `parts`, hex-encoded (the `chaos_soak` recipe).
fn fnv1a(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark outputs serialize")
}

/// Times one checkpoint round-trip and returns it with the resumed runner.
fn round_trip(
    cfg: &ExperimentConfig,
    runner: &mut Runner,
    path: &Path,
    tracer: &mut Option<&mut Tracer>,
    run: u32,
    parent: Option<usize>,
) -> (RoundTrip, Runner) {
    let t0 = Instant::now();
    let snap = runner.snapshot();
    let t1 = Instant::now();
    snap.save(path).expect("checkpoint save");
    let t2 = Instant::now();
    let loaded = RunnerSnapshot::load(path).expect("checkpoint load");
    let t3 = Instant::now();
    let resumed = Runner::resume(cfg, &loaded).expect("checkpoint resume");
    let t4 = Instant::now();
    if let Some(tr) = tracer.as_deref_mut() {
        let id = tr.record(run, parent, "checkpoint", None, t0, t4);
        tr.record(run, Some(id), "checkpoint.snapshot", None, t0, t1);
        tr.record(run, Some(id), "checkpoint.save", None, t1, t2);
        tr.record(run, Some(id), "checkpoint.load", None, t2, t3);
        tr.record(run, Some(id), "checkpoint.resume", None, t3, t4);
    }
    let rt = RoundTrip {
        stages_s: [t1 - t0, t2 - t1, t3 - t2, t4 - t3].map(|d| d.as_secs_f64()),
        bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
    };
    (rt, resumed)
}

/// Checks that the resumed runner serializes to the saved bytes, and
/// returns those bytes.
fn verify_resume(resumed: &mut Runner, path: &Path, checks: &mut Checks, k: u64) -> Vec<u8> {
    let saved = std::fs::read(path).expect("checkpoint read back");
    let again = to_json(&resumed.snapshot());
    checks.check(again.as_bytes() == saved.as_slice(), || {
        format!("resumed runner at tick {k} does not serialize to the saved checkpoint")
    });
    saved
}

/// Calls each crate's public entry point on the runner's mid-run state.
fn layer_probes(
    cfg: &ExperimentConfig,
    runner: &Runner,
    tr: &mut Tracer,
    run: u32,
    parent: Option<usize>,
) -> PlanCounts {
    const REPEATS: usize = 15;
    let sim = runner.sim();
    let n = sim.topology().num_servers();
    let caps: Vec<f64> = (0..n).map(|i| runner.static_caps(ServerId(i)).0).collect();
    let utils: Vec<f64> = (0..n)
        .map(|i| sim.server_utilization(ServerId(i)))
        .collect();
    let powers: Vec<f64> = (0..n).map(|i| sim.server_power(ServerId(i))).collect();
    let mut bank =
        ControllerBank::new(sim.model_table().clone(), cfg.lambda, cfg.beta, 0.75, &caps);
    for _ in 0..REPEATS {
        tr.time(run, parent, "probe.control.ec_pass", || {
            for (i, &u) in utils.iter().enumerate() {
                black_box(bank.ec_step(i, u));
            }
        });
    }
    for _ in 0..REPEATS {
        tr.time(run, parent, "probe.control.sm_pass", || {
            for (i, &p) in powers.iter().enumerate() {
                black_box(bank.sm_step_coordinated(i, p));
            }
        });
    }

    let models = cfg.server_models();
    let cap_enc = cfg.budgets.enclosure_caps(&cfg.model, &cfg.topology);
    let demands: Vec<f64> = (0..sim.num_vms())
        .map(|j| sim.real_vm_utilization(VmId(j)))
        .collect();
    let ctx = ClusterContext {
        topo: sim.topology(),
        models: &models,
        current: sim.placement(),
        cap_loc: &caps,
        cap_enc: &cap_enc,
        cap_grp: runner.static_caps(ServerId(0)).1,
    };
    let vmc = Vmc::new(cfg.vmc);
    let mut plan = None;
    for _ in 0..3 {
        plan = Some(tr.time(run, parent, "probe.opt.vmc_plan", || {
            vmc.plan(black_box(&demands), &ctx)
        }));
    }
    let plan = plan.expect("planned at least once");

    let mut clone = sim.clone();
    for _ in 0..REPEATS {
        tr.time(run, parent, "probe.sim.step", || clone.run(1));
    }
    PlanCounts {
        migrations: plan.migrations.len(),
        forced: plan.forced_placements,
    }
}

/// Runs one repetition on the scenario in `scenario`, building it first
/// when there is none. Building is the costly part of set-up (trace
/// synthesis), so the caller keeps a built scenario for several
/// repetitions: the run loop then gets more repetitions per second.
/// Panics propagate to the caller, which counts the repetition's
/// remaining checks as failed.
pub fn run_rep(
    spec: &RepSpec<'_>,
    scenario: &mut Option<ExperimentConfig>,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
    run: u32,
) -> Rep {
    let w = spec.workload;
    let rep_span = tracer.as_deref_mut().map(|tr| tr.open(run, None, "rep"));

    let t0 = Instant::now();
    let built = scenario.is_none();
    let cfg =
        &*scenario.get_or_insert_with(|| w.scenario(spec.seed, spec.threads, spec.horizon).build());
    let t1 = Instant::now();
    let mut runner = Runner::new(cfg);
    let t2 = Instant::now();
    if let Some(tr) = tracer.as_deref_mut() {
        let id = tr.record(run, rep_span, "setup", None, t0, t2);
        if built {
            tr.record(run, Some(id), "setup.scenario_build", None, t0, t1);
        }
        tr.record(run, Some(id), "setup.runner_new", None, t1, t2);
    }
    let setup_s = built.then(|| (t2 - t0).as_secs_f64());

    let run_span = tracer
        .as_deref_mut()
        .map(|tr| tr.open(run, rep_span, "run"));
    let mut tick_ns = Vec::with_capacity(spec.horizon as usize);
    let mut mid_run_trips = Vec::new();
    let mut plan = None;
    let mut excluded = 0.0;
    let start = Instant::now();
    for k in 0..spec.horizon {
        if spec.mid_run_checkpoints && k > 0 && k % CHECKPOINT_EVERY == 0 {
            let (rt, mut resumed) = round_trip(
                cfg,
                &mut runner,
                spec.checkpoint_path,
                &mut tracer,
                run,
                run_span,
            );
            let v0 = Instant::now();
            verify_resume(&mut resumed, spec.checkpoint_path, checks, k);
            drop(std::mem::replace(&mut runner, resumed));
            let v1 = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(run, run_span, "verify", None, v0, v1);
            }
            excluded += (v1 - v0).as_secs_f64();
            mid_run_trips.push(rt);
        }
        if k == spec.horizon / 2 {
            if let Some(tr) = tracer.as_deref_mut() {
                let p0 = Instant::now();
                let id = tr.open(run, run_span, "probes");
                plan = Some(layer_probes(cfg, &runner, tr, run, Some(id)));
                tr.close(id);
                excluded += p0.elapsed().as_secs_f64();
            }
        }
        let a = Instant::now();
        runner.tick();
        let b = Instant::now();
        tick_ns.push((b - a).as_nanos() as u64);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record(run, run_span, "tick", Some(w.class_of(k)), a, b);
        }
    }
    let run_s = start.elapsed().as_secs_f64() - excluded;
    if let Some(tr) = tracer.as_deref_mut() {
        tr.close(run_span.expect("traced"));
    }

    // Final round-trips, outside the run interval, each on the runner the
    // previous one resumed: they time the checkpoint on every workload and
    // supply the fingerprint's snapshot bytes.
    let stats = runner.stats();
    let faults = runner.fault_stats();
    let redundancy = runner.redundancy_stats();
    let invariants = runner.invariant_stats();
    let mut saved = Vec::new();
    let mut final_trips = Vec::new();
    for _ in 0..FINAL_ROUND_TRIPS {
        let (rt, mut resumed) = round_trip(
            cfg,
            &mut runner,
            spec.checkpoint_path,
            &mut tracer,
            run,
            rep_span,
        );
        saved = verify_resume(&mut resumed, spec.checkpoint_path, checks, spec.horizon);
        runner = resumed;
        final_trips.push(rt);
    }
    let fingerprint = fnv1a(&[
        to_json(&stats).as_bytes(),
        to_json(&faults).as_bytes(),
        to_json(&redundancy).as_bytes(),
        to_json(&invariants).as_bytes(),
        &saved,
    ]);
    if let Some(tr) = tracer {
        tr.close(rep_span.expect("traced"));
    }

    let rep = Rep {
        setup_s,
        run_s,
        tick_ns,
        mid_run_trips,
        final_trips,
        stats,
        faults,
        redundancy,
        invariants,
        fingerprint,
        plan,
    };
    let outputs = [
        rep.stats.energy,
        rep.stats.delivered_work,
        rep.stats.demanded_work,
        rep.stats.mean_latency_proxy,
        rep.power_w(),
        rep.perf_loss_pct(),
        rep.violation_pct(),
        rep.setup_s.unwrap_or(0.0),
        rep.run_s,
    ];
    checks.check(outputs.iter().all(|x| x.is_finite()), || {
        format!("non-finite output in run {run}: {outputs:?}")
    });
    checks.check(rep.stats.ticks == spec.horizon, || {
        format!(
            "run {run} simulated {} of {} ticks",
            rep.stats.ticks, spec.horizon
        )
    });
    if w.chaos {
        checks.check(
            rep.invariants.checks > 0 && rep.invariants.is_clean(),
            || {
                format!(
                    "invariant monitor not clean in run {run}: {}",
                    rep.invariants
                )
            },
        );
    } else {
        // Coordination leaves one P-state writer per server; only the
        // chaos workload adds a second one (the electrical clamp).
        checks.check(rep.stats.pstate_conflicts == 0, || {
            format!(
                "{} P-state conflicts in run {run} under coordination",
                rep.stats.pstate_conflicts
            )
        });
    }
    rep
}
