//! Benchmark of the power-management simulator, end to end and layer by
//! layer. See `perfbench/NOTES.md` for the workloads and metrics.
//!
//! ```sh
//! nps-perfbench --workload vmc512-t1 --seed 42 --seconds 55 --trace 0
//! ```
//!
//! Prints one human-readable report, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs untraced and traced
//! repetitions alternately, reports the per-layer metrics, and writes
//! every span to `.bench_out/`.

mod measure;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nps_core::ExperimentConfig;
use nps_sim::{tree_reduce, WorkerPool};
use nps_traces::{Corpus, EnterpriseProfile};

use measure::{run_rep, Checks, Rep, RepSpec};
use trace::Tracer;
use workload::{Workload, CLASSES, WORKLOADS};

/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A repetition builds a fresh scenario (and times set-up) once every
/// this many repetitions; the ones between reuse it. Odd, so that traced
/// and untraced repetitions both build.
const SETUP_EVERY: usize = 3;
/// Ticks of each thread count's run in the worker-pool overhead probe.
const PAR_PROBE_TICKS: u64 = 400;
/// Where spans and the scratch checkpoint go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";
/// Bytes per MB in `peak_rss_mb` and `checkpoint_mb`.
const MB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or(format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str, default: &str| flags.get(name).cloned().unwrap_or(default.into());
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |name: &str, default: &str| -> Result<u64, String> {
        get(name, default)
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let trace = match get("trace", "0").as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("seed", "42")?,
        seconds: num("seconds", "55")?,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), bytes.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// The metrics of one run, in report order.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Runs repetitions until the deadline (at least `min_reps`), checking
/// that every repetition reproduces the first one's fingerprint. Odd
/// repetitions are traced when a tracer is given. A panic counts as a
/// failed check and ends the loop; the flag returned with the completed
/// repetitions tells whether that happened.
fn repeat(
    spec: &RepSpec<'_>,
    deadline: Instant,
    min_reps: usize,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<(bool, Rep)>, bool) {
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut scenario: Option<ExperimentConfig> = None;
    loop {
        let i = reps.len();
        let traced = tracer.is_some() && i % 2 == 1;
        let tr = if traced { tracer.as_deref_mut() } else { None };
        if i.is_multiple_of(SETUP_EVERY) {
            // Drop the old scenario before building the next one, so that
            // the peak resident set holds one scenario, not two.
            scenario = None;
        }
        let rep = catch_unwind(AssertUnwindSafe(|| {
            run_rep(spec, &mut scenario, checks, tr, i as u32)
        }));
        let rep = match rep {
            Ok(rep) => rep,
            Err(p) => {
                checks.check(false, || {
                    format!("repetition {i} panicked: {}", panic_message(&*p))
                });
                return (reps, true);
            }
        };
        if let Some((_, first)) = reps.first() {
            checks.check(rep.fingerprint == first.fingerprint, || {
                format!(
                    "repetition {i} fingerprint {} differs from repetition 0's {}",
                    rep.fingerprint, first.fingerprint
                )
            });
        }
        let ticks: Vec<f64> = rep.tick_ns.iter().map(|&ns| ns as f64).collect();
        println!(
            "rep {i}{}: setup {}, run {:.4} s, tick p50 {:.1} us, fingerprint {}",
            if traced { " (traced)" } else { "" },
            rep.setup_s.map_or("reused".into(), |s| format!("{s:.4} s")),
            rep.run_s,
            median(&ticks) / 1e3,
            rep.fingerprint
        );
        reps.push((traced, rep));
        if reps.len() >= min_reps && Instant::now() >= deadline {
            return (reps, false);
        }
    }
}

/// The end-to-end metrics (`--trace 0`).
fn end_to_end(args: &Args, ckpt: &Path, checks: &mut Checks) -> Option<Report> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let spec = RepSpec {
        workload: w,
        seed: args.seed,
        threads: w.threads,
        horizon: w.horizon,
        mid_run_checkpoints: w.chaos,
        checkpoint_path: ckpt,
    };
    let (reps, panicked) = repeat(&spec, deadline, MIN_REPS, checks, None);
    let reps: Vec<Rep> = reps.into_iter().map(|(_, r)| r).collect();
    let first = reps.first()?;

    // The reference run: other thread count, no mid-run checkpoints. Its
    // outputs must be bit-identical to the measured runs'.
    let reference = RepSpec {
        threads: w.reference_threads,
        mid_run_checkpoints: false,
        ..spec
    };
    if panicked {
        checks.check(false, || "reference run skipped after a panic".into());
    } else {
        match catch_unwind(AssertUnwindSafe(|| {
            run_rep(&reference, &mut None, checks, None, u32::MAX)
        })) {
            Ok(r) => checks.check(r.fingerprint == first.fingerprint, || {
                format!(
                    "reference run ({} threads, no mid-run checkpoints) fingerprint {} differs from {}",
                    w.reference_threads, r.fingerprint, first.fingerprint
                )
            }),
            Err(p) => checks.check(false, || {
                format!("reference run panicked: {}", panic_message(&*p))
            }),
        }
        println!(
            "reference run at {} thread(s) checked against {}",
            w.reference_threads, first.fingerprint
        );
    }

    // Co-tenants on the shared host only ever add time, in phases lasting
    // seconds to minutes, so a median over repetitions jumps between
    // phases. The host-time metrics therefore take each step's fastest
    // time over the run's repetitions: per tick position, per mid-run
    // checkpoint, per set-up and per checkpoint stage.
    let fastest = |series: Vec<Vec<f64>>| -> Vec<f64> {
        let mut out = series[0].clone();
        for s in &series[1..] {
            out.iter_mut().zip(s).for_each(|(o, &x)| *o = o.min(x));
        }
        out
    };
    let ticks = fastest(
        reps.iter()
            .map(|r| r.tick_ns.iter().map(|&ns| ns as f64 / 1e9).collect())
            .collect(),
    );
    let mid_run_trips = fastest(
        reps.iter()
            .map(|r| r.mid_run_trips.iter().map(|t| t.seconds()).collect())
            .collect(),
    );
    let run_s: f64 = ticks.iter().chain(&mid_run_trips).sum();
    let min = |it: &mut dyn Iterator<Item = f64>| it.fold(f64::INFINITY, f64::min);
    let setup_s = min(&mut reps.iter().filter_map(|r| r.setup_s));
    let trips = || {
        reps.iter()
            .flat_map(|r| r.mid_run_trips.iter().chain(&r.final_trips))
    };
    let checkpoint_s: f64 = (0..4)
        .map(|stage| min(&mut trips().map(|t| t.stages_s[stage])))
        .sum();
    let bytes: Vec<f64> = trips().map(|t| t.bytes as f64).collect();
    let mut report = Report {
        metrics: Vec::new(),
    };
    report.push("setup_s", setup_s, "s");
    report.push("run_s", run_s, "s");
    report.push(
        "ns_per_server_tick",
        run_s * 1e9 / (w.horizon as f64 * w.servers() as f64),
        "ns",
    );
    report.push("tick_p50_us", median(&ticks) * 1e6, "us");
    report.push("peak_rss_mb", peak_rss_bytes() / MB, "MB");
    report.push("checkpoint_ms", checkpoint_s * 1e3, "ms");
    report.push("checkpoint_mb", median(&bytes) / MB, "MB");
    report.push("sim_power_w", first.power_w(), "W");
    report.push("sim_perf_loss_pct", first.perf_loss_pct(), "%");
    report.push("sim_violation_pct", first.violation_pct(), "%");
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    println!(
        "{} repetitions; whole-repetition run_s median {:.4} s, fastest {:.4} s",
        reps.len(),
        median(&runs),
        min(&mut runs.iter().copied()),
    );
    Some(report)
}

/// Tick times (us) by epoch class of the tick spans named `name`.
fn class_ticks(tracer: &Tracer, name: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        if let Some(c) = s.class {
            out.entry(c).or_default().push(s.dur_ns() as f64 / 1e3);
        }
    }
    out
}

/// Marginal host cost (us) of each slower controller's epoch, solved from
/// the class medians: a class's median minus the `ec` median minus the
/// already-known costs of its other epochs.
fn marginal_epoch_us(class_median: &BTreeMap<&str, f64>) -> BTreeMap<&'static str, f64> {
    let mut known: BTreeMap<&'static str, f64> = BTreeMap::new();
    let Some(&base) = class_median.get("ec") else {
        return known;
    };
    for layer in ["sm", "em", "gm", "vmc"] {
        let solved = CLASSES.iter().find_map(|c| {
            let layers: Vec<&str> = c.split('-').skip(1).collect();
            let others_known = layers.iter().all(|l| *l == layer || known.contains_key(l));
            if !layers.contains(&layer) || !others_known {
                return None;
            }
            let med = class_median.get(c)?;
            let others: f64 = layers
                .iter()
                .filter(|l| **l != layer)
                .map(|l| known[l])
                .sum();
            Some(med - base - others)
        });
        if let Some(cost) = solved {
            known.insert(layer, cost);
        }
    }
    known
}

/// Median duration (ns) of the spans named `name`.
fn span_median_ns(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations(name))
}

/// Times the layer entry points that need no mid-run state.
fn standalone_probes(args: &Args, tracer: &mut Tracer, run: u32) {
    let w = args.workload;
    let n = w.servers();
    let len = (w.horizon as usize).max(1_000);
    let profiles = EnterpriseProfile::default_sites();
    for _ in 0..3 {
        let traces = tracer.time(run, None, "probe.traces.build", || {
            Corpus::from_profiles(&profiles, n.div_ceil(profiles.len()), len, args.seed)
                .into_traces()
        });
        std::hint::black_box(traces);
    }

    let pool = WorkerPool::new(2);
    for _ in 0..2_000 {
        tracer.time(run, None, "probe.sim.par.forkjoin", || {
            pool.execute(2, &|k| {
                std::hint::black_box(k);
            })
        });
    }
    drop(pool);

    let xs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    for _ in 0..500 {
        tracer.time(run, None, "probe.sim.reduce.tree_sum", || {
            std::hint::black_box(tree_reduce(n, 0.0f64, |i| xs[i], |a, b| a + b))
        });
    }

    // Worker-pool cost per tick: the same short run at 1 and 2 threads.
    for (threads, name) in [(1, "probe.par.tick.t1"), (2, "probe.par.tick.t2")] {
        let cfg = w.scenario(args.seed, threads, PAR_PROBE_TICKS).build();
        let mut runner = nps_core::Runner::new(&cfg);
        for k in 0..PAR_PROBE_TICKS {
            let a = Instant::now();
            runner.tick();
            let b = Instant::now();
            tracer.record(run, None, name, Some(w.class_of(k)), a, b);
        }
    }
}

/// The per-layer metrics (`--trace 1`).
fn per_layer(args: &Args, ckpt: &Path, checks: &mut Checks, origin: Instant) -> Option<Report> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let spec = RepSpec {
        workload: w,
        seed: args.seed,
        threads: w.threads,
        horizon: w.horizon,
        mid_run_checkpoints: w.chaos,
        checkpoint_path: ckpt,
    };
    let mut tracer = Tracer::new(origin);
    let (reps, _) = repeat(&spec, deadline, 2, checks, Some(&mut tracer));
    standalone_probes(args, &mut tracer, reps.len() as u32);

    let run_s = |traced: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r.run_s)
            .collect();
        median(&v)
    };
    let (_, last) = reps.iter().rev().find(|(t, _)| *t)?;
    let plan = reps.iter().find_map(|(_, r)| r.plan.as_ref())?;
    let classes = class_ticks(&tracer, "tick");
    let class_median: BTreeMap<&str, f64> = classes.iter().map(|(c, v)| (*c, median(v))).collect();
    let marginal = marginal_epoch_us(&class_median);
    let par_ec = |name: &str| {
        class_ticks(&tracer, name)
            .get("ec")
            .map_or(0.0, |v| median(v))
    };

    let mut r = Report {
        metrics: Vec::new(),
    };
    r.push(
        "traces.build_s",
        span_median_ns(&tracer, "probe.traces.build") / 1e9,
        "s",
    );
    r.push(
        "core.runner_new_s",
        span_median_ns(&tracer, "setup.runner_new") / 1e9,
        "s",
    );
    for c in CLASSES {
        let v = classes.get(c).cloned().unwrap_or_default();
        r.push(format!("core.tick_us.{c}"), median(&v), "us");
        r.push(format!("core.tick_us.{c}.p99"), quantile(&v, 0.99), "us");
        r.push(format!("core.tick_us.{c}.n"), v.len() as f64, "count");
    }
    for (metric, span) in [
        ("core.snapshot_ms", "checkpoint.snapshot"),
        ("core.save_ms", "checkpoint.save"),
        ("core.load_ms", "checkpoint.load"),
        ("core.resume_ms", "checkpoint.resume"),
    ] {
        r.push(metric, span_median_ns(&tracer, span) / 1e6, "ms");
    }
    let last_trip = last.final_trips.last().expect("final round-trip");
    r.push("core.checkpoint_bytes", last_trip.bytes as f64, "bytes");
    r.push(
        "control.ec_pass_us",
        span_median_ns(&tracer, "probe.control.ec_pass") / 1e3,
        "us",
    );
    r.push(
        "control.sm_pass_us",
        span_median_ns(&tracer, "probe.control.sm_pass") / 1e3,
        "us",
    );
    let epoch = |l: &str| marginal.get(l).copied().unwrap_or(0.0);
    r.push("control.sm_epoch_us", epoch("sm"), "us");
    r.push("control.em_epoch_us", epoch("em"), "us");
    r.push("control.gm_epoch_us", epoch("gm"), "us");
    r.push(
        "opt.vmc_plan_ms",
        span_median_ns(&tracer, "probe.opt.vmc_plan") / 1e6,
        "ms",
    );
    r.push("opt.vmc_epoch_us", epoch("vmc"), "us");
    r.push("opt.plan_migrations", plan.migrations as f64, "count");
    r.push("opt.plan_forced", plan.forced as f64, "count");
    r.push(
        "sim.step_us",
        span_median_ns(&tracer, "probe.sim.step") / 1e3,
        "us",
    );
    r.push("sim.migrations", last.stats.migrations as f64, "count");
    r.push(
        "sim.pstate_conflicts",
        last.stats.pstate_conflicts as f64,
        "count",
    );
    r.push(
        "sim.par.forkjoin_us",
        span_median_ns(&tracer, "probe.sim.par.forkjoin") / 1e3,
        "us",
    );
    r.push(
        "sim.par.overhead_us_per_tick",
        par_ec("probe.par.tick.t2") - par_ec("probe.par.tick.t1"),
        "us",
    );
    r.push(
        "sim.reduce.tree_sum_us",
        span_median_ns(&tracer, "probe.sim.reduce.tree_sum") / 1e3,
        "us",
    );
    let f = &last.faults;
    r.push("sim.bus.messages_lost", f.messages_lost as f64, "count");
    r.push("sim.bus.grant_retries", f.grant_retries as f64, "count");
    r.push(
        "sim.bus.duplicates_dropped",
        f.duplicates_dropped as f64,
        "count",
    );
    r.push("sim.bus.stale_rejected", f.stale_rejected as f64, "count");
    r.push("sim.bus.leases_expired", f.leases_expired as f64, "count");
    r.push("sim.faults.injected", f.total_faults() as f64, "count");
    r.push("sim.faults.degradations", f.degradations as f64, "count");
    let red = &last.redundancy;
    r.push("sim.redundancy.promotions", red.promotions as f64, "count");
    r.push("sim.redundancy.fenced", red.fenced as f64, "count");
    r.push(
        "sim.redundancy.sync_apply_ratio",
        red.syncs_applied as f64 / red.syncs_sent.max(1) as f64,
        "ratio",
    );
    r.push(
        "metrics.invariant_checks",
        last.invariants.checks as f64,
        "count",
    );
    r.push(
        "metrics.invariant_violations",
        last.invariants.total_violations() as f64,
        "count",
    );
    r.push(
        "trace.overhead_pct",
        100.0 * (run_s(true) / run_s(false) - 1.0),
        "%",
    );

    println!("span self time (name, count, total ms, self ms):");
    for (name, (count, total, own)) in tracer.self_times() {
        println!(
            "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let spans = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    match tracer.write_jsonl(&spans) {
        Ok(()) => println!(
            "wrote {} spans to {}",
            tracer.spans().len(),
            spans.display()
        ),
        Err(e) => checks.check(false, || format!("writing {}: {e}", spans.display())),
    }
    Some(r)
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "nps-perfbench: {e}\nusage: nps-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} servers={} threads={} horizon={} host_cpus={cpus}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.servers(),
        w.threads,
        w.horizon
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("nps-perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let ckpt = PathBuf::from(OUT_DIR).join(format!("{}-{}.ckpt.json", w.name, std::process::id()));
    let mut checks = Checks::default();
    let report = if args.trace {
        per_layer(&args, &ckpt, &mut checks, origin)
    } else {
        end_to_end(&args, &ckpt, &mut checks)
    };
    let _ = std::fs::remove_file(&ckpt);
    let Some(report) = report else {
        eprintln!("nps-perfbench: no repetition completed");
        std::process::exit(1);
    };
    for (name, value, _) in &report.metrics {
        checks.check(value.is_finite(), || format!("metric {name} is {value}"));
    }

    println!("{:<36} {:>18}  unit", "metric", "value");
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>18.6}  {unit}");
    }
    println!(
        "{:<36} {:>18.6}  fraction ({} of {} checks failed)",
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(",")
    );
}
