//! Server level: the Efficiency Controller and Server Manager epochs,
//! the electrical clamp, and the sensor ingestion boundary they share.

use nps_control::{BankShard, ControllerBank, ElectricalCapper};
use nps_metrics::{
    BudgetLevel, ControllerKind, DegradationPolicy, SensorFaultKind, TelemetryEvent,
};
use nps_models::PState;
use nps_sim::par::split_ranges;
use nps_sim::{
    ActuatorDrawShard, ActuatorShard, ControllerLayer, FaultInjector, OutageWindow, Reading,
    SensorChannel, SensorDrawShard, ServerId, SimEpochView, Simulation,
};
use std::ops::Range;

use super::{offline_in, Runner, ShardOut};

/// One server's measurement-window state: the cumulative readings each
/// controller saw at its last epoch, the hold-last-good stores of the
/// per-server sensor channels, and the SM's standing P-state demand.
#[derive(Debug, Clone, Copy)]
pub(super) struct ServerWindows {
    pub(super) snap_util_ec: f64,
    pub(super) last_util_ec: f64,
    pub(super) snap_power_sm: f64,
    pub(super) last_power_sm: f64,
    pub(super) snap_power_em: f64,
    pub(super) snap_power_gm: f64,
    /// Standing SM P-state demand for the min-merge mode.
    pub(super) sm_hold: Option<PState>,
}

impl ServerWindows {
    /// Starts fresh windows for a server that was just powered on: all
    /// four cumulative snapshots, not just the EC's — a stale SM/EM/GM
    /// power snapshot would fold the whole off period into the first
    /// window after revival.
    pub(super) fn restart(&mut self, cum_util: f64, cum_power: f64) {
        self.snap_util_ec = cum_util;
        self.snap_power_sm = cum_power;
        self.snap_power_em = cum_power;
        self.snap_power_gm = cum_power;
    }
}

impl Runner {
    /// Electrical CAP clamp: every powered-on server whose P-state
    /// exceeds its fuse-level cap is clamped down. Each worker clamps its
    /// own servers, drawing the conditional actuator-jam verdict from the
    /// per-server counter stream (order-free) and buffering telemetry;
    /// the reduction replays buffers in ascending shard order, which is
    /// ascending server order.
    pub(super) fn elec_clamp(&mut self) {
        let t = self.ticks_done;
        let recording = self.recording();
        let elec = self.elec.take().expect("caller checked elec is present");
        // The clamp reads no sensor: of the per-server shard record it
        // uses only the actuator and jam-draw slices.
        let (view, mut shards) = carve_shards(
            &self.shards,
            &mut self.sim,
            &mut self.bank,
            &mut self.injector,
            SensorChannel::ServerPower,
            &mut self.servers,
        );
        let cappers: &[ElectricalCapper] = &elec;
        self.pool.for_each_mut(&mut shards, &|_, sh| {
            for i in sh.range.clone() {
                let s = ServerId(i);
                if !view.is_on(s) {
                    continue;
                }
                let cur = sh.act.pstate(s);
                let clamped = cappers[i].clamp(cur);
                if clamped == cur {
                    continue;
                }
                if sh.draw.pstate_write_blocked(i, t) {
                    sh.out.fstats.actuator_blocked += 1;
                    if recording {
                        sh.out.telemetry.push(TelemetryEvent::ActuatorFault {
                            tick: t,
                            server: i,
                            source: ControllerKind::Electrical,
                        });
                    }
                } else {
                    sh.act.set_pstate(s, clamped);
                    if recording {
                        sh.out.telemetry.push(TelemetryEvent::PStateChange {
                            tick: t,
                            server: i,
                            from: cur.index(),
                            to: clamped.index(),
                            source: ControllerKind::Electrical,
                        });
                    }
                }
            }
        });
        let (effects, outs): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .map(|sh| (sh.act.into_effects(), sh.out))
            .unzip();
        self.sim.absorb_shard_effects(effects);
        self.absorb(outs, BudgetLevel::Server);
        self.elec = Some(elec);
    }

    /// The EC epoch: each server's utilization window feeds its
    /// feedback controller, whose P-state lands on the actuator.
    pub(super) fn ec_epoch(&mut self, window: u64) {
        let t = self.ticks_done;
        let recording = self.recording();
        let merges = self.mode.merges_min_pstate();
        let (view, mut shards) = carve_shards(
            &self.shards,
            &mut self.sim,
            &mut self.bank,
            &mut self.injector,
            SensorChannel::ServerUtilization,
            &mut self.servers,
        );
        self.pool.for_each_mut(&mut shards, &|_, sh| {
            // Unpacked into locals, captures included, so the hot loop
            // keeps them in registers instead of reloading them through
            // the shard record and the closure environment after every
            // call.
            let ServerShard {
                range,
                bank,
                act,
                draw,
                sense,
                servers,
                out,
            } = sh;
            let (view, t, window, recording, merges) = (view, t, window, recording, merges);
            for (i, w) in range.clone().zip(servers.iter_mut()) {
                let s = ServerId(i);
                if !view.is_on(s) {
                    continue;
                }
                let cum = view.cumulative_utilization(s);
                let raw = (cum - w.snap_util_ec) / window.max(1) as f64;
                w.snap_util_ec = cum;
                let reading = sense.sense(i, t, raw);
                let util = ingest_buffered(
                    reading,
                    t,
                    ControllerKind::Ec,
                    i,
                    out,
                    &mut w.last_util_ec,
                    recording,
                );
                let desired = bank.ec_step(i, util);
                let applied = match w.sm_hold {
                    Some(hold) if merges => PState(desired.index().max(hold.index())),
                    _ => desired,
                };
                let before = act.pstate(s);
                if draw.pstate_write_blocked(i, t) {
                    out.fstats.actuator_blocked += 1;
                    if recording {
                        out.telemetry.push(TelemetryEvent::ActuatorFault {
                            tick: t,
                            server: i,
                            source: ControllerKind::Ec,
                        });
                    }
                } else {
                    act.set_pstate(s, applied);
                    if recording && before != applied {
                        out.telemetry.push(TelemetryEvent::PStateChange {
                            tick: t,
                            server: i,
                            from: before.index(),
                            to: applied.index(),
                            source: ControllerKind::Ec,
                        });
                    }
                }
            }
        });
        let (effects, outs): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .map(|sh| (sh.act.into_effects(), sh.out))
            .unzip();
        self.sim.absorb_shard_effects(effects);
        self.absorb(outs, BudgetLevel::Server);
    }

    /// The SM epoch. The uncoordinated SM's conditional P-state write
    /// draws its actuator-jam verdict from the per-server counter
    /// stream, which is order-free across shards, so every SM variant
    /// runs sharded.
    pub(super) fn sm_epoch(&mut self, window: u64) {
        let t = self.ticks_done;
        let recording = self.recording();
        let mask_sm = self.mask.sm;
        let coordinated = self.mode.sm_actuates_r_ref();
        let merges = self.mode.merges_min_pstate();
        let (view, mut shards) = carve_shards(
            &self.shards,
            &mut self.sim,
            &mut self.bank,
            &mut self.injector,
            SensorChannel::ServerPower,
            &mut self.servers,
        );
        let outages: &[OutageWindow] = &self.outage_windows;
        let cap_loc: &[f64] = &self.cap_loc;
        self.pool.for_each_mut(&mut shards, &|_, sh| {
            for (i, w) in sh.range.clone().zip(sh.servers.iter_mut()) {
                let s = ServerId(i);
                if !view.is_on(s) {
                    // Keep snapshots current so a later power-on starts a
                    // fresh window.
                    w.snap_power_sm = view.cumulative_power(s);
                    continue;
                }
                let cum = view.cumulative_power(s);
                let raw = (cum - w.snap_power_sm) / window.max(1) as f64;
                w.snap_power_sm = cum;
                let reading = sh.sense.sense(i, t, raw);
                let avg = ingest_buffered(
                    reading,
                    t,
                    ControllerKind::Sm,
                    i,
                    &mut sh.out,
                    &mut w.last_power_sm,
                    recording,
                );
                let violated_static = avg > cap_loc[i];
                sh.out.win.record(violated_static);
                if violated_static && recording {
                    sh.out.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Server,
                        observed_watts: avg,
                        cap_watts: cap_loc[i],
                        effective: false,
                    });
                }
                if !mask_sm {
                    continue;
                }
                if offline_in(outages, ControllerLayer::Sm, i, t) {
                    sh.out.fstats.outage_epochs += 1;
                    if recording {
                        sh.out.telemetry.push(TelemetryEvent::ControllerOutage {
                            tick: t,
                            controller: ControllerKind::Sm,
                            index: i,
                        });
                    }
                    continue;
                }
                let eff_cap = sh.bank.effective_cap_watts(i);
                if avg > eff_cap && eff_cap < cap_loc[i] && recording {
                    sh.out.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Server,
                        observed_watts: avg,
                        cap_watts: eff_cap,
                        effective: true,
                    });
                }
                if coordinated {
                    let prev_r_ref = sh.bank.r_ref(i);
                    sh.bank.sm_step_coordinated(i, avg);
                    if recording {
                        let r_ref = sh.bank.r_ref(i);
                        if r_ref != prev_r_ref {
                            sh.out.telemetry.push(TelemetryEvent::RRefUpdate {
                                tick: t,
                                server: i,
                                r_ref,
                            });
                        }
                    }
                } else {
                    let current = sh.act.pstate(s);
                    let (_, forced) = sh.bank.sm_step_uncoordinated(i, avg, current);
                    if merges {
                        w.sm_hold = forced;
                    }
                    // The race (in the non-merge mode): this write lands on
                    // the same actuator the EC writes every tick. The jam
                    // verdict comes from the per-server counter stream and
                    // is drawn only when a write actually happens.
                    if let Some(p) = forced {
                        let applied = if merges {
                            PState(p.index().max(current.index()))
                        } else {
                            p
                        };
                        if sh.draw.pstate_write_blocked(i, t) {
                            sh.out.fstats.actuator_blocked += 1;
                            if recording {
                                sh.out.telemetry.push(TelemetryEvent::ActuatorFault {
                                    tick: t,
                                    server: i,
                                    source: ControllerKind::Sm,
                                });
                            }
                        } else {
                            sh.act.set_pstate(s, applied);
                            if recording && applied != current {
                                sh.out.telemetry.push(TelemetryEvent::PStateChange {
                                    tick: t,
                                    server: i,
                                    from: current.index(),
                                    to: applied.index(),
                                    source: ControllerKind::Sm,
                                });
                            }
                        }
                    }
                }
            }
        });
        let (effects, outs): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .map(|sh| (sh.act.into_effects(), sh.out))
            .unzip();
        self.sim.absorb_shard_effects(effects);
        self.absorb(outs, BudgetLevel::Server);
    }
}

/// One worker's slice of the per-server state during an EC, SM or
/// electrical-clamp pass.
struct ServerShard<'a> {
    range: Range<usize>,
    bank: BankShard<'a>,
    act: ActuatorShard<'a>,
    /// This shard's slice of the per-server actuator-jam counter
    /// streams (order-free draws, safe to evaluate in-shard).
    draw: ActuatorDrawShard<'a>,
    /// This shard's slice of the pass's per-server sensor counter
    /// streams (order-free draws, safe to evaluate in-shard).
    sense: SensorDrawShard<'a>,
    servers: &'a mut [ServerWindows],
    out: ShardOut,
}

/// Carves the simulator, the controller bank, the fault injector's
/// per-server draw streams for `channel`, and the per-server windows
/// into one [`ServerShard`] per range.
fn carve_shards<'a>(
    ranges: &[Range<usize>],
    sim: &'a mut Simulation,
    bank: &'a mut ControllerBank,
    injector: &'a mut FaultInjector,
    channel: SensorChannel,
    servers: &'a mut [ServerWindows],
) -> (SimEpochView<'a>, Vec<ServerShard<'a>>) {
    let (view, acts) = sim.epoch_shards(ranges);
    let shards = bank
        .shards(ranges)
        .into_iter()
        .zip(acts)
        .zip(injector.draw_shards(ranges, channel))
        .zip(split_ranges(servers, ranges))
        .zip(ranges)
        .map(
            |((((bank, act), (draw, sense)), servers), range)| ServerShard {
                range: range.clone(),
                bank,
                act,
                draw,
                sense,
                servers,
                out: ShardOut::default(),
            },
        )
        .collect();
    (view, shards)
}

/// The ingestion boundary every controller input passes through: one
/// sensor reading (drawn in-shard from the slot's private counter
/// stream) gets the always-on hardening — non-finite or negative values
/// and dropped samples degrade to the last good reading. Fault and
/// degradation counters and telemetry accumulate into the shard's
/// [`ShardOut`], which the reduction absorbs in shard order.
#[inline]
pub(super) fn ingest_buffered(
    reading: Reading,
    t: u64,
    ctrl: ControllerKind,
    idx: usize,
    out: &mut ShardOut,
    last_good: &mut f64,
    recording: bool,
) -> f64 {
    // Clean physical readings are the per-server hot path; keep them
    // inline and leave fault accounting to the out-of-line remainder.
    match reading {
        Reading::Clean(v) if v.is_finite() && v >= 0.0 => {
            *last_good = v;
            v
        }
        _ => ingest_degraded(reading, t, ctrl, idx, out, last_good, recording),
    }
}

/// The fault-handling remainder of [`ingest_buffered`].
#[cold]
fn ingest_degraded(
    reading: Reading,
    t: u64,
    ctrl: ControllerKind,
    idx: usize,
    out: &mut ShardOut,
    last_good: &mut f64,
    recording: bool,
) -> f64 {
    let ShardOut {
        fstats, telemetry, ..
    } = out;
    let delivered = match reading {
        Reading::Clean(v) => Some(v),
        Reading::Noisy(v) => {
            fstats.sensor_noise += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Noise,
                });
            }
            Some(v)
        }
        Reading::Stuck(v) => {
            fstats.sensor_stuck += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Stuck,
                });
            }
            Some(v)
        }
        Reading::Dropped => {
            fstats.sensor_dropped += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Dropped,
                });
            }
            None
        }
    };
    let value = match delivered {
        Some(v) if v.is_finite() && v >= 0.0 => v,
        Some(_) => {
            fstats.clamped_inputs += 1;
            if recording {
                telemetry.push(TelemetryEvent::Degradation {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    policy: DegradationPolicy::ClampNonFinite,
                });
            }
            *last_good
        }
        None => {
            fstats.degradations += 1;
            if recording {
                telemetry.push(TelemetryEvent::Degradation {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    policy: DegradationPolicy::HoldLastGood,
                });
            }
            *last_good
        }
    };
    *last_good = value;
    value
}
