//! Enclosure level: the Enclosure Manager epoch.

use nps_control::{BankShard, GroupCapper};
use nps_metrics::{BudgetLevel, ControllerKind, DegradationPolicy, TelemetryEvent};
use nps_models::ServerModel;
use nps_sim::par::split_ranges;
use nps_sim::{
    reduce, ActuatorDrawShard, ActuatorShard, ControllerLayer, EnclosureId, OutageWindow,
    SensorDrawShard, ServerId,
};

use super::server::{ingest_buffered, ServerWindows};
use super::{offline_in, Runner, ShardOut};

/// One enclosure's measurement-window state for its EM and the GM.
#[derive(Debug, Clone, Copy)]
pub(super) struct EnclosureWindows {
    pub(super) snap_encpow_em: f64,
    pub(super) snap_encpow_gm: f64,
    pub(super) last_encpow_em: f64,
    /// EM outage edge detection: the local-cap fallback fires once per
    /// down-transition, not every skipped epoch.
    pub(super) em_was_down: bool,
}

impl Runner {
    /// The EM epoch. Every enclosure is wholly owned by one shard, so
    /// each worker runs the full per-enclosure pipeline — member window
    /// averages, enclosure ingest, violation accounting, offline
    /// fallback, and `reallocate` — against its own slices. Side effects
    /// that must land in enclosure order (telemetry, bus grant
    /// deliveries, state syncs) are buffered
    /// per enclosure and replayed ascending in the reduction; every
    /// random draw — sensors, actuators, plan-level message loss — comes
    /// from a per-instance counter stream, so nothing is pre-sampled.
    pub(super) fn em_epoch(&mut self, window: u64) {
        let t = self.ticks_done;
        let recording = self.recording();
        let mask_em = self.mask.em;
        let flows_down = self.mode.budgets_flow_down();
        let lease_free = self.lease_ticks == 0;

        /// One enclosure's ordered side effects, replayed in the
        /// reduction: its counters and buffered telemetry, then
        /// (coordinated modes) its member grant deliveries through the
        /// bus, then — for enclosures whose EM completed an online epoch
        /// — the conservation check and the state sync to its standby.
        struct EmEncRecord {
            enc: usize,
            out: ShardOut,
            grants: Option<Vec<f64>>,
            /// Whether the EM ran a full (online) epoch this tick.
            online: bool,
            /// Sum of the reallocated member budgets (conservation).
            alloc_sum: f64,
            /// The effective cap the reallocation ran against.
            eff_cap: f64,
        }
        struct EmShard<'a> {
            /// First global server id of this shard's server range.
            lo: usize,
            /// First global enclosure id of this shard's enclosure range.
            enc_lo: usize,
            bank: BankShard<'a>,
            act: ActuatorShard<'a>,
            draw: ActuatorDrawShard<'a>,
            sense: SensorDrawShard<'a>,
            servers: &'a mut [ServerWindows],
            encs: &'a mut [EnclosureWindows],
            ems: &'a mut [GroupCapper],
            power: Vec<f64>,
            caps: Vec<f64>,
            records: Vec<EmEncRecord>,
        }

        // Promotion state is frozen for the epoch (the failure detector
        // only runs in the sequential global phase), so a plain snapshot
        // is safe to share read-only across workers.
        let em_promoted_snapshot: Vec<bool> =
            (0..self.ems.len()).map(|e| self.em_promoted(e)).collect();
        let (view, acts) = self.sim.epoch_shards(&self.shards);
        let mut shards: Vec<EmShard<'_>> = self
            .bank
            .shards(&self.shards)
            .into_iter()
            .zip(acts)
            .zip(self.injector.em_draw_shards(&self.shards, &self.shard_encs))
            .zip(split_ranges(&mut self.servers, &self.shards))
            .zip(split_ranges(&mut self.encs, &self.shard_encs))
            .zip(split_ranges(&mut self.ems, &self.shard_encs))
            .zip(self.shards.iter().zip(&self.shard_encs))
            .map(
                |((((((bank, act), (draw, sense)), servers), encs), ems), (range, enc_range))| {
                    EmShard {
                        lo: range.start,
                        enc_lo: enc_range.start,
                        bank,
                        act,
                        draw,
                        sense,
                        servers,
                        encs,
                        ems,
                        power: Vec::new(),
                        caps: Vec::new(),
                        records: Vec::new(),
                    }
                },
            )
            .collect();
        let outages: &[OutageWindow] = &self.outage_windows;
        let promoted: &[bool] = &em_promoted_snapshot;
        let em_standby = self.redundancy.em_standby;
        let cap_loc: &[f64] = &self.cap_loc;
        let enc_offsets: &[usize] = &self.enc_offsets;
        let enc_members: &[ServerId] = &self.enc_members;
        let models: &[ServerModel] = &self.models;
        self.pool.for_each_mut(&mut shards, &|_, sh| {
            for ee in 0..sh.ems.len() {
                let e = sh.enc_lo + ee;
                let (m0, m1) = (enc_offsets[e], enc_offsets[e + 1]);
                let mut rec = EmEncRecord {
                    enc: e,
                    out: ShardOut::default(),
                    grants: None,
                    online: false,
                    alloc_sum: 0.0,
                    eff_cap: 0.0,
                };
                sh.power.clear();
                sh.caps.clear();
                for &s in &enc_members[m0..m1] {
                    let w = &mut sh.servers[s.index() - sh.lo];
                    let cum = view.cumulative_power(s);
                    let avg = (cum - w.snap_power_em) / window.max(1) as f64;
                    w.snap_power_em = cum;
                    sh.power.push(avg);
                }
                let w = &mut sh.encs[ee];
                let enc_cum = view.cumulative_enclosure_power(EnclosureId(e));
                let raw_total = (enc_cum - w.snap_encpow_em) / window.max(1) as f64;
                w.snap_encpow_em = enc_cum;
                let reading = sh.sense.sense(e, t, raw_total);
                let total = ingest_buffered(
                    reading,
                    t,
                    ControllerKind::Em,
                    e,
                    &mut rec.out,
                    &mut w.last_encpow_em,
                    recording,
                );
                let static_cap = sh.ems[ee].static_cap_watts();
                let violated_static = total > static_cap;
                rec.out.win.record(violated_static);
                if violated_static && recording {
                    rec.out.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Enclosure,
                        observed_watts: total,
                        cap_watts: static_cap,
                        effective: false,
                    });
                }
                if !mask_em {
                    sh.records.push(rec);
                    continue;
                }
                if offline_in(outages, ControllerLayer::Em, e, t) && !promoted[e] {
                    if !w.em_was_down {
                        w.em_was_down = true;
                        // Members just lost their parent manager: fall back
                        // to local static caps (stale dynamic grants from a
                        // dead EM could strangle them indefinitely). With
                        // leases on, the lease state machine covers this
                        // uniformly — orphaned grants simply expire; with a
                        // warm standby the detector promotes it instead, so
                        // the static-cap fallback stays out of the way.
                        if flows_down && lease_free && !em_standby {
                            for &s in &enc_members[m0..m1] {
                                sh.bank.set_granted_cap(s.index(), f64::INFINITY);
                                rec.out.fstats.degradations += 1;
                                if recording {
                                    rec.out.telemetry.push(TelemetryEvent::Degradation {
                                        tick: t,
                                        controller: ControllerKind::Sm,
                                        index: s.index(),
                                        policy: DegradationPolicy::LocalCapFallback,
                                    });
                                }
                            }
                        }
                    }
                    rec.out.fstats.outage_epochs += 1;
                    if recording {
                        rec.out.telemetry.push(TelemetryEvent::ControllerOutage {
                            tick: t,
                            controller: ControllerKind::Em,
                            index: e,
                        });
                    }
                    sh.records.push(rec);
                    continue;
                }
                w.em_was_down = false;
                rec.online = true;
                let eff_cap = sh.ems[ee].effective_cap_watts();
                rec.eff_cap = eff_cap;
                if total > eff_cap && eff_cap < static_cap && recording {
                    rec.out.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Enclosure,
                        observed_watts: total,
                        cap_watts: eff_cap,
                        effective: true,
                    });
                }
                for &s in &enc_members[m0..m1] {
                    sh.caps.push(cap_loc[s.index()]);
                }
                let allocations = sh.ems[ee].reallocate(&sh.power, &sh.caps);
                rec.alloc_sum = reduce::tree_sum(&allocations);
                if flows_down {
                    // Bus deliveries draw from the bus's own RNG stream and
                    // must land in ascending enclosure order — deferred to
                    // the reduction.
                    rec.grants = Some(allocations);
                } else if total > sh.ems[ee].effective_cap_watts() {
                    // Uncoordinated enclosure capper: on violation, directly
                    // clamp member P-states to fit their allocation — racing
                    // with the EC and SM.
                    for (k, &alloc) in allocations.iter().enumerate() {
                        let s = enc_members[m0 + k];
                        if !view.is_on(s) {
                            continue;
                        }
                        let model = &models[s.index()];
                        let forced = model
                            .pstate_for_power_budget(alloc)
                            .unwrap_or_else(|| model.deepest());
                        let before = sh.act.pstate(s);
                        if sh.draw.pstate_write_blocked(s.index(), t) {
                            rec.out.fstats.actuator_blocked += 1;
                            if recording {
                                rec.out.telemetry.push(TelemetryEvent::ActuatorFault {
                                    tick: t,
                                    server: s.index(),
                                    source: ControllerKind::Em,
                                });
                            }
                        } else {
                            sh.act.set_pstate(s, forced);
                            if recording && forced != before {
                                rec.out.telemetry.push(TelemetryEvent::PStateChange {
                                    tick: t,
                                    server: s.index(),
                                    from: before.index(),
                                    to: forced.index(),
                                    source: ControllerKind::Em,
                                });
                            }
                        }
                    }
                }
                sh.records.push(rec);
            }
        });
        // Unpack every shard to owned data first (the grant replay below
        // needs `&mut self`, which the shards' borrows would forbid).
        let mut records: Vec<EmEncRecord> = Vec::new();
        let mut effects = Vec::with_capacity(shards.len());
        for sh in shards {
            records.extend(sh.records);
            effects.push(sh.act.into_effects());
        }
        self.sim.absorb_shard_effects(effects);
        // Ascending shards own ascending enclosure ranges, so this replay
        // sends telemetry, bus grants and bus polls in enclosure order.
        for rec in records {
            self.absorb([rec.out], BudgetLevel::Enclosure);
            if rec.online && self.invariants_on {
                self.check_conservation(rec.alloc_sum, rec.eff_cap, rec.enc);
            }
            if let Some(grants) = rec.grants {
                let m0 = self.enc_offsets[rec.enc];
                for (k, &watts) in grants.iter().enumerate() {
                    let s = self.enc_members[m0 + k];
                    let slot = self.server_link[s.index()]
                        .expect("every enclosure member has a grant link");
                    self.deliver_grant(slot, watts);
                }
            }
            if rec.online {
                self.send_em_sync(rec.enc);
            }
        }
    }
}
