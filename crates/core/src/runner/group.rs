//! Group level: the Group Manager's window fan-out and arbitration.

use nps_metrics::{BudgetLevel, ControllerKind, DegradationPolicy, TelemetryEvent};
use nps_sim::par::split_ranges;
use nps_sim::{reduce, ControllerLayer, EnclosureId, SensorDrawShard, ServerId};

use super::enclosure::EnclosureWindows;
use super::server::{ingest_buffered, ServerWindows};
use super::{Runner, ShardOut};

/// One GM child's sensor state (enclosures first, then standalone
/// servers).
#[derive(Debug, Clone, Copy)]
pub(super) struct GmChildWindow {
    /// Hold-last-good store of the child's power channel.
    pub(super) last: f64,
    /// The hardened window average of the current GM epoch.
    pub(super) avg: f64,
}

impl Runner {
    pub(super) fn gm_epoch(&mut self, window: u64) {
        self.gm_window_fanout(window);
        self.gm_arbitrate();
    }

    /// GM window pass: stores each child's *hardened* window-average
    /// power (enclosures first, then standalone servers) in its
    /// [`GmChildWindow`] and advances the GM snapshots. Every sensor draw
    /// comes from that child's private counter stream, so the result does
    /// not depend on the partition. Each shard's enclosures and
    /// standalone servers lie inside its server range (the standalone
    /// tail is dense after the blade region). The ingest order is *all*
    /// enclosures then *all* standalones, so each shard buffers its side
    /// effects in two [`ShardOut`]s that the reduction absorbs in that
    /// order.
    fn gm_window_fanout(&mut self, window: u64) {
        let t = self.ticks_done;
        let recording = self.recording();
        let num_enclosures = self.ems.len();

        struct GmShard<'a> {
            /// First global server id of this shard's server range.
            lo: usize,
            /// First global enclosure id of this shard's enclosure range.
            enc_lo: usize,
            /// First standalone-child ordinal of this shard.
            sa_lo: usize,
            sense_enc: SensorDrawShard<'a>,
            sense_sa: SensorDrawShard<'a>,
            servers: &'a mut [ServerWindows],
            encs: &'a mut [EnclosureWindows],
            enc_children: &'a mut [GmChildWindow],
            sa_children: &'a mut [GmChildWindow],
            out: ShardOut,
            out_sa: ShardOut,
        }

        let view = self.sim.epoch_view();
        let (enc_children, sa_children) = self.gm_children.split_at_mut(num_enclosures);
        let mut shards: Vec<GmShard<'_>> = self
            .injector
            .gm_child_shards(&self.shard_encs, &self.shard_sas)
            .into_iter()
            .zip(split_ranges(&mut self.servers, &self.shards))
            .zip(split_ranges(&mut self.encs, &self.shard_encs))
            .zip(split_ranges(enc_children, &self.shard_encs))
            .zip(split_ranges(sa_children, &self.shard_sas))
            .enumerate()
            .map(
                |(k, (((((sense_enc, sense_sa), servers), encs), enc_children), sa_children))| {
                    GmShard {
                        lo: self.shards[k].start,
                        enc_lo: self.shard_encs[k].start,
                        sa_lo: self.shard_sas[k].start,
                        sense_enc,
                        sense_sa,
                        servers,
                        encs,
                        enc_children,
                        sa_children,
                        out: ShardOut::default(),
                        out_sa: ShardOut::default(),
                    }
                },
            )
            .collect();
        let enc_offsets: &[usize] = &self.enc_offsets;
        let enc_members: &[ServerId] = &self.enc_members;
        let standalone: &[ServerId] = &self.standalone_ids;
        self.pool.for_each_mut(&mut shards, &|_, sh| {
            for (ee, (w, child)) in sh
                .encs
                .iter_mut()
                .zip(sh.enc_children.iter_mut())
                .enumerate()
            {
                let e = sh.enc_lo + ee;
                for &s in &enc_members[enc_offsets[e]..enc_offsets[e + 1]] {
                    // Members only warm the per-server snapshot here;
                    // the GM reads the enclosure total, not their average.
                    sh.servers[s.index() - sh.lo].snap_power_gm = view.cumulative_power(s);
                }
                let enc_cum = view.cumulative_enclosure_power(EnclosureId(e));
                let raw = (enc_cum - w.snap_encpow_gm) / window.max(1) as f64;
                w.snap_encpow_gm = enc_cum;
                let reading = sh.sense_enc.sense(e, t, raw);
                child.avg = ingest_buffered(
                    reading,
                    t,
                    ControllerKind::Gm,
                    e,
                    &mut sh.out,
                    &mut child.last,
                    recording,
                );
            }
            for (j, child) in sh.sa_children.iter_mut().enumerate() {
                let ordinal = sh.sa_lo + j;
                let s = standalone[ordinal];
                let w = &mut sh.servers[s.index() - sh.lo];
                let cum = view.cumulative_power(s);
                let raw = (cum - w.snap_power_gm) / window.max(1) as f64;
                w.snap_power_gm = cum;
                let reading = sh.sense_sa.sense(ordinal, t, raw);
                child.avg = ingest_buffered(
                    reading,
                    t,
                    ControllerKind::Gm,
                    num_enclosures + ordinal,
                    &mut sh.out_sa,
                    &mut child.last,
                    recording,
                );
            }
        });
        let (outs, outs_sa): (Vec<_>, Vec<_>) =
            shards.into_iter().map(|sh| (sh.out, sh.out_sa)).unzip();
        self.absorb(outs, BudgetLevel::Group);
        self.absorb(outs_sa, BudgetLevel::Group);
    }

    /// The caller-side remainder of a GM epoch: the window pass already
    /// sensed and hardened every child's average, so arbitration is
    /// RNG-free apart from the GM outage check — sum, check the group
    /// cap, reallocate, deliver.
    fn gm_arbitrate(&mut self) {
        let t = self.ticks_done;
        // Children: enclosures first, then standalone servers.
        let num_enclosures = self.ems.len();
        self.scratch_consumption.clear();
        self.scratch_consumption
            .extend(self.gm_children.iter().map(|c| c.avg));
        let group_total = reduce::tree_sum(&self.scratch_consumption);
        let violated_static = group_total > self.cap_grp;
        self.violations.group.record(violated_static);
        self.win_gm.record(violated_static);
        if violated_static {
            let cap = self.cap_grp;
            self.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: cap,
                effective: false,
            });
        }
        if !self.mask.gm {
            return;
        }
        if self.injector.offline(ControllerLayer::Gm, 0, t) && !self.gm_promoted() {
            if !self.gm_was_down {
                self.gm_was_down = true;
                // Every child just lost the group manager: enclosures and
                // standalone servers fall back to their local static caps.
                // Under leases the orphaned grants expire on their own;
                // with a warm standby the detector promotes it instead, so
                // the static-cap fallback stays out of the way.
                if self.mode.budgets_flow_down()
                    && self.lease_ticks == 0
                    && !self.redundancy.gm_standby
                {
                    for e in 0..self.ems.len() {
                        self.ems[e].set_granted_cap(f64::INFINITY);
                        self.fstats.degradations += 1;
                        self.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Em,
                            index: e,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                    for k in 0..self.standalone_ids.len() {
                        let s = self.standalone_ids[k];
                        self.bank.set_granted_cap(s.index(), f64::INFINITY);
                        self.fstats.degradations += 1;
                        let server = s.index();
                        self.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Sm,
                            index: server,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                }
            }
            self.fstats.outage_epochs += 1;
            self.emit(|| TelemetryEvent::ControllerOutage {
                tick: t,
                controller: ControllerKind::Gm,
                index: 0,
            });
            return;
        }
        self.gm_was_down = false;
        let eff_cap = self.gm.effective_cap_watts();
        if group_total > eff_cap && eff_cap < self.cap_grp {
            self.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: eff_cap,
                effective: true,
            });
        }
        let allocations = self
            .gm
            .reallocate(&self.scratch_consumption, &self.gm_child_caps);
        if self.invariants_on {
            self.check_conservation(reduce::tree_sum(&allocations), eff_cap, 0);
        }
        if self.mode.budgets_flow_down() {
            for (e, &watts) in allocations.iter().enumerate().take(num_enclosures) {
                let slot = self.em_link[e];
                self.deliver_grant(slot, watts);
            }
            for k in 0..self.standalone_ids.len() {
                let s = self.standalone_ids[k];
                let child = num_enclosures + k;
                let slot =
                    self.server_link[s.index()].expect("every standalone server has a grant link");
                self.deliver_grant(slot, allocations[child]);
            }
        } else if group_total > self.gm.effective_cap_watts() {
            // Uncoordinated group capper: directly clamp standalone
            // servers (it has no interface into the enclosures' blades).
            for k in 0..self.standalone_ids.len() {
                let s = self.standalone_ids[k];
                if !self.sim.is_on(s) {
                    continue;
                }
                let alloc = allocations[num_enclosures + k];
                let model = &self.models[s.index()];
                let forced = model
                    .pstate_for_power_budget(alloc)
                    .unwrap_or_else(|| model.deepest());
                let before = self.sim.pstate(s);
                if self.write_pstate(s, forced, ControllerKind::Gm) && forced != before {
                    self.emit(|| TelemetryEvent::PStateChange {
                        tick: t,
                        server: s.index(),
                        from: before.index(),
                        to: forced.index(),
                        source: ControllerKind::Gm,
                    });
                }
            }
        }
        self.send_gm_sync();
    }
}
