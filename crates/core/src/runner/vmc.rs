//! The Virtual Machine Controller: per-VM utilization windows, demand
//! estimates and plan application.

use nps_metrics::{TelemetryEvent, ViolationCounter};
use nps_opt::ClusterContext;
use nps_sim::par::split_ranges;
use nps_sim::{reduce, VmId};

use super::{Runner, PAR_VM_THRESHOLD};

/// One VM's utilization accumulators feeding the VMC's demand estimate.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct VmWindows {
    pub(super) cum_real: f64,
    pub(super) cum_apparent: f64,
    pub(super) snap_real: f64,
    pub(super) snap_apparent: f64,
    pub(super) win_max_real: f64,
    pub(super) win_max_apparent: f64,
}

impl Runner {
    /// Per-tick VMC accumulators: every VM's real and apparent
    /// utilization folds into its cumulative sums and window maxima.
    /// Each slot is independent (no cross-VM arithmetic), so any split
    /// into VM ranges gives the same bits.
    pub(super) fn accumulate_vm_windows(&mut self) {
        let view = self.sim.vm_view();
        let mut shards: Vec<(usize, &mut [VmWindows])> = self
            .vm_shards
            .iter()
            .map(|r| r.start)
            .zip(split_ranges(&mut self.vms, &self.vm_shards))
            .collect();
        self.pool.for_each_mut(&mut shards, &|_, (lo, vms)| {
            for (off, w) in vms.iter_mut().enumerate() {
                let vm = VmId(*lo + off);
                let real = view.real_vm_utilization(vm);
                let apparent = view.apparent_vm_utilization(vm);
                w.cum_real += real;
                w.cum_apparent += apparent;
                w.win_max_real = w.win_max_real.max(real);
                w.win_max_apparent = w.win_max_apparent.max(apparent);
            }
        });
    }

    pub(super) fn vmc_epoch(&mut self) {
        // Feedback first (rates observed since the last epoch). The
        // feedback signal comes *from* the capping controllers (paper
        // Figure 4: "expose power budget violations to VMC"); levels whose
        // capper is not deployed report nothing.
        self.vmc.report_violations_windowed(
            if self.mask.sm {
                self.win_sm.rate()
            } else {
                0.0
            },
            if self.mask.em {
                self.win_em.rate()
            } else {
                0.0
            },
            if self.mask.gm {
                self.win_gm.rate()
            } else {
                0.0
            },
            self.intervals.vmc,
        );
        self.win_sm = ViolationCounter::new();
        self.win_em = ViolationCounter::new();
        self.win_gm = ViolationCounter::new();

        // Demand estimates over the window: per-VM independent slots,
        // sharded across the pool when the fleet is large enough.
        self.vmc_demands();

        // Field-disjoint borrows: the VMC plans (mutably) against a
        // context borrowing the simulation, models, and caps directly —
        // no placement clone.
        let ctx = ClusterContext {
            topo: self.sim.topology(),
            models: &self.models,
            current: self.sim.placement(),
            cap_loc: &self.cap_loc,
            cap_enc: &self.cap_enc,
            cap_grp: self.cap_grp,
        };
        let plan = self.vmc.plan(&self.scratch_demands, &ctx);
        let t = self.ticks_done;
        if self.recording() {
            // Telemetry aggregates through the fixed-shape tree; large
            // fleets farm the leaf partials out to the pool (both sum
            // and max in one struct reduction), identical bits either
            // way.
            let demands = &self.scratch_demands;
            let (demand_sum, demand_max) = {
                let n = demands.len();
                let term = |j: usize| (demands[j], demands[j]);
                let combine = |a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1.max(b.1));
                if n >= PAR_VM_THRESHOLD {
                    reduce::tree_reduce_pool(&self.pool, n, (0.0f64, 0.0f64), term, combine)
                } else {
                    reduce::tree_reduce(n, (0.0f64, 0.0f64), term, combine)
                }
            };
            let demand_mean = if demands.is_empty() {
                0.0
            } else {
                demand_sum / demands.len() as f64
            };
            let used_servers = plan.placement.used_servers().len();
            let migrations = plan.migrations.len();
            let power_on = plan.power_on.len();
            let power_off = plan.power_off.len();
            let forced_placements = plan.forced_placements;
            self.emit(|| TelemetryEvent::VmcPlan {
                tick: t,
                demand_mean,
                demand_max,
                used_servers,
                migrations,
                power_on,
                power_off,
                forced_placements,
            });
        }

        for &s in &plan.power_on {
            if !self.sim.is_on(s) && self.sim.power_on(s).is_ok() {
                self.bank.ec_reset(s.index());
                self.bank.set_r_ref(s.index(), 0.75);
                // A stale grant from before the power-off (possibly 0 W)
                // must not strangle the revived server until the next
                // EM/GM epoch refreshes it; any lease on it clears too.
                self.bank.reset_grant(s.index());
                self.servers[s.index()].restart(
                    self.sim.cumulative_utilization(s),
                    self.sim.cumulative_power(s),
                );
                let server = s.index();
                self.emit(|| TelemetryEvent::PowerOn { tick: t, server });
            }
        }
        for m in &plan.migrations {
            // `Simulation::migrate` treats a same-server move as a no-op
            // success; the telemetry stream mirrors that (no event), so
            // Migration events stay in lockstep with `migrations_started`.
            let from = self.sim.placement().host_of(m.vm);
            match self.sim.migrate(m.vm, m.to) {
                Ok(()) => {
                    if from != m.to {
                        let (vm, to) = (m.vm.index(), m.to.index());
                        let from = from.index();
                        self.emit(|| TelemetryEvent::Migration {
                            tick: t,
                            vm,
                            from,
                            to,
                        });
                    }
                }
                Err(_) => self.skipped_migrations += 1,
            }
        }
        for &s in &plan.power_off {
            if self.sim.is_on(s)
                && self.sim.residents(s).is_empty()
                && self.sim.power_off(s).is_ok()
            {
                let server = s.index();
                self.emit(|| TelemetryEvent::PowerOff { tick: t, server });
            }
        }
    }

    /// Per-VM demand estimates for a VMC epoch, including the window
    /// bookkeeping (snapshot advances, peak resets). Every slot is
    /// independent, so any split into VM ranges gives the same bits.
    fn vmc_demands(&mut self) {
        let real_mode = self.mode.vmc_uses_real_util();
        let window = self.intervals.vmc.max(1) as f64;
        self.scratch_demands.clear();
        self.scratch_demands.resize(self.vms.len(), 0.0);
        let mut shards: Vec<(&mut [VmWindows], &mut [f64])> =
            split_ranges(&mut self.vms, &self.vm_shards)
                .zip(split_ranges(&mut self.scratch_demands, &self.vm_shards))
                .collect();
        // Each VM's estimate is the mean/peak blend over the closing
        // window; both snapshots advance and both window peaks reset.
        self.pool.for_each_mut(&mut shards, &|_, (vms, demands)| {
            for (w, demand) in vms.iter_mut().zip(demands.iter_mut()) {
                let (cum, snap, win_max) = if real_mode {
                    (w.cum_real, w.snap_real, w.win_max_real)
                } else {
                    (w.cum_apparent, w.snap_apparent, w.win_max_apparent)
                };
                let mean = (cum - snap) / window;
                // Size by a mean/peak blend: a placement sized to the
                // window mean alone saturates as soon as the diurnal curve
                // rises within the next epoch.
                let est = mean + 0.3 * (win_max - mean).max(0.0);
                w.snap_real = w.cum_real;
                w.snap_apparent = w.cum_apparent;
                w.win_max_real = 0.0;
                w.win_max_apparent = 0.0;
                *demand = est.clamp(0.0, 1.0);
            }
        });
    }
}
