//! The read-only runtime safety-invariant monitor.

use nps_metrics::{InvariantKind, TelemetryEvent};
use nps_sim::ServerId;

use super::Runner;

impl Runner {
    /// Records one violation: exact counter plus telemetry event.
    fn invariant_violation(&mut self, invariant: InvariantKind, index: usize) {
        let t = self.ticks_done;
        self.istats.record(invariant);
        self.emit(|| TelemetryEvent::InvariantViolated {
            tick: t,
            invariant,
            index,
        });
    }

    /// Budget-conservation check at a reallocation site: the children's
    /// grants must sum to at most the parent's effective cap (float
    /// tolerance for the summation order).
    pub(super) fn check_conservation(&mut self, alloc_sum: f64, cap: f64, index: usize) {
        self.istats.checks += 1;
        if alloc_sum > cap * (1.0 + 1e-9) + 1e-9 {
            self.invariant_violation(InvariantKind::BudgetConservation, index);
        }
    }

    /// The per-tick safety-invariant sweep, run after every controller
    /// (including the electrical clamp) has acted. Pure observation: it
    /// never steers the system. Budget conservation is checked at the
    /// reallocation sites instead; the catalog's remaining entries are
    /// global conditions checked here.
    pub(super) fn invariant_sweep(&mut self) {
        let t = self.ticks_done;
        // Electrical protection: no powered-on server with a working
        // actuator runs above its fuse-level cap.
        if let Some(elec) = self.elec.take() {
            for (i, capper) in elec.iter().enumerate() {
                let s = ServerId(i);
                if !self.sim.is_on(s) || self.injector.actuator_jammed(i, t) {
                    continue;
                }
                self.istats.checks += 1;
                let p = self.sim.pstate(s);
                if capper.clamp(p) != p {
                    self.invariant_violation(InvariantKind::ElectricalCap, i);
                }
            }
            self.elec = Some(elec);
        }
        // Floor operating point: every static local cap admits the
        // deepest P-state at full utilization.
        for i in 0..self.models.len() {
            self.istats.checks += 1;
            let floor = self.models[i].power(self.models[i].deepest().index(), 1.0);
            if self.cap_loc[i] < floor - 1e-9 {
                self.invariant_violation(InvariantKind::ServerCapFloor, i);
            }
        }
        // Lease discipline: an unleased child holds no finite grant, and
        // a finite grant's lease is unexpired (the expiry sweep at the
        // top of `act` reverted anything older).
        if self.lease_ticks > 0 {
            for i in 0..self.models.len() {
                self.istats.checks += 1;
                let stranded = if self.bank.lease_until(i) == u64::MAX {
                    self.bank.effective_cap_watts(i) < self.bank.static_cap_watts(i)
                } else {
                    self.bank.lease_until(i) < t
                };
                if stranded {
                    self.invariant_violation(InvariantKind::LeaseBound, i);
                }
            }
            for e in 0..self.ems.len() {
                self.istats.checks += 1;
                let stranded = if self.ems[e].lease_until() == u64::MAX {
                    self.ems[e].effective_cap_watts() < self.ems[e].static_cap_watts()
                } else {
                    self.ems[e].lease_until() < t
                };
                if stranded {
                    self.invariant_violation(InvariantKind::LeaseBound, e);
                }
            }
        }
    }
}
