//! Grant delivery over the control-plane bus, and lease expiry.

use nps_metrics::{BudgetLevel, TelemetryEvent};
use nps_sim::{BusEvent, GrantMsg, LinkId};

use super::Runner;

/// Where a bus link terminates: the receiver that applies a delivered
/// grant.
#[derive(Debug, Clone, Copy)]
pub(super) enum GrantTarget {
    /// A server's SM/bank slot (EM→member or GM→standalone grants).
    Server(usize),
    /// An enclosure manager (GM→EM grants).
    Enclosure(usize),
}

/// Static routing record for one registered bus link: how a delivery on
/// that link is applied and labelled in telemetry.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkMeta {
    pub(super) level: BudgetLevel,
    pub(super) child: usize,
    pub(super) target: GrantTarget,
}

impl Runner {
    /// The single entry point for every downstream budget grant (EM→
    /// member, GM→EM, GM→standalone — formerly four copy-pasted loss
    /// branches): draws the plan-level loss verdict from the link's own
    /// counter stream (position-independent, so every caller — epoch
    /// order, thread count, replay — sees the same verdict sequence),
    /// routes the grant through the bus as a sequence-numbered message,
    /// and synchronously drains due traffic so passthrough delivery
    /// lands in-place in the telemetry stream.
    pub(super) fn deliver_grant(&mut self, link_slot: usize, watts: f64) {
        let t = self.ticks_done;
        let plan_lost = self.injector.budget_message_lost(link_slot);
        let (_seq, enqueued) = self.bus.send(LinkId(link_slot), watts, t, plan_lost);
        if !enqueued {
            // Lost outright — by the plan-level draw or the bus's own
            // drop model. The child holds its last granted budget (until
            // its lease, if any, lapses).
            let LinkMeta { level, child, .. } = self.link_meta[link_slot];
            self.fstats.messages_lost += 1;
            self.emit(|| TelemetryEvent::MessageLoss {
                tick: t,
                level,
                child,
            });
        }
        self.drain_bus();
    }

    /// Polls the bus and applies everything due now: fresh grants write
    /// the receiver's cap (and lease), duplicates and stale copies are
    /// rejected, retransmissions are counted.
    pub(super) fn drain_bus(&mut self) {
        let t = self.ticks_done;
        for event in self.bus.poll(t) {
            let slot = match &event {
                BusEvent::Delivered(m) | BusEvent::Duplicate(m) | BusEvent::Exhausted(m) => {
                    m.link.0
                }
                BusEvent::Stale { msg, .. } | BusEvent::Retry { msg, .. } => msg.link.0,
            };
            // State-sync traffic feeds the standby replicas, never a
            // grant target (sync links sit above every grant slot).
            if slot >= self.sync_base {
                self.apply_sync_event(slot, &event);
                continue;
            }
            match event {
                BusEvent::Delivered(msg) => self.apply_grant(msg),
                BusEvent::Duplicate(msg) => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.duplicates_dropped += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::DuplicateDropped {
                        tick: t,
                        level,
                        child,
                        seq,
                    });
                }
                BusEvent::Stale { msg, accepted } => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.stale_rejected += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::StaleRejected {
                        tick: t,
                        level,
                        child,
                        seq,
                        accepted,
                    });
                }
                BusEvent::Retry {
                    msg,
                    attempt,
                    dropped,
                } => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.grant_retries += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::GrantRetry {
                        tick: t,
                        level,
                        child,
                        seq,
                        attempt,
                    });
                    if dropped {
                        self.fstats.messages_lost += 1;
                        self.emit(|| TelemetryEvent::MessageLoss {
                            tick: t,
                            level,
                            child,
                        });
                    }
                }
                // Retries exhausted: the sender gives up. With leases on,
                // the receiver's lease lapses back to its static cap; no
                // extra action here.
                BusEvent::Exhausted(_) => {}
            }
        }
    }

    /// Applies one accepted grant to its receiver and emits the legacy
    /// `BudgetGrant` event.
    fn apply_grant(&mut self, msg: GrantMsg) {
        let t = self.ticks_done;
        let LinkMeta {
            level,
            child,
            target,
        } = self.link_meta[msg.link.0];
        let lease_until = if self.lease_ticks > 0 {
            t + self.lease_ticks
        } else {
            u64::MAX
        };
        match target {
            GrantTarget::Server(i) => {
                if self.lease_ticks > 0 {
                    self.bank.set_granted_cap_leased(i, msg.watts, lease_until);
                } else {
                    self.bank.set_granted_cap(i, msg.watts);
                }
            }
            GrantTarget::Enclosure(e) => {
                if self.lease_ticks > 0 {
                    self.ems[e].set_granted_cap_leased(msg.watts, lease_until);
                } else {
                    self.ems[e].set_granted_cap(msg.watts);
                }
            }
        }
        let watts = msg.watts;
        self.emit(|| TelemetryEvent::BudgetGrant {
            tick: t,
            level,
            child,
            watts,
        });
    }

    /// Reverts every lapsed lease to its static cap, with telemetry.
    pub(super) fn expire_leases(&mut self) {
        let t = self.ticks_done;
        for i in 0..self.server_link.len() {
            if self.bank.expire_lease(i, t) {
                let slot = self.server_link[i].expect("leased server must have a grant link");
                let LinkMeta { level, child, .. } = self.link_meta[slot];
                let seq = self.bus.accepted_seq(LinkId(slot));
                self.fstats.leases_expired += 1;
                self.emit(|| TelemetryEvent::LeaseExpired {
                    tick: t,
                    level,
                    child,
                    seq,
                });
            }
        }
        for e in 0..self.ems.len() {
            if self.ems[e].expire_lease(t) {
                let slot = self.em_link[e];
                let LinkMeta { level, child, .. } = self.link_meta[slot];
                let seq = self.bus.accepted_seq(LinkId(slot));
                self.fstats.leases_expired += 1;
                self.emit(|| TelemetryEvent::LeaseExpired {
                    tick: t,
                    level,
                    child,
                    seq,
                });
            }
        }
    }
}
