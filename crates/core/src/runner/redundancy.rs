//! Warm-standby replicas: state sync, failure detection, promotion
//! and fencing.

use nps_control::CapperSnapshot;
use nps_metrics::{BudgetLevel, ControllerKind, TelemetryEvent};
use nps_sim::{BusEvent, ControllerLayer, LinkId, ReplicaState};

use super::Runner;

/// Which warm-standby replica a state-sync bus link feeds.
#[derive(Debug, Clone, Copy)]
pub(super) enum SyncPeer {
    /// The Group Manager's standby.
    Gm,
    /// Enclosure `e`'s EM standby.
    Em(usize),
}

impl Runner {
    /// Routes one bus event on a state-sync link to its replica. Sync
    /// payloads ride in [`ReplicaState::inflight`] keyed by the bus
    /// sequence number; the bus only decides delivery, duplication,
    /// staleness, retransmission, or exhaustion.
    pub(super) fn apply_sync_event(&mut self, slot: usize, event: &BusEvent) {
        let rep = match self.sync_peers[slot - self.sync_base] {
            SyncPeer::Gm => self.gm_replica.as_mut(),
            SyncPeer::Em(e) => self.em_replicas.get_mut(e),
        };
        let Some(rep) = rep else { return };
        match event {
            BusEvent::Delivered(m) => {
                if rep.deliver_sync(m.seq) {
                    self.rstats.syncs_applied += 1;
                }
            }
            // A duplicate's payload was already applied (or pruned as
            // stale) by the first copy; a stale copy was superseded by a
            // newer accepted sync. Neither touches the shadow.
            BusEvent::Duplicate(m) => {
                rep.drop_sync(m.seq);
            }
            BusEvent::Stale { msg, .. } => {
                rep.drop_sync(msg.seq);
            }
            BusEvent::Retry { dropped, .. } => {
                self.rstats.sync_retries += 1;
                if *dropped {
                    self.rstats.syncs_dropped += 1;
                }
            }
            BusEvent::Exhausted(m) => {
                if rep.drop_sync(m.seq) {
                    self.rstats.syncs_dropped += 1;
                }
            }
        }
    }

    /// Ships the GM's post-epoch controller state to its standby as a
    /// sequence-numbered sync message (no-op without a GM standby).
    pub(super) fn send_gm_sync(&mut self) {
        let Some(slot) = self.gm_sync_link else {
            return;
        };
        let t = self.ticks_done;
        let snap = self.gm.snapshot();
        let watts = self.gm.effective_cap_watts();
        let (seq, enqueued) = self.bus.send(LinkId(slot), watts, t, false);
        self.rstats.syncs_sent += 1;
        if enqueued {
            if let Some(rep) = &mut self.gm_replica {
                rep.record_sync(seq, encode_capper(&snap));
            }
        } else {
            self.rstats.syncs_dropped += 1;
        }
        self.drain_bus();
    }

    /// Ships enclosure `e`'s EM state to its standby (no-op without EM
    /// standbys).
    pub(super) fn send_em_sync(&mut self, e: usize) {
        let Some(&slot) = self.em_sync_link.get(e) else {
            return;
        };
        let t = self.ticks_done;
        let snap = self.ems[e].snapshot();
        let watts = self.ems[e].effective_cap_watts();
        let (seq, enqueued) = self.bus.send(LinkId(slot), watts, t, false);
        self.rstats.syncs_sent += 1;
        if enqueued {
            if let Some(rep) = self.em_replicas.get_mut(e) {
                rep.record_sync(seq, encode_capper(&snap));
            }
        } else {
            self.rstats.syncs_dropped += 1;
        }
        self.drain_bus();
    }

    /// Whether enclosure `e`'s standby currently leads (its primary is
    /// deposed), so the EM keeps operating through the primary's outage.
    #[inline]
    pub(super) fn em_promoted(&self, e: usize) -> bool {
        self.em_replicas.get(e).is_some_and(|r| r.promoted)
    }

    /// Whether the GM standby currently leads.
    #[inline]
    pub(super) fn gm_promoted(&self) -> bool {
        self.gm_replica.as_ref().is_some_and(|r| r.promoted)
    }

    /// The deterministic failure detector, run in the sequential global
    /// phase every `heartbeat_interval_ticks`: counts missed heartbeats
    /// for protected primaries, promotes warm standbys past the miss
    /// threshold (bumping the leadership term and restoring the live
    /// controller from the shadow), and fences returning primaries on
    /// their stale term, re-integrating them as the new standby.
    // `%` rather than `u64::is_multiple_of`: pinned MSRV (1.75).
    #[allow(clippy::manual_is_multiple_of)]
    pub(super) fn redundancy_step(&mut self) {
        let t = self.ticks_done;
        if t % self.redundancy.heartbeat_interval_ticks != 0 {
            return;
        }
        if let Some(mut rep) = self.gm_replica.take() {
            let down = self.injector.offline(ControllerLayer::Gm, 0, t);
            if self.detect(&mut rep, down, ControllerKind::Gm, BudgetLevel::Group, 0) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    self.gm.restore(&snap);
                    self.gm.expire_lease(t);
                }
            }
            self.gm_replica = Some(rep);
        }
        let mut reps = std::mem::take(&mut self.em_replicas);
        for (e, rep) in reps.iter_mut().enumerate() {
            let down = self.injector.offline(ControllerLayer::Em, e, t);
            if self.detect(rep, down, ControllerKind::Em, BudgetLevel::Enclosure, e) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    self.ems[e].restore(&snap);
                    // The shadow can lag the primary by in-flight syncs:
                    // a lease that lapsed meanwhile expires right away
                    // rather than resurrecting a stale grant.
                    self.ems[e].expire_lease(t);
                }
            }
        }
        self.em_replicas = reps;
    }

    /// One heartbeat check for one replica pair. Returns whether the
    /// standby was promoted just now (the caller then restores the live
    /// controller state from the shadow).
    fn detect(
        &mut self,
        rep: &mut ReplicaState,
        down: bool,
        controller: ControllerKind,
        level: BudgetLevel,
        index: usize,
    ) -> bool {
        let t = self.ticks_done;
        self.rstats.heartbeats += 1;
        if down {
            if rep.promoted {
                // The standby is serving; there is no primary to probe.
                return false;
            }
            rep.missed += 1;
            self.rstats.missed_heartbeats += 1;
            let missed = rep.missed;
            self.emit(|| TelemetryEvent::HeartbeatMissed {
                tick: t,
                controller,
                index,
                missed,
            });
            if rep.missed >= self.redundancy.miss_threshold {
                rep.term += 1;
                rep.promoted = true;
                rep.missed = 0;
                self.rstats.promotions += 1;
                let term = rep.term;
                self.emit(|| TelemetryEvent::FailoverPromoted {
                    tick: t,
                    controller,
                    index,
                    term,
                });
                return true;
            }
            return false;
        }
        if rep.promoted {
            // The deposed primary is back. Its leadership claim carries
            // the pre-failover term — fenced via the existing stale-
            // rejection path, then taken on as the new standby.
            self.fstats.stale_rejected += 1;
            self.rstats.fenced += 1;
            let (stale, serving) = (rep.term - 1, rep.term);
            self.emit(|| TelemetryEvent::StaleRejected {
                tick: t,
                level,
                child: index,
                seq: stale,
                accepted: serving,
            });
            rep.promoted = false;
            rep.missed = 0;
            self.emit(|| TelemetryEvent::StandbyReintegrated {
                tick: t,
                controller,
                index,
                term: serving,
            });
            return false;
        }
        rep.missed = 0;
        false
    }
}

/// Flattens a capper snapshot into the word vector shipped over sync
/// links and held in a replica's shadow: `[granted_cap_bits,
/// lease_until, policy words...]`. Bit-exact by construction.
pub(super) fn encode_capper(snap: &CapperSnapshot) -> Vec<u64> {
    let mut words = Vec::with_capacity(2 + snap.policy_state.len());
    words.push(snap.granted_cap_bits);
    words.push(snap.lease_until);
    words.extend_from_slice(&snap.policy_state);
    words
}

/// Inverse of [`encode_capper`]. `None` on a malformed shadow (shorter
/// than the two fixed words) — the promotion then keeps the live
/// controller's current state rather than corrupting it.
fn decode_capper(words: &[u64]) -> Option<CapperSnapshot> {
    let (&granted_cap_bits, rest) = words.split_first()?;
    let (&lease_until, policy) = rest.split_first()?;
    Some(CapperSnapshot {
        granted_cap_bits,
        lease_until,
        policy_state: policy.to_vec(),
    })
}
