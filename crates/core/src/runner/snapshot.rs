//! Checkpoints: the runner's dynamic state as a [`RunnerSnapshot`], and
//! the validated restore.

use nps_control::{BankSnapshot, CapperSnapshot};
use nps_metrics::{FaultStats, InvariantStats, LevelViolations, TelemetryEvent, ViolationCounter};
use nps_models::PState;
use nps_sim::{BusSnapshot, InjectorSnapshot, RedundancyStats, ReplicaState, SimSnapshot};

use super::enclosure::EnclosureWindows;
use super::server::ServerWindows;
use super::vmc::VmWindows;
use super::Runner;
use crate::config::ExperimentConfig;
use crate::CoreError;

impl Runner {
    /// Captures the runner's complete dynamic state — simulator,
    /// controllers, bus in-flight queues, injector RNG, measurement
    /// windows, accumulators — for bit-exact resumption. The telemetry
    /// recorder and power trace are diagnostics and are *not* part of the
    /// checkpoint. Emits a `Checkpoint` telemetry event.
    pub fn snapshot(&mut self) -> RunnerSnapshot {
        let t = self.ticks_done;
        self.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: false,
        });
        RunnerSnapshot {
            version: RunnerSnapshot::VERSION,
            label: self.label.clone(),
            ticks_done: self.ticks_done,
            sim: self.sim.snapshot(),
            injector: self.injector.snapshot(),
            bus: self.bus.snapshot(),
            bank: self.bank.snapshot(),
            ems: self.ems.iter().map(|em| em.snapshot()).collect(),
            gm: self.gm.snapshot(),
            vmc_buffer_bits: self.vmc.buffer_bits().to_vec(),
            sm_hold: self
                .servers
                .iter()
                .map(|w| w.sm_hold.map_or(u64::MAX, |p| p.index() as u64))
                .collect(),
            snap_util_ec_bits: pack_bits(&self.servers, |w| w.snap_util_ec),
            snap_power_sm_bits: pack_bits(&self.servers, |w| w.snap_power_sm),
            snap_power_em_bits: pack_bits(&self.servers, |w| w.snap_power_em),
            snap_power_gm_bits: pack_bits(&self.servers, |w| w.snap_power_gm),
            snap_encpow_em_bits: pack_bits(&self.encs, |w| w.snap_encpow_em),
            snap_encpow_gm_bits: pack_bits(&self.encs, |w| w.snap_encpow_gm),
            cum_real_bits: pack_bits(&self.vms, |w| w.cum_real),
            cum_apparent_bits: pack_bits(&self.vms, |w| w.cum_apparent),
            snap_real_bits: pack_bits(&self.vms, |w| w.snap_real),
            snap_apparent_bits: pack_bits(&self.vms, |w| w.snap_apparent),
            win_max_real_bits: pack_bits(&self.vms, |w| w.win_max_real),
            win_max_apparent_bits: pack_bits(&self.vms, |w| w.win_max_apparent),
            last_util_ec_bits: pack_bits(&self.servers, |w| w.last_util_ec),
            last_power_sm_bits: pack_bits(&self.servers, |w| w.last_power_sm),
            last_encpow_em_bits: pack_bits(&self.encs, |w| w.last_encpow_em),
            last_child_gm_bits: pack_bits(&self.gm_children, |c| c.last),
            fstats: self.fstats,
            em_was_down: self.encs.iter().map(|w| w.em_was_down).collect(),
            gm_was_down: self.gm_was_down,
            violations: self.violations,
            win_sm: self.win_sm,
            win_em: self.win_em,
            win_gm: self.win_gm,
            skipped_migrations: self.skipped_migrations,
            cum_latency_proxy_bits: self.cum_latency_proxy.to_bits(),
            latency_samples: self.latency_samples,
            gm_replica: self.gm_replica.clone(),
            em_replicas: self.em_replicas.clone(),
            rstats: self.rstats,
            istats: self.istats,
        }
    }

    /// Restores state captured by [`Runner::snapshot`]. The runner must
    /// have been built from the *same* [`ExperimentConfig`] — the
    /// checkpoint carries only dynamic state; static structure (topology,
    /// models, traces, caps) comes from the configuration. A resumed run
    /// reproduces the uninterrupted run bit for bit.
    pub fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), CoreError> {
        if snap.version != RunnerSnapshot::VERSION {
            return Err(CoreError::Checkpoint(format!(
                "format version {} (this build reads {})",
                snap.version,
                RunnerSnapshot::VERSION
            )));
        }
        if snap.label != self.label {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint is for experiment {:?}, runner is {:?}",
                snap.label, self.label
            )));
        }
        // Validate everything the checkpoint unpacks before touching any
        // state, so a damaged checkpoint leaves the runner as it was.
        let (n, e, v) = (self.servers.len(), self.encs.len(), self.vms.len());
        let lengths = [
            ("sm_hold", snap.sm_hold.len(), n),
            ("snap_util_ec_bits", snap.snap_util_ec_bits.len(), n),
            ("snap_power_sm_bits", snap.snap_power_sm_bits.len(), n),
            ("snap_power_em_bits", snap.snap_power_em_bits.len(), n),
            ("snap_power_gm_bits", snap.snap_power_gm_bits.len(), n),
            ("last_util_ec_bits", snap.last_util_ec_bits.len(), n),
            ("last_power_sm_bits", snap.last_power_sm_bits.len(), n),
            ("ems", snap.ems.len(), e),
            ("snap_encpow_em_bits", snap.snap_encpow_em_bits.len(), e),
            ("snap_encpow_gm_bits", snap.snap_encpow_gm_bits.len(), e),
            ("last_encpow_em_bits", snap.last_encpow_em_bits.len(), e),
            ("em_was_down", snap.em_was_down.len(), e),
            (
                "last_child_gm_bits",
                snap.last_child_gm_bits.len(),
                self.gm_children.len(),
            ),
            ("cum_real_bits", snap.cum_real_bits.len(), v),
            ("cum_apparent_bits", snap.cum_apparent_bits.len(), v),
            ("snap_real_bits", snap.snap_real_bits.len(), v),
            ("snap_apparent_bits", snap.snap_apparent_bits.len(), v),
            ("win_max_real_bits", snap.win_max_real_bits.len(), v),
            ("win_max_apparent_bits", snap.win_max_apparent_bits.len(), v),
            ("vmc_buffer_bits", snap.vmc_buffer_bits.len(), 3),
            (
                "em_replicas",
                snap.em_replicas.len(),
                self.em_replicas.len(),
            ),
        ];
        for (field, got, want) in lengths {
            if got != want {
                return Err(CoreError::Checkpoint(format!(
                    "{field} has {got} entries, this configuration needs {want}"
                )));
            }
        }
        if snap.gm_replica.is_some() != self.gm_replica.is_some() {
            return Err(CoreError::Checkpoint(
                "GM standby presence does not match this configuration".to_string(),
            ));
        }
        for (i, (&raw, model)) in snap.sm_hold.iter().zip(&self.models).enumerate() {
            if raw != u64::MAX && raw > model.deepest().index() as u64 {
                return Err(CoreError::Checkpoint(format!(
                    "sm_hold of server {i} names P-state {raw}, its model has {} P-states",
                    model.num_pstates()
                )));
            }
        }
        self.ticks_done = snap.ticks_done;
        self.sim.restore(&snap.sim);
        self.injector.restore(&snap.injector);
        self.bus.restore(&snap.bus);
        self.bank.restore(&snap.bank);
        for (em, s) in self.ems.iter_mut().zip(&snap.ems) {
            em.restore(s);
        }
        self.gm.restore(&snap.gm);
        let mut vb = [0u64; 3];
        vb.copy_from_slice(&snap.vmc_buffer_bits);
        self.vmc.restore_buffer_bits(&vb);
        let bits = f64::from_bits;
        for (i, w) in self.servers.iter_mut().enumerate() {
            *w = ServerWindows {
                snap_util_ec: bits(snap.snap_util_ec_bits[i]),
                last_util_ec: bits(snap.last_util_ec_bits[i]),
                snap_power_sm: bits(snap.snap_power_sm_bits[i]),
                last_power_sm: bits(snap.last_power_sm_bits[i]),
                snap_power_em: bits(snap.snap_power_em_bits[i]),
                snap_power_gm: bits(snap.snap_power_gm_bits[i]),
                sm_hold: (snap.sm_hold[i] != u64::MAX).then(|| PState(snap.sm_hold[i] as usize)),
            };
        }
        for (k, w) in self.encs.iter_mut().enumerate() {
            *w = EnclosureWindows {
                snap_encpow_em: bits(snap.snap_encpow_em_bits[k]),
                snap_encpow_gm: bits(snap.snap_encpow_gm_bits[k]),
                last_encpow_em: bits(snap.last_encpow_em_bits[k]),
                em_was_down: snap.em_was_down[k],
            };
        }
        for (c, &last) in self.gm_children.iter_mut().zip(&snap.last_child_gm_bits) {
            c.last = bits(last);
        }
        for (j, w) in self.vms.iter_mut().enumerate() {
            *w = VmWindows {
                cum_real: bits(snap.cum_real_bits[j]),
                cum_apparent: bits(snap.cum_apparent_bits[j]),
                snap_real: bits(snap.snap_real_bits[j]),
                snap_apparent: bits(snap.snap_apparent_bits[j]),
                win_max_real: bits(snap.win_max_real_bits[j]),
                win_max_apparent: bits(snap.win_max_apparent_bits[j]),
            };
        }
        self.fstats = snap.fstats;
        self.gm_was_down = snap.gm_was_down;
        self.violations = snap.violations;
        self.win_sm = snap.win_sm;
        self.win_em = snap.win_em;
        self.win_gm = snap.win_gm;
        self.skipped_migrations = snap.skipped_migrations;
        self.cum_latency_proxy = f64::from_bits(snap.cum_latency_proxy_bits);
        self.latency_samples = snap.latency_samples;
        self.gm_replica = snap.gm_replica.clone();
        self.em_replicas = snap.em_replicas.clone();
        self.rstats = snap.rstats;
        self.istats = snap.istats;
        let t = self.ticks_done;
        self.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: true,
        });
        Ok(())
    }

    /// Builds a runner for `cfg` and restores `snap` into it — the
    /// one-call resume path.
    pub fn resume(cfg: &ExperimentConfig, snap: &RunnerSnapshot) -> Result<Self, CoreError> {
        let mut runner = Self::try_new(cfg)?;
        runner.restore(snap)?;
        Ok(runner)
    }
}

/// Packs one float field of a record array into IEEE-754 bit words
/// (bit-exact, non-finite safe — the JSON layer would otherwise collapse
/// infinities to null).
fn pack_bits<T>(items: &[T], field: impl Fn(&T) -> f64) -> Vec<u64> {
    items.iter().map(|w| field(w).to_bits()).collect()
}

/// A [`Runner`]'s complete dynamic state, produced by
/// [`Runner::snapshot`] and consumed by [`Runner::restore`] /
/// [`Runner::resume`]. Serializable (floats travel as IEEE-754 bit
/// words), so checkpoints written by `npsctl --checkpoint-every` resume
/// bit-exactly across process boundaries.
///
/// Compatibility: a checkpoint binds to one experiment (the `label` must
/// match) and one format `version`; static structure is *not* stored and
/// must come from the same [`ExperimentConfig`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunnerSnapshot {
    /// Checkpoint format version ([`RunnerSnapshot::VERSION`]).
    pub version: u32,
    /// Label of the experiment this checkpoint belongs to.
    pub label: String,
    /// Ticks simulated when the checkpoint was taken.
    pub ticks_done: u64,
    /// Simulator state (placement, P-states, accumulators, thermal).
    pub sim: SimSnapshot,
    /// Fault-injector RNG and latched fault state.
    pub injector: InjectorSnapshot,
    /// Control-plane bus: link sequence state and in-flight queue.
    pub bus: BusSnapshot,
    /// Per-server EC/SM controller bank.
    pub bank: BankSnapshot,
    /// Enclosure managers' grants, leases, and policy state.
    pub ems: Vec<CapperSnapshot>,
    /// Group manager's grant, lease, and policy state.
    pub gm: CapperSnapshot,
    /// VMC feedback buffers `[b_loc, b_enc, b_grp]` as bit words.
    pub vmc_buffer_bits: Vec<u64>,
    /// SM standing P-state demands (`u64::MAX` = none).
    pub sm_hold: Vec<u64>,
    /// EC utilization window snapshots (bit words).
    pub snap_util_ec_bits: Vec<u64>,
    /// SM power window snapshots (bit words).
    pub snap_power_sm_bits: Vec<u64>,
    /// EM per-member power window snapshots (bit words).
    pub snap_power_em_bits: Vec<u64>,
    /// GM per-server power window snapshots (bit words).
    pub snap_power_gm_bits: Vec<u64>,
    /// EM enclosure-total window snapshots (bit words).
    pub snap_encpow_em_bits: Vec<u64>,
    /// GM enclosure-total window snapshots (bit words).
    pub snap_encpow_gm_bits: Vec<u64>,
    /// Cumulative real per-VM utilization (bit words).
    pub cum_real_bits: Vec<u64>,
    /// Cumulative apparent per-VM utilization (bit words).
    pub cum_apparent_bits: Vec<u64>,
    /// VMC real-utilization window snapshots (bit words).
    pub snap_real_bits: Vec<u64>,
    /// VMC apparent-utilization window snapshots (bit words).
    pub snap_apparent_bits: Vec<u64>,
    /// Window maxima of real per-VM utilization (bit words).
    pub win_max_real_bits: Vec<u64>,
    /// Window maxima of apparent per-VM utilization (bit words).
    pub win_max_apparent_bits: Vec<u64>,
    /// Hold-last-good store: EC utilization channel (bit words).
    pub last_util_ec_bits: Vec<u64>,
    /// Hold-last-good store: SM power channel (bit words).
    pub last_power_sm_bits: Vec<u64>,
    /// Hold-last-good store: EM enclosure power channel (bit words).
    pub last_encpow_em_bits: Vec<u64>,
    /// Hold-last-good store: GM child power channel (bit words).
    pub last_child_gm_bits: Vec<u64>,
    /// Fault and degradation counters.
    pub fstats: FaultStats,
    /// EM outage edge-detection latches.
    pub em_was_down: Vec<bool>,
    /// GM outage edge-detection latch.
    pub gm_was_down: bool,
    /// Per-level violation accounting.
    pub violations: LevelViolations,
    /// Server-level violation window feeding the VMC.
    pub win_sm: ViolationCounter,
    /// Enclosure-level violation window feeding the VMC.
    pub win_em: ViolationCounter,
    /// Group-level violation window feeding the VMC.
    pub win_gm: ViolationCounter,
    /// Migrations the simulator rejected.
    pub skipped_migrations: u64,
    /// Latency-proxy accumulator (bit word).
    pub cum_latency_proxy_bits: u64,
    /// Latency-proxy sample count.
    pub latency_samples: u64,
    /// GM warm-standby replica (term, heartbeat counter, shadow state,
    /// in-flight syncs). `None` when no GM standby is configured.
    pub gm_replica: Option<ReplicaState>,
    /// Per-enclosure EM warm-standby replicas (empty without standbys).
    pub em_replicas: Vec<ReplicaState>,
    /// Redundancy-protocol counters.
    pub rstats: RedundancyStats,
    /// Safety-invariant monitor counters.
    pub istats: InvariantStats,
}

impl RunnerSnapshot {
    /// Current checkpoint format version. Bump on any layout change —
    /// restore refuses checkpoints from other versions. Version 2 added
    /// the per-server actuator draw counters to the injector snapshot;
    /// version 3 replaced the shared-stream sensor state with per-slot
    /// counter streams (counters, stuck-until ticks, held values);
    /// version 4 added warm-standby replica state (terms, heartbeat
    /// counters, shadows, in-flight syncs), the redundancy and
    /// safety-invariant counter blocks, and the per-link message-loss
    /// counter layout in the injector snapshot.
    pub const VERSION: u32 = 4;

    /// Writes the checkpoint to `path` as JSON, atomically: the bytes go
    /// to a sibling temp file first and are renamed into place, so a
    /// crash mid-write leaves the previous checkpoint intact.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let stem = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint.json".to_string());
        let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = std::io::BufWriter::new(file);
            serde_json::to_writer(&mut writer, self).map_err(std::io::Error::other)?;
            use std::io::Write as _;
            writer.flush()?;
            writer.into_inner().map_err(|e| e.into_error())?.sync_all()
        })();
        match write {
            Ok(()) => std::fs::rename(&tmp, path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads a checkpoint previously written by [`RunnerSnapshot::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(file)).map_err(std::io::Error::other)
    }
}
