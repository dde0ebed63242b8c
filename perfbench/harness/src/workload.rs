//! The four benchmark workloads and the epoch classes of their ticks.
//!
//! Every workload is a Blade A fleet under the coordinated architecture,
//! built with `Scenario::multi_rack` (racks of 2 enclosures × 16 blades
//! plus standalone servers). The workloads differ in the layer they load:
//! the per-tick hot path, the worker pool, VMC arbitration, or the
//! fault/bus/redundancy/checkpoint machinery.

use nps_core::{CoordinationMode, Intervals, Scenario, SystemKind};
use nps_sim::{BusConfig, ControllerLayer, FaultPlan, RetryConfig};

/// Enclosures per rack in every workload.
const ENCLOSURES_PER_RACK: usize = 2;
/// Blades per enclosure in every workload.
const BLADES_PER_ENCLOSURE: usize = 16;

/// The paper's default intervals (Figure 5): EC/SM/EM/GM/VMC = 1/5/25/50/500.
const DEFAULT_INTERVALS: Intervals = Intervals {
    ec: 1,
    sm: 5,
    em: 25,
    gm: 50,
    vmc: 500,
};

/// Tight intervals that make VMC arbitration fire every 50 ticks.
const VMC_HEAVY_INTERVALS: Intervals = Intervals {
    ec: 1,
    sm: 5,
    em: 10,
    gm: 25,
    vmc: 50,
};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub racks: usize,
    pub standalone: usize,
    /// Worker threads of the measured runs.
    pub threads: usize,
    /// Thread count of the untimed reference run whose fingerprint must
    /// equal the measured runs' fingerprint.
    pub reference_threads: usize,
    pub intervals: Intervals,
    /// Simulated ticks per repetition.
    pub horizon: u64,
    /// Faults, lossy bus, warm standbys, invariant monitor, electrical
    /// cap, and a checkpoint round-trip every [`CHECKPOINT_EVERY`] ticks.
    pub chaos: bool,
}

/// Ticks between the mid-run checkpoint round-trips of a chaos workload.
pub const CHECKPOINT_EVERY: u64 = 1_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet1536-t1",
        racks: 32,
        standalone: 512,
        threads: 1,
        reference_threads: 2,
        intervals: DEFAULT_INTERVALS,
        horizon: 6_000,
        chaos: false,
    },
    Workload {
        name: "fleet1536-t2",
        racks: 32,
        standalone: 512,
        threads: 2,
        reference_threads: 1,
        intervals: DEFAULT_INTERVALS,
        horizon: 6_000,
        chaos: false,
    },
    Workload {
        name: "vmc512-t1",
        racks: 10,
        standalone: 192,
        threads: 1,
        reference_threads: 2,
        intervals: VMC_HEAVY_INTERVALS,
        horizon: 10_000,
        chaos: false,
    },
    Workload {
        name: "chaos384-t1",
        racks: 8,
        standalone: 128,
        threads: 1,
        reference_threads: 2,
        intervals: DEFAULT_INTERVALS,
        horizon: 10_000,
        chaos: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn servers(&self) -> usize {
        self.racks * ENCLOSURES_PER_RACK * BLADES_PER_ENCLOSURE + self.standalone
    }

    /// The scenario of this workload at `threads` worker threads.
    pub fn scenario(&self, seed: u64, threads: usize, horizon: u64) -> Scenario {
        let scenario = Scenario::multi_rack(
            SystemKind::BladeA,
            CoordinationMode::Coordinated,
            self.racks,
            ENCLOSURES_PER_RACK,
            BLADES_PER_ENCLOSURE,
            self.standalone,
        )
        .intervals(self.intervals)
        .horizon(horizon)
        .seed(seed)
        .threads(threads);
        if !self.chaos {
            return scenario;
        }
        scenario
            .faults(chaos_plan(seed, horizon))
            .bus(chaos_bus(seed))
            .standbys()
            .invariants(true)
            .electrical_cap(0.9)
    }

    /// The epoch class of the `Runner::tick` call made with `k` ticks
    /// done: the controllers due at that tick, joined with `-`. The first
    /// call acts on no window, so its class is `none`.
    pub fn class_of(&self, k: u64) -> &'static str {
        if k == 0 {
            return "none";
        }
        let iv = self.intervals;
        let due = [
            k.is_multiple_of(iv.sm),
            k.is_multiple_of(iv.em),
            k.is_multiple_of(iv.gm),
            k.is_multiple_of(iv.vmc),
        ];
        match due {
            [false, false, false, false] => "ec",
            [true, false, false, false] => "ec-sm",
            [true, true, false, false] => "ec-sm-em",
            [true, false, true, false] => "ec-sm-gm",
            [true, true, true, false] => "ec-sm-em-gm",
            [true, true, true, true] => "ec-sm-em-gm-vmc",
            _ => "other",
        }
    }
}

/// Every epoch class the workloads produce, in the order the per-layer
/// table lists them.
pub const CLASSES: [&str; 6] = [
    "ec",
    "ec-sm",
    "ec-sm-em",
    "ec-sm-gm",
    "ec-sm-em-gm",
    "ec-sm-em-gm-vmc",
];

/// A fixed chaos profile in the style of the `chaos_soak` bench: sensor
/// and actuator faults, message loss, one whole-GM and one EM outage.
fn chaos_plan(seed: u64, horizon: u64) -> FaultPlan {
    FaultPlan::disabled()
        .with_seed(seed)
        .with_sensor_noise(0.04)
        .with_stuck_sensors(0.015, 20)
        .with_dropped_samples(0.06)
        .with_stuck_actuators(0.015, 20)
        .with_message_loss(0.10)
        .with_outage(ControllerLayer::Gm, None, horizon / 4, horizon / 4 + 150)
        .with_outage(ControllerLayer::Em, Some(0), horizon / 2, horizon / 2 + 150)
}

/// A lossy bus: drop, duplication, reordering, delay, leases and retries.
fn chaos_bus(seed: u64) -> BusConfig {
    BusConfig::default()
        .with_seed(seed)
        .with_drop(0.06)
        .with_duplication(0.03)
        .with_reordering(0.08, 2)
        .with_delay(1, 1)
        .with_leases(150)
        .with_retry(RetryConfig {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 16,
            jitter_ticks: 1,
        })
}
