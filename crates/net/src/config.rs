//! Fabric configuration: the link model and fault plan.

use crate::fault::FaultPlan;
use portals_obs::Obs;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Timing model for one traversal of the fabric.
///
/// A packet of `n` bytes sent at time `t` from a node whose egress link is free
/// at time `f` is delivered at
///
/// ```text
/// start    = max(t, f)                     -- egress serialization
/// occupy   = per_packet_overhead + n / bandwidth
/// delivery = start + occupy + latency
/// ```
///
/// and the egress link stays busy until `start + occupy`. This reproduces the
/// two first-order effects the paper's numbers depend on: a fixed per-message
/// cost (wire + NIC processing) and a bandwidth-proportional cost that makes
/// large transfers overlap-able with computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// One-way propagation + switching latency.
    pub latency: Duration,
    /// Link bandwidth in bytes per second. `f64::INFINITY` disables
    /// serialization delay.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-packet cost (NIC DMA setup, header processing).
    pub per_packet_overhead: Duration,
}

impl LinkModel {
    /// An idealized instantaneous network — useful for unit tests where timing
    /// must not matter.
    pub const INSTANT: LinkModel = LinkModel {
        latency: Duration::ZERO,
        bandwidth_bytes_per_sec: f64::INFINITY,
        per_packet_overhead: Duration::ZERO,
    };

    /// Parameters loosely shaped on the paper's era (Myrinet/LANai ~2001):
    /// ~10 µs one-way latency contribution, ~140 MB/s, a few µs per packet.
    pub fn myrinet_2001() -> LinkModel {
        LinkModel {
            latency: Duration::from_micros(8),
            bandwidth_bytes_per_sec: 140.0 * 1024.0 * 1024.0,
            per_packet_overhead: Duration::from_micros(2),
        }
    }

    /// How long `bytes` occupies the egress link.
    pub fn occupancy(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec.is_infinite() {
            self.per_packet_overhead
        } else {
            let secs = bytes as f64 / self.bandwidth_bytes_per_sec;
            self.per_packet_overhead + Duration::from_secs_f64(secs)
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::INSTANT
    }
}

/// Full fabric configuration.
#[derive(Debug, Clone, Default)]
pub struct FabricConfig {
    /// Timing model applied to every link.
    pub link: LinkModel,
    /// Fault injection plan (defaults to fault-free).
    pub faults: FaultPlan,
    /// Seed for the fault-injection RNG, so failures reproduce.
    pub seed: u64,
    /// Observability handle: the fabric registers its `fabric.*` counters in
    /// `obs.registry` and emits wire/drop trace events through `obs.tracer`.
    pub obs: Obs,
    /// Pump the timed wire from callers (`Nic::pump_wire`) instead of a
    /// dedicated scheduler thread, so no thread at all stands between a send
    /// and its delivery. Nothing derives this from the progress mode: only
    /// tests set it (the fabric's own, and the transport's caller-driven
    /// loss test), and a caller-driven job on a timed or faulty fabric keeps
    /// the scheduler thread. Meaningless (ignored) when the wire qualifies
    /// for full bypass anyway.
    pub caller_driven_wire: bool,
}

impl FabricConfig {
    /// Fault-free instantaneous fabric.
    pub fn ideal() -> Self {
        FabricConfig::default()
    }

    /// Fault-free fabric with the 2001-era Myrinet-like link model.
    pub fn myrinet_2001() -> Self {
        FabricConfig {
            link: LinkModel::myrinet_2001(),
            ..Default::default()
        }
    }

    /// Set the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the link model.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Set the observability handle.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Choose caller-pumped wire scheduling (see
    /// [`FabricConfig::caller_driven_wire`]).
    pub fn with_caller_driven_wire(mut self, on: bool) -> Self {
        self.caller_driven_wire = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_model_has_zero_occupancy() {
        assert_eq!(LinkModel::INSTANT.occupancy(1_000_000), Duration::ZERO);
    }

    #[test]
    fn occupancy_scales_with_size() {
        let m = LinkModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 1_000_000.0, // 1 MB/s
            per_packet_overhead: Duration::ZERO,
        };
        assert_eq!(m.occupancy(1_000_000), Duration::from_secs(1));
        assert_eq!(m.occupancy(500_000), Duration::from_millis(500));
    }

    #[test]
    fn overhead_is_additive() {
        let m = LinkModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 1_000_000.0,
            per_packet_overhead: Duration::from_micros(10),
        };
        assert_eq!(m.occupancy(0), Duration::from_micros(10));
        assert_eq!(
            m.occupancy(1_000_000),
            Duration::from_secs(1) + Duration::from_micros(10)
        );
    }

    #[test]
    fn myrinet_model_is_plausible() {
        let m = LinkModel::myrinet_2001();
        // 1 MB at ~140 MB/s should take ~7ms.
        let t = m.occupancy(1024 * 1024);
        assert!(
            t > Duration::from_millis(5) && t < Duration::from_millis(10),
            "{t:?}"
        );
    }
}
