//! Traffic statistics.
//!
//! The paper's receive rules repeatedly say "the dropped message count for the
//! interface is incremented"; that counter lives in the Portals layer, but the
//! fabric keeps its own wire-level counters so tests can distinguish *injected*
//! loss (here) from *protocol* drops (there).
//!
//! The counters are [`portals_obs`] series registered under `fabric.*`, so a
//! registry shared through [`crate::FabricConfig::with_obs`] sees the same
//! numbers [`crate::Fabric::stats`] reads.

use portals_obs::{Counter, Registry};

/// Wire-level counters for the whole fabric.
///
/// Registered as `fabric.*` counter series.
#[derive(Debug)]
pub struct FabricStats {
    /// Packets handed to the fabric by senders.
    pub packets_sent: Counter,
    /// Packets delivered to a NIC's inbound queue.
    pub packets_delivered: Counter,
    /// Packets destroyed by injected loss (or a severed link).
    pub packets_lost: Counter,
    /// Extra copies created by injected duplication.
    pub packets_duplicated: Counter,
    /// Packets addressed to a node with no attached NIC.
    pub packets_unroutable: Counter,
    /// Payload bytes handed to the fabric.
    pub bytes_sent: Counter,
    /// Payload bytes delivered.
    pub bytes_delivered: Counter,
}

impl FabricStats {
    /// Register the `fabric.*` series in `registry` (joining existing series
    /// if another fabric already registered them).
    pub fn new(registry: &Registry) -> FabricStats {
        FabricStats {
            packets_sent: registry.counter("fabric.packets_sent", &[]),
            packets_delivered: registry.counter("fabric.packets_delivered", &[]),
            packets_lost: registry.counter("fabric.packets_lost", &[]),
            packets_duplicated: registry.counter("fabric.packets_duplicated", &[]),
            packets_unroutable: registry.counter("fabric.packets_unroutable", &[]),
            bytes_sent: registry.counter("fabric.bytes_sent", &[]),
            bytes_delivered: registry.counter("fabric.bytes_delivered", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_visible_through_a_shared_registry() {
        let registry = Registry::new();
        let s = FabricStats::new(&registry);
        s.packets_sent.add(5);
        s.packets_lost.add(2);
        assert_eq!(registry.sum_counters("fabric.packets_sent"), 5);
        assert_eq!(registry.sum_counters("fabric.packets_lost"), 2);
    }
}
