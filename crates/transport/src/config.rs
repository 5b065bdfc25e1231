//! Transport tuning knobs.

use portals_types::ProgressMode;
use std::time::Duration;

/// Configuration for an [`Endpoint`](crate::Endpoint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Maximum fragment payload per DATA packet, in bytes. `0` (the
    /// default) follows the link: the wire's
    /// [`preferred_mtu`](portals_net::LinkCaps::preferred_mtu) if it states one
    /// (the in-process fabric says 64 KiB — refcounted handoff makes large
    /// fragments free), else [`TransportConfig::DEFAULT_MTU`] (8 KiB, a
    /// Myrinet-era frame size). An explicit value always wins, and is still
    /// clamped to [`max_datagram`](portals_net::LinkCaps::max_datagram) on
    /// wires with a hard frame bound (UDP).
    pub mtu: usize,
    /// Go-back-N window: maximum unacknowledged DATA packets per destination.
    pub window: usize,
    /// Base retransmission timeout. Doubles per consecutive timeout, capped at
    /// `rto_base * 2^MAX_BACKOFF_EXP`.
    pub rto_base: Duration,
    /// Number of consecutive timeouts after which a peer is counted as
    /// *stalled* in the stats (retransmission continues regardless; see the
    /// crate docs for why the transport never gives up).
    pub stall_retries: u32,
    /// Receive-side credit window: how many DATA packets per source the
    /// receiver advertises beyond its in-order horizon when idle. Shrinks
    /// dynamically while the inbound delivery queue backs up (an
    /// oversubscribed receiver sheds load by advertising less).
    pub credit_window: usize,
    /// Credit horizon a sender assumes for a peer it has never heard from:
    /// it admits a DATA packet only while its sequence lies below the peer's
    /// advertised horizon (piggybacked on every ACK), and falls back to
    /// bounded-exponential PROBE packets when starved.
    /// The default equals `credit_window`; `0` models a zero-credit start
    /// where the first PROBE/ACK exchange must run before any data flows.
    pub initial_credits: u64,
    /// Byte budget, per source, for buffering out-of-order fragments at the
    /// receiver. Packets above the in-order horizon are held up to this
    /// budget and spliced into the stream when the hole fills; beyond it they
    /// are dropped and go-back-N retransmission recovers them. `0` disables
    /// buffering entirely (the pre-PR pure go-back-N receiver).
    pub ooo_buffer_bytes: usize,
    /// Who stands by to step the protocol while no caller drives it — a
    /// property of the node built on this endpoint. [`ProgressMode::NicThread`]
    /// (default) and [`ProgressMode::HostDriven`] park a NIC thread on the
    /// link's doorbell, or step on the link's receive thread;
    /// [`ProgressMode::CallerDriven`] builds no NIC thread, for peers' waits
    /// to step. A caller blocked in a receiving wait steps the endpoint
    /// itself, except on a link whose receive thread steps and host-driven;
    /// host-driven, the node's dispatcher (its receive engine) also runs
    /// only inside the node's API calls that run the engine.
    pub progress_mode: ProgressMode,
}

impl TransportConfig {
    /// Exponent cap for retransmission backoff.
    pub const MAX_BACKOFF_EXP: u32 = 6;

    /// Fallback fragment MTU when the config says "follow the link"
    /// (`mtu = 0`) and the link has no preference: 8 KiB, mimicking
    /// Myrinet-era frame sizes.
    pub const DEFAULT_MTU: usize = 8 * 1024;

    /// Effective retransmission timeout after `retries` consecutive timeouts.
    pub fn rto_after(&self, retries: u32) -> Duration {
        self.rto_base * 2u32.pow(retries.min(Self::MAX_BACKOFF_EXP))
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mtu: 0,
            window: 64,
            rto_base: Duration::from_millis(20),
            stall_retries: 10,
            credit_window: 128,
            initial_credits: 128,
            ooo_buffer_bytes: 1024 * 1024,
            progress_mode: ProgressMode::NicThread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = TransportConfig {
            rto_base: Duration::from_millis(10),
            ..Default::default()
        };
        assert_eq!(cfg.rto_after(0), Duration::from_millis(10));
        assert_eq!(cfg.rto_after(1), Duration::from_millis(20));
        assert_eq!(cfg.rto_after(3), Duration::from_millis(80));
        assert_eq!(cfg.rto_after(6), Duration::from_millis(640));
        // Capped beyond MAX_BACKOFF_EXP.
        assert_eq!(cfg.rto_after(7), Duration::from_millis(640));
        assert_eq!(cfg.rto_after(100), Duration::from_millis(640));
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = TransportConfig::default();
        assert_eq!(cfg.mtu, 0, "default follows the link's preference");
        assert!(cfg.window >= 2);
        assert!(cfg.rto_base > Duration::ZERO);
        // Credits must never bind tighter than the go-back-N window by
        // default: the clean path is window-limited, not credit-limited.
        assert!(cfg.credit_window >= cfg.window);
        assert_eq!(cfg.initial_credits, cfg.credit_window as u64);
    }
}
