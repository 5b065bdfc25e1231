//! MPI layer configuration.

/// Which wire protocol the layer runs (see the crate docs for how these map
/// onto the paper's §5.3 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Portals-style: one matching put per message, any size, delivered
    /// directly into posted buffers by the receive engine.
    #[default]
    EagerDirect,
    /// GM-style: library-side matching; messages of `eager_limit` bytes or
    /// more are announced with a request-to-send and pulled by the receiver's
    /// library with a get.
    Rendezvous {
        /// Messages at or above this size use the RTS/get path.
        eager_limit: usize,
    },
    /// Measured switchover: receives post hardware entries as in
    /// [`Protocol::EagerDirect`], and each send picks eager or rendezvous
    /// from observed per-byte completion cost (an EWMA per protocol,
    /// refreshed by periodic exploration of the out-of-favor arm). Below
    /// `min_eager` the send is always eager; at or above `max_eager` always
    /// rendezvous; in between the cheaper measured arm wins.
    Adaptive {
        /// Sends below this size never pay the rendezvous round trip.
        min_eager: usize,
        /// Sends at or above this size never flood the eager slabs; must be
        /// at most [`MpiConfig::slab_min_free`] so an unexpected eager
        /// message always fits a slab.
        max_eager: usize,
    },
}

/// Tuning for one process's MPI engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiConfig {
    /// Protocol selection.
    pub protocol: Protocol,
    /// Size of each unexpected-message slab, bytes.
    pub slab_size: usize,
    /// Number of slabs kept attached (each rotates out when its free space
    /// drops below `slab_min_free` and is replaced).
    pub slab_count: usize,
    /// Rotate a slab out when its free space drops below this; must be at
    /// least the largest message the application may send unexpectedly (in
    /// `Rendezvous` mode: at least `eager_limit`).
    pub slab_min_free: usize,
    /// Event queue capacity; bounds outstanding operations.
    pub eq_capacity: usize,
    /// Largest eager message served from the send-side region pool, bytes.
    /// Sends at or below this size snapshot into a recycled slab instead of a
    /// fresh allocation; larger sends (and all rendezvous sends) allocate.
    /// `0` disables pooling.
    pub pool_slab: usize,
    /// Bound on the pool's free list (slabs kept for reuse).
    pub pool_free: usize,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            protocol: Protocol::EagerDirect,
            slab_size: 4 * 1024 * 1024,
            slab_count: 2,
            slab_min_free: 256 * 1024,
            eq_capacity: 8192,
            pool_slab: 2048,
            pool_free: 64,
        }
    }
}

impl MpiConfig {
    /// The GM-style baseline configuration used by the Figure 6 experiment.
    pub fn gm_style() -> MpiConfig {
        MpiConfig {
            protocol: Protocol::Rendezvous {
                eager_limit: 16 * 1024,
            },
            ..Default::default()
        }
    }

    /// Measured eager/rendezvous switchover with the default band: always
    /// eager below 16 KiB, always rendezvous at 256 KiB and above, measured
    /// in between.
    pub fn adaptive() -> MpiConfig {
        MpiConfig {
            protocol: Protocol::Adaptive {
                min_eager: 16 * 1024,
                max_eager: 256 * 1024,
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = MpiConfig::default();
        assert!(c.slab_min_free < c.slab_size);
        assert!(c.slab_count >= 1);
        assert_eq!(c.protocol, Protocol::EagerDirect);
    }

    #[test]
    fn gm_style_uses_rendezvous() {
        match MpiConfig::gm_style().protocol {
            Protocol::Rendezvous { eager_limit } => assert!(eager_limit > 0),
            p => panic!("expected rendezvous, got {p:?}"),
        }
    }

    #[test]
    fn adaptive_band_fits_slabs() {
        let c = MpiConfig::adaptive();
        match c.protocol {
            Protocol::Adaptive {
                min_eager,
                max_eager,
            } => {
                assert!(min_eager < max_eager);
                assert!(
                    max_eager <= c.slab_min_free,
                    "an unexpected eager message must fit a slab"
                );
            }
            p => panic!("expected adaptive, got {p:?}"),
        }
    }
}
