//! MPI layer configuration.

/// Who matches posted receives against arrivals (see the crate docs for how
/// the two map onto the paper's §5.3 comparison). Both run the one wire
/// protocol; the message size alone decides eager or long, against
/// [`MpiConfig::slab_min_free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Portals-style: every posted receive is a hardware match entry, and the
    /// receive engine delivers a matching message of any size straight into
    /// the user buffer with no library involvement.
    #[default]
    HardwareMatching,
    /// GM-style: no hardware receive entries. Every message overflows, and
    /// the library matches it against posted receives inside MPI calls; a
    /// long one is pulled from there.
    LibraryMatching,
}

/// Tuning for one process's MPI engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiConfig {
    /// Who matches receives.
    pub protocol: Protocol,
    /// Size of each unexpected-message slab, bytes.
    pub slab_size: usize,
    /// Number of slabs kept attached (each rotates out when its free space
    /// drops below `slab_min_free` and is replaced).
    pub slab_count: usize,
    /// Rotate a slab out when its free space drops below this. Any attached
    /// slab therefore holds a message of this many bytes whole, which makes
    /// it the protocol cutoff too: a message of at most `slab_min_free` bytes
    /// is one eager put, and a longer one is long — one put into a posted
    /// receive, or a zero-byte overflow record and a pull when none is
    /// posted. A long message never lands in a slab.
    pub slab_min_free: usize,
    /// Event queue capacity; bounds outstanding operations.
    pub eq_capacity: usize,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            protocol: Protocol::HardwareMatching,
            slab_size: 4 * 1024 * 1024,
            slab_count: 2,
            slab_min_free: 256 * 1024,
            eq_capacity: 8192,
        }
    }
}

impl MpiConfig {
    /// The GM-style baseline configuration used by the Figure 6 experiment:
    /// library matching, and messages above 16 KiB long.
    pub fn gm_style() -> MpiConfig {
        MpiConfig {
            protocol: Protocol::LibraryMatching,
            slab_min_free: 16 * 1024,
            ..Default::default()
        }
    }

    /// The configuration the benchmark runs under. There is one protocol, so
    /// this is [`MpiConfig::default`].
    pub fn adaptive() -> MpiConfig {
        MpiConfig::default()
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
        assert_eq!(c.protocol, Protocol::HardwareMatching);
    }

    #[test]
    fn adaptive_is_the_default() {
        assert_eq!(MpiConfig::adaptive(), MpiConfig::default());
    }

    /// Library matching pulls every long message: above 16 KiB, the
    /// Figure 6 baseline's switch.
    #[test]
    fn gm_style_uses_rendezvous() {
        let c = MpiConfig::gm_style();
        assert_eq!(c.protocol, Protocol::LibraryMatching);
        assert_eq!(c.slab_min_free, 16 * 1024);
        assert!(c.slab_min_free < c.slab_size);
    }
}
