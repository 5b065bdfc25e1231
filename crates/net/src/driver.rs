//! Cooperative caller-driven progress: the driver registry.
//!
//! In threadless mode no thread stands behind an idle node, so a process that
//! parks in `eq_wait` must be able to advance its *peers'* protocol state —
//! the in-process simulation analogue of every real process polling its own
//! NIC. A caller-driven transport endpoint registers its stepper — which also
//! runs a node's dispatch over what each step delivered — with its link's
//! [`DriverHub`]; wait loops then call [`DriverHub::service_peers`] between
//! their own progress steps.
//!
//! The registry is deliberately independent of the fabric: it is a property of
//! *which nodes share a process*, not of which wire carries their packets, so
//! any [`Link`](crate::Link) backend (the in-process fabric, a UDP socket) can
//! hand out hubs over its own registry.

use parking_lot::RwLock;
use portals_types::NodeId;
use std::sync::{Arc, Weak};

/// A protocol stack that can be driven cooperatively by *other* threads'
/// blocking waits (the caller-driven progress mode).
///
/// Implementations must be re-entrancy-safe against concurrent `service`
/// calls from different threads (internally they take a non-blocking
/// try-lock and bail if another thread is already inside).
pub trait NodeDriver: Send + Sync {
    /// Advance this node's protocol state machines once. Returns `true` if
    /// any work was performed.
    fn service(&self) -> bool;
    /// Cheap test: is there pending work (raised readiness bits, a due
    /// retransmission timer) that `service` would act on?
    fn has_work(&self) -> bool;
}

/// The set of cooperative drivers sharing one process: who can be serviced
/// from whose wait loop. One registry typically backs all the nodes attached
/// to one link backend instance.
#[derive(Default)]
pub struct DriverRegistry {
    /// `Weak` so the registry never keeps a node alive — and never forms a
    /// cycle through the node's own `Arc` of its link state.
    drivers: RwLock<Vec<(NodeId, Weak<dyn NodeDriver>)>>,
}

impl DriverRegistry {
    /// An empty registry.
    pub fn new() -> DriverRegistry {
        DriverRegistry::default()
    }

    /// Register (or replace) the cooperative driver for `nid`.
    pub fn register(&self, nid: NodeId, driver: Weak<dyn NodeDriver>) {
        let mut drivers = self.drivers.write();
        if let Some(slot) = drivers.iter_mut().find(|(n, _)| *n == nid) {
            slot.1 = driver;
        } else {
            drivers.push((nid, driver));
        }
    }

    /// Drop the cooperative driver registered for `nid`, if any.
    pub fn unregister(&self, nid: NodeId) {
        self.drivers.write().retain(|(n, _)| *n != nid);
    }

    /// Service every registered driver other than `own` that reports pending
    /// work. Returns `true` if any driver performed work. Dead registrations
    /// (dropped nodes) are pruned as encountered.
    pub fn service_peers(&self, own: NodeId) -> bool {
        // Snapshot under the read lock, service outside it: a serviced driver
        // may attach/detach nodes or re-enter the fabric.
        let snapshot: Vec<(NodeId, Weak<dyn NodeDriver>)> = self
            .drivers
            .read()
            .iter()
            .filter(|(n, _)| *n != own)
            .cloned()
            .collect();
        let mut worked = false;
        let mut dead: Vec<NodeId> = Vec::new();
        for (nid, weak) in snapshot {
            match weak.upgrade() {
                Some(driver) => {
                    if driver.has_work() && driver.service() {
                        worked = true;
                    }
                }
                None => dead.push(nid),
            }
        }
        if !dead.is_empty() {
            self.drivers
                .write()
                .retain(|(n, w)| !dead.contains(n) || w.strong_count() > 0);
        }
        worked
    }
}

impl std::fmt::Debug for DriverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriverRegistry({} drivers)", self.drivers.read().len())
    }
}

/// A handle for participating in cooperative caller-driven progress: register
/// a [`NodeDriver`] for this node and service peers' pending work from wait
/// loops. Obtained from a link backend ([`LinkCaps::hub`](crate::LinkCaps));
/// cheap to clone.
#[derive(Clone)]
pub struct DriverHub {
    nid: NodeId,
    registry: Arc<DriverRegistry>,
}

impl DriverHub {
    /// A hub for `nid` over `registry`. Link backends call this; consumers
    /// get hubs from their link.
    pub fn new(nid: NodeId, registry: Arc<DriverRegistry>) -> DriverHub {
        DriverHub { nid, registry }
    }

    /// The node this hub handle belongs to.
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Register (or replace) this node's cooperative driver.
    pub fn register(&self, driver: Weak<dyn NodeDriver>) {
        self.registry.register(self.nid, driver);
    }

    /// Remove this node's cooperative driver.
    pub fn unregister(&self) {
        self.registry.unregister(self.nid);
    }

    /// Advance every *other* registered node that has pending work. Returns
    /// `true` if anything was done. Called from caller-driven wait loops so
    /// single-process simulations make progress for all their nodes.
    pub fn service_peers(&self) -> bool {
        self.registry.service_peers(self.nid)
    }
}

impl std::fmt::Debug for DriverHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriverHub({})", self.nid)
    }
}
