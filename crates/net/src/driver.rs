//! Who stands by for a node built without a NIC thread, and a link's own
//! receive thread as the stepper: the driver registry.
//!
//! A caller blocked in a receiving wait steps its own node. While none does,
//! a node built without a NIC thread has no thread behind it, so waits in
//! the process step their *peers* — the in-process analogue of every real
//! process polling its own NIC. Such an endpoint registers its stepper
//! (which also runs a node's dispatch) with its link's [`DriverHub`]; wait
//! loops call [`DriverHub::service_peers`] between their own steps.
//!
//! The registry is deliberately independent of the fabric: it is a property of
//! *which nodes share a process*, not of which wire carries their packets, so
//! any [`Link`](crate::Link) backend (the in-process fabric, a UDP socket) can
//! hand out hubs over its own registry.
//!
//! A backend whose link already runs a receive thread of its own (a UDP
//! socket) builds its registry with [`DriverRegistry::hosting`]. An endpoint
//! that would otherwise spawn a NIC thread then [`hosts`](DriverHub::host)
//! its stepper there instead, and the receive thread that takes a datagram
//! runs the step on it ([`DriverRegistry::step_hosted`]): one thread, not a
//! receive thread handing every arrival to a second one.

use parking_lot::{Mutex, RwLock};
use portals_types::NodeId;
use std::cell::Cell;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// A protocol stack that *other* threads can step: peers' waits, for a node
/// built without a NIC thread, or the link's receive thread that hosts it.
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
    /// Step from the receive thread that hosts this driver
    /// ([`DriverRegistry::step_hosted`]), blocking on this driver's locks as
    /// its own NIC thread would: every step there is work for, and then the
    /// instant by which it must step again even if nothing arrives (`None`:
    /// no such instant).
    fn drive(&self) -> Option<Instant>;
}

/// The drivers registered in one process: which nodes peers' waits step.
/// One registry typically backs all the nodes attached to one link backend
/// instance.
#[derive(Default)]
pub struct DriverRegistry {
    /// `Weak` so the registry never keeps a node alive — and never forms a
    /// cycle through the node's own `Arc` of its link state.
    drivers: RwLock<Vec<(NodeId, Weak<dyn NodeDriver>)>>,
    /// The link's receive thread, when it has one ([`DriverRegistry::hosting`]).
    host: Option<Host>,
}

/// The driver a link's receive thread steps, and the lock it holds while
/// it does.
#[derive(Default)]
struct Host {
    /// `Weak` for the same reason as `drivers`: the driver owns the link,
    /// which owns the thread.
    hosted: Mutex<Option<Weak<dyn NodeDriver>>>,
    /// Held by the receive thread across a step, from the upgrade of
    /// `hosted` to the drop of what it upgraded.
    stepping: Mutex<()>,
}

thread_local! {
    /// The registry whose hosted driver this thread is stepping (its
    /// address; 0: none), so that a withdrawal from inside that step does
    /// not wait for itself.
    static STEPPING: Cell<usize> = const { Cell::new(0) };
}

impl DriverRegistry {
    /// An empty registry, for a link with no receive thread of its own.
    pub fn new() -> DriverRegistry {
        DriverRegistry::default()
    }

    /// An empty registry for a link whose own receive thread steps the
    /// driver hosted here ([`DriverHub::host`]). That thread calls
    /// [`DriverRegistry::step_hosted`] after every batch it takes and
    /// whenever the instant it returned comes due.
    pub fn hosting() -> DriverRegistry {
        DriverRegistry {
            host: Some(Host::default()),
            ..DriverRegistry::default()
        }
    }

    /// Run the hosted driver's [`NodeDriver::drive`] on the calling thread —
    /// the link's receive thread — and return the instant it asked to be
    /// stepped again by. `None` when nothing is hosted.
    ///
    /// The step holds the driver's last reference only if it was withdrawn
    /// from inside that step (a node dropped by its own dispatch): that
    /// reference then drops on a thread of its own, since the driver owns
    /// the link whose drop joins this thread.
    pub fn step_hosted(&self) -> Option<Instant> {
        let host = self.host.as_ref()?;
        let _stepping = host.stepping.lock();
        let driver = host.hosted.lock().as_ref()?.upgrade()?;
        let outer = STEPPING.replace(self as *const DriverRegistry as usize);
        let next = driver.drive();
        STEPPING.set(outer);
        if Arc::strong_count(&driver) == 1 {
            std::thread::Builder::new()
                .name("portals-drop".into())
                .spawn(move || drop(driver))
                .expect("spawn a thread to drop a withdrawn driver");
        }
        next
    }

    fn hosts(&self) -> bool {
        self.host.is_some()
    }

    fn host(&self, driver: Weak<dyn NodeDriver>) -> bool {
        let Some(host) = &self.host else {
            return false;
        };
        *host.hosted.lock() = Some(driver);
        true
    }

    fn withdraw(&self) {
        let Some(host) = &self.host else {
            return;
        };
        host.hosted.lock().take();
        if STEPPING.get() != self as *const DriverRegistry as usize {
            drop(host.stepping.lock());
        }
    }

    /// Register (or replace) the driver peers step for `nid`.
    pub fn register(&self, nid: NodeId, driver: Weak<dyn NodeDriver>) {
        let mut drivers = self.drivers.write();
        if let Some(slot) = drivers.iter_mut().find(|(n, _)| *n == nid) {
            slot.1 = driver;
        } else {
            drivers.push((nid, driver));
        }
    }

    /// Drop the driver registered for `nid`, if any.
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

/// One node's handle on its process's [`DriverRegistry`]: register a
/// [`NodeDriver`] for the node and service peers' pending work from wait
/// loops, or host the driver on the link's receive thread. Obtained from a
/// link backend ([`LinkCaps::hub`](crate::LinkCaps)); cheap to clone.
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

    /// Register (or replace) the driver peers step for this node.
    pub fn register(&self, driver: Weak<dyn NodeDriver>) {
        self.registry.register(self.nid, driver);
    }

    /// Remove this node's registered driver.
    pub fn unregister(&self) {
        self.registry.unregister(self.nid);
    }

    /// Whether the link has a receive thread of its own that would step a
    /// driver [hosted](DriverHub::host) here.
    pub fn hosts(&self) -> bool {
        self.registry.hosts()
    }

    /// Have the link's own receive thread step `driver` from now on, if the
    /// link has one ([`DriverRegistry::hosting`]). Returns whether it does;
    /// when it does not, the caller must see to the stepping itself.
    pub fn host(&self, driver: Weak<dyn NodeDriver>) -> bool {
        self.registry.host(driver)
    }

    /// Stop the receive thread stepping the hosted driver, and return once
    /// it is outside any step of it — at once when called from inside that
    /// step. Afterwards the receive thread holds no reference to the driver.
    /// A no-op when nothing is hosted. Idempotent.
    pub fn withdraw(&self) {
        self.registry.withdraw();
    }

    /// Advance every *other* registered node that has pending work. Returns
    /// `true` if anything was done. Called from the wait loops of nodes
    /// built without a NIC thread, so that all their peers make progress.
    pub fn service_peers(&self) -> bool {
        self.registry.service_peers(self.nid)
    }
}

impl std::fmt::Debug for DriverHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriverHub({})", self.nid)
    }
}
