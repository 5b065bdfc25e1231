//! The network interface: the per-process Portals API object.
//!
//! A [`NetworkInterface`] owns the process's Portal table, match entries,
//! memory descriptors, event queues and access control list, and provides the
//! data movement verbs ([`NetworkInterface::put_op`],
//! [`NetworkInterface::get_op`]).
//!
//! *Who* runs the receive rules of §4.8 for it is a property of its node
//! ([`ProgressMode`](portals_types::ProgressMode), on
//! `TransportConfig::progress_mode`):
//!
//! * `NicThread` / `CallerDriven` — application bypass: the node's NIC thread
//!   (our NIC firmware), or the caller standing in for it, processes messages
//!   the moment they arrive. "The fundamental concept of Portals is to
//!   decouple the host processor from the network and allow data to flow with
//!   virtually no application processing" (§5.1).
//! * `HostDriven` — arriving messages wait raw in the node's transport
//!   endpoint, under its credit flow control; they are processed only inside
//!   the API calls that run the engine ([`NetworkInterface::progress`], the
//!   event and counter waits) on the application's thread. This is the
//!   GM-style baseline of §5.3, kept protocol-identical so the Figure 6
//!   comparison isolates exactly the progress question. The endpoint alone
//!   decides which: this module makes the same calls in every mode.
//!
//! # Locking model
//!
//! There is no interface-wide lock. State is split along the natural
//! boundaries of the receive path (see DESIGN.md, "Locking model and matching
//! fast path"):
//!
//! * each portal index has its own match-list lock ([`PortalTable`]) — the
//!   unit at which Fig. 4's posting-order semantics must serialize;
//! * MEs, MDs and EQs live in independently locked sharded arenas
//!   ([`portals_types::Sharded`]);
//! * the ACL sits behind a read/write lock (checked on every request, changed
//!   almost never).
//!
//! Lock order, outermost first: portal list → any one arena shard → event
//! ring. The engine additionally nests MD shard → EQ shard in the reply path;
//! nothing nests the other way around. API calls that must be atomic with
//! message delivery on a portal (notably [`NetworkInterface::md_update`], the
//! MPI receive-posting primitive) take that portal's list lock, which is
//! exactly the lock the engine holds for the whole of a put/get delivery.

use crate::acl::{AcEntry, AccessControlList, AclReject, InitiatorClass};
use crate::builder::{AtomicBuilder, GetBuilder, Op, PutBuilder, Verb};
use crate::counters::{DropReason, NiCounters};
use crate::ct::{CountingEvent, CtValue};
use crate::event::{Event, EventKind, EventQueue};
use crate::md::{Md, MdSpec};
use crate::me::MatchEntry;
use crate::node::{ring_waiters, NodeShared};
use crate::table::{MePos, PortalTable};
use crate::triggered::{self, TriggeredOp};
use crate::{CtHandle, EqHandle, MdHandle, MeHandle};
use parking_lot::RwLock;
use portals_obs::Obs;
use portals_types::{MatchCriteria, NiLimits, ProcessId, PtlError, PtlResult, Readiness, Sharded};
use portals_wire::{
    AtomicDatatype, AtomicOp, AtomicRequest, GetRequest, PortalsMessage, PutRequest, RequestHeader,
    RAW_HANDLE_NONE,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-interface configuration.
#[derive(Debug, Clone)]
pub struct NiConfig {
    /// Resource limits.
    pub limits: NiLimits,
    /// Parallel-application (job) id this process belongs to, for the
    /// "same application" ACL entry (§4.5).
    pub job: u32,
    /// Per-portal flow control (extension: Portals 4 `PTL_PT_FLOWCTRL`
    /// lineage). When on, a portal with a registered flow event queue
    /// ([`NetworkInterface::pt_flow_ctrl`]) auto-disables on resource
    /// exhaustion instead of silently dropping: deliveries are nacked back to
    /// the initiator and a [`EventKind::FlowCtrl`] event tells the owner to
    /// drain, re-post, and [`NetworkInterface::pt_enable`]. Off, the §4.8
    /// drop-and-count behaviour is preserved exactly.
    pub flow_control: bool,
}

impl Default for NiConfig {
    fn default() -> NiConfig {
        NiConfig {
            limits: NiLimits::default(),
            job: 0,
            flow_control: true,
        }
    }
}

/// The `manipulated_length` a nack carries. A flow-controlled target that
/// rejects a put answers the requested ack with this marker instead of a byte
/// count, so the initiator knows to re-issue rather than count the message
/// delivered. Unambiguous: real manipulated lengths are bounded by
/// `max_message_size`, which is far below `u64::MAX`.
pub const NACK_MLENGTH: u64 = u64::MAX;

/// Whether a put requests an acknowledgment (§4.7: "A process can also signify
/// that no acknowledgment is requested by using a special flag").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckRequest {
    /// Ask the target for an ack on successful delivery.
    Ack,
    /// No ack.
    NoAck,
}

/// Mutable interface state. Not one lock: each field carries its own (see the
/// module docs for the locking model).
pub(crate) struct NiState {
    pub(crate) table: PortalTable,
    pub(crate) mes: Sharded<MatchEntry>,
    pub(crate) mds: Sharded<Md>,
    pub(crate) eqs: Sharded<EventQueue>,
    pub(crate) cts: Sharded<CountingEvent>,
    pub(crate) acl: RwLock<AccessControlList>,
}

impl NiState {
    pub(crate) fn new(limits: &NiLimits) -> NiState {
        NiState {
            table: PortalTable::new(limits.max_portal_table_size),
            mes: Sharded::new(),
            mds: Sharded::new(),
            eqs: Sharded::new(),
            cts: Sharded::new(),
            acl: RwLock::new(AccessControlList::standard(
                limits.max_access_control_entries,
            )),
        }
    }

    /// The portal index an MD's delivery path serializes on, if the MD is
    /// attached to a live match entry. `None` for free-standing (bound) MDs.
    pub(crate) fn portal_of_md(&self, md: MdHandle) -> Option<u32> {
        let owner = self.mds.with(md, |m| m.owner)??;
        self.mes.with(owner, |me| me.portal_index)
    }
}

/// The shared interface core: everything the engine and the API both touch.
pub(crate) struct NiCore {
    pub(crate) id: ProcessId,
    pub(crate) config: NiConfig,
    pub(crate) state: NiState,
    pub(crate) counters: NiCounters,
    /// The node's observability handle: the interface's counters register in
    /// its registry and the engine's lifecycle traces flow to its sinks.
    pub(crate) obs: Obs,
    /// The node's waiters' doorbell: every completion on this interface
    /// rings it ([`NiCore::completed`]).
    pub(crate) waiters: Arc<Readiness>,
}

impl NiCore {
    pub(crate) fn new(id: ProcessId, config: NiConfig, node: &NodeShared) -> NiCore {
        NiCore {
            id,
            state: NiState::new(&config.limits),
            config,
            counters: NiCounters::new(&node.obs.registry, id.nid.0, id.pid),
            obs: node.obs.clone(),
            waiters: Arc::clone(&node.waiters),
        }
    }

    /// A completion a blocked call may be waiting on is visible and its
    /// locks are released: ring the waiters ([`ring_waiters`]).
    pub(crate) fn completed(&self) {
        ring_waiters(&self.waiters);
    }

    /// Push `event` on queue `eqh` (false: no such queue), count it if it
    /// overwrote an unread one, and ring the waiters once the queue is
    /// unlocked.
    pub(crate) fn push_event(&self, eqh: EqHandle, event: Event) -> bool {
        let Some(clean) = self.state.eqs.with(eqh, |queue| queue.push(event)) else {
            return false;
        };
        if !clean {
            self.counters.events_overwritten.inc();
        }
        self.completed();
        true
    }
}

/// ACL classification adapter: resolves `SameApplication`/`SystemProcess`
/// through the node's process directory.
pub(crate) struct NiClass<'a> {
    pub(crate) node: &'a NodeShared,
    pub(crate) my_job: u32,
}

impl InitiatorClass for NiClass<'_> {
    fn is_same_application(&self, id: ProcessId) -> bool {
        match self.node.directory.classify(id) {
            portals_types::UserId::Application(job) => job == self.my_job,
            portals_types::UserId::System => false,
        }
    }

    fn is_system(&self, id: ProcessId) -> bool {
        matches!(
            self.node.directory.classify(id),
            portals_types::UserId::System
        )
    }
}

impl From<AclReject> for DropReason {
    fn from(r: AclReject) -> DropReason {
        match r {
            AclReject::InvalidIndex => DropReason::InvalidAcIndex,
            AclReject::ProcessMismatch => DropReason::AclProcessMismatch,
            AclReject::PortalMismatch => DropReason::AclPortalMismatch,
        }
    }
}

/// A Portals 3.0 network interface bound to one process on one node.
///
/// Created by [`Node::create_ni`](crate::Node::create_ni). Dropping the
/// interface detaches it from the node: subsequent traffic for its pid counts
/// against the node's "invalid process" drops, per §4.8.
pub struct NetworkInterface {
    pub(crate) core: Arc<NiCore>,
    pub(crate) node: Arc<NodeShared>,
}

impl NetworkInterface {
    /// This process's id `(nid, pid)`.
    pub fn id(&self) -> ProcessId {
        self.core.id
    }

    /// The interface limits.
    pub fn limits(&self) -> NiLimits {
        self.core.config.limits
    }

    /// Whether per-portal flow control is switched on for this interface
    /// ([`NiConfig::flow_control`]). Upper layers consult this to decide
    /// between the nack/recover protocol and the legacy drop-and-count path.
    pub fn flow_control(&self) -> bool {
        self.core.config.flow_control
    }

    /// The live interface counters, including the §4.8 dropped-message
    /// counts; read a value with `.get()` at the point it is needed. On a
    /// threadless node this drives progress first — a counter polling loop
    /// must be able to advance the protocol it is observing, so it calls
    /// this on every iteration rather than holding the handle.
    pub fn counters(&self) -> &NiCounters {
        self.node.endpoint.progress_once();
        &self.core.counters
    }

    /// Match entries and memory descriptors currently allocated on this
    /// interface, as `(entries, descriptors)` — for leak checks: a protocol
    /// that tears its exposures down returns both to their idle values.
    pub fn resources_in_use(&self) -> (usize, usize) {
        (self.core.state.mes.len(), self.core.state.mds.len())
    }

    /// The observability handle this interface reports into (the node's, so
    /// higher layers — MPI, the parallel file system — can emit their own
    /// lifecycle traces and metrics alongside the engine's).
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }

    // ----- event queues ---------------------------------------------------

    /// Allocate an event queue with room for `capacity` pending events
    /// (spec: `PtlEQAlloc`).
    pub fn eq_alloc(&self, capacity: usize) -> PtlResult<EqHandle> {
        if capacity == 0 {
            return Err(PtlError::InvalidArgument);
        }
        if self.core.state.eqs.len() >= self.core.config.limits.max_event_queues {
            return Err(PtlError::NoSpace);
        }
        Ok(self.core.state.eqs.insert(EventQueue::new(capacity)))
    }

    /// Free an event queue (spec: `PtlEQFree`). Messages that later name this
    /// queue are dropped per §4.8.
    pub fn eq_free(&self, h: EqHandle) -> PtlResult<()> {
        self.core
            .state
            .eqs
            .remove(h)
            .map(|_| ())
            .ok_or(PtlError::InvalidEq)
    }

    /// Non-blocking event read (spec: `PtlEQGet`).
    pub fn eq_get(&self, h: EqHandle) -> PtlResult<Event> {
        self.progress();
        let eq = self.eq_ref(h)?;
        eq.try_get()
    }

    /// Blocking event read (spec: `PtlEQWait`).
    pub fn eq_wait(&self, h: EqHandle) -> PtlResult<Event> {
        self.eq_wait_inner(h, None)
    }

    /// Event read with a deadline.
    pub fn eq_poll(&self, h: EqHandle, timeout: Duration) -> PtlResult<Event> {
        self.eq_wait_inner(h, Some(timeout))
    }

    /// Number of events currently pending on a queue.
    pub fn eq_len(&self, h: EqHandle) -> PtlResult<usize> {
        self.node.endpoint.progress_once();
        Ok(self.eq_ref(h)?.len())
    }

    fn eq_ref(&self, h: EqHandle) -> PtlResult<EventQueue> {
        self.core
            .state
            .eqs
            .with(h, EventQueue::clone_ref)
            .ok_or(PtlError::InvalidEq)
    }

    fn eq_wait_inner(&self, h: EqHandle, timeout: Option<Duration>) -> PtlResult<Event> {
        let eq = self.eq_ref(h)?;
        self.wait(timeout, || match eq.try_get() {
            Err(PtlError::EqEmpty) => None,
            got => Some(got),
        })
    }

    // ----- match entries ---------------------------------------------------

    /// Attach a match entry to `portal_index` at `pos` (spec: `PtlMEAttach` /
    /// `PtlMEInsert`). `source` filters initiators (wildcards allowed);
    /// `unlink_when_empty` is the entry's unlink flag (Fig. 4).
    pub fn me_attach(
        &self,
        portal_index: u32,
        source: ProcessId,
        criteria: MatchCriteria,
        unlink_when_empty: bool,
        pos: MePos,
    ) -> PtlResult<MeHandle> {
        let state = &self.core.state;
        if state.mes.len() >= self.core.config.limits.max_match_entries {
            return Err(PtlError::NoSpace);
        }
        let Some(mut list) = state.table.lock(portal_index) else {
            return Err(PtlError::InvalidPortalIndex);
        };
        let me = state.mes.insert(MatchEntry::at_portal(
            portal_index,
            source,
            criteria,
            unlink_when_empty,
        ));
        if !list.insert(me, pos, source, criteria) {
            drop(list);
            state.mes.remove(me);
            return Err(PtlError::InvalidMe); // anchor handle not in this list
        }
        Ok(me)
    }

    /// Unlink a match entry and every memory descriptor attached to it
    /// (spec: `PtlMEUnlink`).
    pub fn me_unlink(&self, h: MeHandle) -> PtlResult<()> {
        let state = &self.core.state;
        let portal_index = state
            .mes
            .with(h, |me| me.portal_index)
            .ok_or(PtlError::InvalidMe)?;
        let mut list = state
            .table
            .lock(portal_index)
            .expect("attached index in range");
        // Re-resolve under the portal lock: the engine may have auto-unlinked
        // the entry between our peek and the lock.
        let me = state.mes.remove(h).ok_or(PtlError::InvalidMe)?;
        list.remove(h);
        drop(list);
        for md in me.md_list {
            state.mds.remove(md);
        }
        Ok(())
    }

    // ----- memory descriptors ----------------------------------------------

    /// Attach an MD to the back of a match entry's descriptor list
    /// (spec: `PtlMDAttach`).
    pub fn md_attach(&self, me: MeHandle, spec: MdSpec) -> PtlResult<MdHandle> {
        let state = &self.core.state;
        if state.mds.len() >= self.core.config.limits.max_memory_descriptors {
            return Err(PtlError::NoSpace);
        }
        if let Some(eq) = spec.eq {
            if !state.eqs.contains(eq) {
                return Err(PtlError::InvalidEq);
            }
        }
        if let Some(ct) = spec.ct {
            if !state.cts.contains(ct) {
                return Err(PtlError::InvalidCt);
            }
        }
        let portal_index = state
            .mes
            .with(me, |m| m.portal_index)
            .ok_or(PtlError::InvalidMe)?;
        // Hold the portal lock so the attach is atomic with delivery: the
        // engine never observes the MD inserted but not yet on the entry.
        let _list = state
            .table
            .lock(portal_index)
            .expect("attached index in range");
        let mut md = Md::from_spec(spec);
        md.owner = Some(me);
        let mdh = state.mds.insert(md);
        if state
            .mes
            .with_mut(me, |m| m.md_list.push_back(mdh))
            .is_none()
        {
            state.mds.remove(mdh); // entry unlinked while we raced in
            return Err(PtlError::InvalidMe);
        }
        Ok(mdh)
    }

    /// Create a free-standing MD for initiator-side operations
    /// (spec: `PtlMDBind`).
    pub fn md_bind(&self, spec: MdSpec) -> PtlResult<MdHandle> {
        let state = &self.core.state;
        if state.mds.len() >= self.core.config.limits.max_memory_descriptors {
            return Err(PtlError::NoSpace);
        }
        if let Some(eq) = spec.eq {
            if !state.eqs.contains(eq) {
                return Err(PtlError::InvalidEq);
            }
        }
        if let Some(ct) = spec.ct {
            if !state.cts.contains(ct) {
                return Err(PtlError::InvalidCt);
            }
        }
        Ok(state.mds.insert(Md::from_spec(spec)))
    }

    /// Unlink an MD (spec: `PtlMDUnlink`). Fails with [`PtlError::MdInUse`]
    /// while a get's reply is outstanding (§4.7: the descriptor "must not be
    /// unlinked until the reply is received").
    pub fn md_unlink(&self, h: MdHandle) -> PtlResult<()> {
        let state = &self.core.state;
        // If attached, serialize with delivery on the owning portal so the
        // engine never works on a half-unlinked descriptor.
        let portal_index = state.portal_of_md(h);
        let _list = portal_index.map(|p| state.table.lock(p).expect("attached index in range"));
        let md = state
            .mds
            .remove_if(h, |md| md.pending_ops == 0)
            .ok_or(PtlError::InvalidMd)?
            .ok_or(PtlError::MdInUse)?;
        if let Some(me) = md.owner {
            state.mes.with_mut(me, |m| m.remove_md(h));
        }
        Ok(())
    }

    /// Read bytes out of an MD's region (application-side buffer access).
    pub fn md_read(&self, h: MdHandle, offset: usize, len: usize) -> PtlResult<Vec<u8>> {
        self.core
            .state
            .mds
            .with(h, |md| {
                if offset + len > md.len() {
                    return Err(PtlError::InvalidArgument);
                }
                Ok(md.read(offset as u64, len as u64))
            })
            .ok_or(PtlError::InvalidMd)?
    }

    /// Write bytes into an MD's region (application-side buffer access).
    pub fn md_write(&self, h: MdHandle, offset: usize, data: &[u8]) -> PtlResult<()> {
        self.core
            .state
            .mds
            .with(h, |md| {
                if offset + data.len() > md.len() {
                    return Err(PtlError::InvalidArgument);
                }
                md.write(offset as u64, data);
                Ok(())
            })
            .ok_or(PtlError::InvalidMd)?
    }

    /// Current managed local offset of an MD (how far an offset-managed
    /// unexpected buffer has filled).
    pub fn md_local_offset(&self, h: MdHandle) -> PtlResult<u64> {
        self.core
            .state
            .mds
            .with(h, |md| md.local_offset)
            .ok_or(PtlError::InvalidMd)
    }

    /// Atomically update an MD, conditional on an event queue being empty
    /// (spec: `PtlMDUpdate`).
    ///
    /// If `test_eq` is supplied and holds *any* unconsumed event — or is owed
    /// one by a put that has been matched and committed but whose payload is
    /// still landing — the update is refused with [`PtlError::NoUpdate`] and
    /// `mutate` is not run. For an MD attached to a match entry, the test and
    /// the update run under that entry's portal-list lock — the lock the
    /// receive engine holds while it matches, commits and marks the queue owed
    /// — so the pair is atomic with respect to message arrival. This is the primitive an MPI
    /// implementation uses to close the race between posting a receive and an
    /// unexpected message landing in the overflow slab.
    pub fn md_update(
        &self,
        h: MdHandle,
        test_eq: Option<EqHandle>,
        mutate: impl FnOnce(&mut Md),
    ) -> PtlResult<()> {
        let state = &self.core.state;
        if !state.mds.contains(h) {
            return Err(PtlError::InvalidMd);
        }
        let portal_index = state.portal_of_md(h);
        let _list = portal_index.map(|p| state.table.lock(p).expect("attached index in range"));
        if let Some(eqh) = test_eq {
            let quiet = state
                .eqs
                .with(eqh, EventQueue::is_quiet)
                .ok_or(PtlError::InvalidEq)?;
            if !quiet {
                return Err(PtlError::NoUpdate);
            }
        }
        state.mds.with_mut(h, mutate).ok_or(PtlError::InvalidMd)
    }

    // ----- access control ---------------------------------------------------

    /// Replace an access-control entry (spec: `PtlACEntry`).
    pub fn acl_set(&self, index: usize, entry: AcEntry) -> PtlResult<()> {
        if self.core.state.acl.write().set(index, entry) {
            Ok(())
        } else {
            Err(PtlError::InvalidAcIndex)
        }
    }

    // ----- portal flow control ----------------------------------------------

    /// Register (or clear, with `None`) the event queue that receives
    /// [`EventKind::FlowCtrl`] when flow control trips `portal_index`
    /// (extension: Portals 4 `PTL_PT_FLOWCTRL` lineage). Registering an EQ
    /// opts the portal into auto-disable; the interface-level
    /// [`NiConfig::flow_control`] switch must also be on for trips to fire.
    pub fn pt_flow_ctrl(&self, portal_index: u32, eq: Option<EqHandle>) -> PtlResult<()> {
        if let Some(eqh) = eq {
            // Validate the handle up front so a dangling EQ surfaces here,
            // not silently at trip time.
            if self.core.state.eqs.with(eqh, |_| ()).is_none() {
                return Err(PtlError::InvalidEq);
            }
        }
        if self.core.state.table.set_flow_eq(portal_index, eq) {
            Ok(())
        } else {
            Err(PtlError::InvalidPortalIndex)
        }
    }

    /// Re-enable a portal after draining and re-posting resources (spec
    /// lineage: `PtlPTEnable`). Idempotent.
    pub fn pt_enable(&self, portal_index: u32) -> PtlResult<()> {
        if (portal_index as usize) < self.core.state.table.size() {
            self.core.state.table.enable(portal_index);
            Ok(())
        } else {
            Err(PtlError::InvalidPortalIndex)
        }
    }

    /// Disable a portal so subsequent deliveries are rejected (spec lineage:
    /// `PtlPTDisable`). Takes the portal's list lock, so returning guarantees
    /// no delivery is mid-flight on this portal.
    pub fn pt_disable(&self, portal_index: u32) -> PtlResult<()> {
        let guard = self
            .core
            .state
            .table
            .lock(portal_index)
            .ok_or(PtlError::InvalidPortalIndex)?;
        self.core.state.table.try_disable(portal_index);
        drop(guard);
        Ok(())
    }

    /// Whether `portal_index` currently accepts requests.
    pub fn pt_is_enabled(&self, portal_index: u32) -> PtlResult<bool> {
        if (portal_index as usize) < self.core.state.table.size() {
            Ok(self.core.state.table.is_enabled(portal_index))
        } else {
            Err(PtlError::InvalidPortalIndex)
        }
    }

    // ----- data movement ----------------------------------------------------

    /// Start building a put of this MD's region: name the target, bits and
    /// options fluently, then [`PutBuilder::submit`]. This is the spelling of
    /// `PtlPut` (the positional seven-argument arity was removed after its
    /// deprecation cycle).
    pub fn put_op(&self, md: MdHandle) -> PutBuilder<'_> {
        PutBuilder::new(self, md)
    }

    /// Start building a get into this MD's region: name the target, bits,
    /// offset and length fluently, then [`GetBuilder::submit`]. This is the
    /// spelling of `PtlGet` (the positional eight-argument arity was removed
    /// after its deprecation cycle).
    pub fn get_op(&self, md: MdHandle) -> GetBuilder<'_> {
        GetBuilder::new(self, md)
    }

    /// Start building an atomic read-modify-write whose operand comes from
    /// this MD's region: name the target, operation, datatype and (for a
    /// fetching atomic) the descriptor the prior value lands in, then
    /// [`AtomicBuilder::submit`]. Spec lineage: Portals 4 `PtlAtomic` /
    /// `PtlFetchAtomic` — the RMW executes in the *target's* engine, so
    /// concurrent atomics from many initiators compose without any code
    /// running in the target process.
    pub fn atomic_op(&self, md: MdHandle) -> AtomicBuilder<'_> {
        AtomicBuilder::new(self, md)
    }

    // ----- counting events & triggered operations ---------------------------

    /// Allocate a counting event (spec lineage: `PtlCTAlloc`).
    pub fn ct_alloc(&self) -> PtlResult<CtHandle> {
        if self.core.state.cts.len() >= self.core.config.limits.max_counting_events {
            return Err(PtlError::NoSpace);
        }
        Ok(self.core.state.cts.insert(CountingEvent::new()))
    }

    /// Free a counting event (spec lineage: `PtlCTFree`). Blocked waiters
    /// wake with [`PtlError::InvalidCt`]; parked triggers are discarded.
    pub fn ct_free(&self, h: CtHandle) -> PtlResult<()> {
        let ct = self.core.state.cts.remove(h).ok_or(PtlError::InvalidCt)?;
        ct.free();
        self.core.completed();
        Ok(())
    }

    /// Current counter value (spec lineage: `PtlCTGet`).
    pub fn ct_get(&self, h: CtHandle) -> PtlResult<CtValue> {
        self.node.endpoint.progress_once();
        self.core
            .state
            .cts
            .with(h, CountingEvent::get)
            .ok_or(PtlError::InvalidCt)
    }

    /// Block until `success + failure >= test` (spec lineage: `PtlCTWait`).
    /// Returning at `test` additionally guarantees every trigger with
    /// threshold ≤ the observed success count has fired (see [`crate::ct`]).
    pub fn ct_wait(&self, h: CtHandle, test: u64) -> PtlResult<CtValue> {
        self.ct_wait_inner(h, test, None)
    }

    /// [`NetworkInterface::ct_wait`] with a deadline (spec lineage:
    /// `PtlCTPoll`).
    pub fn ct_poll(&self, h: CtHandle, test: u64, timeout: Duration) -> PtlResult<CtValue> {
        self.ct_wait_inner(h, test, Some(timeout))
    }

    fn ct_wait_inner(
        &self,
        h: CtHandle,
        test: u64,
        timeout: Option<Duration>,
    ) -> PtlResult<CtValue> {
        let ct = self
            .core
            .state
            .cts
            .get_clone(h)
            .ok_or(PtlError::InvalidCt)?;
        self.wait(timeout, || ct.try_check(test).transpose())
    }

    /// Overwrite a counter's value (spec lineage: `PtlCTSet`). A forward jump
    /// fires any triggers it makes due, in the calling thread.
    pub fn ct_set(&self, h: CtHandle, value: CtValue) -> PtlResult<()> {
        let ct = self
            .core
            .state
            .cts
            .get_clone(h)
            .ok_or(PtlError::InvalidCt)?;
        let due = ct.set_and_take(value);
        if !due.is_empty() {
            for op in due {
                triggered::fire(&self.core, &self.node, op);
            }
            ct.fire_done();
        }
        self.core.completed();
        Ok(())
    }

    /// Host-side success increment (spec lineage: `PtlCTInc`); fires any
    /// triggers that become due, in the calling thread.
    pub fn ct_inc(&self, h: CtHandle, increment: u64) -> PtlResult<()> {
        if triggered::ct_increment(&self.core, &self.node, h, increment) {
            Ok(())
        } else {
            Err(PtlError::InvalidCt)
        }
    }

    /// Host-side failure increment. Failures satisfy `ct_wait`/`ct_poll`
    /// thresholds (so blocked waiters can observe errors) but never fire
    /// triggers.
    pub fn ct_inc_failure(&self, h: CtHandle, increment: u64) -> PtlResult<()> {
        let ct = self
            .core
            .state
            .cts
            .get_clone(h)
            .ok_or(PtlError::InvalidCt)?;
        ct.add_failure(increment);
        self.core.completed();
        Ok(())
    }

    /// Queue an increment of `ct` against `trig_ct` (spec lineage:
    /// `PtlTriggeredCTInc`) — the primitive for chaining counters.
    pub fn triggered_ct_inc(
        &self,
        ct: CtHandle,
        increment: u64,
        trig_ct: CtHandle,
        threshold: u64,
    ) -> PtlResult<()> {
        self.register_trigger(trig_ct, threshold, TriggeredOp::CtInc { ct, increment })
    }

    /// Park `op` on `trig_ct` until its success count reaches `threshold`,
    /// or fire it now in this thread if it already has.
    pub(crate) fn register_trigger(
        &self,
        trig_ct: CtHandle,
        threshold: u64,
        op: TriggeredOp,
    ) -> PtlResult<()> {
        let ct = self
            .core
            .state
            .cts
            .get_clone(trig_ct)
            .ok_or(PtlError::InvalidCt)?;
        if let Some(op) = ct.register(threshold, op)? {
            triggered::fire(&self.core, &self.node, op);
            ct.fire_done();
            self.core.completed();
        }
        Ok(())
    }

    // ----- progress -----------------------------------------------------------

    /// Every blocking call, whatever the mode: the transport's one wait loop
    /// on the node's waiters' doorbell until `check` yields or `timeout`
    /// passes. It runs the node's engine wherever the endpoint leaves that
    /// to waiting callers.
    fn wait<T>(
        &self,
        timeout: Option<Duration>,
        check: impl FnMut() -> Option<PtlResult<T>>,
    ) -> PtlResult<T> {
        self.node
            .endpoint
            .drive_until(timeout.map(|t| Instant::now() + t), true, check)
            .unwrap_or(Err(PtlError::Timeout))
    }

    /// Make progress from this call: on a caller-driven node, step the
    /// transport and dispatch inline (there is no NIC thread); on a
    /// host-driven node, run the engine over the deliveries waiting for an
    /// API call. A no-op beside a NIC thread that runs the engine itself.
    pub fn progress(&self) {
        self.node.endpoint.progress_dispatch();
    }

    /// The node's deliveries waiting for an API call to run the engine (on a
    /// node that is not host-driven, only ever a step's worth in passing).
    /// Never *processes* them: "no receive rules outside API calls" is the
    /// host-driven contract.
    pub fn raw_pending(&self) -> usize {
        self.node.endpoint.deliveries_pending()
    }
}

/// Launch one checked operation: the body of every builder's `submit`. The
/// descriptor checks run here, at launch. The count comes first, as in
/// [`transmit`]; an API call runs no dispatch step, so it owes no acks that
/// would have to leave before the message.
pub(crate) fn launch(core: &NiCore, node: &NodeShared, op: Op) -> PtlResult<()> {
    let (dst, msg) = prepare(core, op)?;
    core.counters.messages_sent.inc();
    node.put_on_wire(dst, &msg);
    Ok(())
}

/// The checked half of [`launch`]: run the descriptor checks, build the
/// message and log its `Sent` event. Nothing has left the interface yet, so
/// a caller can publish what the launch means (a fired trigger) before
/// [`transmit`] makes it observable remotely.
pub(crate) fn prepare(core: &NiCore, op: Op) -> PtlResult<(portals_types::NodeId, PortalsMessage)> {
    let (msg, eq, length) = match op.verb {
        Verb::Put { ack } => put_message(core, &op, ack)?,
        Verb::Get { length } => get_message(core, &op, length)?,
        Verb::Atomic {
            op: aop,
            datatype,
            fetch_md,
            ack,
            length,
        } => atomic_message(core, &op, aop, datatype, fetch_md, ack, length)?,
    };
    // Log `Sent` *before* handing the message to the network: the reply or
    // ack for this operation can race back through the NIC thread,
    // and its event must not be able to precede ours on the same queue.
    if let Some(eqh) = eq {
        let event = Event {
            kind: EventKind::Sent,
            initiator: core.id,
            portal_index: op.portal_index,
            match_bits: op.match_bits,
            rlength: length,
            mlength: length,
            offset: 0,
            md: op.md,
        };
        core.push_event(eqh, event);
    }
    Ok((op.target.nid, msg))
}

/// Send a parked operation that fired in engine context: count a
/// [`prepare`]d message and hand it to the network behind any acks the
/// running dispatch step owes its destination. The count comes first: once
/// the message is out, its ack or reply can be observed before this function
/// returns.
pub(crate) fn transmit(
    core: &NiCore,
    node: &NodeShared,
    dst: portals_types::NodeId,
    msg: &PortalsMessage,
) {
    core.counters.messages_sent.inc();
    node.send(dst, msg);
}

/// What a launch puts on the wire, the queue its `Sent` event goes to, and
/// the length that event reports.
type Launched = (PortalsMessage, Option<EqHandle>, u64);

/// The request header `op` carries for `length` bytes.
fn request_header(core: &NiCore, op: &Op, length: u64) -> RequestHeader {
    RequestHeader {
        initiator: core.id,
        target: op.target,
        portal_index: op.portal_index,
        cookie: op.cookie,
        match_bits: op.match_bits,
        offset: op.remote_offset,
        length,
    }
}

/// The raw `(md, eq)` pair a request names for its ack: none unless asked.
fn ack_handles(ack: AckRequest, md: MdHandle, eq: Option<EqHandle>) -> (u64, u64) {
    match ack {
        AckRequest::Ack => (md.to_raw(), eq.map_or(RAW_HANDLE_NONE, |e| e.to_raw())),
        AckRequest::NoAck => (RAW_HANDLE_NONE, RAW_HANDLE_NONE),
    }
}

/// A put of the source descriptor's whole region.
fn put_message(core: &NiCore, op: &Op, ack: AckRequest) -> PtlResult<Launched> {
    let max = core.config.limits.max_message_size;
    let (payload, eq, length) = core
        .state
        .mds
        .with_mut(op.md, |mdr| {
            if !mdr.threshold.active() {
                return Err(PtlError::InvalidMd);
            }
            mdr.threshold = mdr.threshold.decrement();
            let length = mdr.len() as u64;
            if length as usize > max {
                return Err(PtlError::LimitExceeded);
            }
            Ok((mdr.payload_gather(0, length), mdr.eq, length))
        })
        .ok_or(PtlError::InvalidMd)??;
    let (ack_md, ack_eq) = ack_handles(ack, op.md, eq);
    let msg = PortalsMessage::Put(PutRequest {
        header: request_header(core, op, length),
        ack_md,
        ack_eq,
        payload,
    });
    Ok((msg, eq, length))
}

/// A get whose reply lands at the start of the descriptor, which stays
/// pinned (`pending_ops`) until the reply arrives.
fn get_message(core: &NiCore, op: &Op, length: u64) -> PtlResult<Launched> {
    if length as usize > core.config.limits.max_message_size {
        return Err(PtlError::LimitExceeded);
    }
    let eq = core
        .state
        .mds
        .with_mut(op.md, |mdr| {
            if !mdr.threshold.active() {
                return Err(PtlError::InvalidMd);
            }
            mdr.threshold = mdr.threshold.decrement();
            mdr.pending_ops += 1;
            Ok(mdr.eq)
        })
        .ok_or(PtlError::InvalidMd)??;
    let msg = PortalsMessage::Get(GetRequest {
        header: request_header(core, op, length),
        reply_md: op.md.to_raw(),
    });
    Ok((msg, eq, length))
}

/// An atomic whose operand comes from the descriptor (for CAS its region
/// holds `compare ++ operand`). `fetch_md`, when set, turns it into a
/// fetching atomic whose reply — the prior value — lands at offset 0 of that
/// descriptor through the ordinary reply path ([`crate::engine::reply_begin`]),
/// pinning it (`pending_ops`) exactly like a get pins its reply descriptor.
fn atomic_message(
    core: &NiCore,
    op: &Op,
    aop: AtomicOp,
    datatype: AtomicDatatype,
    fetch_md: Option<MdHandle>,
    ack: AckRequest,
    length: u64,
) -> PtlResult<Launched> {
    let operand_len = aop.operand_len(length);
    if length as usize > core.config.limits.max_message_size {
        return Err(PtlError::LimitExceeded);
    }
    // Pin the fetch descriptor first so its reply slot cannot vanish; undo if
    // the operand source then refuses.
    if let Some(f) = fetch_md {
        core.state
            .mds
            .with_mut(f, |m| m.pending_ops += 1)
            .ok_or(PtlError::InvalidMd)?;
    }
    let sourced = core
        .state
        .mds
        .with_mut(op.md, |mdr| {
            if !mdr.threshold.active() {
                return Err(PtlError::InvalidMd);
            }
            if (mdr.len() as u64) < operand_len {
                return Err(PtlError::InvalidArgument);
            }
            mdr.threshold = mdr.threshold.decrement();
            Ok((mdr.payload_gather(0, operand_len), mdr.eq))
        })
        .ok_or(PtlError::InvalidMd)
        .and_then(|r| r);
    let (payload, eq) = match sourced {
        Ok(v) => v,
        Err(e) => {
            if let Some(f) = fetch_md {
                core.state
                    .mds
                    .with_mut(f, |m| m.pending_ops = m.pending_ops.saturating_sub(1));
            }
            return Err(e);
        }
    };
    // A fetching atomic completes through its reply, never an ack.
    let ack = if fetch_md.is_some() {
        AckRequest::NoAck
    } else {
        ack
    };
    let (ack_md, ack_eq) = ack_handles(ack, op.md, eq);
    let msg = PortalsMessage::Atomic(AtomicRequest {
        header: request_header(core, op, length),
        op: aop,
        datatype,
        fetch: fetch_md.is_some(),
        ack_md,
        ack_eq,
        reply_md: fetch_md.map_or(RAW_HANDLE_NONE, |f| f.to_raw()),
        payload,
    });
    Ok((msg, eq, length))
}

impl Drop for NetworkInterface {
    fn drop(&mut self) {
        self.node.nis.write().remove(&self.core.id.pid);
    }
}

impl std::fmt::Debug for NetworkInterface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NetworkInterface({}, {:?})",
            self.core.id,
            self.node.endpoint.progress_mode()
        )
    }
}
