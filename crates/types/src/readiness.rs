//! Progress-mode selection and the lock-free readiness doorbell.
//!
//! Submission is the same in every [`ProgressMode`]: an op descriptor passes
//! from the sender's stack straight into the transport, under the lock that
//! guards the node's one set of protocol state machines. The mode names who
//! runs the other half — taking arrivals through the transport and the
//! receive engine, firing timers:
//!
//! * **NIC-thread** — one thread per node stands in for NIC firmware and
//!   steps while no caller is blocked. On the fabric it stands by in the
//!   link's [`Readiness`] doorbell; a caller blocked in a receiving wait
//!   [drives](Readiness::drive) instead: it steps the node itself and parks
//!   on that doorbell, so an arriving datagram wakes the one caller that
//!   waits for it and no thread hands it over. While nobody drives, an
//!   arrival wakes the standby thread, which runs the engine. On a UDP
//!   socket the thread that takes the datagram is the socket's own receive
//!   thread, which runs the step itself, and callers park on a doorbell of
//!   their own that only completions ring: one thread handoff per message
//!   in, none out.
//! * **Caller-driven (threadless)** — no dedicated thread. The caller blocked
//!   in a wait runs that same step inline, spinning briefly and then parking
//!   on the link's doorbell between arrivals.
//! * **Host-driven** — the NIC thread runs the transport only, and what it
//!   delivers waits in the endpoint's delivery queue, under credit flow
//!   control; the receive engine runs inside API calls on the application's
//!   thread (the GM-style baseline of the paper's §5.3). A blocked caller
//!   runs the engine over that queue, then parks on a doorbell that
//!   completions and deliveries ring.
//!
//! So there is one way to wait: step what the caller may step, check, and
//! park on a doorbell. The mode only picks the doorbell — the one the
//! caller's own step needs to hear, or one that completions alone ring.
//! Where a standby thread and a driver share one, a [`Readiness::set`]
//! wakes exactly one of them: the driver while one is registered, the
//! standby thread otherwise, and a [`Readiness::ring`] (a completion) wakes
//! only waiters, never the standby thread.
//!
//! [`Readiness`] is the primitive that makes every park cheap and
//! lost-wakeup-free: a lock-free bitset of pending work classes fused with a
//! doorbell sequence number. Producers `set` bits (one atomic OR, plus a wake
//! only when someone is parked — a park/unpark costs ~220 ns, the unpark never
//! blocks) or just `ring`; consumers `take` bits, and work that lands after
//! the take re-raises the bit, so no item is stranded.
//!
//! The park protocol is: read [`Readiness::seq`], drain/progress, re-check the
//! predicate, and only then [`Readiness::wait`] on the *previously read*
//! sequence. A completion that lands anywhere between the read and the park
//! bumps the sequence, so the wait returns immediately instead of sleeping
//! through it.
//!
//! [`DoorbellQueue`] is the one queue type beneath the NI: a FIFO bound to a
//! doorbell and to the bit it raises, so "enqueue, then ring" is one call and
//! the doorbell is the only thing anybody ever blocks on.

use crate::error::RecvError;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Who runs the protocol — takes arrivals through the transport and the
/// receive engine, fires timers. Submission runs inline in the caller in
/// every mode.
///
/// The knob lives on `TransportConfig` and is a property of the node:
/// everything built on the endpoint — the node, its interfaces, MPI —
/// inherits it. `TransportConfig` defaults to [`ProgressMode::NicThread`];
/// `NodeConfig::default()` consults [`ProgressMode::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// One thread per node (the NIC-firmware stand-in), standing by on the
    /// link's doorbell — on a UDP socket, the socket's receive thread —
    /// steps the transport and runs the receive engine on what arrives while
    /// no caller waits. On the fabric a caller blocked in a receiving wait
    /// steps the node itself meanwhile, and the thread stays parked; on UDP
    /// callers park, without stepping, until the receive thread completes
    /// something for them and rings their doorbell. The paper's application
    /// bypass (§5.1): the application is not needed for progress, and a
    /// caller already blocking is not kept from making it.
    #[default]
    NicThread,
    /// Threadless: the blocked or polling caller steps the transport, the
    /// fabric and the receive engine inline. No handoff at all.
    CallerDriven,
    /// The NIC thread steps the transport and leaves arrivals queued raw in
    /// the endpoint; the receive rules of §4.8 run only inside the node's
    /// API calls that run the engine. The GM-style baseline of §5.3 and
    /// Figure 6, kept protocol-identical so the comparison isolates the
    /// progress question.
    HostDriven,
}

impl ProgressMode {
    /// Resolve the mode from the `PORTALS_PROGRESS_MODE` environment
    /// variable: `nic_thread` or `caller_driven`; unset selects
    /// [`ProgressMode::NicThread`]. Used by configuration defaults so CI can
    /// run the whole suite in either mode without editing every test.
    ///
    /// Panics, naming the variable and the value, on anything else — a typo
    /// in a launcher or a CI matrix must not silently test the wrong mode.
    /// [`ProgressMode::HostDriven`] is never selected here: a suite written
    /// for autonomous progress does not run on a host-driven node.
    pub fn from_env() -> ProgressMode {
        ProgressMode::parse(std::env::var("PORTALS_PROGRESS_MODE").ok().as_deref())
    }

    fn parse(value: Option<&str>) -> ProgressMode {
        match value {
            None | Some("nic_thread") => ProgressMode::NicThread,
            Some("caller_driven") => ProgressMode::CallerDriven,
            Some(other) => panic!(
                "PORTALS_PROGRESS_MODE={other} is not valid (expected nic_thread or caller_driven)"
            ),
        }
    }

    /// True for [`ProgressMode::CallerDriven`]: no NIC thread, the caller
    /// steps the transport.
    #[inline]
    pub fn is_caller_driven(self) -> bool {
        self == ProgressMode::CallerDriven
    }
}

/// The number of CPUs this process may run on (its affinity mask, so
/// `taskset -c 0` reads 1), read once. A waiter that steps decides on it
/// whether to spin: a spin bets that the producer runs *concurrently*, and on
/// one CPU it merely steals the timeslice the producer needs, so there the
/// waiter yields for a bounded window instead, then parks on its doorbell.
/// An unreadable count is taken as many.
pub fn cpus_online() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(usize::MAX, |n| n.get()))
}

/// A lock-free readiness bitset fused with a park/unpark doorbell.
///
/// One `Readiness` serves one endpoint/node: each bit marks a class of
/// pending work (see the associated constants), and the sequence number turns
/// "something changed since I looked" into a race-free park predicate.
///
/// It has two parking slots. Waiters park in the main one
/// ([`Readiness::wait`]), which [`Readiness::ring`] and, as a rule,
/// [`Readiness::set`] wake. A NIC thread that only steps while no caller
/// does parks in the standby slot ([`Readiness::wait_standby`]), which has a
/// sequence of its own and which `ring` never wakes: from the moment that
/// thread [stands by](Readiness::stand_by), a `set` wakes the main slot
/// while a caller [drives](Readiness::drive) and the standby slot while none
/// does, so at most one stepper is woken per arrival.
#[derive(Default)]
pub struct Readiness {
    /// Pending-work classes. Producers OR bits in after enqueuing; consumers
    /// clear them (via [`Readiness::take`]).
    bits: AtomicU64,
    /// The waiters' slot.
    main: Slot,
    /// The standby NIC thread's slot.
    standby: Slot,
    /// Callers registered as the node's driver ([`Readiness::drive`]).
    drivers: AtomicU32,
    /// Threads standing by ([`Readiness::stand_by`]): while there are any, a
    /// `set` with no driver registered wakes only them.
    standbys: AtomicU32,
    mutex: Mutex<()>,
}

/// One parking slot: a doorbell generation and the threads parked on it.
#[derive(Default)]
struct Slot {
    /// Doorbell generation: bumped on every ring of this slot, read by
    /// waiters before their final predicate check.
    seq: AtomicU64,
    /// Number of parked threads; the wake path takes the mutex only when this
    /// is non-zero, so ringing an idle doorbell is two uncontended atomics.
    parked: AtomicU32,
    cond: Condvar,
}

impl Slot {
    fn ring(&self, mutex: &Mutex<()>) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = mutex.lock();
            self.cond.notify_all();
        }
    }

    /// Race-free: the parked count is published before the sequence is
    /// re-read under the mutex, so a ring between the caller's last check
    /// and the park either sees the waiter (and notifies under the same
    /// mutex) or happened early enough that the re-read observes its bump.
    fn wait(&self, mutex: &Mutex<()>, observed: u64, timeout: Duration) -> u64 {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = mutex.lock();
        let mut now = self.seq.load(Ordering::SeqCst);
        if now == observed {
            let _ = self.cond.wait_for(&mut guard, timeout);
            now = self.seq.load(Ordering::SeqCst);
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        now
    }
}

impl std::fmt::Debug for Readiness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Readiness")
            .field("bits", &self.bits.load(Ordering::Relaxed))
            .field("seq", &self.main.seq.load(Ordering::Relaxed))
            .field("waiters", &self.main.parked.load(Ordering::Relaxed))
            .field("drivers", &self.drivers.load(Ordering::Relaxed))
            .field("standbys", &self.standbys.load(Ordering::Relaxed))
            .finish()
    }
}

impl Readiness {
    /// Raw datagrams queued at the NIC: the bit of a link's inbound
    /// [`DoorbellQueue`].
    pub const INBOUND: u64 = 1 << 0;
    /// Deliveries queued from the transport step to dispatch: the bit of an
    /// endpoint's delivery [`DoorbellQueue`].
    pub const DELIVERED: u64 = 1 << 1;
    /// The bits a stepper acts on. A driver that leaves while one is raised
    /// wakes the standby slot ([`Readiness::drive`]).
    const WORK: u64 = Readiness::INBOUND | Readiness::DELIVERED;

    /// A fresh doorbell with no pending work.
    pub fn new() -> Readiness {
        Readiness::default()
    }

    /// Raise `mask` and ring the doorbell. Producers call this *after*
    /// enqueuing the work the bits describe. While a thread stands by and no
    /// caller drives, it is that thread the set wakes, and the main slot is
    /// left alone; otherwise the set rings the main slot.
    ///
    /// The bit is raised before the driver count is read, and a leaving
    /// driver lowers the count before it reads the bits (all `SeqCst`): one
    /// side always sees the other, so a bit raised as the last driver leaves
    /// wakes the standby thread from one side or the other.
    pub fn set(&self, mask: u64) {
        self.bits.fetch_or(mask, Ordering::SeqCst);
        if self.standbys.load(Ordering::SeqCst) > 0 && self.drivers.load(Ordering::SeqCst) == 0 {
            self.standby.ring(&self.mutex);
        } else {
            self.ring();
        }
    }

    /// Ring the main slot without raising bits — used when the only fact to
    /// convey is "re-check your predicate": a completion landed. Never wakes
    /// the standby slot.
    pub fn ring(&self) {
        self.main.ring(&self.mutex);
    }

    /// Wake the standby slot whatever the bits and the drivers: a stop, which
    /// the standby thread must see at once.
    pub fn ring_standby(&self) {
        self.standby.ring(&self.mutex);
    }

    /// Clear and return the raised subset of `mask`. Anything produced after
    /// the clear re-raises its bit, so no work is stranded.
    pub fn take(&self, mask: u64) -> u64 {
        if self.bits.load(Ordering::Acquire) & mask == 0 {
            return 0;
        }
        self.bits.fetch_and(!mask, Ordering::AcqRel) & mask
    }

    /// Currently raised bits (no clearing). `SeqCst`, so a driver that reads
    /// it after registering sees any bit whose `set` missed the registration.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.bits.load(Ordering::SeqCst)
    }

    /// Current doorbell sequence of the main slot. Read this *before* the
    /// final predicate check that precedes a [`Readiness::wait`].
    #[inline]
    pub fn seq(&self) -> u64 {
        self.main.seq.load(Ordering::SeqCst)
    }

    /// Park in the main slot until its sequence moves past `observed` or
    /// `timeout` elapses, whichever is first. Returns the sequence at wakeup.
    pub fn wait(&self, observed: u64, timeout: Duration) -> u64 {
        self.main.wait(&self.mutex, observed, timeout)
    }

    /// Current sequence of the standby slot: [`Readiness::seq`]'s twin for
    /// [`Readiness::wait_standby`].
    #[inline]
    pub fn standby_seq(&self) -> u64 {
        self.standby.seq.load(Ordering::SeqCst)
    }

    /// Park in the standby slot until its sequence moves past `observed` or
    /// `timeout` elapses. Returns the standby sequence at wakeup.
    pub fn wait_standby(&self, observed: u64, timeout: Duration) -> u64 {
        self.standby.wait(&self.mutex, observed, timeout)
    }

    /// Register a thread as standing by until the guard drops: from now on a
    /// `set` with no driver registered wakes the standby slot instead of the
    /// main one. Taken before the thread starts, so that no set made before
    /// it first parks goes to the main slot instead.
    pub fn stand_by(self: &Arc<Readiness>) -> StandBy {
        self.standbys.fetch_add(1, Ordering::SeqCst);
        StandBy(Arc::clone(self))
    }

    /// Register a caller as the node's driver until the guard drops: while
    /// one is registered, a `set` wakes the main slot, where the driver
    /// parks, and not the standby one. The driver reads
    /// [`Readiness::seq`] and steps only after registering, so a set that
    /// saw no driver raised a bit the driver's step finds.
    pub fn drive(&self) -> Driving<'_> {
        self.drivers.fetch_add(1, Ordering::SeqCst);
        Driving(self)
    }

    /// Whether a caller is registered as the node's driver.
    #[inline]
    pub fn driven(&self) -> bool {
        self.drivers.load(Ordering::SeqCst) > 0
    }
}

/// A thread standing by on a [`Readiness`] ([`Readiness::stand_by`]).
#[must_use = "the thread stands by only while the guard lives"]
pub struct StandBy(Arc<Readiness>);

impl Drop for StandBy {
    fn drop(&mut self) {
        self.0.standbys.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A caller registered as a node's driver ([`Readiness::drive`]).
#[must_use = "the caller drives only while the guard lives"]
pub struct Driving<'a>(&'a Readiness);

impl Drop for Driving<'_> {
    /// The last driver to leave hands a raised work bit to the standby slot:
    /// the set that raised it may have seen this driver and rung the main
    /// slot only.
    fn drop(&mut self) {
        let r = self.0;
        if r.drivers.fetch_sub(1, Ordering::SeqCst) == 1
            && r.bits.load(Ordering::SeqCst) & Readiness::WORK != 0
        {
            r.ring_standby();
        }
    }
}

/// A FIFO bound to a [`Readiness`] doorbell and to the bit it raises there.
///
/// Producers [`push`](DoorbellQueue::push): the item is enqueued, *then* the
/// bit is raised and the doorbell rung — one call, in the order the park
/// protocol needs. The pop that empties the queue clears the bit, so the bit
/// reads "non-empty" without taking the lock (a push racing that pop may
/// leave it raised over an empty queue — a wasted look, never a stranded
/// item). The queue has no condvar of its own: a blocked
/// [`recv`](DoorbellQueue::recv) is the seq → check → [`Readiness::wait`]
/// park, on the same doorbell as every other waiter of the node.
pub struct DoorbellQueue<T> {
    items: Mutex<VecDeque<T>>,
    readiness: Arc<Readiness>,
    bit: u64,
}

impl<T> DoorbellQueue<T> {
    /// An empty queue that raises `bit` on `readiness`.
    pub fn new(readiness: Arc<Readiness>, bit: u64) -> DoorbellQueue<T> {
        DoorbellQueue {
            items: Mutex::new(VecDeque::new()),
            readiness,
            bit,
        }
    }

    /// The doorbell this queue rings. Layers above raise their own bits on
    /// it so one park covers every work class.
    pub fn readiness(&self) -> &Arc<Readiness> {
        &self.readiness
    }

    /// Enqueue one item and ring.
    pub fn push(&self, item: T) {
        self.push_all(Some(item));
    }

    /// Enqueue a run of items under one lock and ring once (not at all for
    /// an empty run).
    pub fn push_all(&self, items: impl IntoIterator<Item = T>) {
        let mut queue = self.items.lock();
        let before = queue.len();
        queue.extend(items);
        let grew = queue.len() > before;
        drop(queue);
        if grew {
            self.readiness.set(self.bit);
        }
    }

    /// Pop the oldest item, or [`RecvError::Empty`].
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut queue = self.items.lock();
        let item = queue.pop_front();
        if queue.is_empty() {
            self.readiness.take(self.bit);
        }
        drop(queue);
        item.ok_or(RecvError::Empty)
    }

    /// Park on the doorbell until an item can be popped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None)
    }

    /// Like [`DoorbellQueue::recv`], giving up with [`RecvError::Timeout`]
    /// once `timeout` has passed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvError> {
        loop {
            let observed = self.readiness.seq();
            if let Ok(item) = self.try_recv() {
                return Ok(item);
            }
            let left = match deadline {
                None => Duration::MAX,
                Some(d) => d.saturating_duration_since(Instant::now()),
            };
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            self.readiness.wait(observed, left);
        }
    }

    /// Items queued right now.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for DoorbellQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DoorbellQueue({} queued)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_unset_defaults_to_nic_thread() {
        assert_eq!(ProgressMode::parse(None), ProgressMode::NicThread);
    }

    #[test]
    fn env_accepts_exactly_the_two_ci_spellings() {
        assert_eq!(
            ProgressMode::parse(Some("nic_thread")),
            ProgressMode::NicThread
        );
        assert_eq!(
            ProgressMode::parse(Some("caller_driven")),
            ProgressMode::CallerDriven
        );
    }

    #[test]
    #[should_panic(expected = "PORTALS_PROGRESS_MODE=threadless is not valid")]
    fn env_rejects_anything_else_by_name() {
        ProgressMode::parse(Some("threadless"));
    }

    #[test]
    fn set_take_roundtrip() {
        let r = Readiness::new();
        assert_eq!(r.take(Readiness::INBOUND), 0);
        r.set(Readiness::INBOUND | Readiness::DELIVERED);
        assert_eq!(r.peek(), Readiness::INBOUND | Readiness::DELIVERED);
        assert_eq!(r.take(Readiness::INBOUND), Readiness::INBOUND);
        assert_eq!(r.peek(), Readiness::DELIVERED);
        assert_eq!(r.take(Readiness::DELIVERED), Readiness::DELIVERED);
        assert_eq!(r.peek(), 0);
    }

    #[test]
    fn wait_returns_immediately_when_seq_moved() {
        let r = Readiness::new();
        let observed = r.seq();
        r.ring();
        let t0 = Instant::now();
        r.wait(observed, Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1), "must not sleep");
    }

    #[test]
    fn wait_times_out_when_quiet() {
        let r = Readiness::new();
        let observed = r.seq();
        let t0 = Instant::now();
        r.wait(observed, Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn parked_waiter_is_woken_by_set() {
        let r = Arc::new(Readiness::new());
        let r2 = Arc::clone(&r);
        let observed = r.seq();
        let t = std::thread::spawn(move || {
            let t0 = Instant::now();
            r2.wait(observed, Duration::from_secs(10));
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        r.set(Readiness::DELIVERED);
        let waited = t.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "wake must beat the timeout"
        );
    }

    /// The lost-wakeup race this type exists to close: a completion landing
    /// between the waiter's final check and its park must not be slept
    /// through. Hammered further (full stack) in the portals progress-mode
    /// stress tests.
    #[test]
    fn no_lost_wakeup_between_check_and_park() {
        let r = Arc::new(Readiness::new());
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..2000 {
            let observed = r.seq();
            // Producer fires at a random-ish point around the consumer's
            // check/park boundary.
            let rp = Arc::clone(&r);
            let dp = Arc::clone(&done);
            let producer = std::thread::spawn(move || {
                dp.store(1, Ordering::Release);
                rp.ring();
            });
            // Consumer: predicate is `done == 1`; if it is not yet set, park
            // on the sequence observed *before* the check. The producer's set
            // bumps the sequence, so the park must return promptly.
            let t0 = Instant::now();
            if done.load(Ordering::Acquire) == 0 {
                r.wait(observed, Duration::from_secs(5));
            }
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "lost wakeup: parked through the completion"
            );
            producer.join().unwrap();
            done.store(0, Ordering::Release);
        }
    }

    /// Wait until a thread is parked (or about to park) in `slot`.
    fn until_parked(slot: &Slot) {
        let t0 = Instant::now();
        while slot.parked.load(Ordering::SeqCst) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "never parked");
            std::thread::yield_now();
        }
    }

    /// A thread standing by on `r`, parked in the standby slot for at most
    /// `bound`. Joined, it returns how long it stayed parked and whether the
    /// slot was rung.
    fn park_standby(
        r: &Arc<Readiness>,
        bound: Duration,
    ) -> std::thread::JoinHandle<(Duration, bool)> {
        let r2 = Arc::clone(r);
        let thread = std::thread::spawn(move || {
            let _standby = r2.stand_by();
            let observed = r2.standby_seq();
            let t0 = Instant::now();
            let woke = r2.wait_standby(observed, bound);
            (t0.elapsed(), woke != observed)
        });
        until_parked(&r.standby);
        thread
    }

    #[test]
    fn a_set_wakes_the_driver_while_one_drives_and_else_the_standby_thread() {
        let r = Arc::new(Readiness::new());
        let standby = park_standby(&r, Duration::from_millis(200));
        let driving = r.drive();
        let observed = r.seq();
        let r2 = Arc::clone(&r);
        let driver = std::thread::spawn(move || {
            let t0 = Instant::now();
            let woke = r2.wait(observed, Duration::from_secs(10));
            (t0.elapsed(), woke != observed)
        });
        until_parked(&r.main);
        r.set(Readiness::INBOUND);
        let (waited, rung) = driver.join().unwrap();
        assert!(
            rung && waited < Duration::from_secs(5),
            "driver: {waited:?}"
        );
        assert_eq!(r.standby.parked.load(Ordering::SeqCst), 1, "still parked");
        assert_eq!(r.take(Readiness::INBOUND), Readiness::INBOUND);
        drop(driving);
        let (parked, rung) = standby.join().unwrap();
        assert!(!rung, "the set woke the standby slot");
        assert!(
            parked >= Duration::from_millis(150),
            "left after {parked:?}"
        );
        // With no driver registered, the set wakes the standby thread at
        // once and leaves the main slot alone.
        let standby = park_standby(&r, Duration::from_secs(10));
        let seq = r.seq();
        r.set(Readiness::INBOUND);
        let (waited, rung) = standby.join().unwrap();
        assert!(
            rung && waited < Duration::from_secs(5),
            "standby: {waited:?}"
        );
        assert_eq!(r.seq(), seq, "the set rang the main slot");
    }

    #[test]
    fn a_completion_ring_never_wakes_the_standby_slot() {
        let r = Arc::new(Readiness::new());
        let standby = park_standby(&r, Duration::from_millis(100));
        let seq = r.seq();
        for _ in 0..100 {
            r.ring();
        }
        assert_eq!(r.seq(), seq + 100, "every ring reaches the main slot");
        let (parked, rung) = standby.join().unwrap();
        assert!(!rung, "a ring woke the standby slot");
        assert!(parked >= Duration::from_millis(75), "left after {parked:?}");
    }

    #[test]
    fn a_driver_leaving_over_a_raised_work_bit_wakes_the_standby_thread() {
        let r = Arc::new(Readiness::new());
        // Leaving with nothing raised wakes nobody.
        let standby = park_standby(&r, Duration::from_millis(100));
        drop(r.drive());
        let (parked, rung) = standby.join().unwrap();
        assert!(!rung && parked >= Duration::from_millis(75), "{parked:?}");
        // Leaving over the INBOUND a set raised while it drove does, well
        // within the standby park's bound.
        let standby = park_standby(&r, Duration::from_secs(10));
        let driving = r.drive();
        let standby_seq = r.standby_seq();
        r.set(Readiness::INBOUND);
        assert_eq!(r.standby_seq(), standby_seq, "the set went to the driver");
        let t0 = Instant::now();
        drop(driving);
        let (_, rung) = standby.join().unwrap();
        assert!(rung, "the leaving driver did not ring the standby slot");
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        assert_eq!(r.peek(), Readiness::INBOUND, "the bit is the standby's");
    }

    fn inbound_queue() -> DoorbellQueue<(u32, u32)> {
        DoorbellQueue::new(Arc::new(Readiness::new()), Readiness::INBOUND)
    }

    #[test]
    fn queue_is_fifo_under_four_concurrent_pushers() {
        const PER_PUSHER: u32 = 2_000;
        let q = inbound_queue();
        std::thread::scope(|s| {
            for pusher in 0..4 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PUSHER {
                        q.push((pusher, i));
                    }
                });
            }
            let mut next = [0u32; 4];
            for _ in 0..4 * PER_PUSHER {
                let (pusher, i) = q.recv_timeout(Duration::from_secs(10)).expect("item");
                assert_eq!(i, next[pusher as usize], "pusher {pusher} out of order");
                next[pusher as usize] += 1;
            }
            assert_eq!(next, [PER_PUSHER; 4]);
        });
        assert_eq!(q.try_recv(), Err(RecvError::Empty));
    }

    /// The lost-wake-up case, interleaving forced by program order: the push
    /// lands after the waiter read the sequence and found the queue empty,
    /// before it parks.
    #[test]
    fn push_between_seq_read_and_wait_ends_the_park_at_once() {
        let q = inbound_queue();
        for i in 0..10_000 {
            let observed = q.readiness().seq();
            assert_eq!(q.try_recv(), Err(RecvError::Empty));
            q.push((0, i));
            let t0 = Instant::now();
            q.readiness().wait(observed, Duration::from_secs(5));
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "slept through a push"
            );
            assert_eq!(q.try_recv(), Ok((0, i)));
        }
    }

    #[test]
    fn push_all_rings_once_and_the_emptying_pop_clears_the_bit() {
        let q = inbound_queue();
        let r = Arc::clone(q.readiness());
        let seq = r.seq();
        q.push_all(None);
        assert_eq!(r.seq(), seq, "an empty run rings nobody");
        q.push_all((0..7).map(|i| (0, i)));
        assert_eq!(r.seq(), seq + 1, "seven items, one ring");
        assert_eq!(q.len(), 7);
        for i in 0..7 {
            assert_eq!(r.peek(), Readiness::INBOUND, "raised while non-empty");
            assert_eq!(q.try_recv(), Ok((0, i)));
        }
        assert_eq!(r.peek(), 0);
    }

    #[test]
    fn recv_timeout_on_an_empty_queue_returns_within_its_bound() {
        let q = inbound_queue();
        let t0 = Instant::now();
        assert_eq!(
            q.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Timeout)
        );
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(15),
            "gave up after {waited:?}"
        );
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
    }
}
