//! The seven workloads: what one op is on each rank, and how its result is
//! checked.
//!
//! Every workload is a closed loop between exactly two ranks with one op in
//! flight: rank 0 starts an op, and cannot start the next before this one's
//! last message has come back. Ops are timed at rank 0. Both ranks execute
//! the same sequence numbers, so a receiver knows which stamp every message
//! must carry (see [`crate::inputs`]).

use crate::inputs::{whole_check, Inputs, BODY_LEN, BURST};
use crate::rig::{
    AtomicDatatype, AtomicOp, Collectives, Communicator, Completion, ProcessEnv, Rank, ReduceOp,
    Region, Request, Window, Wire,
};
use crate::spans::Spans;
use std::sync::Arc;

/// A workload's fixed parameters. Op counts per block are constants, the
/// same on every commit; how many blocks run is set by `--seconds`.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Wire the two ranks talk over.
    pub wire: Wire,
    /// Run the transport caller-driven (no NIC threads).
    pub threadless: bool,
    /// Ops per timed block (about 0.1 s at the speed of the commit that
    /// defined the benchmark). One untimed block runs first as warm-up — 1%
    /// of a 10 s run, as ISSUE 11 specifies — and its time belongs to
    /// `setup_s`.
    pub block_ops: u64,
    /// Payload bytes one op moves in its main direction.
    pub op_bytes: u64,
    /// One line on why the workload exists, for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 7] = [
    Spec {
        name: "pp_inproc",
        wire: Wire::Fabric,
        threadless: false,
        block_ops: 1200,
        op_bytes: 8,
        why: "8 B MPI ping-pong on the fabric: thread handoffs, engine match and event, eager matching; bytes, copies, CRC and netudp idle",
    },
    Spec {
        name: "pp_inproc_threadless",
        wire: Wire::Fabric,
        threadless: true,
        block_ops: 1800,
        op_bytes: 8,
        why: "the same ping-pong with the caller running the protocol: a gain for one progress regime that costs the other shows here",
    },
    Spec {
        name: "msgrate_inproc",
        wire: Wire::Fabric,
        threadless: false,
        block_ops: 65,
        op_bytes: 2 * BURST as u64 * MsgRate::MSG as u64,
        why: "64 x 1 KiB expected then 64 unexpected per op: per-message CPU cost with many requests in flight; wake-up latency idles",
    },
    Spec {
        name: "bulk_inproc",
        wire: Wire::Fabric,
        threadless: false,
        block_ops: 80,
        op_bytes: BODY_LEN as u64,
        why: "4 MiB rendezvous transfer on the fabric: per-byte and per-fragment cost of the sub-get pipeline; small-message paths idle",
    },
    Spec {
        name: "halo_inproc",
        wire: Wire::Fabric,
        threadless: false,
        block_ops: 300,
        op_bytes: 4 * Halo::EDGE as u64,
        why: "one-sided stencil step (4 puts, sync, fetch-add, allreduce): engine atomics, CT chains, epoch close; no EQ, no two-sided matching",
    },
    Spec {
        name: "pp_udp",
        wire: Wire::Udp,
        threadless: false,
        block_ops: 900,
        op_bytes: 8,
        why: "8 B MPI ping-pong between two processes over loopback UDP: netudp small-datagram path, body CRC, kernel crossings; batching idles",
    },
    Spec {
        name: "bulk_udp",
        wire: Wire::Udp,
        threadless: false,
        block_ops: 8,
        op_bytes: BODY_LEN as u64,
        why: "4 MiB transfer over loopback UDP at the 1432 B MTU: netudp assembly copy, rx copy, sendmmsg, per-packet transport work; fabric idles",
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

const TAG_CTRL: u32 = 1;
const TAG_DATA: u32 = 2;
const TAG_CREDIT: u32 = 3;
const TAG_TOKEN: u32 = 4;
const TAG_EXPECTED: u32 = 100;
const TAG_UNEXPECTED: u32 = 200;

const R0: Rank = Rank(0);
const R1: Rank = Rank(1);

/// Rank 0 tells rank 1 how many ops the next block has (0: stop). Sent
/// between blocks, outside every timed section.
pub fn send_block_size(comm: &Communicator, ops: u64) {
    comm.send(R1, TAG_CTRL, &ops.to_le_bytes());
}

/// Rank 1's side of [`send_block_size`].
pub fn recv_block_size(comm: &Communicator) -> u64 {
    let (bytes, _) = comm.recv(Some(R0), Some(TAG_CTRL), 8);
    u64::from_le_bytes(bytes.try_into().expect("a block size is 8 bytes"))
}

/// One side of a workload: state built once per run, one op at a time.
pub trait Workload: Sized {
    /// Build this rank's state (buffers, windows, collectives). Part of
    /// `setup_s`.
    fn setup(env: &ProcessEnv, inputs: Arc<Inputs>) -> Self;

    /// This rank's share of op number `seq`; `false` if any check failed.
    fn op(&mut self, seq: u64, sp: &mut Spans) -> bool;

    /// Checks that need the whole run; returns how many ops they fail.
    fn finish(self) -> u64 {
        0
    }
}

/// `pp_inproc`, `pp_inproc_threadless`, `pp_udp`: `send` 8 B, `recv` the
/// 8 B reply.
pub struct PingPong {
    comm: Communicator,
    inputs: Arc<Inputs>,
}

impl Workload for PingPong {
    fn setup(env: &ProcessEnv, inputs: Arc<Inputs>) -> Self {
        PingPong {
            comm: env.comm.clone(),
            inputs,
        }
    }

    fn op(&mut self, seq: u64, sp: &mut Spans) -> bool {
        let comm = &self.comm;
        if comm.rank() == R0 {
            let ping = self.inputs.payload(seq, 8);
            sp.span("mpi.send", |_| comm.send(R1, TAG_DATA, &ping));
            let (pong, _) = sp.span("mpi.recv", |_| comm.recv(Some(R1), Some(TAG_DATA), 8));
            pong == ping
        } else {
            let (ping, _) = sp.span("mpi.recv", |_| comm.recv(Some(R0), Some(TAG_DATA), 8));
            sp.span("mpi.send", |_| comm.send(R0, TAG_DATA, &ping));
            self.inputs.check(seq, &ping, true)
        }
    }
}

/// `bulk_inproc`, `bulk_udp`: the receiver posts `irecv` and sends a 1 B
/// credit; the sender `isend_region`s 4 MiB and waits; a 1 B token comes
/// back carrying the receiver's verdict.
///
/// The payload is one 4 MiB region reused every op, so it is cache-resident
/// by design: the workload measures the stack's per-byte and per-fragment
/// work, not memory bandwidth.
pub struct Bulk {
    comm: Communicator,
    inputs: Arc<Inputs>,
    region: Region,
}

impl Workload for Bulk {
    fn setup(env: &ProcessEnv, inputs: Arc<Inputs>) -> Self {
        let region = if env.rank() == R0 {
            Region::copy_from_slice(inputs.body(BODY_LEN))
        } else {
            Region::zeroed(BODY_LEN)
        };
        Bulk {
            comm: env.comm.clone(),
            inputs,
            region,
        }
    }

    fn op(&mut self, seq: u64, sp: &mut Spans) -> bool {
        let (comm, region, inputs) = (&self.comm, &self.region, &self.inputs);
        if comm.rank() == R0 {
            sp.span("mpi.recv", |_| comm.recv(Some(R1), Some(TAG_CREDIT), 1));
            region.write(0, &inputs.head_stamp(seq));
            region.write(BODY_LEN - 8, &inputs.tail_stamp(seq));
            let req = sp.span("mpi.isend", |_| {
                comm.isend_region(R1, TAG_DATA, region.clone())
            });
            let sent = sp.span("mpi.wait", |_| comm.wait(req));
            let (verdict, _) = sp.span("mpi.recv", |_| comm.recv(Some(R1), Some(TAG_TOKEN), 1));
            let delivered = Completion::Send {
                delivered: BODY_LEN as u64,
                requested: BODY_LEN as u64,
            };
            sent == delivered && verdict == [1]
        } else {
            let req = sp.span("mpi.irecv_post", |_| {
                comm.irecv(Some(R0), Some(TAG_DATA), region.clone())
            });
            sp.span("mpi.send", |_| comm.send(R0, TAG_CREDIT, &[0]));
            let got = sp.span("mpi.wait", |_| comm.wait(req));
            let mut ok = got
                .status()
                .is_some_and(|s| s.len == BODY_LEN && !s.truncated);
            let (mut head, mut tail) = ([0u8; 8], [0u8; 8]);
            region.read_into(0, &mut head);
            region.read_into(BODY_LEN - 8, &mut tail);
            ok &= head == inputs.head_stamp(seq) && tail == inputs.tail_stamp(seq);
            if whole_check(seq) {
                ok &= region.read_vec(8, BODY_LEN - 16) == inputs.body(BODY_LEN)[8..BODY_LEN - 8];
            }
            sp.span("mpi.send", |_| comm.send(R0, TAG_TOKEN, &[ok as u8]));
            ok
        }
    }
}

/// `msgrate_inproc`: a burst pair. First 64 × 1 KiB `isend`s into 64
/// receives the peer posted before sending its credit (every message is
/// expected: delivered straight into the posted buffer); then 64 more sent
/// before the peer posts anything, followed by a `go` token (every message is
/// unexpected: slab, then copy). Tags are posted and sent in two different
/// seeded orders, so matching walks the posted list out of order.
pub struct MsgRate {
    comm: Communicator,
    inputs: Arc<Inputs>,
    /// Receive buffers, one per tag offset (rank 1 only).
    bufs: Vec<Region>,
    /// One message's bytes: stamped before each send (rank 0), read into
    /// for each check (rank 1).
    scratch: Vec<u8>,
}

impl MsgRate {
    const MSG: usize = 1024;

    /// Number of the message with tag offset `t` in burst `half` of op `seq`.
    fn msg_seq(seq: u64, half: u64, t: u32) -> u64 {
        (seq * 2 + half) * BURST as u64 + t as u64
    }

    /// Rank 0: `isend` the 64 messages of one burst and wait for all.
    fn send_burst(&mut self, seq: u64, half: u64, tag_base: u32, sp: &mut Spans) -> bool {
        let mut reqs = Vec::with_capacity(BURST);
        for &t in &self.inputs.send_order {
            self.inputs
                .stamp(Self::msg_seq(seq, half, t), &mut self.scratch);
            let (comm, scratch) = (&self.comm, &self.scratch);
            reqs.push(sp.span("mpi.isend", |_| comm.isend(R1, tag_base + t, scratch)));
        }
        let done = sp.span("mpi.wait", |_| self.comm.wait_all(&reqs));
        let delivered = Completion::Send {
            delivered: Self::MSG as u64,
            requested: Self::MSG as u64,
        };
        done.iter().all(|c| *c == delivered)
    }

    /// Rank 1: post the 64 receives of one burst.
    fn post_burst(&self, tag_base: u32, sp: &mut Spans) -> Vec<Request> {
        let comm = &self.comm;
        self.inputs
            .post_order
            .iter()
            .map(|&t| {
                let buf = self.bufs[t as usize].clone();
                sp.span("mpi.irecv_post", |_| {
                    comm.irecv(Some(R0), Some(tag_base + t), buf)
                })
            })
            .collect()
    }

    /// Rank 1: wait for a posted burst and check every message.
    fn complete_burst(&mut self, reqs: &[Request], seq: u64, half: u64, sp: &mut Spans) -> bool {
        let done = sp.span("mpi.wait", |_| self.comm.wait_all(reqs));
        let mut ok = true;
        for (got, &t) in done.iter().zip(&self.inputs.post_order) {
            ok &= got
                .status()
                .is_some_and(|s| s.len == Self::MSG && !s.truncated);
            self.bufs[t as usize].read_into(0, &mut self.scratch);
            ok &= self
                .inputs
                .check(Self::msg_seq(seq, half, t), &self.scratch, whole_check(seq));
        }
        ok
    }
}

impl Workload for MsgRate {
    fn setup(env: &ProcessEnv, inputs: Arc<Inputs>) -> Self {
        let receiver = env.rank() == R1;
        MsgRate {
            comm: env.comm.clone(),
            bufs: (0..if receiver { BURST } else { 0 })
                .map(|_| Region::zeroed(Self::MSG))
                .collect(),
            scratch: inputs.body(Self::MSG).to_vec(),
            inputs,
        }
    }

    fn op(&mut self, seq: u64, sp: &mut Spans) -> bool {
        let comm = self.comm.clone();
        if comm.rank() == R0 {
            let expected = sp.span("mpi.expected_burst", |sp| {
                sp.span("mpi.recv", |_| comm.recv(Some(R1), Some(TAG_CREDIT), 1));
                self.send_burst(seq, 0, TAG_EXPECTED, sp)
            });
            let unexpected = sp.span("mpi.unexpected_burst", |sp| {
                let sent = self.send_burst(seq, 1, TAG_UNEXPECTED, sp);
                sp.span("mpi.send", |_| comm.send(R1, TAG_CREDIT, &[0]));
                let (verdict, _) = sp.span("mpi.recv", |_| comm.recv(Some(R1), Some(TAG_TOKEN), 1));
                sent && verdict == [1]
            });
            expected && unexpected
        } else {
            let expected = sp.span("mpi.expected_burst", |sp| {
                let reqs = self.post_burst(TAG_EXPECTED, sp);
                sp.span("mpi.send", |_| comm.send(R0, TAG_CREDIT, &[0]));
                self.complete_burst(&reqs, seq, 0, sp)
            });
            let unexpected = sp.span("mpi.unexpected_burst", |sp| {
                // The `go` token: all 64 messages are in the slab by now.
                sp.span("mpi.recv", |_| comm.recv(Some(R0), Some(TAG_CREDIT), 1));
                let reqs = self.post_burst(TAG_UNEXPECTED, sp);
                self.complete_burst(&reqs, seq, 1, sp)
            });
            let ok = expected && unexpected;
            sp.span("mpi.send", |_| comm.send(R0, TAG_TOKEN, &[ok as u8]));
            ok
        }
    }
}

/// `halo_inproc`: one stencil step on both ranks — four 4 KiB edge puts into
/// the peer's window, `sync`, one fetch-and-add on rank 0's counter, one
/// `allreduce`.
pub struct Halo {
    win: Window,
    coll: Collectives,
    inputs: Arc<Inputs>,
    me: u64,
    /// One edge's bytes: stamped before each put.
    scratch: Vec<u8>,
    /// The counter value this rank's previous fetch-and-add returned.
    last_prior: Option<u64>,
    /// Ops run so far, warm-up included: each adds one to the counter.
    calls: u64,
}

impl Halo {
    const EDGE: usize = 4096;
    /// The window is four edge slots followed by the 8-byte counter.
    const COUNTER_AT: usize = 4 * Self::EDGE;

    /// Number of the edge `rank` puts into slot `k` in op `seq`.
    fn edge_seq(seq: u64, k: usize, rank: u64) -> u64 {
        (seq * 4 + k as u64) * 2 + rank
    }

    /// After `sync`: the peer's four edges of this op are in the local window.
    fn check_slots(&self, seq: u64) -> bool {
        let local = self.win.local();
        let body = self.inputs.body(Self::EDGE);
        (0..4).all(|k| {
            let at = k * Self::EDGE;
            let edge = Self::edge_seq(seq, k, 1 - self.me);
            let (mut head, mut tail) = ([0u8; 8], [0u8; 8]);
            local.read_into(at, &mut head);
            local.read_into(at + Self::EDGE - 8, &mut tail);
            head == self.inputs.head_stamp(edge)
                && tail == self.inputs.tail_stamp(edge)
                && (!whole_check(seq)
                    || local.read_vec(at + 8, Self::EDGE - 16) == body[8..Self::EDGE - 8])
        })
    }
}

impl Workload for Halo {
    fn setup(env: &ProcessEnv, inputs: Arc<Inputs>) -> Self {
        let local = Region::zeroed(Self::COUNTER_AT + 8);
        Halo {
            win: Window::create(&env.comm, 1, local).expect("create the halo window"),
            coll: Collectives::new(env.comm.clone()),
            me: env.rank().0 as u64,
            scratch: inputs.body(Self::EDGE).to_vec(),
            inputs,
            last_prior: None,
            calls: 0,
        }
    }

    fn op(&mut self, seq: u64, sp: &mut Spans) -> bool {
        self.calls += 1;
        let peer = Rank(1 - self.me as u32);
        let mut ok = true;
        for k in 0..4 {
            self.inputs
                .stamp(Self::edge_seq(seq, k, self.me), &mut self.scratch);
            let (win, edge) = (&mut self.win, &self.scratch);
            // The request is retired by the `sync` below.
            ok &= sp
                .span("mpi.osc.put", |_| {
                    win.put_to(peer)
                        .offset((k * Self::EDGE) as u64)
                        .submit(edge)
                })
                .is_ok();
        }
        ok &= sp.span("mpi.osc.sync", |_| self.win.sync()).is_ok();
        ok &= self.check_slots(seq);

        let win = &mut self.win;
        let prior = sp.span("mpi.osc.fetch_add", |_| {
            win.rfetch_and_op(
                R0,
                Self::COUNTER_AT as u64,
                AtomicOp::Sum,
                AtomicDatatype::U64,
                1u64.to_le_bytes(),
            )
            .and_then(|req| win.wait(req))
        });
        match prior.ok().flatten().map(<[u8; 8]>::try_from) {
            Some(Ok(bytes)) => {
                let prior = u64::from_le_bytes(bytes);
                ok &= self.last_prior.is_none_or(|last| prior > last);
                self.last_prior = Some(prior);
            }
            _ => ok = false,
        }

        let mut sum = [1.0];
        sp.span("runtime.allreduce", |_| {
            self.coll.allreduce(&mut sum, ReduceOp::Sum)
        });
        ok && sum == [2.0]
    }

    /// Rank 0 holds the counter: both ranks added one per op. The last op's
    /// allreduce completes only after the peer's fetch-and-add has, so the
    /// total is final here.
    fn finish(self) -> u64 {
        if self.me != 0 {
            return 0;
        }
        let bytes = self.win.local().read_vec(Self::COUNTER_AT, 8);
        let total = u64::from_le_bytes(bytes.try_into().expect("read 8 bytes"));
        total.abs_diff(2 * self.calls).min(self.calls)
    }
}
