//! The parallel runtime — the Cplant™ runtime system stand-in.
//!
//! §2 of the paper: Portals had to carry "not only application message
//! passing, but also I/O protocols to a remote filesystem, and protocols
//! between the components of the parallel runtime environment", and the Puma
//! MPI "utilized a high-performance collective communication library"
//! implemented on Portals.
//!
//! This crate provides:
//!
//! * [`launch`] — job launch: build a fabric-backed world of N processes, give
//!   each a Portals interface and an MPI context, run the application function
//!   on every rank, and collect results. The per-job process directory that
//!   backs the §4.5 "same application"/"system" ACL entries lives here too.
//! * [`distributed`] — the same launch shape across real OS processes: each
//!   process binds a UDP link, finds its peers through the rendezvous
//!   service, and hosts its slice of the ranks
//!   ([`Job::launch_distributed`], configured via `PORTALS_*` env vars).
//! * [`coll`] — the collective communication library: barrier, broadcast,
//!   reduce, allreduce, gather, scatter, allgather and alltoall with
//!   tree/ring/recursive-doubling algorithms. Collectives run on reserved
//!   tags through the Portals-backed matching engine, out of reach of
//!   application traffic.

#![warn(missing_docs)]

pub mod coll;
pub mod control;
pub mod directory;
pub mod distributed;
pub mod launch;

pub use coll::{Collectives, PendingColl, ReduceOp};
pub use control::{Control, Launcher, NodeState, ProcessManager};
pub use directory::JobDirectory;
pub use distributed::DistributedConfig;
pub use launch::{Job, JobConfig, ProcessEnv};
