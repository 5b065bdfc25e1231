//! Parallel I/O: compute ranks checkpoint to a striped file service.
//!
//! §2 of the paper: compute nodes could only reach the remote filesystem
//! through Portals. This example runs three file servers and a four-rank
//! compute job on one fabric; each rank writes its slice of a checkpoint to a
//! striped file, then every rank reads the full checkpoint back and verifies
//! it. Reads are one-sided grants — the servers do no per-byte work.
//!
//! Run: `cargo run --release -p portals-examples --bin parallel_io`

use portals::{NiConfig, Node, NodeConfig};
use portals_pfs::{FileServer, FsClient, StripedFile};
use portals_runtime::{Job, JobConfig};
use portals_types::{NodeId, ProcessId};
use std::sync::Arc;

const SERVERS: usize = 3;
const RANKS: usize = 4;
const SLICE: usize = 64 * 1024; // bytes each rank checkpoints
const STRIPE: usize = 16 * 1024;

fn main() {
    // The compute job brings up the fabric and its nodes; the file servers
    // live on extra nodes attached to the same fabric.
    let (job, envs) = Job::build(RANKS, JobConfig::default());

    let mut server_nodes = Vec::new();
    let servers: Vec<FileServer> = (0..SERVERS)
        .map(|i| {
            let node = Node::new(
                job.fabric().attach(NodeId(100 + i as u32)),
                NodeConfig::default(),
            );
            let s = FileServer::start(node.create_ni(1, NiConfig::default()).unwrap()).unwrap();
            server_nodes.push(node);
            s
        })
        .collect();
    let server_ids: Arc<Vec<ProcessId>> = Arc::new(servers.iter().map(|s| s.id()).collect());
    // The compute nodes consult the job directory for §4.5 access control;
    // without these entries the servers' replies would be dropped as
    // foreign-application traffic (AclProcessMismatch). The aux client
    // interfaces default to job 0, so register the servers there.
    for sid in server_ids.iter() {
        job.directory().register(*sid, 0);
    }

    let handles: Vec<_> = envs
        .into_iter()
        .map(|env| {
            let server_ids = Arc::clone(&server_ids);
            std::thread::spawn(move || {
                let me = env.rank().0 as usize;
                let comm = env.comm.clone();

                // One I/O client per server, on auxiliary pids of this node.
                let clients: Vec<FsClient> = server_ids
                    .iter()
                    .enumerate()
                    .map(|(s, sid)| {
                        FsClient::new(env.aux_ni(100 + s as u32).unwrap(), *sid).unwrap()
                    })
                    .collect();

                // Rank 0 creates the striped file; everyone else opens it.
                let file = if me == 0 {
                    let f = StripedFile::create(clients, b"checkpoint", STRIPE).unwrap();
                    comm.barrier();
                    f
                } else {
                    comm.barrier();
                    StripedFile::open(clients, b"checkpoint", STRIPE).unwrap()
                };

                // Phase 1: every rank writes its slice.
                let slice: Vec<u8> = (0..SLICE).map(|i| ((i + me * 31) % 251) as u8).collect();
                file.write((me * SLICE) as u64, &slice).unwrap();
                comm.barrier();

                // Phase 2: every rank reads the whole checkpoint and verifies.
                let all = file.read(0, RANKS * SLICE).unwrap();
                for r in 0..RANKS {
                    for i in 0..SLICE {
                        assert_eq!(
                            all[r * SLICE + i],
                            ((i + r * 31) % 251) as u8,
                            "rank {me} verifying rank {r}'s slice at byte {i}"
                        );
                    }
                }
                comm.barrier();
                me
            })
        })
        .collect();

    for h in handles {
        let rank = h.join().expect("rank thread");
        println!(
            "rank {rank}: checkpoint verified ({SLICE} bytes written, {} read)",
            RANKS * SLICE
        );
    }
    for (i, s) in servers.iter().enumerate() {
        let reqs = s.stats().requests.get();
        let size = s.file_size(b"checkpoint").unwrap_or(0);
        println!("server {i}: {reqs} requests served, component size {size} bytes");
    }
    println!("ok");
}
