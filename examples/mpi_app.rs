//! MPI-subset demo: nonblocking ring traffic plus the collective library.
//!
//! A compact tour of the layer the paper's §5.2 is about: isend/irecv with
//! wait/test, wildcard receives, and the collectives (barrier, broadcast,
//! allreduce, allgather) on an eight-rank job.
//!
//! Run: `cargo run --release -p portals-examples --bin mpi_app`

use portals::Region;
use portals_runtime::{Collectives, Job, JobConfig, ReduceOp};
use portals_types::Rank;

fn main() {
    let n = 8;
    let results = Job::launch(n, JobConfig::default(), |env| {
        let comm = &env.comm;
        let me = comm.rank().0;
        let size = comm.size() as u32;

        // --- nonblocking ring: everyone forwards a token twice around -----
        let next = Rank((me + 1) % size);
        let prev = Rank((me + size - 1) % size);
        let mut token = me as u64;
        for _lap in 0..2 {
            let buf = Region::zeroed(8);
            let r = comm.irecv(Some(prev), Some(1), buf.clone());
            comm.send(next, 1, &token.to_le_bytes());
            let st = comm.wait(r).status().unwrap();
            assert_eq!(st.len, 8);
            token = u64::from_le_bytes(buf.read_vec(0, 8).try_into().unwrap()).wrapping_add(1);
        }

        // --- wildcard receive: rank 0 collects a hello from everyone ------
        if me == 0 {
            let mut hellos = 0;
            while hellos < size - 1 {
                let (data, st) = comm.recv(None, Some(2), 64);
                assert_eq!(data, format!("hello from {}", st.source.0).as_bytes());
                hellos += 1;
            }
        } else {
            comm.send(Rank(0), 2, format!("hello from {me}").as_bytes());
        }

        // --- collectives ----------------------------------------------------
        let coll = Collectives::new(comm.clone());
        coll.barrier();

        // Broadcast a config blob from rank 3.
        let mut blob = if me == 3 {
            b"configuration!".to_vec()
        } else {
            vec![0u8; 14]
        };
        coll.bcast(3, &mut blob);
        assert_eq!(blob, b"configuration!");

        // Allreduce a small vector (checked against the closed form below).
        let mut v1 = vec![me as f64; 4];
        coll.allreduce(&mut v1, ReduceOp::Sum);

        // Allgather everyone's rank byte.
        let gathered = coll.allgather(&[me as u8]);
        let flat: Vec<u8> = gathered.into_iter().flatten().collect();
        assert_eq!(flat, (0..size as u8).collect::<Vec<_>>());

        (token, v1[0])
    });

    for (rank, (token, sum)) in results.iter().enumerate() {
        println!("rank {rank}: ring token {token}, allreduce sum {sum}");
    }
    // Each rank's token started at prev's value and took 2 laps of +1 hops.
    let expect_sum: f64 = (0..8).map(|r| r as f64).sum();
    assert!(results.iter().all(|(_, s)| *s == expect_sum));
    println!("ok");
}
