//! Collective correctness across world sizes (including non-powers-of-two).

use portals_runtime::{Collectives, Job, JobConfig, ReduceOp};

fn sizes() -> Vec<usize> {
    vec![1, 2, 3, 4, 5, 8]
}

#[test]
fn bcast_from_every_root() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            for root in 0..env.size() {
                let mut data = if env.rank().0 as usize == root {
                    vec![root as u8; 257]
                } else {
                    vec![0u8; 257]
                };
                coll.bcast(root, &mut data);
                assert!(data.iter().all(|&b| b == root as u8), "root {root} payload");
            }
        });
    }
}

#[test]
fn reduce_sums_at_root() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let me = env.rank().0 as f64;
            let data = vec![me, me * 2.0, 1.0];
            let result = coll.reduce(0, &data, ReduceOp::Sum);
            if env.rank().0 == 0 {
                let n = env.size() as f64;
                let sum_ranks = n * (n - 1.0) / 2.0;
                assert_eq!(result.unwrap(), vec![sum_ranks, sum_ranks * 2.0, n]);
            } else {
                assert!(result.is_none());
            }
        });
    }
}

#[test]
fn allreduce_matches_closed_forms() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let me = env.rank().0 as f64;
            let n = env.size() as f64;

            let mut sum = vec![me + 1.0; 8];
            coll.allreduce(&mut sum, ReduceOp::Sum);
            assert_eq!(sum, vec![n * (n + 1.0) / 2.0; 8], "sum n={n}");

            let mut min = vec![me];
            coll.allreduce(&mut min, ReduceOp::Min);
            assert_eq!(min, vec![0.0], "min");

            let mut max = vec![me];
            coll.allreduce(&mut max, ReduceOp::Max);
            assert_eq!(max, vec![n - 1.0], "max");
        });
    }
}

#[test]
fn gather_collects_in_rank_order() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let mine = vec![env.rank().0 as u8 + 1; (env.rank().0 as usize + 1) * 3];
            let out = coll.gather(0, &mine).expect("gather");
            if env.rank().0 == 0 {
                let out = out.unwrap();
                assert_eq!(out.len(), env.size());
                for (r, part) in out.iter().enumerate() {
                    assert_eq!(part, &vec![r as u8 + 1; (r + 1) * 3], "rank {r} part");
                }
            } else {
                assert!(out.is_none());
            }
        });
    }
}

#[test]
fn scatter_distributes_parts() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let parts: Option<Vec<Vec<u8>>> = (env.rank().0 == 0)
                .then(|| (0..env.size()).map(|r| vec![r as u8; r + 2]).collect());
            let mine = coll.scatter(0, parts.as_deref()).expect("scatter");
            let me = env.rank().0 as usize;
            assert_eq!(mine, vec![me as u8; me + 2]);
        });
    }
}

/// The receive side sizes its MD from the arrival envelope, so parts larger
/// than any built-in guess work: 17 MiB exceeds the 16 MiB cap the scatter
/// path used to hard-code.
#[test]
fn scatter_and_gather_have_no_size_cap() {
    let config = JobConfig {
        ni: portals::NiConfig {
            limits: portals_types::NiLimits {
                max_message_size: 32 * 1024 * 1024,
                ..portals_types::NiLimits::DEFAULT
            },
            ..JobConfig::default().ni
        },
        ..JobConfig::default()
    };
    Job::launch(2, config, move |env| {
        let coll = Collectives::new(env.comm.clone());
        let big = 17 * 1024 * 1024;
        let parts: Option<Vec<Vec<u8>>> =
            (env.rank().0 == 0).then(|| vec![vec![1u8; 4], vec![0xa5u8; big]]);
        let mine = coll.scatter(0, parts.as_deref()).expect("scatter");
        if env.rank().0 == 1 {
            assert_eq!(mine.len(), big);
            assert!(mine.iter().all(|&b| b == 0xa5));
        }
        let out = coll.gather(0, &mine).expect("gather");
        if env.rank().0 == 0 {
            let out = out.unwrap();
            assert_eq!(out[1].len(), big, "round-trips through gather uncapped");
        }
    });
}

#[test]
fn allgather_collects_in_rank_order() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let mine = vec![env.rank().0 as u8 * 3; 16];
            let out = coll.allgather(&mine);
            assert_eq!(out.len(), env.size());
            for (r, part) in out.iter().enumerate() {
                assert_eq!(part, &vec![r as u8 * 3; 16], "rank {r}");
            }
        });
    }
}

#[test]
fn alltoall_personalizes_exchange() {
    for n in sizes() {
        Job::launch(n, JobConfig::default(), move |env| {
            let coll = Collectives::new(env.comm.clone());
            let me = env.rank().0 as u8;
            // Part for rank r encodes (me, r).
            let parts: Vec<Vec<u8>> = (0..env.size())
                .map(|r| vec![me, r as u8, me ^ r as u8])
                .collect();
            let out = coll.alltoall(&parts);
            for (r, part) in out.iter().enumerate() {
                assert_eq!(part, &vec![r as u8, me, r as u8 ^ me], "from rank {r}");
            }
        });
    }
}

#[test]
fn consecutive_collectives_do_not_cross_talk() {
    Job::launch(4, JobConfig::default(), |env| {
        let coll = Collectives::new(env.comm.clone());
        for round in 0..10u32 {
            let mut v = vec![env.rank().0 as f64 + round as f64];
            coll.allreduce(&mut v, ReduceOp::Sum);
            let n = env.size() as f64;
            let expect = n * (n - 1.0) / 2.0 + round as f64 * n;
            assert_eq!(v, vec![expect], "round {round}");
            let mut b = vec![round as u8; 8];
            coll.bcast((round as usize) % env.size(), &mut b);
            assert_eq!(b, vec![round as u8; 8]);
        }
    });
}

#[test]
fn collectives_work_host_driven() {
    let cfg = JobConfig {
        transport: portals::TransportConfig {
            progress_mode: portals::ProgressMode::HostDriven,
            ..Default::default()
        },
        ..Default::default()
    };
    Job::launch(3, cfg, |env| {
        let coll = Collectives::new(env.comm.clone());
        let mut v = vec![1.0f64; 4];
        coll.allreduce(&mut v, ReduceOp::Sum);
        assert_eq!(v, vec![3.0; 4]);
    });
}
