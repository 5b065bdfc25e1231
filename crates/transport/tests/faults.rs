//! Endpoint-level fault-injection properties.
//!
//! The unit proptests in `peer.rs` drive the pure state machines over a
//! scripted wire; these tests drive the real NIC threads over a real
//! faulty fabric, so the *interaction* of the receive-path optimisations
//! (batched drain, coalesced acks) with go-back-N's drop-and-retransmit
//! recovery is what gets exercised.

use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::{Gather, NodeId};
use proptest::prelude::*;
use std::time::Duration;

// The audit of the coalesced-ack path: when the receiver drops an
// out-of-order packet (`seq > expected`, go-back-N) inside a batched-drain
// burst, the cumulative ack coalesced from the rest of the batch must not
// advance past the dropped fragment — the sender would otherwise never
// retransmit it and the message would be lost or corrupted. The cumulative
// ack is monotone and only advances on in-order receipt, so every message
// must arrive intact and in order no matter how jitter and loss slice the
// batches.
proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]
    #[test]
    fn coalesced_acks_never_pass_a_dropped_fragment(
        seed in 0u64..1000,
        loss_pct in 5u32..35,
        jitter_us in 20u64..300,
        msg_len in 400usize..3000,
        n_msgs in 3usize..8,
    ) {
        let cfg = FabricConfig::default()
            .with_faults(FaultPlan {
                loss_probability: f64::from(loss_pct) / 100.0,
                duplicate_probability: 0.1,
                max_jitter: Duration::from_micros(jitter_us),
            })
            .with_seed(seed)
            .with_link(LinkModel {
                latency: Duration::from_micros(5),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            });
        let fabric = Fabric::new(cfg);
        let tcfg = TransportConfig {
            mtu: 128,
            window: 8,
            rto_base: Duration::from_millis(2),
            ..Default::default()
        };
        let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
        let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
        let payloads: Vec<Vec<u8>> = (0..n_msgs)
            .map(|i| (0..msg_len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for p in &payloads {
            a.send(NodeId(1), Gather::from_vec(p.clone()));
        }
        for expect in &payloads {
            let m = b
                .recv_timeout(Duration::from_secs(60))
                .expect("message lost: a coalesced ack outran a dropped fragment");
            prop_assert_eq!(m.src, NodeId(0));
            prop_assert_eq!(
                m.payload.to_vec(),
                expect.clone(),
                "corrupted or misordered delivery under jitter + loss"
            );
        }
        prop_assert!(a.flush(Duration::from_secs(30)), "window never drained");
        // The receiver really did exercise the interesting paths.
        let sb = b.stats();
        let sa = a.stats();
        prop_assert_eq!(sa.messages_sent.get(), n_msgs as u64);
        prop_assert_eq!(sb.messages_delivered.get(), n_msgs as u64);
        prop_assert_eq!(sb.stalled_now.get(), 0);
        prop_assert_eq!(sa.peers_recovered.get(), sa.peers_stalled.get());
    }
}
