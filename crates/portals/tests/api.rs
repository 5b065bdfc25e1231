//! Full-stack tests of the Portals API over the simulated fabric: two (or
//! more) nodes, real transport, bypass and host-driven progress, and the §4.8 drop rules
//! observed end to end.

use portals::{
    AcEntry, AcMatch, AckRequest, DropReason, EventKind, MdOptions, MdSpec, MePos,
    NetworkInterface, NiConfig, Node, NodeConfig, PortalMatch, ProcessDirectory, ProgressMode,
    Threshold, TransportConfig,
};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, PtlError, Region, UserId};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn two_nodes(fabric: &Fabric) -> (Node, Node) {
    let a = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let b = Node::new(fabric.attach(NodeId(1)), NodeConfig::default());
    (a, b)
}

fn default_ni(node: &Node) -> NetworkInterface {
    node.create_ni(1, NiConfig::default()).unwrap()
}

/// Target-side helper: portal 0, given criteria, one MD over a fresh buffer.
fn listen(
    ni: &NetworkInterface,
    portal: u32,
    criteria: MatchCriteria,
    len: usize,
) -> (
    portals::MeHandle,
    portals::MdHandle,
    portals::EqHandle,
    portals::Region,
) {
    let eq = ni.eq_alloc(64).unwrap();
    let me = ni
        .me_attach(portal, ProcessId::ANY, criteria, false, MePos::Back)
        .unwrap();
    let buf = Region::from_vec(vec![0u8; len]);
    let md = ni
        .md_attach(me, MdSpec::new(buf.clone()).with_eq(eq))
        .unwrap();
    (me, md, eq, buf)
}

#[test]
fn put_moves_data_and_logs_event() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, eq, buf) = listen(&b, 3, MatchCriteria::exact(MatchBits::new(0xbeef)), 256);

    let src = Region::from_vec(b"zero copy delivery".to_vec());
    let md = a.md_bind(MdSpec::new(src)).unwrap();
    a.put_op(md)
        .target(b.id(), 3)
        .bits(MatchBits::new(0xbeef))
        .submit()
        .unwrap();

    let ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    assert_eq!(ev.initiator, a.id());
    assert_eq!(ev.portal_index, 3);
    assert_eq!(ev.match_bits, MatchBits::new(0xbeef));
    assert_eq!(ev.rlength, 18);
    assert_eq!(ev.mlength, 18);
    assert_eq!(buf.read_vec(0, 18), b"zero copy delivery");
    assert_eq!(b.counters().requests_accepted.get(), 1);
}

#[test]
fn put_with_ack_round_trips() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, _beq, _) = listen(&b, 0, MatchCriteria::any(), 64);

    let aeq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![7u8; 48])).with_eq(aeq))
        .unwrap();
    a.put_op(md)
        .target(b.id(), 0)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();

    // Initiator sees Sent then Ack.
    let sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(sent.kind, EventKind::Sent);
    let ack = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(ack.kind, EventKind::Ack);
    assert_eq!(ack.mlength, 48, "ack reports the manipulated length");
    assert_eq!(
        ack.initiator,
        b.id(),
        "ack comes from the target (ids swapped)"
    );
    assert_eq!(a.counters().acks_accepted.get(), 1);
}

#[test]
fn ack_reports_truncated_length() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Target region of 10 bytes, truncate enabled by default.
    let (_, _, beq, _) = listen(&b, 0, MatchCriteria::any(), 10);

    let aeq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![1u8; 100])).with_eq(aeq))
        .unwrap();
    a.put_op(md)
        .target(b.id(), 0)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();

    let ev = b.eq_poll(beq, TIMEOUT).unwrap();
    assert_eq!(ev.rlength, 100);
    assert_eq!(ev.mlength, 10, "target truncated to its region");

    let _sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    let ack = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(ack.kind, EventKind::Ack);
    assert_eq!(ack.rlength, 100);
    assert_eq!(ack.mlength, 10);
}

#[test]
fn get_reads_remote_memory() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, beq, bbuf) = listen(&b, 5, MatchCriteria::exact(MatchBits::new(1)), 64);
    bbuf.write(0, b"readable");

    let aeq = a.eq_alloc(8).unwrap();
    let dst = Region::from_vec(vec![0u8; 8]);
    let md = a.md_bind(MdSpec::new(dst.clone()).with_eq(aeq)).unwrap();
    a.get_op(md)
        .target(b.id(), 5)
        .bits(MatchBits::new(1))
        .length(8)
        .submit()
        .unwrap();

    let _sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    let reply = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(reply.kind, EventKind::Reply);
    assert_eq!(reply.mlength, 8);
    assert_eq!(dst.read_vec(0, dst.len()), b"readable");

    // The target logged a Get event.
    let gev = b.eq_poll(beq, TIMEOUT).unwrap();
    assert_eq!(gev.kind, EventKind::Get);
    assert_eq!(gev.initiator, a.id());
}

#[test]
fn get_with_offset_reads_middle_of_region() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, _, bbuf) = listen(&b, 0, MatchCriteria::any(), 32);
    bbuf.rmw(0, bbuf.len(), |w| {
        for (i, byte) in w.iter_mut().enumerate() {
            *byte = i as u8;
        }
    });

    let aeq = a.eq_alloc(8).unwrap();
    let dst = Region::from_vec(vec![0u8; 4]);
    let md = a.md_bind(MdSpec::new(dst.clone()).with_eq(aeq)).unwrap();
    a.get_op(md)
        .target(b.id(), 0)
        .offset(10)
        .length(4)
        .submit()
        .unwrap();

    let _sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    let reply = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(reply.kind, EventKind::Reply);
    assert_eq!(dst.read_vec(0, dst.len()), &[10, 11, 12, 13]);
}

#[test]
fn md_in_use_while_get_pending_then_unlinkable() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);
    let (_, _, _, _) = listen(&b, 0, MatchCriteria::any(), 64);

    let aeq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 16])).with_eq(aeq))
        .unwrap();
    a.get_op(md).target(b.id(), 0).length(16).submit().unwrap();
    // The reply may already have arrived on a fast fabric; only assert the
    // in-use error if the reply is still outstanding.
    let _sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    let reply = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(reply.kind, EventKind::Reply);
    // After the reply, unlink must succeed.
    a.md_unlink(md).unwrap();
    assert_eq!(a.md_read(md, 0, 1), Err(PtlError::InvalidMd));
}

#[test]
fn no_matching_entry_drops_with_no_match() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, _, _) = listen(&b, 0, MatchCriteria::exact(MatchBits::new(1)), 64);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    a.put_op(md)
        .target(b.id(), 0)
        .bits(MatchBits::new(2))
        .submit()
        .unwrap();

    wait_for(|| b.counters().dropped(DropReason::NoMatch) == 1);
    assert_eq!(b.counters().requests_accepted.get(), 0);
}

#[test]
fn invalid_portal_index_drops() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    a.put_op(md).target(b.id(), 9999).submit().unwrap();
    wait_for(|| b.counters().dropped(DropReason::InvalidPortalIndex) == 1);
}

#[test]
fn bad_cookie_drops_with_invalid_ac_index() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);
    let (_, _, _, _) = listen(&b, 0, MatchCriteria::any(), 64);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    // Cookie 7 is a disabled entry in the standard ACL.
    a.put_op(md).target(b.id(), 0).cookie(7).submit().unwrap();
    wait_for(|| b.counters().dropped(DropReason::InvalidAcIndex) == 1);
}

#[test]
fn acl_entry_restricts_by_process_and_portal() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);
    let (_, _, eq, _) = listen(&b, 2, MatchCriteria::any(), 64);

    // Entry 3: only process (0,1) may use portal 2.
    b.acl_set(
        3,
        AcEntry::Allow {
            id: AcMatch::Process(a.id()),
            portal: PortalMatch::Index(2),
        },
    )
    .unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    // Allowed: right process, right portal.
    a.put_op(md).target(b.id(), 2).cookie(3).submit().unwrap();
    let ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);

    // Wrong portal for this cookie: AclPortalMismatch.
    let (_, _, _, _) = listen(&b, 4, MatchCriteria::any(), 64);
    a.put_op(md).target(b.id(), 4).cookie(3).submit().unwrap();
    wait_for(|| b.counters().dropped(DropReason::AclPortalMismatch) == 1);
}

#[test]
fn acl_process_mismatch_counts() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);
    let (_, _, _, _) = listen(&b, 0, MatchCriteria::any(), 64);

    // Entry 2 admits only a process that is not `a`.
    b.acl_set(
        2,
        AcEntry::Allow {
            id: AcMatch::Process(ProcessId::new(9, 9)),
            portal: PortalMatch::Any,
        },
    )
    .unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    a.put_op(md).target(b.id(), 0).cookie(2).submit().unwrap();
    wait_for(|| b.counters().dropped(DropReason::AclProcessMismatch) == 1);
}

#[test]
fn job_directory_separates_applications() {
    // Directory: pid 1 is job 1, pid 2 is job 2, pid 42 is a system process.
    struct Dir;
    impl ProcessDirectory for Dir {
        fn classify(&self, id: ProcessId) -> UserId {
            match id.pid {
                42 => UserId::System,
                p => UserId::Application(p),
            }
        }
    }
    let fabric = Fabric::ideal();
    let cfg = NodeConfig {
        directory: Some(Arc::new(Dir)),
        ..Default::default()
    };
    let na = Node::new(fabric.attach(NodeId(0)), cfg.clone());
    let nb = Node::new(fabric.attach(NodeId(1)), cfg);

    // Target is pid 1 → job 1.
    let target = nb
        .create_ni(
            1,
            NiConfig {
                job: 1,
                ..Default::default()
            },
        )
        .unwrap();
    let (_, _, eq, _) = listen(&target, 0, MatchCriteria::any(), 64);

    // Same-job peer (pid 1 on node 0) is admitted by ACL entry 0.
    let peer = na
        .create_ni(
            1,
            NiConfig {
                job: 1,
                ..Default::default()
            },
        )
        .unwrap();
    let md = peer
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 4])))
        .unwrap();
    peer.put_op(md).target(target.id(), 0).submit().unwrap();
    assert_eq!(target.eq_poll(eq, TIMEOUT).unwrap().kind, EventKind::Put);

    // Foreign-job process (pid 2 → job 2) is rejected on entry 0.
    let foreign = na
        .create_ni(
            2,
            NiConfig {
                job: 2,
                ..Default::default()
            },
        )
        .unwrap();
    let md2 = foreign
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 4])))
        .unwrap();
    foreign.put_op(md2).target(target.id(), 0).submit().unwrap();
    wait_for(|| target.counters().dropped(DropReason::AclProcessMismatch) == 1);

    // But the system process (pid 42) is admitted via entry 1.
    let sys = na.create_ni(42, NiConfig::default()).unwrap();
    let md3 = sys
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 4])))
        .unwrap();
    sys.put_op(md3)
        .target(target.id(), 0)
        .cookie(1)
        .submit()
        .unwrap();
    assert_eq!(target.eq_poll(eq, TIMEOUT).unwrap().kind, EventKind::Put);
}

#[test]
fn message_to_unknown_pid_counts_at_node() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let _b = default_ni(&nb);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8])))
        .unwrap();
    a.put_op(md)
        .target(ProcessId::new(1, 77), 0)
        .submit()
        .unwrap();
    wait_for(|| nb.dropped_no_process() == 1);
}

#[test]
fn threshold_unlink_consumes_entry_once() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // One-shot receive: threshold 1, unlink on exhaustion, entry unlinks when
    // its MD list empties.
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), true, MePos::Back)
        .unwrap();
    let buf = Region::from_vec(vec![0u8; 64]);
    let _md = b
        .md_attach(
            me,
            MdSpec::new(buf.clone())
                .with_eq(eq)
                .with_threshold(Threshold::Count(1))
                .with_options(MdOptions {
                    unlink_on_exhaustion: true,
                    ..Default::default()
                }),
        )
        .unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"first".to_vec())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();

    let put_ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(put_ev.kind, EventKind::Put);
    let unlink_ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(unlink_ev.kind, EventKind::Unlink);

    // Second put finds no entry: NoMatch.
    let md2 = a
        .md_bind(MdSpec::new(Region::from_vec(b"second".to_vec())))
        .unwrap();
    a.put_op(md2).target(b.id(), 0).submit().unwrap();
    wait_for(|| b.counters().dropped(DropReason::NoMatch) == 1);
    assert_eq!(
        buf.read_vec(0, 5),
        b"first",
        "second message must not overwrite"
    );
}

#[test]
fn match_list_order_respected_end_to_end() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Two wildcard entries; the front one must win.
    let eq = b.eq_alloc(8).unwrap();
    let me_back = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let back_buf = Region::from_vec(vec![0u8; 64]);
    b.md_attach(me_back, MdSpec::new(back_buf.clone()).with_eq(eq))
        .unwrap();
    let me_front = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Front)
        .unwrap();
    let front_buf = Region::from_vec(vec![0u8; 64]);
    b.md_attach(me_front, MdSpec::new(front_buf.clone()).with_eq(eq))
        .unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"winner".to_vec())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();
    let _ = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(front_buf.read_vec(0, 6), b"winner");
    assert_eq!(back_buf.read_vec(0, 6), &[0u8; 6]);
}

#[test]
fn host_driven_makes_no_progress_without_calls() {
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let nb = Node::new(
        fabric.attach(NodeId(1)),
        NodeConfig {
            transport: TransportConfig {
                progress_mode: ProgressMode::HostDriven,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, eq, buf) = listen(&b, 0, MatchCriteria::any(), 64);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"parked".to_vec())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();

    // Give the fabric ample time: the message must sit raw, unprocessed.
    wait_for(|| b.raw_pending() == 1);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        b.counters().requests_accepted.get(),
        0,
        "no progress without an API call"
    );
    assert_eq!(buf.read_vec(0, 6), &[0u8; 6]);

    // One API call processes it.
    let ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    assert_eq!(buf.read_vec(0, 6), b"parked");
}

#[test]
fn application_bypass_progresses_without_calls() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb); // bypass by default

    let (_, _, _, buf) = listen(&b, 0, MatchCriteria::any(), 64);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"flows!".to_vec())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();

    // No API calls on b: data must still land.
    wait_for(|| b.counters().requests_accepted.get() == 1);
    assert_eq!(buf.read_vec(0, 6), b"flows!");
    assert_eq!(b.raw_pending(), 0);
}

#[test]
fn loopback_put_to_self() {
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let a = default_ni(&na);

    let (_, _, eq, buf) = listen(&a, 0, MatchCriteria::any(), 64);
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"self".to_vec())))
        .unwrap();
    a.put_op(md).target(a.id(), 0).submit().unwrap();
    let ev = a.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    assert_eq!(buf.read_vec(0, 4), b"self");
}

#[test]
fn multiple_processes_per_node_demux() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b1 = nb.create_ni(1, NiConfig::default()).unwrap();
    let b2 = nb.create_ni(2, NiConfig::default()).unwrap();

    let (_, _, eq1, buf1) = listen(&b1, 0, MatchCriteria::any(), 64);
    let (_, _, eq2, buf2) = listen(&b2, 0, MatchCriteria::any(), 64);

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(b"to-pid-2".to_vec())))
        .unwrap();
    a.put_op(md)
        .target(ProcessId::new(1, 2), 0)
        .submit()
        .unwrap();
    let ev = b2.eq_poll(eq2, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    assert_eq!(buf2.read_vec(0, 8), b"to-pid-2");
    assert!(b1.eq_get(eq1).is_err(), "pid 1 must see nothing");
    assert_eq!(buf1.read_vec(0, 8), &[0u8; 8]);
}

#[test]
fn managed_offset_packs_messages_back_to_back() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let slab = Region::from_vec(vec![0u8; 64]);
    b.md_attach(
        me,
        MdSpec::new(slab.clone())
            .with_eq(eq)
            .with_options(MdOptions {
                manage_local_offset: true,
                ..Default::default()
            }),
    )
    .unwrap();

    for chunk in [b"aaaa".as_slice(), b"bb", b"cccccc"] {
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(chunk.to_vec())))
            .unwrap();
        a.put_op(md).target(b.id(), 0).submit().unwrap();
    }
    let offs: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let e = b.eq_poll(eq, TIMEOUT).unwrap();
            (e.offset, e.mlength)
        })
        .collect();
    assert_eq!(offs, vec![(0, 4), (4, 2), (6, 6)]);
    assert_eq!(slab.read_vec(0, 12), b"aaaabbcccccc");
}

#[test]
fn works_over_lossy_timed_fabric() {
    let cfg = FabricConfig::default()
        .with_link(LinkModel {
            latency: Duration::from_micros(20),
            bandwidth_bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            per_packet_overhead: Duration::from_micros(1),
        })
        .with_faults(FaultPlan::lossy(0.2))
        .with_seed(3);
    let fabric = Fabric::new(cfg);
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, eq, buf) = listen(&b, 0, MatchCriteria::any(), 100_000);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(payload.clone())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();

    let ev = b.eq_poll(eq, Duration::from_secs(30)).unwrap();
    assert_eq!(ev.mlength as usize, payload.len());
    assert_eq!(
        buf.read_vec(0, buf.len()),
        &payload[..],
        "payload intact despite 20% loss"
    );
}

#[test]
fn handle_misuse_is_rejected() {
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let a = default_ni(&na);

    // Unknown handles.
    assert_eq!(
        a.eq_get(portals_types::Handle::NONE),
        Err(PtlError::InvalidEq)
    );
    assert_eq!(
        a.md_unlink(portals_types::Handle::NONE),
        Err(PtlError::InvalidMd)
    );
    assert_eq!(
        a.me_unlink(portals_types::Handle::NONE),
        Err(PtlError::InvalidMe)
    );

    // me_attach to a bad portal.
    let r = a.me_attach(
        u32::MAX,
        ProcessId::ANY,
        MatchCriteria::any(),
        false,
        MePos::Back,
    );
    assert_eq!(r.err(), Some(PtlError::InvalidPortalIndex));

    // Put to a wildcard target.
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 4])))
        .unwrap();
    let r = a.put_op(md).target(ProcessId::ANY, 0).submit();
    assert_eq!(r.err(), Some(PtlError::InvalidProcess));

    // Duplicate pid on the node.
    assert!(na.create_ni(1, NiConfig::default()).is_err());
}

#[test]
fn limits_exhaustion_returns_no_space() {
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let a = na
        .create_ni(
            1,
            NiConfig {
                limits: portals_types::NiLimits::TINY,
                ..Default::default()
            },
        )
        .unwrap();

    // Exhaust event queues (TINY allows 2).
    let _e1 = a.eq_alloc(2).unwrap();
    let _e2 = a.eq_alloc(2).unwrap();
    assert_eq!(a.eq_alloc(2).err(), Some(PtlError::NoSpace));

    // Exhaust match entries (TINY allows 8).
    for _ in 0..8 {
        a.me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
            .unwrap();
    }
    let r = a.me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back);
    assert_eq!(r.err(), Some(PtlError::NoSpace));
}

#[test]
fn reply_eq_full_drops_reply() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);
    let (_, _, _, _) = listen(&b, 0, MatchCriteria::any(), 64);

    // EQ of capacity 1; the Sent event fills it before the reply arrives.
    let aeq = a.eq_alloc(1).unwrap();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 16])).with_eq(aeq))
        .unwrap();
    a.get_op(md).target(b.id(), 0).length(16).submit().unwrap();

    wait_for(|| a.counters().dropped(DropReason::ReplyEqFull) == 1);

    // Regression: the dropped reply still settles the get — the MD must not
    // stay pinned (`MdInUse`) forever.
    a.md_unlink(md).unwrap();
}

#[test]
fn md_update_is_refused_while_events_pend() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, target_md, eq, _) = listen(&b, 0, MatchCriteria::any(), 64);

    // Nothing pending: update succeeds.
    b.md_update(target_md, Some(eq), |md| md.threshold = Threshold::Count(5))
        .unwrap();

    // Land a put; its event makes the conditional update refuse.
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![1u8; 4])))
        .unwrap();
    a.put_op(md).target(b.id(), 0).submit().unwrap();
    wait_for(|| b.eq_len(eq).unwrap() == 1);
    assert_eq!(
        b.md_update(target_md, Some(eq), |md| md.threshold = Threshold::Count(9))
            .err(),
        Some(PtlError::NoUpdate)
    );
    // Unconditional update still works; consuming the event re-enables the
    // conditional form.
    b.md_update(target_md, None, |md| md.local_offset = 0)
        .unwrap();
    let _ = b.eq_get(eq).unwrap();
    b.md_update(target_md, Some(eq), |md| md.threshold = Threshold::Count(9))
        .unwrap();
}

#[test]
fn min_free_slab_rotation_end_to_end() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // A 64-byte slab that rotates when fewer than 32 bytes remain, with a
    // second slab behind it on the same match entry.
    let eq = b.eq_alloc(16).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let slab_opts = MdOptions {
        manage_local_offset: true,
        min_free: 32,
        ..Default::default()
    };
    let slab1 = Region::from_vec(vec![0u8; 64]);
    let slab2 = Region::from_vec(vec![0u8; 64]);
    b.md_attach(
        me,
        MdSpec::new(slab1.clone())
            .with_eq(eq)
            .with_options(slab_opts),
    )
    .unwrap();
    b.md_attach(
        me,
        MdSpec::new(slab2.clone())
            .with_eq(eq)
            .with_options(slab_opts),
    )
    .unwrap();

    // 40 bytes into slab1 → 24 remain < 32 → slab1 unlinks; next message goes
    // to slab2.
    for payload in [vec![b'x'; 40], vec![b'y'; 20]] {
        let md = a.md_bind(MdSpec::new(Region::from_vec(payload))).unwrap();
        a.put_op(md).target(b.id(), 0).submit().unwrap();
    }
    let first = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(
        (first.kind, first.mlength, first.offset),
        (EventKind::Put, 40, 0)
    );
    let unlink = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(unlink.kind, EventKind::Unlink);
    let second = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!(
        (second.kind, second.mlength, second.offset),
        (EventKind::Put, 20, 0)
    );
    assert_eq!(slab1.read_vec(0, 40), &vec![b'x'; 40][..]);
    assert_eq!(slab2.read_vec(0, 20), &vec![b'y'; 20][..]);
}

#[test]
fn max_message_size_enforced_at_initiator() {
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let a = na
        .create_ni(
            1,
            NiConfig {
                limits: portals_types::NiLimits::TINY,
                ..Default::default()
            },
        )
        .unwrap();
    // TINY allows 4 KiB; an 8 KiB put/get must be refused locally.
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 8192])))
        .unwrap();
    assert_eq!(
        a.put_op(md).target(ProcessId::new(0, 1), 0).submit().err(),
        Some(PtlError::LimitExceeded)
    );
    let md2 = a
        .md_bind(MdSpec::new(Region::from_vec(vec![0u8; 16])))
        .unwrap();
    assert_eq!(
        a.get_op(md2)
            .target(ProcessId::new(0, 1), 0)
            .length(8192)
            .submit()
            .err(),
        Some(PtlError::LimitExceeded)
    );
}

#[test]
fn scattered_md_receives_put_across_segments() {
    use portals::Segment;
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Target region = three separate 8-byte buffers (e.g. strided rows).
    let rows: Vec<portals::Region> = (0..3).map(|_| Region::from_vec(vec![0u8; 8])).collect();
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    b.md_attach(
        me,
        MdSpec::scattered(rows.iter().map(|r| Segment::new(r.clone(), 0, 8)).collect()).with_eq(eq),
    )
    .unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec((0u8..20).collect())))
        .unwrap();
    a.put_op(md).target(b.id(), 0).offset(2).submit().unwrap();
    let ev = b.eq_poll(eq, TIMEOUT).unwrap();
    assert_eq!((ev.mlength, ev.offset), (20, 2));
    // Offset 2 → bytes 0..6 land in row0[2..8], 6..14 in row1, 14..20 in row2[..6].
    assert_eq!(rows[0].read_vec(2, rows[0].len() - 2), &[0, 1, 2, 3, 4, 5]);
    assert_eq!(
        rows[1].read_vec(0, rows[1].len()),
        &[6, 7, 8, 9, 10, 11, 12, 13]
    );
    assert_eq!(rows[2].read_vec(0, 6), &[14, 15, 16, 17, 18, 19]);
}

#[test]
fn get_gathers_from_scattered_source() {
    use portals::Segment;
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let left = Region::from_vec(b"gather".to_vec());
    let right = Region::from_vec(b"scatter".to_vec());
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    b.md_attach(
        me,
        MdSpec::scattered(vec![Segment::new(left, 0, 6), Segment::new(right, 0, 7)]),
    )
    .unwrap();

    let aeq = a.eq_alloc(8).unwrap();
    let dst = Region::from_vec(vec![0u8; 13]);
    let md = a.md_bind(MdSpec::new(dst.clone()).with_eq(aeq)).unwrap();
    a.get_op(md).target(b.id(), 0).length(13).submit().unwrap();
    let _sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    let reply = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(reply.kind, EventKind::Reply);
    assert_eq!(dst.read_vec(0, dst.len()), b"gatherscatter");
}

/// Spin with a deadline on an eventually-true condition.
#[test]
fn flow_control_trips_once_nacks_and_resumes() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Portal 5 opts into flow control; no entry posted yet, so the first put
    // exhausts the match list (the resource-exhaustion trip condition).
    let flow_eq = b.eq_alloc(8).unwrap();
    b.pt_flow_ctrl(5, Some(flow_eq)).unwrap();
    assert!(b.pt_is_enabled(5).unwrap());

    let aeq = a.eq_alloc(16).unwrap();
    let put_once = |payload: &[u8]| {
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(payload.to_vec())).with_eq(aeq))
            .unwrap();
        a.put_op(md)
            .target(b.id(), 5)
            .bits(MatchBits::new(7))
            .ack(AckRequest::Ack)
            .submit()
            .unwrap();
        md
    };

    let md1 = put_once(b"first");
    // The target trips: FlowCtrl fires on the registered EQ, the portal
    // latches disabled, and the initiator sees a nack, not an ack.
    let fev = b.eq_poll(flow_eq, TIMEOUT).unwrap();
    assert_eq!(fev.kind, EventKind::FlowCtrl);
    assert_eq!(fev.portal_index, 5);
    assert_eq!(fev.initiator, a.id());
    assert!(!b.pt_is_enabled(5).unwrap());

    let nack = wait_for_kind(&a, aeq, EventKind::Ack);
    assert_eq!(nack.mlength, portals::NACK_MLENGTH);
    a.md_unlink(md1).unwrap();

    // While disabled: more puts are nacked, but FlowCtrl fires exactly once
    // per trip — no second event.
    let md2 = put_once(b"second");
    let nack2 = wait_for_kind(&a, aeq, EventKind::Ack);
    assert_eq!(nack2.mlength, portals::NACK_MLENGTH);
    a.md_unlink(md2).unwrap();
    assert_eq!(b.eq_len(flow_eq).unwrap(), 0);
    assert!(b.counters().dropped(DropReason::PtDisabled) >= 2);

    // Owner recovery: post the missing resources, re-enable, retry delivers.
    let (_, _, beq, buf) = listen(&b, 5, MatchCriteria::exact(MatchBits::new(7)), 64);
    b.pt_enable(5).unwrap();
    let md3 = put_once(b"third");
    let ack = wait_for_kind(&a, aeq, EventKind::Ack);
    assert_eq!(ack.mlength, 5);
    let ev = b.eq_poll(beq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    assert_eq!(buf.read_vec(0, 5), b"third");
    a.md_unlink(md3).unwrap();
}

#[test]
fn flow_control_trips_on_full_event_queue_before_data_moves() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Capacity-2 EQ on the target MD: the first put leaves one slot, which
    // fails the room-for-2 check, so the second put must trip *before*
    // touching the region.
    let flow_eq = b.eq_alloc(8).unwrap();
    b.pt_flow_ctrl(0, Some(flow_eq)).unwrap();
    let eq = b.eq_alloc(2).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let buf = Region::from_vec(vec![0u8; 8]);
    b.md_attach(me, MdSpec::new(buf.clone()).with_eq(eq))
        .unwrap();

    let aeq = a.eq_alloc(16).unwrap();
    let put_once = |payload: &[u8]| {
        let md = a
            .md_bind(MdSpec::new(Region::from_vec(payload.to_vec())).with_eq(aeq))
            .unwrap();
        a.put_op(md)
            .target(b.id(), 0)
            .ack(AckRequest::Ack)
            .submit()
            .unwrap();
        md
    };

    let md1 = put_once(b"aaaa");
    let ack = wait_for_kind(&a, aeq, EventKind::Ack);
    assert_eq!(ack.mlength, 4);
    a.md_unlink(md1).unwrap();

    let md2 = put_once(b"bbbb");
    let fev = b.eq_poll(flow_eq, TIMEOUT).unwrap();
    assert_eq!(fev.kind, EventKind::FlowCtrl);
    let nack = wait_for_kind(&a, aeq, EventKind::Ack);
    assert_eq!(nack.mlength, portals::NACK_MLENGTH);
    a.md_unlink(md2).unwrap();
    // Nothing was half-delivered: the region still holds the first payload
    // and no unread target event was overwritten.
    assert_eq!(buf.read_vec(0, 4), b"aaaa");
    assert_eq!(b.counters().events_overwritten.get(), 0);
}

#[test]
fn flow_control_off_preserves_drop_and_count() {
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = nb
        .create_ni(
            1,
            NiConfig {
                flow_control: false,
                ..NiConfig::default()
            },
        )
        .unwrap();

    // Even with a registered flow EQ, the interface switch wins: a no-match
    // put takes the old §4.8 path — silent drop, counted, no disable.
    let flow_eq = b.eq_alloc(8).unwrap();
    b.pt_flow_ctrl(5, Some(flow_eq)).unwrap();

    let md = a
        .md_bind(MdSpec::new(Region::from_vec(vec![1u8; 4])))
        .unwrap();
    a.put_op(md)
        .target(b.id(), 5)
        .bits(MatchBits::new(7))
        .submit()
        .unwrap();

    wait_for(|| b.counters().dropped(DropReason::NoMatch) == 1);
    assert!(b.pt_is_enabled(5).unwrap());
    assert_eq!(b.eq_len(flow_eq).unwrap(), 0);
    assert_eq!(b.counters().dropped(DropReason::PtDisabled), 0);
}

#[test]
fn pt_flow_ctrl_validates_handles() {
    let fabric = Fabric::ideal();
    let (na, _) = two_nodes(&fabric);
    let a = default_ni(&na);
    assert_eq!(
        a.pt_flow_ctrl(999, None).err(),
        Some(PtlError::InvalidPortalIndex)
    );
    assert_eq!(
        a.pt_flow_ctrl(0, Some(portals_types::Handle::NONE)).err(),
        Some(PtlError::InvalidEq)
    );
    assert_eq!(a.pt_enable(999).err(), Some(PtlError::InvalidPortalIndex));
    assert_eq!(a.pt_disable(999).err(), Some(PtlError::InvalidPortalIndex));
    // Explicit disable/enable round-trips even with no flow EQ registered.
    a.pt_disable(2).unwrap();
    assert!(!a.pt_is_enabled(2).unwrap());
    a.pt_enable(2).unwrap();
    assert!(a.pt_is_enabled(2).unwrap());
}

/// Poll `eq` until an event of `kind` arrives (skipping Sent and other
/// bookkeeping events), or the global timeout elapses.
fn wait_for_kind(ni: &NetworkInterface, eq: portals::EqHandle, kind: EventKind) -> portals::Event {
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        let remaining = deadline
            .checked_duration_since(std::time::Instant::now())
            .expect("event of requested kind not seen in time");
        let ev = ni.eq_poll(eq, remaining).unwrap();
        if ev.kind == kind {
            return ev;
        }
    }
}

fn wait_for(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + TIMEOUT;
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "condition not reached in time"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------------------
// Atomic operations (Portals 4 `PtlAtomic`/`PtlFetchAtomic` lineage)
// ---------------------------------------------------------------------------

#[test]
fn atomic_sum_applies_at_target_and_acks() {
    use portals::{AtomicDatatype, AtomicOp};
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, eq, buf) = listen(&b, 0, MatchCriteria::exact(MatchBits::new(9)), 8);
    buf.write(0, &100u64.to_le_bytes());

    let src_eq = a.eq_alloc(8).unwrap();
    let operand = Region::from_vec(7u64.to_le_bytes().to_vec());
    let md = a.md_bind(MdSpec::new(operand).with_eq(src_eq)).unwrap();
    a.atomic_op(md)
        .target(b.id(), 0)
        .bits(MatchBits::new(9))
        .op(AtomicOp::Sum)
        .datatype(AtomicDatatype::U64)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();

    let ev = wait_for_kind(&b, eq, EventKind::Atomic);
    assert_eq!(ev.rlength, 8);
    assert_eq!(ev.mlength, 8);
    assert_eq!(buf.read_vec(0, 8), 107u64.to_le_bytes());
    let ack = wait_for_kind(&a, src_eq, EventKind::Ack);
    assert_eq!(ack.mlength, 8);
}

#[test]
fn fetch_atomic_returns_prior_value() {
    use portals::{AtomicDatatype, AtomicOp};
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, eq, buf) = listen(&b, 0, MatchCriteria::exact(MatchBits::new(4)), 8);
    buf.write(0, &41u64.to_le_bytes());

    let fetch_eq = a.eq_alloc(8).unwrap();
    let fetch_buf = Region::zeroed(8);
    let fetch = a
        .md_bind(MdSpec::new(fetch_buf.clone()).with_eq(fetch_eq))
        .unwrap();
    let operand = Region::from_vec(1u64.to_le_bytes().to_vec());
    let md = a.md_bind(MdSpec::new(operand)).unwrap();
    a.atomic_op(md)
        .target(b.id(), 0)
        .bits(MatchBits::new(4))
        .op(AtomicOp::Sum)
        .datatype(AtomicDatatype::U64)
        .fetch(fetch)
        .submit()
        .unwrap();

    let ev = wait_for_kind(&b, eq, EventKind::FetchAtomic);
    assert_eq!(ev.mlength, 8);
    let reply = wait_for_kind(&a, fetch_eq, EventKind::Reply);
    assert_eq!(reply.mlength, 8);
    assert_eq!(fetch_buf.read_vec(0, 8), 41u64.to_le_bytes());
    assert_eq!(buf.read_vec(0, 8), 42u64.to_le_bytes());
}

#[test]
fn compare_and_swap_round_trip() {
    use portals::{AtomicDatatype, AtomicOp};
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    let (_, _, _eq, buf) = listen(&b, 0, MatchCriteria::exact(MatchBits::new(1)), 8);
    buf.write(0, &5u64.to_le_bytes());

    let fetch_eq = a.eq_alloc(8).unwrap();
    let fetch_buf = Region::zeroed(8);
    let fetch = a
        .md_bind(MdSpec::new(fetch_buf.clone()).with_eq(fetch_eq))
        .unwrap();
    // compare = 5 (matches), swap in 77.
    let mut cas = 5u64.to_le_bytes().to_vec();
    cas.extend_from_slice(&77u64.to_le_bytes());
    let md = a.md_bind(MdSpec::new(Region::from_vec(cas))).unwrap();
    a.atomic_op(md)
        .target(b.id(), 0)
        .bits(MatchBits::new(1))
        .op(AtomicOp::Cas)
        .datatype(AtomicDatatype::U64)
        .fetch(fetch)
        .submit()
        .unwrap();
    wait_for_kind(&a, fetch_eq, EventKind::Reply);
    assert_eq!(fetch_buf.read_vec(0, 8), 5u64.to_le_bytes());
    assert_eq!(buf.read_vec(0, 8), 77u64.to_le_bytes());

    // Second CAS with a stale compare must fail and return the current value.
    let mut stale = 5u64.to_le_bytes().to_vec();
    stale.extend_from_slice(&99u64.to_le_bytes());
    let fetch_buf2 = Region::zeroed(8);
    let fetch2 = a
        .md_bind(MdSpec::new(fetch_buf2.clone()).with_eq(fetch_eq))
        .unwrap();
    let md2 = a.md_bind(MdSpec::new(Region::from_vec(stale))).unwrap();
    a.atomic_op(md2)
        .target(b.id(), 0)
        .bits(MatchBits::new(1))
        .op(AtomicOp::Cas)
        .datatype(AtomicDatatype::U64)
        .fetch(fetch2)
        .submit()
        .unwrap();
    wait_for_kind(&a, fetch_eq, EventKind::Reply);
    assert_eq!(fetch_buf2.read_vec(0, 8), 77u64.to_le_bytes());
    assert_eq!(buf.read_vec(0, 8), 77u64.to_le_bytes());
}

#[test]
fn atomic_geometry_is_validated_at_both_ends() {
    use portals::{AtomicDatatype, AtomicOp};
    let fabric = Fabric::ideal();
    let (na, nb) = two_nodes(&fabric);
    let a = default_ni(&na);
    let b = default_ni(&nb);

    // Initiator-side: zero length, non-lane-multiple length, multi-lane CAS.
    let md = a.md_bind(MdSpec::new(Region::zeroed(32))).unwrap();
    for (op, len) in [(AtomicOp::Sum, 0), (AtomicOp::Sum, 12), (AtomicOp::Cas, 16)] {
        let err = a
            .atomic_op(md)
            .target(b.id(), 0)
            .op(op)
            .length(len)
            .submit()
            .unwrap_err();
        assert_eq!(err, PtlError::InvalidArgument, "{op:?} len {len}");
    }

    // Target-side: a descriptor that would truncate the RMW (8-byte region,
    // 16-byte atomic) must drop with AtomicInvalid — never half-apply.
    let (_, _, _eq, buf) = listen(&b, 0, MatchCriteria::any(), 8);
    buf.write(0, &3u64.to_le_bytes());
    let wide = a
        .md_bind(MdSpec::new(Region::from_vec(vec![1u8; 16])))
        .unwrap();
    a.atomic_op(wide)
        .target(b.id(), 0)
        .op(AtomicOp::Sum)
        .datatype(AtomicDatatype::U64)
        .length(16)
        .submit()
        .unwrap();
    wait_for(|| b.counters().dropped(DropReason::AtomicInvalid) == 1);
    assert_eq!(buf.read_vec(0, 8), 3u64.to_le_bytes());
}

#[test]
fn concurrent_atomic_sums_from_two_initiators_serialize() {
    use portals::{AtomicDatatype, AtomicOp};
    let fabric = Fabric::ideal();
    let nodes: Vec<Node> = (0..3)
        .map(|i| Node::new(fabric.attach(NodeId(i)), NodeConfig::default()))
        .collect();
    let target = default_ni(&nodes[0]);
    let (_, _, _eq, buf) = listen(&target, 0, MatchCriteria::any(), 8);

    const PER_INITIATOR: u64 = 200;
    let tid = target.id();
    std::thread::scope(|s| {
        for node in &nodes[1..] {
            s.spawn(move || {
                let ni = default_ni(node);
                let src_eq = ni.eq_alloc(16).unwrap();
                let operand = Region::from_vec(1u64.to_le_bytes().to_vec());
                let md = ni.md_bind(MdSpec::new(operand).with_eq(src_eq)).unwrap();
                for _ in 0..PER_INITIATOR {
                    ni.atomic_op(md)
                        .target(tid, 0)
                        .op(AtomicOp::Sum)
                        .datatype(AtomicDatatype::U64)
                        .ack(AckRequest::Ack)
                        .submit()
                        .unwrap();
                    wait_for_kind(&ni, src_eq, EventKind::Ack);
                }
            });
        }
    });
    assert_eq!(buf.read_vec(0, 8), (2 * PER_INITIATOR).to_le_bytes());
}
