//! Runtime control plane: registration, job lifecycle, heartbeat failure
//! detection — the launcher and process managers talk only through Portals,
//! authenticated as system processes (§4.5 ACL entry 1).

use portals::{NiConfig, Node, NodeConfig, ProgressMode, TransportConfig};
use portals_net::Fabric;
use portals_runtime::{JobDirectory, Launcher, NodeState, ProcessManager};
use portals_types::{NodeId, ProcessId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two builds a bypass test runs in: a NIC thread standing by, and
/// built without one.
const BOTH_BUILDS: [ProgressMode; 2] = [ProgressMode::NicThread, ProgressMode::CallerDriven];

fn build(mode: ProgressMode) -> NodeConfig {
    NodeConfig {
        transport: TransportConfig {
            progress_mode: mode,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn control_world(
    nmanagers: usize,
    mode: ProgressMode,
) -> (Launcher, Vec<ProcessManager>, Vec<Node>, Arc<Fabric>) {
    let fabric = Arc::new(Fabric::ideal());
    let directory = Arc::new(JobDirectory::new());
    let mut nodes = Vec::new();

    // Node 0 hosts the launcher; nodes 1.. host managers. All control
    // processes are registered as system processes so ACL entry 1 admits them.
    directory.register_system(ProcessId::new(0, 1));
    for n in 1..=nmanagers as u32 {
        directory.register_system(ProcessId::new(n, 1));
    }

    let mk_node = |nid: u32| {
        Node::new(
            fabric.attach(NodeId(nid)),
            NodeConfig {
                directory: Some(directory.clone()),
                ..build(mode)
            },
        )
    };
    let launcher_node = mk_node(0);
    let launcher = Launcher::start(
        launcher_node.create_ni(1, NiConfig::default()).unwrap(),
        Duration::from_millis(100),
    )
    .unwrap();
    nodes.push(launcher_node);

    let managers: Vec<ProcessManager> = (1..=nmanagers as u32)
        .map(|n| {
            let node = mk_node(n);
            let pm = ProcessManager::start(
                node.create_ni(1, NiConfig::default()).unwrap(),
                launcher.id(),
                Duration::from_millis(20),
            )
            .unwrap();
            nodes.push(node);
            pm
        })
        .collect();
    (launcher, managers, nodes, fabric)
}

#[test]
fn managers_register_and_beacon() {
    for mode in BOTH_BUILDS {
        let (launcher, _managers, _nodes, _fabric) = control_world(3, mode);
        wait_until("all managers registered", || launcher.nodes().len() == 3);
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            launcher
                .nodes()
                .iter()
                .all(|(_, st)| *st == NodeState::Alive),
            "steady heartbeats keep every node alive: {:?}",
            launcher.nodes()
        );
    }
}

#[test]
fn job_start_is_acknowledged_by_every_node() {
    for mode in BOTH_BUILDS {
        let (launcher, managers, _nodes, _fabric) = control_world(3, mode);
        wait_until("registration", || launcher.nodes().len() == 3);
        launcher.start_job(7, 12);
        wait_until("all acks", || launcher.started_on(7).len() == 3);
        for pm in &managers {
            wait_until("job visible", || pm.running_jobs().contains(&7));
        }
        launcher.kill_job(7);
        for pm in &managers {
            wait_until("job killed", || !pm.running_jobs().contains(&7));
        }
    }
}

#[test]
fn dead_node_is_detected_by_missed_heartbeats() {
    for mode in BOTH_BUILDS {
        let (launcher, _managers, _nodes, fabric) = control_world(2, mode);
        wait_until("registration", || launcher.nodes().len() == 2);
        // Cut node 2 off; its beacons stop arriving.
        fabric.partition(NodeId(2), NodeId(0));
        wait_until("node 2 suspected", || {
            launcher
                .nodes()
                .iter()
                .any(|(nid, st)| *nid == 2 && *st == NodeState::Suspect)
        });
        // Node 1 stays alive through it.
        assert!(launcher
            .nodes()
            .iter()
            .any(|(nid, st)| *nid == 1 && *st == NodeState::Alive));
        // Healing the partition revives node 2 on the next beacon.
        fabric.heal(NodeId(2), NodeId(0));
        wait_until("node 2 recovered", || {
            launcher
                .nodes()
                .iter()
                .any(|(nid, st)| *nid == 2 && *st == NodeState::Alive)
        });
    }
}
