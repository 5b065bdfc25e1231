//! End-to-end file-service tests: one server process, several compute-node
//! clients, one-sided reads/writes, striping, and error paths.

use portals::{NiConfig, Node, NodeConfig};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_pfs::{FileServer, FsClient, FsError, StripedFile};
use portals_types::NodeId;
use std::time::Duration;

fn server_and_clients(fabric: &Fabric, nclients: usize) -> (FileServer, Vec<FsClient>, Vec<Node>) {
    let mut nodes = Vec::new();
    let server_node = Node::new(fabric.attach(NodeId(0)), NodeConfig::default());
    let server = FileServer::start(server_node.create_ni(1, NiConfig::default()).unwrap()).unwrap();
    nodes.push(server_node);
    let clients = (0..nclients)
        .map(|i| {
            let node = Node::new(fabric.attach(NodeId(i as u32 + 1)), NodeConfig::default());
            let ni = node.create_ni(1, NiConfig::default()).unwrap();
            let c = FsClient::new(ni, server.id()).unwrap();
            nodes.push(node);
            c
        })
        .collect();
    (server, clients, nodes)
}

#[test]
fn create_write_read_roundtrip() {
    let fabric = Fabric::ideal();
    let (server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];

    let id = c.create(b"data.bin").unwrap();
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
    c.write(id, 0, &payload).unwrap();
    assert_eq!(c.stat(id).unwrap(), 10_000);

    let back = c.read(id, 0, 10_000).unwrap();
    assert_eq!(back, payload);

    // Partial read from the middle.
    let mid = c.read(id, 5000, 100).unwrap();
    assert_eq!(&mid[..], &payload[5000..5100]);

    assert!(server.stats().read_grants.get() >= 2);
}

#[test]
fn sparse_write_extends_and_zero_fills() {
    let fabric = Fabric::ideal();
    let (_server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];
    let id = c.create(b"sparse").unwrap();
    c.write(id, 100, b"tail").unwrap();
    assert_eq!(c.stat(id).unwrap(), 104);
    let all = c.read(id, 0, 104).unwrap();
    assert!(all[..100].iter().all(|&b| b == 0), "hole is zero-filled");
    assert_eq!(&all[100..], b"tail");
}

#[test]
fn open_stat_remove_lifecycle() {
    let fabric = Fabric::ideal();
    let (_server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];

    assert_eq!(c.open(b"ghost").unwrap_err(), FsError::NotFound);
    let id = c.create(b"lives").unwrap();
    c.write(id, 0, b"xyz").unwrap();
    let (id2, size) = c.open(b"lives").unwrap();
    assert_eq!(id2, id);
    assert_eq!(size, 3);
    c.remove(b"lives").unwrap();
    assert_eq!(c.open(b"lives").unwrap_err(), FsError::NotFound);
    assert_eq!(c.remove(b"lives").unwrap_err(), FsError::NotFound);
}

#[test]
fn read_past_eof_is_out_of_range() {
    let fabric = Fabric::ideal();
    let (_server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];
    let id = c.create(b"short").unwrap();
    c.write(id, 0, b"1234").unwrap();
    assert_eq!(c.read(id, 2, 10).unwrap_err(), FsError::OutOfRange);
    assert_eq!(c.read(id, 0, 4).unwrap().len(), 4);
}

#[test]
fn concurrent_clients_share_a_file() {
    let fabric = Fabric::ideal();
    let (_server, mut clients, _nodes) = server_and_clients(&fabric, 4);
    let id = clients[0].create(b"shared").unwrap();
    // Each client writes its own 1 KiB block.
    let handles: Vec<_> = clients
        .drain(..)
        .enumerate()
        .map(|(i, c)| {
            std::thread::spawn(move || {
                let fid = if i == 0 {
                    id
                } else {
                    c.open(b"shared").unwrap().0
                };
                c.write(fid, (i * 1024) as u64, &vec![i as u8 + 1; 1024])
                    .unwrap();
                c
            })
        })
        .collect();
    let clients: Vec<FsClient> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Any client sees all blocks.
    let all = clients[0].read(id, 0, 4096).unwrap();
    for i in 0..4 {
        assert!(
            all[i * 1024..(i + 1) * 1024]
                .iter()
                .all(|&b| b == i as u8 + 1),
            "block {i} intact"
        );
    }
}

#[test]
fn striped_file_across_three_servers() {
    let fabric = Fabric::ideal();
    // Three independent servers on nodes 0-2; one client node with three
    // client handles (one per server).
    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    for n in 0..3u32 {
        let node = Node::new(fabric.attach(NodeId(n)), NodeConfig::default());
        servers.push(FileServer::start(node.create_ni(1, NiConfig::default()).unwrap()).unwrap());
        nodes.push(node);
    }
    let client_node = Node::new(fabric.attach(NodeId(10)), NodeConfig::default());
    let clients: Vec<FsClient> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ni = client_node
                .create_ni(i as u32 + 1, NiConfig::default())
                .unwrap();
            FsClient::new(ni, s.id()).unwrap()
        })
        .collect();

    let file = StripedFile::create(clients, b"big.dat", 4096).unwrap();
    assert_eq!(file.width(), 3);
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    file.write(0, &payload).unwrap();
    let back = file.read(0, payload.len()).unwrap();
    assert_eq!(back, payload);

    // Unaligned span read crossing several stripes and servers.
    let piece = file.read(3000, 20_000).unwrap();
    assert_eq!(&piece[..], &payload[3000..23_000]);

    // Every server holds roughly a third of the bytes.
    for s in &servers {
        let sz = s.file_size(b"big.dat").expect("component exists");
        assert!(sz > 0, "each server stores a component");
    }
}

#[test]
fn service_survives_lossy_network() {
    let cfg = FabricConfig::default()
        .with_link(LinkModel {
            latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: f64::INFINITY,
            per_packet_overhead: Duration::ZERO,
        })
        .with_faults(FaultPlan::lossy(0.15))
        .with_seed(5);
    let fabric = Fabric::new(cfg);
    let (_server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];
    let id = c.create(b"lossy.bin").unwrap();
    let payload = vec![0x77u8; 30_000];
    c.write(id, 0, &payload).unwrap();
    assert_eq!(c.read(id, 0, 30_000).unwrap(), payload);
}

#[test]
fn zero_length_io_is_trivial() {
    let fabric = Fabric::ideal();
    let (_server, clients, _nodes) = server_and_clients(&fabric, 1);
    let c = &clients[0];
    let id = c.create(b"empty").unwrap();
    c.write(id, 0, &[]).unwrap();
    assert_eq!(c.read(id, 0, 0).unwrap(), Vec::<u8>::new());
    assert_eq!(c.stat(id).unwrap(), 0);
}
