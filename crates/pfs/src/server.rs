//! The file server: an in-memory volume served entirely through Portals.

use crate::proto::{FileId, FsOp, FsStatus, Reply, Request, PT_FS_DATA, PT_FS_REQ, REQUEST_SIZE};
use parking_lot::Mutex;
use portals::{EqHandle, EventKind, MdOptions, MdSpec, MePos, NetworkInterface, Region, Threshold};
use portals_obs::{Counter, Registry};
use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request slab sizing: room for this many in-flight request records.
const REQ_SLAB_RECORDS: usize = 1024;

struct Volume {
    names: HashMap<Vec<u8>, FileId>,
    files: HashMap<FileId, Region>,
    next_id: FileId,
}

impl Volume {
    fn new() -> Volume {
        Volume {
            names: HashMap::new(),
            files: HashMap::new(),
            next_id: 1,
        }
    }
}

/// Statistics the server exposes.
///
/// Registered as `pfs.*` series labeled `{node}` on the serving interface's
/// registry.
#[derive(Debug)]
pub struct FsServerStats {
    /// Requests served (any status).
    pub requests: Counter,
    /// Read grants issued.
    pub read_grants: Counter,
    /// Write grants issued.
    pub write_grants: Counter,
    /// Requests answered with an error status.
    pub errors: Counter,
}

impl FsServerStats {
    /// Register the `pfs.*` series for node `nid` in `registry`.
    pub(crate) fn new(registry: &Registry, nid: u32) -> FsServerStats {
        let labels = [("node", nid.to_string())];
        let c = |name| registry.counter(name, &labels);
        FsServerStats {
            requests: c("pfs.requests"),
            read_grants: c("pfs.read_grants"),
            write_grants: c("pfs.write_grants"),
            errors: c("pfs.errors"),
        }
    }
}

/// An in-memory file server bound to one Portals interface.
///
/// The serve loop runs on its own thread: it consumes request records from
/// the request slab, mutates the volume, issues one-shot data grants, and
/// sends reply records. Dropping the server stops the loop.
pub struct FileServer {
    shared: Arc<ServerShared>,
    thread: Option<JoinHandle<()>>,
}

struct ServerShared {
    ni: NetworkInterface,
    eq: EqHandle,
    volume: Mutex<Volume>,
    slab_bufs: Mutex<HashMap<portals::MdHandle, Region>>,
    /// Outstanding write grants: grant MD -> (file, region granted into).
    /// If the file's region is replaced (growth) while a put is in flight,
    /// the landed bytes are copied forward when the put's event arrives.
    pending_writes: Mutex<HashMap<portals::MdHandle, (FileId, Region)>>,
    slab_me: portals::MeHandle,
    next_grant: AtomicU64,
    stats: FsServerStats,
    stop: AtomicBool,
}

impl FileServer {
    /// Start a server on `ni`.
    pub fn start(ni: NetworkInterface) -> PtlResult<FileServer> {
        let eq = ni.eq_alloc(4096)?;
        let slab_me = ni.me_attach(
            PT_FS_REQ,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )?;
        let stats = FsServerStats::new(&ni.obs().registry, ni.id().nid.0);
        let shared = Arc::new(ServerShared {
            ni,
            eq,
            volume: Mutex::new(Volume::new()),
            slab_bufs: Mutex::new(HashMap::new()),
            pending_writes: Mutex::new(HashMap::new()),
            slab_me,
            next_grant: AtomicU64::new(1),
            stats,
            stop: AtomicBool::new(false),
        });
        shared.attach_request_slab()?;
        shared.attach_request_slab()?; // double-buffered

        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("portals-fs-server".into())
                .spawn(move || serve_loop(shared))
                .expect("spawn fs server")
        };
        Ok(FileServer {
            shared,
            thread: Some(thread),
        })
    }

    /// The server's process id (what clients address).
    pub fn id(&self) -> ProcessId {
        self.shared.ni.id()
    }

    /// The live request counters; read a value with `.get()`.
    pub fn stats(&self) -> &FsServerStats {
        &self.shared.stats
    }

    /// Direct (test) access: current size of a file, if it exists.
    pub fn file_size(&self, name: &[u8]) -> Option<usize> {
        let vol = self.shared.volume.lock();
        let id = vol.names.get(name)?;
        vol.files.get(id).map(|buf| buf.len())
    }
}

impl Drop for FileServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl ServerShared {
    fn attach_request_slab(&self) -> PtlResult<()> {
        let buf = Region::zeroed(REQUEST_SIZE * REQ_SLAB_RECORDS);
        let md = self.ni.md_attach(
            self.slab_me,
            MdSpec::new(buf.clone())
                .with_eq(self.eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: false,
                    min_free: REQUEST_SIZE,
                }),
        )?;
        self.slab_bufs.lock().insert(md, buf);
        Ok(())
    }

    fn reply(&self, to: ProcessId, bits: u64, reply: Reply) {
        let md = self
            .ni
            .md_bind(MdSpec::new(Region::from_vec(reply.encode())))
            .expect("bind reply md");
        // put() snapshots the payload synchronously; unlink immediately.
        let _ = self
            .ni
            .put_op(md)
            .target(to, crate::proto::PT_FS_REP)
            .bits(MatchBits::new(bits))
            .submit();
        let _ = self.ni.md_unlink(md);
    }

    /// Expose `[offset, offset+len)` of `file` for a single one-sided
    /// operation and return the grant bits.
    fn grant(
        &self,
        file_id: FileId,
        file: &Region,
        total_len: usize,
        reads: bool,
    ) -> PtlResult<u64> {
        let bits = self.next_grant.fetch_add(1, Ordering::Relaxed);
        let me = self.ni.me_attach(
            PT_FS_DATA,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(bits)),
            true, // unlink the entry once its one-shot MD is consumed
            MePos::Back,
        )?;
        let mut spec = MdSpec::new(file.clone())
            .with_length(total_len)
            .with_threshold(Threshold::Count(1))
            .with_options(MdOptions {
                op_put: !reads,
                op_get: reads,
                truncate: false, // grants are sized exactly
                unlink_on_exhaustion: true,
                ..Default::default()
            });
        if !reads {
            // Write grants report arrival so the serve loop can detect a
            // granted-then-grown file and replay the bytes (see serve_loop).
            spec = spec.with_eq(self.eq);
        }
        let md = self.ni.md_attach(me, spec)?;
        if !reads {
            self.pending_writes
                .lock()
                .insert(md, (file_id, file.clone()));
        }
        Ok(bits)
    }

    fn handle_request(&self, from: ProcessId, req: Request) {
        self.stats.requests.inc();
        let mut vol = self.volume.lock();
        let fail = |shared: &Self, status: FsStatus| {
            shared.stats.errors.inc();
            shared.reply(
                from,
                req.reply_bits,
                Reply {
                    status,
                    file: req.file,
                    size: 0,
                    grant_bits: 0,
                    grant_len: 0,
                },
            );
        };
        match req.op {
            FsOp::Create => {
                let id = match vol.names.get(&req.name) {
                    Some(id) => *id,
                    None => {
                        let id = vol.next_id;
                        vol.next_id += 1;
                        vol.names.insert(req.name.clone(), id);
                        id
                    }
                };
                vol.files.insert(id, Region::zeroed(0));
                drop(vol);
                self.reply(
                    from,
                    req.reply_bits,
                    Reply {
                        status: FsStatus::Ok,
                        file: id,
                        size: 0,
                        grant_bits: 0,
                        grant_len: 0,
                    },
                );
            }
            FsOp::Open | FsOp::Stat => {
                let found = if req.op == FsOp::Open {
                    vol.names.get(&req.name).copied()
                } else {
                    Some(req.file)
                };
                match found.and_then(|id| vol.files.get(&id).map(|f| (id, f.len()))) {
                    Some((id, size)) => {
                        drop(vol);
                        self.reply(
                            from,
                            req.reply_bits,
                            Reply {
                                status: FsStatus::Ok,
                                file: id,
                                size: size as u64,
                                grant_bits: 0,
                                grant_len: 0,
                            },
                        );
                    }
                    None => fail(self, FsStatus::NotFound),
                }
            }
            FsOp::Remove => match vol.names.remove(&req.name) {
                Some(id) => {
                    vol.files.remove(&id);
                    drop(vol);
                    self.reply(
                        from,
                        req.reply_bits,
                        Reply {
                            status: FsStatus::Ok,
                            file: id,
                            size: 0,
                            grant_bits: 0,
                            grant_len: 0,
                        },
                    );
                }
                None => fail(self, FsStatus::NotFound),
            },
            FsOp::Read => {
                let Some(file) = vol.files.get(&req.file).cloned() else {
                    fail(self, FsStatus::NotFound);
                    return;
                };
                let size = file.len() as u64;
                if req.offset + req.len > size {
                    fail(self, FsStatus::OutOfRange);
                    return;
                }
                drop(vol);
                // Expose the file once; the client gets [offset, offset+len)
                // by passing the offset in its get.
                match self.grant(req.file, &file, size as usize, /* reads = */ true) {
                    Ok(bits) => {
                        self.stats.read_grants.inc();
                        self.reply(
                            from,
                            req.reply_bits,
                            Reply {
                                status: FsStatus::Ok,
                                file: req.file,
                                size,
                                grant_bits: bits,
                                grant_len: req.len,
                            },
                        );
                    }
                    Err(_) => fail(self, FsStatus::Busy),
                }
            }
            FsOp::Write => {
                let Some(mut file) = vol.files.get(&req.file).cloned() else {
                    fail(self, FsStatus::NotFound);
                    return;
                };
                let needed = (req.offset + req.len) as usize;
                if file.len() < needed {
                    // Regions are fixed-length: growth is a new allocation
                    // carrying the old contents. Outstanding read grants keep
                    // the old region alive (and consistent) via its refcount.
                    file = file.resized(needed);
                    vol.files.insert(req.file, file.clone());
                }
                drop(vol);
                match self.grant(req.file, &file, needed, /* reads = */ false) {
                    Ok(bits) => {
                        self.stats.write_grants.inc();
                        self.reply(
                            from,
                            req.reply_bits,
                            Reply {
                                status: FsStatus::Ok,
                                file: req.file,
                                size: needed as u64,
                                grant_bits: bits,
                                grant_len: req.len,
                            },
                        );
                    }
                    Err(_) => fail(self, FsStatus::Busy),
                }
            }
        }
    }
}

fn serve_loop(shared: Arc<ServerShared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        let ev = match shared.ni.eq_poll(shared.eq, Duration::from_millis(20)) {
            Ok(ev) => ev,
            Err(portals_types::PtlError::Timeout) | Err(portals_types::PtlError::EqEmpty) => {
                continue
            }
            Err(portals_types::PtlError::EqDropped) => {
                // Overloaded: requests were lost; clients will time out and
                // retry. Keep serving.
                continue;
            }
            Err(_) => return,
        };
        match ev.kind {
            EventKind::Put if ev.portal_index == PT_FS_DATA => {
                // A write grant's put landed. If the file's region was
                // replaced (another write grew it) after this grant was
                // issued, the bytes landed in the superseded allocation:
                // copy the written range forward into the current region.
                let entry = shared.pending_writes.lock().remove(&ev.md);
                if let Some((file_id, granted)) = entry {
                    let vol = shared.volume.lock();
                    if let Some(current) = vol.files.get(&file_id) {
                        if !current.same_allocation(&granted) {
                            let at = ev.offset as usize;
                            let n = (ev.mlength as usize).min(granted.len().saturating_sub(at));
                            let n = n.min(current.len().saturating_sub(at));
                            if n > 0 {
                                current.write(at, &granted.slice(at, n));
                            }
                        }
                    }
                }
            }
            EventKind::Put if ev.portal_index == PT_FS_REQ => {
                let buf = shared.slab_bufs.lock().get(&ev.md).cloned();
                let Some(buf) = buf else { continue };
                let record = buf.slice(ev.offset as usize, (ev.mlength as usize).min(REQUEST_SIZE));
                match Request::decode(&record) {
                    Ok(req) => shared.handle_request(ev.initiator, req),
                    Err(_) => {
                        shared.stats.errors.inc();
                    }
                }
            }
            EventKind::Unlink if shared.slab_bufs.lock().remove(&ev.md).is_some() => {
                let _ = shared.attach_request_slab();
            }
            EventKind::Unlink => {
                // A consumed write grant's one-shot MD going away.
                shared.pending_writes.lock().remove(&ev.md);
            }
            // Grant MDs also unlink here; nothing to do.
            // Grant traffic (client get/put on PT_FS_DATA) produces no events:
            // grant MDs carry no event queue.
            _ => {}
        }
    }
}
