//! The file-service wire protocol: fixed-size request and reply records.
//!
//! Records ride inside ordinary Portals puts; the interesting data movement
//! (file contents) never appears in a record — it flows through one-sided
//! grants (see the crate docs).

/// Portal indices used by the service (chosen clear of the MPI layer's 0–3).
pub const PT_FS_REQ: u32 = 7;
/// Client-side reply portal.
pub const PT_FS_REP: u32 = 8;
/// Server-side data-grant portal (read gets / write puts target this).
pub const PT_FS_DATA: u32 = 9;

/// A server-assigned file identifier.
pub type FileId = u64;

/// Fixed request record size on the wire.
pub const REQUEST_SIZE: usize = 80;
/// Fixed reply record size on the wire.
pub const REPLY_SIZE: usize = 40;
/// Maximum file-name length carried in a request.
pub const MAX_NAME: usize = 32;

/// Operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FsOp {
    /// Open an existing file by name (returns id + size).
    Open = 1,
    /// Create (or truncate to zero) a file by name.
    Create = 2,
    /// Grant a one-sided read of `[offset, offset+len)`.
    Read = 3,
    /// Grant a one-sided write of `[offset, offset+len)`, extending the file.
    Write = 4,
    /// Report file size.
    Stat = 5,
    /// Remove a file.
    Remove = 6,
}

impl FsOp {
    fn from_byte(b: u8) -> Option<FsOp> {
        match b {
            1 => Some(FsOp::Open),
            2 => Some(FsOp::Create),
            3 => Some(FsOp::Read),
            4 => Some(FsOp::Write),
            5 => Some(FsOp::Stat),
            6 => Some(FsOp::Remove),
            _ => None,
        }
    }
}

/// Client → server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: FsOp,
    /// File id (ignored for Open/Create/Remove, which use `name`).
    pub file: FileId,
    /// Byte offset for Read/Write.
    pub offset: u64,
    /// Byte length for Read/Write.
    pub len: u64,
    /// Match bits the client listens on for the reply record.
    pub reply_bits: u64,
    /// File name for Open/Create/Remove (≤ [`MAX_NAME`] bytes).
    pub name: Vec<u8>,
}

impl Request {
    /// Serialize to exactly [`REQUEST_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.name.len() <= MAX_NAME, "file name too long");
        let mut out = Vec::with_capacity(REQUEST_SIZE);
        out.push(self.op as u8);
        out.push(self.name.len() as u8);
        out.extend_from_slice(&[0u8; 6]); // pad to 8
        out.extend_from_slice(&self.file.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.reply_bits.to_le_bytes());
        out.extend_from_slice(&self.name);
        out.resize(REQUEST_SIZE, 0);
        out
    }

    /// Parse a [`REQUEST_SIZE`]-byte record.
    pub fn decode(buf: &[u8]) -> FsResult<Request> {
        if buf.len() < REQUEST_SIZE {
            return Err(FsError::Malformed);
        }
        let op = FsOp::from_byte(buf[0]).ok_or(FsError::Malformed)?;
        let name_len = buf[1] as usize;
        if name_len > MAX_NAME {
            return Err(FsError::Malformed);
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("slice"));
        Ok(Request {
            op,
            file: u64_at(8),
            offset: u64_at(16),
            len: u64_at(24),
            reply_bits: u64_at(32),
            name: buf[40..40 + name_len].to_vec(),
        })
    }
}

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FsStatus {
    /// Success.
    Ok = 0,
    /// No such file.
    NotFound = 1,
    /// Read past end of file.
    OutOfRange = 2,
    /// Malformed request.
    Bad = 3,
    /// Server resource exhaustion.
    Busy = 4,
}

impl FsStatus {
    fn from_byte(b: u8) -> Option<FsStatus> {
        match b {
            0 => Some(FsStatus::Ok),
            1 => Some(FsStatus::NotFound),
            2 => Some(FsStatus::OutOfRange),
            3 => Some(FsStatus::Bad),
            4 => Some(FsStatus::Busy),
            _ => None,
        }
    }
}

/// Server → client reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Outcome.
    pub status: FsStatus,
    /// File id (Open/Create) or echoed id.
    pub file: FileId,
    /// Current file size.
    pub size: u64,
    /// Match bits of the data grant at [`PT_FS_DATA`] (Read/Write).
    pub grant_bits: u64,
    /// Granted transfer length.
    pub grant_len: u64,
}

impl Reply {
    /// Serialize to exactly [`REPLY_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REPLY_SIZE);
        out.push(self.status as u8);
        out.extend_from_slice(&[0u8; 7]);
        out.extend_from_slice(&self.file.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.grant_bits.to_le_bytes());
        out.extend_from_slice(&self.grant_len.to_le_bytes());
        out
    }

    /// Parse a [`REPLY_SIZE`]-byte record.
    pub fn decode(buf: &[u8]) -> FsResult<Reply> {
        if buf.len() < REPLY_SIZE {
            return Err(FsError::Malformed);
        }
        let status = FsStatus::from_byte(buf[0]).ok_or(FsError::Malformed)?;
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("slice"));
        Ok(Reply {
            status,
            file: u64_at(8),
            size: u64_at(16),
            grant_bits: u64_at(24),
            grant_len: u64_at(32),
        })
    }
}

/// Client-visible errors. Defined in `portals_types::error` (so
/// `From<PtlError>` lives beside both types) and re-exported from its owning
/// crate.
pub use portals_types::FsError;

/// Result alias.
pub type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            op: FsOp::Read,
            file: 42,
            offset: 1024,
            len: 4096,
            reply_bits: 0xdead_beef,
            name: Vec::new(),
        };
        let enc = r.encode();
        assert_eq!(enc.len(), REQUEST_SIZE);
        assert_eq!(Request::decode(&enc).unwrap(), r);
    }

    #[test]
    fn request_with_name_roundtrip() {
        let r = Request {
            op: FsOp::Create,
            file: 0,
            offset: 0,
            len: 0,
            reply_bits: 7,
            name: b"results/output.dat".to_vec(),
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn reply_roundtrip() {
        let r = Reply {
            status: FsStatus::Ok,
            file: 3,
            size: 9000,
            grant_bits: 55,
            grant_len: 512,
        };
        let enc = r.encode();
        assert_eq!(enc.len(), REPLY_SIZE);
        assert_eq!(Reply::decode(&enc).unwrap(), r);
    }

    #[test]
    fn malformed_records_rejected() {
        assert_eq!(Request::decode(&[0u8; 10]), Err(FsError::Malformed));
        assert_eq!(Reply::decode(&[9u8; REPLY_SIZE]), Err(FsError::Malformed));
        let mut bad = Request {
            op: FsOp::Open,
            file: 0,
            offset: 0,
            len: 0,
            reply_bits: 0,
            name: Vec::new(),
        }
        .encode();
        bad[0] = 200; // unknown op
        assert_eq!(Request::decode(&bad), Err(FsError::Malformed));
    }

    #[test]
    #[should_panic(expected = "file name too long")]
    fn oversized_name_panics_at_encode() {
        let r = Request {
            op: FsOp::Open,
            file: 0,
            offset: 0,
            len: 0,
            reply_bits: 0,
            name: vec![b'x'; MAX_NAME + 1],
        };
        let _ = r.encode();
    }
}
