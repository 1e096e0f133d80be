//! Write-ahead charge log for the durable [`Ledger`](super::Ledger).
//!
//! The WAL is the durability primitive: every budget-affecting event
//! (tenant open, admitted charge) is encoded as a length-prefixed,
//! CRC32-checksummed record and appended to `wal.log` *before* the
//! in-memory account mutates. Recovery replays the log on top of the
//! last snapshot; because f64 addition is deterministic and records
//! preserve per-tenant order, the recovered `spent` values are
//! bit-for-bit identical to the uninterrupted run.
//!
//! ## On-disk format
//!
//! ```text
//! wal.log := header record* zero*
//! header  := magic [8]  = "BFWAL/1\n"
//!            generation [8] = u64 LE   -- snapshot generation this log extends
//! record  := len [4] = u32 LE          -- payload byte length
//!            crc [4] = u32 LE          -- CRC32 (IEEE) of payload
//!            payload [len]
//! payload := tag [1] body
//!   tag 1 (Open)  : tenant:str total:f64
//!   tag 2 (Charge): tenant:str label:str amount:f64
//!   str           := len [4] = u32 LE, then len UTF-8 bytes
//!   f64           := to_bits() as u64 LE (bit-exact round trip)
//! ```
//!
//! The file's size is a whole number of [`WAL_CHUNK`]-byte chunks,
//! grown with `set_len` and left sparse, so writing a record does not
//! change the file size and a per-charge `fdatasync` has no size to
//! commit. The log ends where every remaining byte is zero; its length,
//! not the file's, is what [`WalWriter::bytes`] reports.
//!
//! A crash can leave a *torn tail* — a partially written final record.
//! [`read_wal`] stops at the first incomplete or checksum-failing
//! record, reports the tail state, and recovery zeroes the file past
//! the last durable prefix. A torn tail is expected after a crash and
//! is a warning; a corrupt file *header* means the log cannot be
//! attributed to any snapshot generation and is a typed error.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::CoreError;

/// WAL file name inside a ledger state directory.
pub const WAL_FILE: &str = "wal.log";
const WAL_TMP: &str = "wal.tmp";
const WAL_MAGIC: &[u8; 8] = b"BFWAL/1\n";
/// Bytes of `magic + generation` before the first record.
pub const WAL_HEADER_LEN: u64 = 16;
/// Bytes of `len + crc` framing before each record payload.
pub const FRAME_HEADER_LEN: usize = 8;
/// `wal.log` grows by whole chunks of this many bytes.
pub const WAL_CHUNK: u64 = 64 * 1024;
/// Upper bound on a single record payload; anything larger is treated
/// as corruption rather than an attempt to allocate gigabytes.
const MAX_PAYLOAD: u32 = 1 << 20;

/// When `fdatasync` runs relative to record acknowledgement.
///
/// The crash contract, under every policy: each record is written to
/// `wal.log` (one `write(2)`) before its account mutates and before it
/// is acknowledged, so a killed process loses no acknowledged open or
/// charge — the kernel holds the written pages. The policies differ
/// only in what a **power loss** may take, which no test here can
/// exercise:
///
/// * [`PerCharge`](FsyncPolicy::PerCharge) — nothing;
/// * [`Batched(n)`](FsyncPolicy::Batched) — at most the last `n − 1`
///   acknowledged records;
/// * [`Off`](FsyncPolicy::Off) — every record since the last sync (a
///   log rotation or [`Ledger::flush`](super::Ledger::flush)).
///
/// What survives is always a prefix of what was acknowledged: never a
/// reordering, never a partial record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` before every acknowledgement. Slowest.
    PerCharge,
    /// `fdatasync` on every `n`-th record, before its acknowledgement.
    Batched(usize),
    /// `fdatasync` only at log rotation and `flush`. Fastest.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI token form: `per-charge`, `batched`,
    /// `batched:<n>`, or `off`.
    pub fn parse(token: &str) -> Result<Self, CoreError> {
        match token {
            "per-charge" => Ok(FsyncPolicy::PerCharge),
            "batched" => Ok(FsyncPolicy::Batched(64)),
            "off" => Ok(FsyncPolicy::Off),
            other => {
                if let Some(n) = other.strip_prefix("batched:") {
                    let n: usize = n.parse().map_err(|_| CoreError::InvalidCharge {
                        reason: "fsync batch size must be a positive integer",
                    })?;
                    if n == 0 {
                        return Err(CoreError::InvalidCharge {
                            reason: "fsync batch size must be a positive integer",
                        });
                    }
                    Ok(FsyncPolicy::Batched(n))
                } else {
                    Err(CoreError::InvalidCharge {
                        reason: "fsync policy must be per-charge, batched[:n], or off",
                    })
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::PerCharge => write!(f, "per-charge"),
            FsyncPolicy::Batched(n) => write!(f, "batched:{n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, built at compile time — no deps.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum guarding every WAL and
/// snapshot frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Shared little-endian encoding helpers (also used by the snapshot format).
// ---------------------------------------------------------------------------

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_f64_bits(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor-style decoding over a payload slice; every getter is a typed
/// corruption error on underrun rather than a panic.
pub(super) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            what,
        }
    }

    fn corrupt(&self) -> CoreError {
        CoreError::CorruptState {
            what: self.what.to_string(),
            detail: format!("payload underrun at byte {}", self.pos),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.corrupt());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(super) fn get_u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(super) fn get_u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(super) fn get_f64_bits(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub(super) fn get_str(&mut self) -> Result<String, CoreError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CoreError::CorruptState {
            what: self.what.to_string(),
            detail: "string is not UTF-8".to_string(),
        })
    }

    pub(super) fn finish(self) -> Result<(), CoreError> {
        if self.pos != self.bytes.len() {
            return Err(CoreError::CorruptState {
                what: self.what.to_string(),
                detail: format!(
                    "trailing bytes in payload ({} of {} consumed)",
                    self.pos,
                    self.bytes.len()
                ),
            });
        }
        Ok(())
    }
}

pub(super) fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Durability {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One budget-affecting event, as persisted. Decoded records own their
/// strings; the ledger logs a record over borrowed ones
/// (`WalRecord<&str>`), so logging a charge allocates nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord<S = String> {
    /// A tenant account was opened with `total` budget.
    Open {
        /// Tenant id.
        tenant: S,
        /// Registered total budget (bit-exact).
        total: f64,
    },
    /// A charge of `amount` was admitted against `tenant`.
    Charge {
        /// Tenant id.
        tenant: S,
        /// The charge label (mechanism/spec id).
        label: S,
        /// The debited ε (bit-exact).
        amount: f64,
    },
}

const TAG_OPEN: u8 = 1;
const TAG_CHARGE: u8 = 2;

impl<S: AsRef<str>> WalRecord<S> {
    /// Appends the framed record (`len + crc + payload`) to `buf`,
    /// encoding the payload in place behind a framing placeholder.
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        match self {
            WalRecord::Open { tenant, total } => {
                buf.push(TAG_OPEN);
                put_str(buf, tenant.as_ref());
                put_f64_bits(buf, *total);
            }
            WalRecord::Charge {
                tenant,
                label,
                amount,
            } => {
                buf.push(TAG_CHARGE);
                put_str(buf, tenant.as_ref());
                put_str(buf, label.as_ref());
                put_f64_bits(buf, *amount);
            }
        }
        let payload_start = start + FRAME_HEADER_LEN;
        let len = (buf.len() - payload_start) as u32;
        let crc = crc32(&buf[payload_start..]);
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..payload_start].copy_from_slice(&crc.to_le_bytes());
    }
}

impl WalRecord {
    fn decode(payload: &[u8]) -> Result<WalRecord, CoreError> {
        let mut c = Cursor::new(payload, "wal record");
        let tag = c.take(1)?[0];
        let rec = match tag {
            TAG_OPEN => WalRecord::Open {
                tenant: c.get_str()?,
                total: c.get_f64_bits()?,
            },
            TAG_CHARGE => WalRecord::Charge {
                tenant: c.get_str()?,
                label: c.get_str()?,
                amount: c.get_f64_bits()?,
            },
            other => {
                return Err(CoreError::CorruptState {
                    what: "wal record".to_string(),
                    detail: format!("unknown record tag {other}"),
                })
            }
        };
        c.finish()?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// State of the WAL's final bytes after a scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte past the last checksum-valid record is zero.
    Clean,
    /// The file ends mid-record (crash during append); `dropped_bytes`
    /// past `valid_bytes` are discarded on recovery.
    Torn {
        /// Length of the durable prefix.
        valid_bytes: u64,
        /// Bytes past the prefix up to the last non-zero byte, which
        /// recovery zeroes.
        dropped_bytes: u64,
    },
    /// A complete-looking record failed its checksum (bit rot or an
    /// overwritten tail); everything from it onward is discarded.
    Corrupt {
        /// Length of the durable prefix.
        valid_bytes: u64,
        /// Bytes past the prefix up to the last non-zero byte, which
        /// recovery zeroes.
        dropped_bytes: u64,
    },
}

/// The decoded contents of one WAL file.
#[derive(Clone, Debug)]
pub struct WalImage {
    /// Snapshot generation this log extends.
    pub generation: u64,
    /// Checksum-valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Tail state — whether a torn/corrupt suffix was detected.
    pub tail: WalTail,
    /// Length of the valid prefix (header included): the log's length.
    /// Recovery zeroes the file past it before reopening it for append.
    pub valid_bytes: u64,
}

/// Reads and validates `path`. `Ok(None)` when the file does not exist;
/// a typed [`CoreError::CorruptState`] when the *header* is unreadable
/// (no generation to attribute records to); otherwise the valid record
/// prefix plus tail diagnosis. The log ends at a frame boundary past
/// which every byte is zero; a zero frame header followed by a non-zero
/// byte is read as a frame, whose empty payload is a typed refusal.
pub fn read_wal(path: &Path) -> Result<Option<WalImage>, CoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read wal", path, e)),
    };
    if bytes.len() < WAL_HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        return Err(CoreError::CorruptState {
            what: "wal header".to_string(),
            detail: format!("{} is not a blowfish WAL", path.display()),
        });
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let used = nonzero_len(&bytes);
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut tail = WalTail::Clean;
    while pos < used {
        match scan_frame(&bytes, pos) {
            FrameScan::Ok { payload_start, len } => {
                let payload = &bytes[payload_start..payload_start + len];
                records.push(WalRecord::decode(payload)?);
                pos = payload_start + len;
            }
            FrameScan::Torn => {
                tail = WalTail::Torn {
                    valid_bytes: pos as u64,
                    dropped_bytes: (used - pos) as u64,
                };
                break;
            }
            FrameScan::BadChecksum => {
                tail = WalTail::Corrupt {
                    valid_bytes: pos as u64,
                    dropped_bytes: (used - pos) as u64,
                };
                break;
            }
        }
    }
    Ok(Some(WalImage {
        generation,
        records,
        tail,
        valid_bytes: pos as u64,
    }))
}

/// One past the last non-zero byte of `bytes`: the end of the log
/// inside a file whose unused chunk space reads as zeros. Found with
/// one backward pass, so the frame scans stay linear.
fn nonzero_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

enum FrameScan {
    Ok { payload_start: usize, len: usize },
    Torn,
    BadChecksum,
}

fn scan_frame(bytes: &[u8], pos: usize) -> FrameScan {
    if bytes.len() - pos < FRAME_HEADER_LEN {
        return FrameScan::Torn;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        // A garbage length field cannot be distinguished from bit rot.
        return FrameScan::BadChecksum;
    }
    let payload_start = pos + FRAME_HEADER_LEN;
    if bytes.len() - payload_start < len as usize {
        return FrameScan::Torn;
    }
    let payload = &bytes[payload_start..payload_start + len as usize];
    if crc32(payload) != crc {
        return FrameScan::BadChecksum;
    }
    FrameScan::Ok {
        payload_start,
        len: len as usize,
    }
}

/// Byte ranges `(start, end)` of each checksum-valid frame in `path`,
/// after the 16-byte header and before the zero tail — used by
/// fault-injection tooling to aim corruption at a specific record.
pub fn wal_frame_bounds(path: &Path) -> Result<Vec<(u64, u64)>, CoreError> {
    let bytes = fs::read(path).map_err(|e| io_err("read wal", path, e))?;
    let used = nonzero_len(&bytes);
    let mut bounds = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < used {
        match scan_frame(&bytes, pos) {
            FrameScan::Ok { payload_start, len } => {
                bounds.push((pos as u64, (payload_start + len) as u64));
                pos = payload_start + len;
            }
            _ => break,
        }
    }
    Ok(bounds)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only writer over `wal.log` with the configured fsync policy.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Current log length (header + appended frames).
    bytes: u64,
    /// Current file length: the log plus its zero tail, a whole number
    /// of chunks except in a log of the chunkless layout.
    file_len: u64,
    /// Records appended since the last fsync (batched policy).
    unsynced: usize,
    /// Frame encoding buffer, reused by every append.
    frame: Vec<u8>,
}

/// The smallest whole number of chunks that holds `len` bytes.
fn chunk_ceil(len: u64) -> u64 {
    len.div_ceil(WAL_CHUNK) * WAL_CHUNK
}

impl WalWriter {
    /// Creates (or atomically replaces) `dir/wal.log` with a fresh log
    /// at `generation`: header goes to `wal.tmp`, the file is sized to
    /// its first chunk and fsynced, renamed over `wal.log`, and the
    /// directory is fsynced — a crash at any point leaves either the old
    /// complete log or the new one.
    pub fn rotate(dir: &Path, generation: u64, policy: FsyncPolicy) -> Result<Self, CoreError> {
        let tmp = dir.join(WAL_TMP);
        let path = dir.join(WAL_FILE);
        let mut file = File::create(&tmp).map_err(|e| io_err("create wal", &tmp, e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        put_u64(&mut header, generation);
        file.write_all(&header)
            .map_err(|e| io_err("write wal header", &tmp, e))?;
        file.set_len(WAL_CHUNK)
            .map_err(|e| io_err("extend wal", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("fsync wal", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename wal", &path, e))?;
        fsync_dir(dir)?;
        Ok(WalWriter {
            file,
            path,
            policy,
            bytes: WAL_HEADER_LEN,
            file_len: WAL_CHUNK,
            unsynced: 0,
            frame: Vec::new(),
        })
    }

    /// Reopens an existing validated log for append at the end of its
    /// valid prefix. A clean zero tail is kept as it is; a torn or
    /// corrupt one is zeroed first: the file is truncated to the prefix,
    /// sized back to its chunk and fsynced.
    pub fn reopen(dir: &Path, img: &WalImage, policy: FsyncPolicy) -> Result<Self, CoreError> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open wal", &path, e))?;
        let mut file_len = file
            .metadata()
            .map_err(|e| io_err("stat wal", &path, e))?
            .len();
        if img.tail != WalTail::Clean {
            file.set_len(img.valid_bytes)
                .map_err(|e| io_err("truncate wal tail", &path, e))?;
            file_len = chunk_ceil(img.valid_bytes);
            file.set_len(file_len)
                .map_err(|e| io_err("extend wal", &path, e))?;
            file.sync_all().map_err(|e| io_err("fsync wal", &path, e))?;
        }
        file.seek(SeekFrom::Start(img.valid_bytes))
            .map_err(|e| io_err("seek wal", &path, e))?;
        Ok(WalWriter {
            file,
            path,
            policy,
            bytes: img.valid_bytes,
            file_len,
            unsynced: 0,
            frame: Vec::new(),
        })
    }

    /// Writes `rec` to the log in one `write`, first growing the file
    /// by whole chunks when the frame would cross its end, then syncs
    /// when the policy calls for it (see [`FsyncPolicy`]).
    pub fn append<S: AsRef<str>>(&mut self, rec: &WalRecord<S>) -> Result<(), CoreError> {
        self.frame.clear();
        rec.encode_frame(&mut self.frame);
        let end = self.bytes + self.frame.len() as u64;
        if end > self.file_len {
            let file_len = chunk_ceil(end);
            self.file
                .set_len(file_len)
                .map_err(|e| io_err("extend wal", &self.path, e))?;
            self.file_len = file_len;
        }
        self.file
            .write_all(&self.frame)
            .map_err(|e| io_err("append wal", &self.path, e))?;
        self.bytes = end;
        self.unsynced += 1;
        let sync = match self.policy {
            FsyncPolicy::PerCharge => true,
            FsyncPolicy::Batched(n) => self.unsynced >= n,
            FsyncPolicy::Off => false,
        };
        if sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes OS buffers to stable storage.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync wal", &self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Current log length in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Fsyncs a directory so a just-renamed file's directory entry is
/// durable (required for the tmp+rename atomic-replace idiom).
pub(super) fn fsync_dir(dir: &Path) -> Result<(), CoreError> {
    let d = File::open(dir).map_err(|e| io_err("open dir", dir, e))?;
    d.sync_all().map_err(|e| io_err("fsync dir", dir, e))
}

#[cfg(test)]
impl WalWriter {
    /// A writer over `/dev/full`, positioned as a fresh log: there every
    /// `write` fails with ENOSPC, and `set_len` and `fdatasync` fail with
    /// EINVAL, so one writer reaches the append, chunk-extension and
    /// sync failure paths.
    pub(crate) fn on_full_device(policy: FsyncPolicy) -> Self {
        let path = PathBuf::from("/dev/full");
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open /dev/full");
        WalWriter {
            file,
            path,
            policy,
            bytes: WAL_HEADER_LEN,
            file_len: WAL_CHUNK,
            unsynced: 0,
            frame: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge(label: &str) -> WalRecord {
        WalRecord::Charge {
            tenant: "t".to_string(),
            label: label.to_string(),
            amount: 0.5,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blowfish-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_bit_exact() {
        let recs = vec![
            WalRecord::Open {
                tenant: "acme".to_string(),
                total: 0.1 + 0.2, // not representable exactly — bits must survive
            },
            WalRecord::Charge {
                tenant: "acme".to_string(),
                label: "ident/8".to_string(),
                amount: f64::from_bits(0x3FB9_9999_9999_999A),
            },
        ];
        let dir = tmpdir("roundtrip");
        let mut w = WalWriter::rotate(&dir, 7, FsyncPolicy::Off).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        // The first frame, built by hand from the format above.
        let mut payload = vec![TAG_OPEN];
        put_str(&mut payload, "acme");
        put_f64_bits(&mut payload, 0.1 + 0.2);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let header = WAL_HEADER_LEN as usize;
        assert_eq!(&bytes[header..header + frame.len()], &frame[..]);
        let img = read_wal(&dir.join(WAL_FILE)).unwrap().unwrap();
        assert_eq!(img.generation, 7);
        assert_eq!(img.records, recs);
        assert!(matches!(img.tail, WalTail::Clean));
        assert_eq!(img.valid_bytes, w.bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_kept() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::rotate(&dir, 0, FsyncPolicy::Off).unwrap();
        for i in 0..3 {
            w.append(&WalRecord::Charge {
                tenant: "t".to_string(),
                label: format!("c{i}"),
                amount: 0.5,
            })
            .unwrap();
        }
        let full = w.bytes();
        drop(w);
        // Cut the file mid-final-record.
        let path = dir.join(WAL_FILE);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let img = read_wal(&path).unwrap().unwrap();
        assert_eq!(img.records.len(), 2);
        match img.tail {
            WalTail::Torn { dropped_bytes, .. } => assert!(dropped_bytes > 0),
            other => panic!("expected torn tail, got {other:?}"),
        }
        // Reopen zeroes the file past the durable prefix, so the log
        // ends there, inside a whole chunk.
        let w2 = WalWriter::reopen(&dir, &img, FsyncPolicy::Off).unwrap();
        assert_eq!(w2.bytes(), img.valid_bytes);
        let reread = read_wal(&path).unwrap().unwrap();
        assert_eq!(reread.valid_bytes, img.valid_bytes);
        assert_eq!(reread.tail, WalTail::Clean);
        assert_eq!(fs::metadata(&path).unwrap().len(), WAL_CHUNK);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_crossing_a_chunk_boundary_grows_the_file_by_a_chunk() {
        let dir = tmpdir("chunk-cross");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::rotate(&dir, 0, FsyncPolicy::Off).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), WAL_CHUNK);
        let frame_len = {
            let mut buf = Vec::new();
            charge("c00000").encode_frame(&mut buf);
            buf.len() as u64
        };
        // Fill the first chunk until one more frame would cross its end.
        let mut appended = 0;
        while w.bytes() + frame_len <= WAL_CHUNK {
            w.append(&charge(&format!("c{appended:05}"))).unwrap();
            appended += 1;
        }
        assert_eq!(fs::metadata(&path).unwrap().len(), WAL_CHUNK);
        let crossing_start = w.bytes();
        w.append(&charge(&format!("c{appended:05}"))).unwrap();
        appended += 1;
        assert!(crossing_start < WAL_CHUNK && w.bytes() > WAL_CHUNK);
        assert_eq!(fs::metadata(&path).unwrap().len(), 2 * WAL_CHUNK);
        w.append(&charge("after")).unwrap();
        appended += 1;
        let img = read_wal(&path).unwrap().unwrap();
        assert_eq!(img.records.len(), appended);
        assert_eq!(img.records.last(), Some(&charge("after")));
        assert_eq!(img.tail, WalTail::Clean);
        assert_eq!(img.valid_bytes, w.bytes());
        let bounds = wal_frame_bounds(&path).unwrap();
        assert_eq!(bounds.len(), appended);
        assert!(bounds.contains(&(crossing_start, crossing_start + frame_len)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zeroed_frame_header_before_a_valid_frame_is_a_typed_refusal() {
        let dir = tmpdir("zero-header");
        let mut w = WalWriter::rotate(&dir, 0, FsyncPolicy::Off).unwrap();
        for label in ["a", "b"] {
            w.append(&charge(label)).unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let bounds = wal_frame_bounds(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let first = bounds[0].0 as usize;
        bytes[first..first + FRAME_HEADER_LEN].fill(0);
        fs::write(&path, &bytes).unwrap();
        // The zero header is not the log's end: a valid frame follows.
        match read_wal(&path) {
            Err(CoreError::CorruptState { what, .. }) => assert_eq!(what, "wal record"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_device_fails_append_extension_and_sync() {
        let mut w = WalWriter::on_full_device(FsyncPolicy::PerCharge);
        let op_of = |r: Result<(), CoreError>| match r {
            Err(CoreError::Durability { op, .. }) => op,
            other => panic!("expected a durability error, got {other:?}"),
        };
        // The frame fits the current chunk: the write itself fails.
        assert_eq!(op_of(w.append(&charge("a"))), "append wal");
        // The frame would cross the chunk's end: growing the file fails.
        w.file_len = w.bytes();
        assert_eq!(op_of(w.append(&charge("b"))), "extend wal");
        assert_eq!(op_of(w.sync()), "fsync wal");
        assert_eq!(w.bytes(), WAL_HEADER_LEN);
    }

    #[test]
    fn flipped_checksum_byte_is_corrupt_not_a_panic() {
        let dir = tmpdir("badcrc");
        let mut w = WalWriter::rotate(&dir, 0, FsyncPolicy::Off).unwrap();
        for i in 0..2 {
            w.append(&WalRecord::Charge {
                tenant: "t".to_string(),
                label: format!("c{i}"),
                amount: 0.25,
            })
            .unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let bounds = wal_frame_bounds(&path).unwrap();
        assert_eq!(bounds.len(), 2);
        // Flip one bit inside the final record's checksum field.
        let mut bytes = fs::read(&path).unwrap();
        let crc_at = bounds[1].0 as usize + 4;
        bytes[crc_at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let img = read_wal(&path).unwrap().unwrap();
        assert_eq!(img.records.len(), 1);
        assert!(matches!(img.tail, WalTail::Corrupt { .. }));
        assert_eq!(img.valid_bytes, bounds[0].1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_is_a_typed_error() {
        let dir = tmpdir("badheader");
        fs::write(dir.join(WAL_FILE), b"not a wal").unwrap();
        assert!(matches!(
            read_wal(&dir.join(WAL_FILE)),
            Err(CoreError::CorruptState { .. })
        ));
        assert!(read_wal(&dir.join("absent.log")).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(
            FsyncPolicy::parse("per-charge").unwrap(),
            FsyncPolicy::PerCharge
        );
        assert_eq!(
            FsyncPolicy::parse("batched").unwrap(),
            FsyncPolicy::Batched(64)
        );
        assert_eq!(
            FsyncPolicy::parse("batched:8").unwrap(),
            FsyncPolicy::Batched(8)
        );
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert!(FsyncPolicy::parse("batched:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Batched(8).to_string(), "batched:8");
        assert_eq!(FsyncPolicy::PerCharge.to_string(), "per-charge");
    }
}
