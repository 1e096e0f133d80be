//! Point-in-time ledger snapshots + WAL truncation.
//!
//! A snapshot bounds recovery time and WAL growth: once all accounts
//! are captured at generation `g`, the WAL is rotated to a fresh log
//! stamped `g`, and every record in older logs is dead. Snapshots are
//! written with the tmp + fsync + rename + dir-fsync idiom, so a crash
//! at any point leaves either the previous complete snapshot or the new
//! one — never a half-written file *unless* the storage itself loses
//! the rename, which recovery detects via checksums and reports as the
//! typed [`CoreError::CorruptState`].
//!
//! ## On-disk format
//!
//! ```text
//! snapshot.bin := magic [8] = "BFSNAP/1"
//!                 generation [8] = u64 LE
//!                 tenant_count [8] = u64 LE
//!                 frame*            -- one per tenant, same framing as the WAL
//! frame payload := tenant:str total:f64 spent:f64 charges:u64
//!                  history_len:u32 (label:str amount:f64)*
//! ```
//!
//! `history_len` is always written as 0: an account keeps only its
//! totals, and charge labels live in the WAL alone. Entries that older
//! snapshots carry there are validated and skipped on read, so those
//! snapshots still recover to the same totals.
//!
//! Unlike a torn WAL *tail* (expected after a crash, recovered by
//! truncation), a snapshot that fails validation has no usable durable
//! prefix — budgets would silently reset for the missing tenants — so
//! it is always a hard typed error, never a partial recovery.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use super::wal::{crc32, fsync_dir, io_err, put_f64_bits, put_str, put_u32, put_u64, Cursor};
use crate::CoreError;

/// Snapshot file name inside a ledger state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const SNAPSHOT_MAGIC: &[u8; 8] = b"BFSNAP/1";
const HEADER_LEN: usize = 24;

/// One tenant account as captured in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotTenant {
    /// Tenant id.
    pub tenant: String,
    /// Registered total budget (bit-exact).
    pub total: f64,
    /// Cumulative spend at capture time (bit-exact).
    pub spent: f64,
    /// Lifetime admitted-charge count.
    pub charges: u64,
}

/// A complete decoded snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotImage {
    /// Generation stamp; the WAL whose header carries the same
    /// generation extends this snapshot.
    pub generation: u64,
    /// All tenant accounts, in capture order (sorted by tenant id).
    pub tenants: Vec<SnapshotTenant>,
}

/// Atomically writes `image` as `dir/snapshot.bin`.
pub fn write_snapshot(dir: &Path, image: &SnapshotImage) -> Result<(), CoreError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + image.tenants.len() * 64);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut buf, image.generation);
    put_u64(&mut buf, image.tenants.len() as u64);
    let mut payload = Vec::with_capacity(128);
    for t in &image.tenants {
        payload.clear();
        put_str(&mut payload, &t.tenant);
        put_f64_bits(&mut payload, t.total);
        put_f64_bits(&mut payload, t.spent);
        put_u64(&mut payload, t.charges);
        // history_len: no entries (see the format above).
        put_u32(&mut payload, 0);
        put_u32(&mut buf, payload.len() as u32);
        put_u32(&mut buf, crc32(&payload));
        buf.extend_from_slice(&payload);
    }
    let tmp = dir.join(SNAPSHOT_TMP);
    let path = dir.join(SNAPSHOT_FILE);
    let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, e))?;
    file.write_all(&buf)
        .map_err(|e| io_err("write snapshot", &tmp, e))?;
    file.sync_all()
        .map_err(|e| io_err("fsync snapshot", &tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err("rename snapshot", &path, e))?;
    fsync_dir(dir)
}

/// Reads and validates `dir/snapshot.bin`. `Ok(None)` when absent; any
/// truncation, checksum failure, or count mismatch is the typed
/// [`CoreError::CorruptState`] — a damaged snapshot must never recover
/// to fewer tenants or less spend than it durably recorded.
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotImage>, CoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read snapshot", &path, e)),
    };
    let corrupt = |detail: String| CoreError::CorruptState {
        what: "snapshot".to_string(),
        detail,
    };
    if bytes.len() < HEADER_LEN || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt(format!(
            "{} is not a blowfish snapshot",
            path.display()
        )));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let mut tenants = Vec::with_capacity(count);
    let mut pos = HEADER_LEN;
    for i in 0..count {
        if bytes.len() - pos < 8 {
            return Err(corrupt(format!("truncated at tenant frame {i}")));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        pos += 8;
        if bytes.len() - pos < len {
            return Err(corrupt(format!("truncated payload in tenant frame {i}")));
        }
        let payload = &bytes[pos..pos + len];
        if crc32(payload) != crc {
            return Err(corrupt(format!("checksum mismatch in tenant frame {i}")));
        }
        pos += len;
        let mut c = Cursor::new(payload, "snapshot tenant");
        let tenant = c.get_str()?;
        let total = c.get_f64_bits()?;
        let spent = c.get_f64_bits()?;
        let charges = c.get_u64()?;
        for _ in 0..c.get_u32()? {
            c.get_str()?;
            c.get_f64_bits()?;
        }
        c.finish()?;
        tenants.push(SnapshotTenant {
            tenant,
            total,
            spent,
            charges,
        });
    }
    if pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last tenant frame",
            bytes.len() - pos
        )));
    }
    Ok(Some(SnapshotImage {
        generation,
        tenants,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blowfish-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotImage {
        SnapshotImage {
            generation: 3,
            tenants: vec![
                SnapshotTenant {
                    tenant: "acme".to_string(),
                    total: 2.5,
                    spent: 0.1 + 0.2,
                    charges: 2,
                },
                SnapshotTenant {
                    tenant: "zeta".to_string(),
                    total: 1.0,
                    spent: 0.0,
                    charges: 0,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exact() {
        let dir = tmpdir("roundtrip");
        let img = sample();
        write_snapshot(&dir, &img).unwrap();
        let back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.generation, 3);
        assert_eq!(back.tenants, img.tenants);
        // Bit-exactness of the non-representable sum.
        assert_eq!(back.tenants[0].spent.to_bits(), (0.1f64 + 0.2f64).to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_snapshot_is_none() {
        let dir = tmpdir("absent");
        assert!(read_snapshot(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_a_typed_error() {
        let dir = tmpdir("truncated");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let full = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 7).unwrap();
        drop(f);
        assert!(matches!(
            read_snapshot(&dir),
            Err(CoreError::CorruptState { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_is_a_typed_error() {
        let dir = tmpdir("flipped");
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 12;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&dir),
            Err(CoreError::CorruptState { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
