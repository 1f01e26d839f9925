//! The `.wsccl-ds` on-disk dataset format: streaming writer + mmap reader.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "WSCCLDS1" (8) | version u32 | reserved u32
//! meta_len u64 | meta JSON            (name, tool version, DatasetConfig)
//! net_len  u64 | road-network JSON
//! cong_len u64 | congestion JSON
//! <pad to 8>
//! 3 × section (unlabeled, tte, groups), each:
//!     records: [payload_len u32 | payload | <pad to 4>]*
//!     <pad to 8>
//!     index:   count u64 | count × absolute-payload-offset u64
//! stats_len u64 | stats JSON          (rejections, Σ path len, group size)
//! <pad to 8>
//! footer: 3 × { records_off, records_end, index_off, count } u64
//!         stats_off u64 | footer_off u64 | magic "WSCCLEND" (8)
//! ```
//!
//! The writer is **O(1) in dataset size**: records stream to the main file
//! and their offsets stream to a sidecar temp file that is spliced in as the
//! section's index, so nothing is ever buffered per-record. The reader
//! memory-maps the file; record payloads are 4-byte aligned by construction,
//! so edge sequences are handed out as `&[EdgeId]` borrowed straight from the
//! map (`EdgeId` is `#[repr(transparent)]` over `u32`; on big-endian targets
//! the borrow degrades to a decode — see `edge_ids`). Opening validates the
//! header, footer, section ranges, and offset-index monotonicity, but does
//! not touch record pages: resident memory after `open` is independent of
//! record count.

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path as FsPath, PathBuf};

use serde::{Deserialize, Serialize};

use wsccl_roadnet::{EdgeId, Path, RoadNetwork};
use wsccl_traffic::{CongestionModel, SimTime};

use crate::dataset::{
    CandidateGroup, DatasetConfig, DatasetStatistics, TemporalPathSample, TteExample,
};

pub const MAGIC: &[u8; 8] = b"WSCCLDS1";
pub const END_MAGIC: &[u8; 8] = b"WSCCLEND";
pub const FORMAT_VERSION: u32 = 1;
/// Conventional file extension for datasets in this format.
pub const EXTENSION: &str = "wsccl-ds";

const NUM_SECTIONS: usize = 3;
/// footer: 3 sections × 4 u64 + stats_off + footer_off + end magic.
const FOOTER_LEN: u64 = (NUM_SECTIONS as u64 * 4 + 2) * 8 + 8;

/// Head metadata, written at `create` time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskMeta {
    pub name: String,
    /// `wsccl-datagen` crate version that wrote the file.
    pub tool_version: String,
    pub config: DatasetConfig,
}

/// Tail statistics, accumulated while streaming and written at `finish`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct DiskStats {
    /// Rejected indices per section (failed map match / too few alternatives).
    rejected: [u64; NUM_SECTIONS],
    /// Σ path length over unlabeled samples (for `mean_path_len`).
    sum_path_len: u64,
    /// Uniform candidate-group size (0 when the dataset has no groups).
    group_size: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct SectionDesc {
    records_off: u64,
    records_end: u64,
    index_off: u64,
    count: u64,
}

/// Errors opening or validating a `.wsccl-ds` file.
#[derive(Debug)]
pub enum DiskError {
    Io(io::Error),
    BadMagic,
    BadVersion { found: u32 },
    Truncated,
    Corrupt(&'static str),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
            DiskError::BadMagic => write!(f, "not a .wsccl-ds file (bad magic)"),
            DiskError::BadVersion { found } => {
                write!(f, "unsupported .wsccl-ds version {found} (supported: {FORMAT_VERSION})")
            }
            DiskError::Truncated => write!(f, "truncated .wsccl-ds file"),
            DiskError::Corrupt(what) => write!(f, "corrupt .wsccl-ds file: {what}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Memory mapping
// ---------------------------------------------------------------------------

/// A read-only memory-mapped file. On unix this is a real `mmap(2)` (declared
/// directly; std already links libc), so pages fault in on demand and record
/// access never copies the file into process-owned memory. Elsewhere the file
/// is read into an owned buffer.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
    /// Owned fallback buffer; `None` when `ptr` points into a real mapping.
    owned: Option<Vec<u8>>,
}

// The mapping is immutable and never unmapped until drop.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

impl Mmap {
    pub fn open(path: &FsPath) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            if len > 0 {
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_SHARED,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize == -1 {
                    return Err(io::Error::last_os_error());
                }
                // The mapping outlives `file`: POSIX keeps it valid after close.
                return Ok(Self { ptr: ptr as *const u8, len, owned: None });
            }
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                owned: None,
            });
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut buf = Vec::with_capacity(len);
            let mut file = file;
            file.read_to_end(&mut buf)?;
            let ptr = buf.as_ptr();
            let len = buf.len();
            Ok(Self { ptr, len, owned: Some(buf) })
        }
    }

    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.owned.is_none() && self.len > 0 {
            unsafe {
                sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record encodings
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_edges(buf: &mut Vec<u8>, edges: &[EdgeId]) {
    put_u32(buf, edges.len() as u32);
    for e in edges {
        put_u32(buf, e.0);
    }
}

fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// View `n` little-endian `u32`s starting at `bytes` as edge ids. Borrows
/// straight from the mapping when the platform layout permits (little-endian,
/// 4-aligned — always true for records this module writes); decodes
/// otherwise.
fn edge_ids(bytes: &[u8]) -> Cow<'_, [EdgeId]> {
    debug_assert_eq!(bytes.len() % 4, 0);
    #[cfg(target_endian = "little")]
    if bytes.as_ptr() as usize % std::mem::align_of::<EdgeId>() == 0 {
        // SAFETY: EdgeId is #[repr(transparent)] over u32, the pointer is
        // aligned, and the length is a multiple of 4.
        let ids =
            unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const EdgeId, bytes.len() / 4) };
        return Cow::Borrowed(ids);
    }
    Cow::Owned(bytes.chunks_exact(4).map(|c| EdgeId(get_u32(c, 0))).collect())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming `.wsccl-ds` writer. Records are appended one at a time in
/// section order (unlabeled → tte → groups; sections advance automatically on
/// the first `put_*` of the next kind); memory use is O(1) in record count —
/// the per-section offset index streams to a sidecar temp file that is
/// spliced back after the section's records.
pub struct DatasetWriter {
    out: BufWriter<File>,
    pos: u64,
    idx: File,
    idx_path: PathBuf,
    idx_count: u64,
    sections: Vec<SectionDesc>,
    cur_records_off: u64,
    /// 0 = unlabeled, 1 = tte, 2 = groups.
    ordinal: usize,
    buf: Vec<u8>,
    stats: DiskStats,
}

impl DatasetWriter {
    pub fn create(
        path: &FsPath,
        name: &str,
        cfg: &DatasetConfig,
        net: &RoadNetwork,
        congestion: &CongestionModel,
    ) -> io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        let mut pos = 0u64;
        let w = |out: &mut BufWriter<File>, pos: &mut u64, b: &[u8]| -> io::Result<()> {
            out.write_all(b)?;
            *pos += b.len() as u64;
            Ok(())
        };
        w(&mut out, &mut pos, MAGIC)?;
        w(&mut out, &mut pos, &FORMAT_VERSION.to_le_bytes())?;
        w(&mut out, &mut pos, &0u32.to_le_bytes())?;
        let meta = DiskMeta {
            name: name.to_string(),
            tool_version: crate::VERSION.to_string(),
            config: cfg.clone(),
        };
        let encode = |r: Result<String, serde_json::Error>| -> io::Result<Vec<u8>> {
            r.map(String::into_bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        };
        for blob in [
            encode(serde_json::to_string(&meta))?,
            encode(serde_json::to_string(net))?,
            encode(serde_json::to_string(congestion))?,
        ] {
            w(&mut out, &mut pos, &(blob.len() as u64).to_le_bytes())?;
            w(&mut out, &mut pos, &blob)?;
        }
        while pos % 8 != 0 {
            w(&mut out, &mut pos, &[0u8])?;
        }

        let idx_path = path.with_extension("idx.tmp");
        let idx =
            File::options().read(true).write(true).create(true).truncate(true).open(&idx_path)?;
        Ok(Self {
            out,
            pos,
            idx,
            idx_path,
            idx_count: 0,
            sections: Vec::new(),
            cur_records_off: pos,
            ordinal: 0,
            buf: Vec::new(),
            stats: DiskStats::default(),
        })
    }

    fn write_record(&mut self) -> io::Result<()> {
        let len = self.buf.len() as u32;
        self.out.write_all(&len.to_le_bytes())?;
        self.pos += 4;
        // Offset of the payload itself, streamed to the sidecar index.
        self.idx.write_all(&self.pos.to_le_bytes())?;
        self.idx_count += 1;
        self.out.write_all(&self.buf)?;
        self.pos += self.buf.len() as u64;
        while self.pos % 4 != 0 {
            self.out.write_all(&[0u8])?;
            self.pos += 1;
        }
        Ok(())
    }

    /// Close the current section: pad, splice the sidecar offset index into
    /// the main file, and reset the sidecar for the next section.
    fn end_section(&mut self) -> io::Result<()> {
        let records_end = self.pos;
        while self.pos % 8 != 0 {
            self.out.write_all(&[0u8])?;
            self.pos += 1;
        }
        let index_off = self.pos;
        self.out.write_all(&self.idx_count.to_le_bytes())?;
        self.pos += 8;
        self.idx.flush()?;
        self.idx.seek(SeekFrom::Start(0))?;
        let copied = io::copy(&mut self.idx, &mut self.out)?;
        debug_assert_eq!(copied, self.idx_count * 8);
        self.pos += copied;
        self.sections.push(SectionDesc {
            records_off: self.cur_records_off,
            records_end,
            index_off,
            count: self.idx_count,
        });
        self.idx.set_len(0)?;
        self.idx.seek(SeekFrom::Start(0))?;
        self.idx_count = 0;
        self.cur_records_off = self.pos;
        Ok(())
    }

    /// Advance to section `target`, closing finished ones. Sections are
    /// strictly ordered; writing an earlier section after a later one is a
    /// caller bug.
    fn advance_to(&mut self, target: usize) -> io::Result<()> {
        assert!(
            target >= self.ordinal,
            "dataset sections must be written in order (unlabeled, tte, groups)"
        );
        while self.ordinal < target {
            self.end_section()?;
            self.ordinal += 1;
        }
        Ok(())
    }

    pub fn put_unlabeled(&mut self, s: &TemporalPathSample) -> io::Result<()> {
        self.advance_to(0)?;
        self.stats.sum_path_len += s.path.len() as u64;
        self.buf.clear();
        put_u32(&mut self.buf, s.departure.seconds());
        put_edges(&mut self.buf, s.path.edges());
        self.write_record()
    }

    pub fn put_tte(&mut self, t: &TteExample) -> io::Result<()> {
        self.advance_to(1)?;
        self.buf.clear();
        put_u32(&mut self.buf, t.departure.seconds());
        put_u32(&mut self.buf, t.path.len() as u32);
        put_u64(&mut self.buf, t.travel_time.to_bits());
        for e in t.path.edges() {
            put_u32(&mut self.buf, e.0);
        }
        self.write_record()
    }

    pub fn put_group(&mut self, g: &CandidateGroup) -> io::Result<()> {
        self.advance_to(2)?;
        if self.stats.group_size == 0 {
            self.stats.group_size = g.candidates.len();
        }
        assert_eq!(g.candidates.len(), self.stats.group_size, "candidate groups must be uniform");
        self.buf.clear();
        put_u32(&mut self.buf, g.departure.seconds());
        put_u32(&mut self.buf, g.candidates.len() as u32);
        for ((p, &score), &label) in g.candidates.iter().zip(&g.scores).zip(&g.labels) {
            put_u64(&mut self.buf, score.to_bits());
            put_u32(&mut self.buf, label as u32);
            put_edges(&mut self.buf, p.edges());
        }
        self.write_record()
    }

    /// Record how many indices a section's producer rejected (for stats).
    pub fn set_rejected(&mut self, section: usize, n: u64) {
        self.stats.rejected[section] = n;
    }

    /// Close remaining sections, write stats + footer, flush, and remove the
    /// sidecar index file.
    pub fn finish(mut self) -> io::Result<()> {
        self.advance_to(NUM_SECTIONS - 1)?;
        self.end_section()?; // close the last section
        let stats_blob = serde_json::to_string(&self.stats)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .into_bytes();
        let stats_off = self.pos;
        self.out.write_all(&(stats_blob.len() as u64).to_le_bytes())?;
        self.pos += 8;
        self.out.write_all(&stats_blob)?;
        self.pos += stats_blob.len() as u64;
        while self.pos % 8 != 0 {
            self.out.write_all(&[0u8])?;
            self.pos += 1;
        }
        let footer_off = self.pos;
        for s in &self.sections {
            for v in [s.records_off, s.records_end, s.index_off, s.count] {
                self.out.write_all(&v.to_le_bytes())?;
            }
        }
        self.out.write_all(&stats_off.to_le_bytes())?;
        self.out.write_all(&footer_off.to_le_bytes())?;
        self.out.write_all(END_MAGIC)?;
        self.out.flush()?;
        let _ = std::fs::remove_file(&self.idx_path);
        Ok(())
    }
}

impl Drop for DatasetWriter {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.idx_path);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A memory-mapped `.wsccl-ds` dataset. The road network and congestion model
/// are deserialized eagerly (they are O(city), not O(records)); record
/// sections stay on disk and are decoded per access, with edge sequences
/// borrowed zero-copy from the mapping.
pub struct DiskDataset {
    map: Mmap,
    meta: DiskMeta,
    stats: DiskStats,
    net: RoadNetwork,
    congestion: CongestionModel,
    secs: [SectionDesc; NUM_SECTIONS],
}

impl DiskDataset {
    pub fn open(path: &FsPath) -> Result<Self, DiskError> {
        let map = Mmap::open(path)?;
        let b = map.bytes();
        if b.len() < 16 + FOOTER_LEN as usize {
            return Err(DiskError::Truncated);
        }
        if &b[0..8] != MAGIC {
            return Err(DiskError::BadMagic);
        }
        let version = get_u32(b, 8);
        if version != FORMAT_VERSION {
            return Err(DiskError::BadVersion { found: version });
        }
        if &b[b.len() - 8..] != END_MAGIC {
            return Err(DiskError::Truncated);
        }
        let footer_off = get_u64(b, b.len() - 16) as usize;
        if footer_off as u64 + FOOTER_LEN != b.len() as u64 {
            return Err(DiskError::Corrupt("footer offset mismatch"));
        }

        // Head: three length-prefixed JSON blobs after the 16-byte header.
        let mut pos = 16usize;
        let blob = |pos: &mut usize| -> Result<&[u8], DiskError> {
            if *pos + 8 > footer_off {
                return Err(DiskError::Truncated);
            }
            let len = get_u64(b, *pos) as usize;
            *pos += 8;
            if len > footer_off - *pos {
                return Err(DiskError::Truncated);
            }
            let out = &b[*pos..*pos + len];
            *pos += len;
            Ok(out)
        };
        fn json<T: serde::Deserialize>(bytes: &[u8], what: &'static str) -> Result<T, DiskError> {
            let text = std::str::from_utf8(bytes).map_err(|_| DiskError::Corrupt(what))?;
            serde_json::from_str(text).map_err(|_| DiskError::Corrupt(what))
        }
        let meta: DiskMeta = json(blob(&mut pos)?, "meta JSON")?;
        let net: RoadNetwork = json(blob(&mut pos)?, "network JSON")?;
        let congestion: CongestionModel = json(blob(&mut pos)?, "congestion JSON")?;

        // Footer: section table + stats blob.
        let mut secs = [SectionDesc::default(); NUM_SECTIONS];
        let mut f = footer_off;
        for sec in &mut secs {
            *sec = SectionDesc {
                records_off: get_u64(b, f),
                records_end: get_u64(b, f + 8),
                index_off: get_u64(b, f + 16),
                count: get_u64(b, f + 24),
            };
            f += 32;
        }
        let stats_off = get_u64(b, f) as usize;
        if stats_off + 8 > footer_off {
            return Err(DiskError::Corrupt("stats offset"));
        }
        let stats_len = get_u64(b, stats_off) as usize;
        if stats_len > footer_off - stats_off - 8 {
            return Err(DiskError::Corrupt("stats length"));
        }
        let stats: DiskStats = json(&b[stats_off + 8..stats_off + 8 + stats_len], "stats JSON")?;

        // Validate section geometry and offset indexes. This scans only the
        // index regions (8 bytes per record), never record payloads, so open
        // cost — and resident memory — stays proportional to the index, not
        // the data.
        let mut prev_end = pos as u64;
        for sec in &secs {
            if sec.records_off < prev_end
                || sec.records_end < sec.records_off
                || sec.index_off < sec.records_end
            {
                return Err(DiskError::Corrupt("section ranges out of order"));
            }
            let index_end = sec
                .index_off
                .checked_add(8 + sec.count * 8)
                .ok_or(DiskError::Corrupt("index overflow"))?;
            if index_end > footer_off as u64 {
                return Err(DiskError::Truncated);
            }
            if get_u64(b, sec.index_off as usize) != sec.count {
                return Err(DiskError::Corrupt("index count mismatch"));
            }
            let mut prev = sec.records_off;
            for i in 0..sec.count {
                let off = get_u64(b, (sec.index_off + 8 + i * 8) as usize);
                if off < prev + 4 || off > sec.records_end {
                    return Err(DiskError::Corrupt("record offset out of range"));
                }
                prev = off;
            }
            prev_end = index_end;
        }

        Ok(Self { map, meta, stats, net, congestion, secs })
    }

    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Version of `wsccl-datagen` that wrote the file.
    pub fn tool_version(&self) -> &str {
        &self.meta.tool_version
    }

    pub fn config(&self) -> &DatasetConfig {
        &self.meta.config
    }

    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    pub fn congestion(&self) -> &CongestionModel {
        &self.congestion
    }

    pub fn num_unlabeled(&self) -> usize {
        self.secs[0].count as usize
    }

    pub fn num_tte(&self) -> usize {
        self.secs[1].count as usize
    }

    pub fn num_groups(&self) -> usize {
        self.secs[2].count as usize
    }

    /// Record `i`'s payload bytes, straight from the mapping.
    fn payload(&self, sec: usize, i: usize) -> &[u8] {
        let s = &self.secs[sec];
        assert!(i < s.count as usize, "record {i} out of range ({})", s.count);
        let b = self.map.bytes();
        let off = get_u64(b, (s.index_off + 8 + i as u64 * 8) as usize) as usize;
        let len = get_u32(b, off - 4) as usize;
        assert!(off + len <= s.records_end as usize, "corrupt record length");
        &b[off..off + len]
    }

    /// Unlabeled sample `i` without copying the edge sequence.
    pub fn unlabeled_view(&self, i: usize) -> (SimTime, Cow<'_, [EdgeId]>) {
        let p = self.payload(0, i);
        let n = get_u32(p, 4) as usize;
        (SimTime::new(get_u32(p, 0)), edge_ids(&p[8..8 + 4 * n]))
    }

    pub fn unlabeled(&self, i: usize) -> TemporalPathSample {
        let (departure, edges) = self.unlabeled_view(i);
        TemporalPathSample { path: Path::new_unchecked(edges.into_owned()), departure }
    }

    pub fn tte(&self, i: usize) -> TteExample {
        let p = self.payload(1, i);
        let n = get_u32(p, 4) as usize;
        TteExample {
            departure: SimTime::new(get_u32(p, 0)),
            travel_time: f64::from_bits(get_u64(p, 8)),
            path: Path::new_unchecked(edge_ids(&p[16..16 + 4 * n]).into_owned()),
        }
    }

    pub fn group(&self, i: usize) -> CandidateGroup {
        let p = self.payload(2, i);
        let ncand = get_u32(p, 4) as usize;
        let mut candidates = Vec::with_capacity(ncand);
        let mut scores = Vec::with_capacity(ncand);
        let mut labels = Vec::with_capacity(ncand);
        let mut off = 8usize;
        for _ in 0..ncand {
            scores.push(f64::from_bits(get_u64(p, off)));
            labels.push(get_u32(p, off + 8) != 0);
            let n = get_u32(p, off + 12) as usize;
            candidates
                .push(Path::new_unchecked(edge_ids(&p[off + 16..off + 16 + 4 * n]).into_owned()));
            off += 16 + 4 * n;
        }
        CandidateGroup { departure: SimTime::new(get_u32(p, 0)), candidates, scores, labels }
    }

    /// Statistics row, computed from writer-accumulated metadata — O(1), no
    /// record scan.
    pub fn statistics(&self) -> DatasetStatistics {
        DatasetStatistics {
            name: self.meta.name.clone(),
            num_nodes: self.net.num_nodes(),
            num_edges: self.net.num_edges(),
            unlabeled_paths: self.num_unlabeled(),
            labeled_tte: self.num_tte(),
            labeled_groups: self.num_groups(),
            group_size: self.stats.group_size,
            mean_path_len: self.stats.sum_path_len as f64 / self.num_unlabeled().max(1) as f64,
        }
    }

    /// Total rejected indices across sections while the file was generated.
    pub fn rejected(&self) -> u64 {
        self.stats.rejected.iter().sum()
    }
}
