//! Classic libpcap file format reader/writer.
//!
//! The simulator can persist generated gateway captures in the standard
//! `.pcap` format (magic `0xa1b2c3d4`, microsecond resolution, LINKTYPE_ETHERNET)
//! so traces can be inspected with Wireshark/tcpdump, and the pipeline can
//! ingest captures from disk.

use crate::report::{IngestCategory, IngestReport};
use crate::{NetError, Result};
use std::io::{Read, Write};

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_US_SWAPPED: u32 = 0xd4c3_b2a1;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// How [`PcapReader`] reacts to a malformed record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Fail on the first malformed record header or short read (the
    /// historical behavior; suitable for trusted, self-generated captures).
    Strict,
    /// Never fail mid-stream: skip implausible record headers, scan forward
    /// for the next plausible one, swallow a truncated tail, and account for
    /// everything ignored in an [`IngestReport`].
    Recovery,
}

/// Smallest frame a plausible record can carry (an Ethernet header).
const MIN_FRAME_LEN: u32 = 14;
/// Largest capture length a plausible record header may claim (classic
/// snaplen ceiling).
const MAX_FRAME_LEN: u32 = 65_535;
/// Largest original (on-the-wire) length a plausible header may claim.
const MAX_ORIG_LEN: u32 = 1 << 18;
/// A plausible record timestamp may precede the last accepted one by at
/// most this many seconds...
const MAX_SEC_BEHIND: u32 = 7 * 86_400;
/// ...or follow it by at most this many seconds.
const MAX_SEC_AHEAD: u32 = 30 * 86_400;
/// A resync candidate — a header found by scanning forward past an
/// implausible one — and the header chained after it may precede their
/// anchor by at most this many seconds. [`MAX_SEC_BEHIND`] is far too wide
/// for a header found by scanning: for any anchor in the first 7 days after
/// the epoch it admits `sec == 0`, so zero bytes inside a mangled record
/// pass as a header. 60 s is twice the flow ingest's default skew gate, so
/// a record further behind would be dropped downstream anyway.
const MAX_RESYNC_SEC_BEHIND: u32 = 60;
/// Recovery-buffer compaction threshold: once this many consumed bytes
/// accumulate at the front of the buffer, they are dropped.
const COMPACT_THRESHOLD: usize = 1 << 20;

/// A decoded 16-byte record header (recovery path).
#[derive(Debug, Clone, Copy)]
struct RecHeader {
    sec: u32,
    usec: u32,
    incl: u32,
    orig: u32,
}

/// A captured packet record: timestamp plus raw link-layer bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PcapRecord {
    /// Capture timestamp in seconds since the epoch of the capture.
    pub ts: f64,
    /// Raw frame bytes (from the Ethernet header on).
    pub data: Vec<u8>,
}

/// Writes a pcap stream: global header then one record per packet.
pub struct PcapWriter<W: Write> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header (snaplen 65535,
    /// Ethernet link type, microsecond timestamps).
    pub fn new(mut inner: W) -> Result<Self> {
        inner.write_all(&MAGIC_US.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&65535u32.to_le_bytes())?; // snaplen
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(Self { inner })
    }

    /// Append one packet record.
    pub fn write_record(&mut self, rec: &PcapRecord) -> Result<()> {
        let secs = rec.ts.floor();
        let usecs = ((rec.ts - secs) * 1e6).round() as u32;
        // Guard against rounding to a full second.
        let (secs, usecs) = if usecs >= 1_000_000 {
            (secs + 1.0, 0)
        } else {
            (secs, usecs)
        };
        if secs < 0.0 || secs > u32::MAX as f64 {
            return Err(NetError::Invalid {
                what: "pcap record",
                reason: "timestamp out of range",
            });
        }
        self.inner.write_all(&(secs as u32).to_le_bytes())?;
        self.inner.write_all(&usecs.to_le_bytes())?;
        self.inner
            .write_all(&(rec.data.len() as u32).to_le_bytes())?;
        self.inner
            .write_all(&(rec.data.len() as u32).to_le_bytes())?;
        self.inner.write_all(&rec.data)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A record view borrowing its frame bytes from the reader's reusable
/// internal buffer — the zero-copy counterpart of [`PcapRecord`]. Valid
/// until the next read call on the same reader.
#[derive(Debug, PartialEq)]
pub struct PcapRecordView<'a> {
    /// Capture timestamp in seconds since the epoch of the capture.
    pub ts: f64,
    /// Raw frame bytes, borrowed from the reader.
    pub data: &'a [u8],
}

/// Reads a pcap stream, iterating over records.
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    /// Link type declared by the file (normally [`LINKTYPE_ETHERNET`]).
    pub linktype: u32,
    /// Reusable frame buffer for the borrowed read path.
    buf: Vec<u8>,
    /// Total input length in bytes, when the caller knows it (lets
    /// [`Self::read_all`] preallocate instead of growing).
    input_len: Option<u64>,
    /// Bytes consumed so far (global header + record headers + frames).
    consumed: u64,
    /// Reaction to malformed record streams.
    mode: RecoveryMode,
    /// Recovery-path read buffer (unconsumed raw bytes).
    rbuf: Vec<u8>,
    /// Read position within [`Self::rbuf`].
    rpos: usize,
    /// Whether the underlying reader hit end-of-file (recovery path).
    reof: bool,
    /// Seconds field of the newest accepted record (plausibility anchor).
    last_sec: Option<u32>,
    /// Records yielded so far (sample indices in the report).
    yielded: u64,
    /// Accounting of everything the recovery path ignored.
    report: IngestReport,
}

impl<R: Read> PcapReader<R> {
    /// Open a pcap stream, validating the global header. Both byte orders
    /// are accepted.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            MAGIC_US => false,
            MAGIC_US_SWAPPED => true,
            _ => {
                return Err(NetError::Invalid {
                    what: "pcap",
                    reason: "bad magic",
                })
            }
        };
        let read_u32 = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        let linktype = read_u32(&hdr[20..24]);
        Ok(Self {
            inner,
            swapped,
            linktype,
            buf: Vec::new(),
            input_len: None,
            consumed: 24,
            mode: RecoveryMode::Strict,
            rbuf: Vec::new(),
            rpos: 0,
            reof: false,
            last_sec: None,
            yielded: 0,
            report: IngestReport::new(),
        })
    }

    /// Open a pcap stream in [`RecoveryMode::Recovery`]: malformed records
    /// are skipped and counted instead of aborting the read. The global
    /// header must still be valid — without a magic number there is no byte
    /// order to recover with.
    pub fn new_recovering(inner: R) -> Result<Self> {
        let mut r = Self::new(inner)?;
        r.mode = RecoveryMode::Recovery;
        Ok(r)
    }

    /// The reader's [`RecoveryMode`].
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// Accounting of everything the recovery path has ignored so far.
    /// Always all-zero in [`RecoveryMode::Strict`] and on clean input.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Take ownership of the report, leaving an empty one behind.
    pub fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.report)
    }

    /// Open a pcap stream whose total byte length is known up front (a file
    /// or an in-memory buffer). [`Self::read_all`] uses the length to size
    /// its result exactly instead of growing geometrically.
    pub fn with_input_len(inner: R, total_bytes: u64) -> Result<Self> {
        let mut r = Self::new(inner)?;
        r.input_len = Some(total_bytes);
        Ok(r)
    }

    /// Read the next record into the reader's reusable buffer and return a
    /// borrowed view — no per-record allocation. Returns `None` at a clean
    /// end-of-file.
    ///
    /// In [`RecoveryMode::Recovery`] malformed stretches of the stream are
    /// skipped (and accounted in [`Self::report`]) instead of erroring.
    pub fn next_record_borrowed(&mut self) -> Result<Option<PcapRecordView<'_>>> {
        if self.mode == RecoveryMode::Recovery {
            return match self.advance_recovering()? {
                Some(ts) => Ok(Some(PcapRecordView { ts, data: &self.buf })),
                None => Ok(None),
            };
        }
        let mut hdr = [0u8; 16];
        match self.inner.read_exact(&mut hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let rd = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if self.swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        let secs = rd(&hdr[0..4]);
        let usecs = rd(&hdr[4..8]);
        let incl_len = rd(&hdr[8..12]) as usize;
        if incl_len > 1 << 26 {
            return Err(NetError::Invalid {
                what: "pcap record",
                reason: "implausible length",
            });
        }
        self.buf.resize(incl_len, 0);
        self.inner.read_exact(&mut self.buf)?;
        self.consumed += 16 + incl_len as u64;
        Ok(Some(PcapRecordView {
            ts: secs as f64 + usecs as f64 * 1e-6,
            data: &self.buf,
        }))
    }

    /// Read the next record as an owned [`PcapRecord`], or `None` at a
    /// clean end-of-file.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>> {
        Ok(self.next_record_borrowed()?.map(|v| PcapRecord {
            ts: v.ts,
            data: v.data.to_vec(),
        }))
    }

    /// Collect all remaining records.
    ///
    /// When the input length is known ([`Self::with_input_len`]), the
    /// result is sized from the remaining byte count and the first record's
    /// on-disk stride, so uniform captures never reallocate.
    pub fn read_all(&mut self) -> Result<Vec<PcapRecord>> {
        let first = match self.next_record()? {
            Some(r) => r,
            None => return Ok(Vec::new()),
        };
        let estimate = match self.input_len {
            Some(total) => {
                let stride = (16 + first.data.len()) as u64;
                let remaining = total.saturating_sub(self.consumed);
                // Cap the guess so a corrupt length field cannot force a
                // huge up-front allocation.
                (1 + remaining / stride).min(1 << 22) as usize
            }
            None => 1,
        };
        let mut out = Vec::with_capacity(estimate);
        out.push(first);
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    // ---- recovery path -------------------------------------------------
    //
    // Strict mode reads straight from `inner`; recovery needs to scan
    // backtrack-free through arbitrary garbage, so it maintains its own
    // buffered window (`rbuf`/`rpos`) over the raw stream. Every branch
    // below strictly advances `rpos` (a yield by ≥ 16 bytes, a resync scan
    // by ≥ 1), so the reader can never loop forever and yields at most
    // `len/16 + 1` records for a `len`-byte input.

    fn decode_header(&self, b: &[u8]) -> RecHeader {
        let rd = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if self.swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        RecHeader {
            sec: rd(&b[0..4]),
            usec: rd(&b[4..8]),
            incl: rd(&b[8..12]),
            orig: rd(&b[12..16]),
        }
    }

    /// Field-level plausibility of a record header, independent of context.
    fn header_fields_plausible(h: &RecHeader) -> bool {
        h.usec < 1_000_000
            && (MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&h.incl)
            && h.orig >= h.incl
            && h.orig <= MAX_ORIG_LEN
    }

    /// Whether `sec` is at most `behind` seconds before `anchor` and at most
    /// [`MAX_SEC_AHEAD`] after it.
    fn sec_in_window(sec: u32, anchor: u32, behind: u32) -> bool {
        sec >= anchor.saturating_sub(behind) && sec <= anchor.saturating_add(MAX_SEC_AHEAD)
    }

    /// Full plausibility: fields plus the timestamp window (`behind`
    /// seconds back) anchored on the newest accepted record (no window
    /// before the first acceptance).
    fn plausible(&self, h: &RecHeader, behind: u32) -> bool {
        Self::header_fields_plausible(h)
            && self
                .last_sec
                .is_none_or(|last| Self::sec_in_window(h.sec, last, behind))
    }

    /// Pull bytes from the underlying reader until the buffer holds at
    /// least `target` bytes total or the stream ends.
    fn fill_to(&mut self, target: usize) -> Result<()> {
        let mut chunk = [0u8; 8192];
        while !self.reof && self.rbuf.len() < target {
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                self.reof = true;
            } else {
                self.rbuf.extend_from_slice(&chunk[..n]);
            }
        }
        Ok(())
    }

    /// One-level chain validation for a resync candidate at offset `p`:
    /// the header *after* the candidate record must itself look plausible
    /// (anchored on the candidate's timestamp, with the resync window), or
    /// the candidate must end
    /// at — or within a sub-header distance of — the end of the stream.
    fn chain_ok(&mut self, p: usize, h: &RecHeader) -> Result<bool> {
        let rec_end = p + 16 + h.incl as usize;
        self.fill_to(rec_end + 16)?;
        if self.rbuf.len() < rec_end {
            // The candidate record itself extends past EOF.
            return Ok(false);
        }
        let remaining = self.rbuf.len() - rec_end;
        if remaining < 16 {
            return Ok(true);
        }
        let next = self.decode_header(&self.rbuf[rec_end..rec_end + 16]);
        Ok(Self::header_fields_plausible(&next)
            && Self::sec_in_window(next.sec, h.sec, MAX_RESYNC_SEC_BEHIND))
    }

    /// Advance to the next recoverable record: fills `self.buf` with its
    /// frame bytes and returns its timestamp, or `None` at end-of-stream.
    /// Never returns an error for malformed content — only for real I/O
    /// failures from the underlying reader.
    fn advance_recovering(&mut self) -> Result<Option<f64>> {
        loop {
            if self.rpos >= COMPACT_THRESHOLD {
                self.rbuf.drain(..self.rpos);
                self.rpos = 0;
            }
            self.fill_to(self.rpos + 16)?;
            let avail = self.rbuf.len().saturating_sub(self.rpos);
            if avail == 0 {
                return Ok(None);
            }
            if avail < 16 {
                let ts = self.last_sec.map_or(0.0, |s| s as f64);
                self.report.note(
                    IngestCategory::TruncatedTail,
                    self.yielded,
                    ts,
                    "stream ended inside a record header",
                );
                self.rpos = self.rbuf.len();
                return Ok(None);
            }
            let h = self.decode_header(&self.rbuf[self.rpos..self.rpos + 16]);
            if self.plausible(&h, MAX_SEC_BEHIND) {
                let end = self.rpos + 16 + h.incl as usize;
                self.fill_to(end)?;
                if self.rbuf.len() < end {
                    self.report.note(
                        IngestCategory::TruncatedTail,
                        self.yielded,
                        rec_ts(&h),
                        "stream ended inside a record body",
                    );
                    self.rpos = self.rbuf.len();
                    return Ok(None);
                }
                self.buf.clear();
                self.buf.extend_from_slice(&self.rbuf[self.rpos + 16..end]);
                self.consumed += (end - self.rpos) as u64;
                self.rpos = end;
                self.last_sec = Some(self.last_sec.map_or(h.sec, |l| l.max(h.sec)));
                self.yielded += 1;
                return Ok(Some(rec_ts(&h)));
            }
            // Implausible header: counted once, then a byte-by-byte forward
            // scan for the next plausible, chain-validated record header.
            self.report.note(
                IngestCategory::BadRecordHeader,
                self.yielded,
                rec_ts(&h),
                "implausible record header",
            );
            let mut p = self.rpos + 1;
            loop {
                self.fill_to(p + 16)?;
                if self.rbuf.len() < p + 16 {
                    // No room left for a header: the remainder of the
                    // stream is unrecoverable.
                    self.report.resync_skipped_bytes += (self.rbuf.len() - self.rpos) as u64;
                    self.rpos = self.rbuf.len();
                    return Ok(None);
                }
                let cand = self.decode_header(&self.rbuf[p..p + 16]);
                if self.plausible(&cand, MAX_RESYNC_SEC_BEHIND) && self.chain_ok(p, &cand)? {
                    self.report.resync_skipped_bytes += (p - self.rpos) as u64;
                    self.report.note(
                        IngestCategory::Resync,
                        self.yielded,
                        rec_ts(&cand),
                        "resynchronized on next plausible record header",
                    );
                    self.rpos = p;
                    break;
                }
                p += 1;
            }
        }
    }
}

/// Timestamp of a record header as the pipeline's f64 seconds.
fn rec_ts(h: &RecHeader) -> f64 {
    h.sec as f64 + h.usec as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_multiple_records() {
        let recs = vec![
            PcapRecord {
                ts: 1.5,
                data: vec![1, 2, 3],
            },
            PcapRecord {
                ts: 2.000001,
                data: vec![],
            },
            PcapRecord {
                ts: 1000.999999,
                data: vec![0xff; 64],
            },
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let buf = w.finish().unwrap();
        let mut rd = PcapReader::new(Cursor::new(buf)).unwrap();
        assert_eq!(rd.linktype, LINKTYPE_ETHERNET);
        let out = rd.read_all().unwrap();
        assert_eq!(out.len(), 3);
        for (a, b) in out.iter().zip(recs.iter()) {
            assert!((a.ts - b.ts).abs() < 2e-6, "{} vs {}", a.ts, b.ts);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = vec![0u8; 24];
        assert!(matches!(
            PcapReader::new(Cursor::new(buf)),
            Err(NetError::Invalid {
                reason: "bad magic",
                ..
            })
        ));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let buf = vec![0u8; 10];
        assert!(matches!(
            PcapReader::new(Cursor::new(buf)),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn truncated_record_is_io_error() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 1.0,
            data: vec![1, 2, 3, 4],
        })
        .unwrap();
        let mut buf = w.finish().unwrap();
        buf.truncate(buf.len() - 2);
        let mut rd = PcapReader::new(Cursor::new(buf)).unwrap();
        assert!(rd.next_record().is_err());
    }

    #[test]
    fn negative_timestamp_rejected() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let res = w.write_record(&PcapRecord {
            ts: -1.0,
            data: vec![],
        });
        assert!(res.is_err());
    }

    #[test]
    fn borrowed_reader_matches_owned() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..20u8 {
            w.write_record(&PcapRecord {
                ts: i as f64 * 0.5,
                data: vec![i; 10 + i as usize],
            })
            .unwrap();
        }
        let buf = w.finish().unwrap();
        let mut owned = PcapReader::new(Cursor::new(buf.clone())).unwrap();
        let mut borrowed = PcapReader::new(Cursor::new(buf)).unwrap();
        while let Some(o) = owned.next_record().unwrap() {
            let b = borrowed.next_record_borrowed().unwrap().unwrap();
            assert_eq!(b.ts, o.ts);
            assert_eq!(b.data, &o.data[..]);
        }
        assert!(borrowed.next_record_borrowed().unwrap().is_none());
    }

    #[test]
    fn read_all_preallocates_without_growth() {
        // Uniform records: the stride estimate is exact, so read_all must
        // land on capacity == len (no geometric growth, no over-reserve).
        let n = 513;
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write_record(&PcapRecord {
                ts: i as f64,
                data: vec![0xab; 60],
            })
            .unwrap();
        }
        let buf = w.finish().unwrap();
        let total = buf.len() as u64;
        let mut rd = PcapReader::with_input_len(Cursor::new(buf), total).unwrap();
        let out = rd.read_all().unwrap();
        assert_eq!(out.len(), n);
        assert_eq!(out.capacity(), n, "read_all grew instead of preallocating");
    }

    fn sample_capture(n: u8) -> (Vec<PcapRecord>, Vec<u8>) {
        let recs: Vec<PcapRecord> = (0..n)
            .map(|i| PcapRecord {
                ts: 100.0 + i as f64 * 0.25,
                data: vec![i; 40 + i as usize],
            })
            .collect();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        (recs, w.finish().unwrap())
    }

    #[test]
    fn recovery_on_clean_input_matches_strict_with_zero_report() {
        let (_, buf) = sample_capture(12);
        let mut strict = PcapReader::new(Cursor::new(buf.clone())).unwrap();
        let mut rec = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        assert_eq!(rec.mode(), RecoveryMode::Recovery);
        let a = strict.read_all().unwrap();
        let b = rec.read_all().unwrap();
        assert_eq!(a, b);
        assert!(rec.report().is_clean(), "clean input dirtied the report");
    }

    #[test]
    fn recovery_resyncs_past_mangled_length_field() {
        let (recs, mut buf) = sample_capture(8);
        // Mangle the incl_len field of record 2 to an implausible value.
        // Records 0 and 1 occupy (16+40) + (16+41) bytes after the header.
        let rec2_hdr = 24 + (16 + 40) + (16 + 41);
        buf[rec2_hdr + 8..rec2_hdr + 12].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        let mut rd = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        let out = rd.read_all().unwrap();
        // Record 2 is lost; everything else survives.
        assert_eq!(out.len(), recs.len() - 1);
        assert_eq!(out[2].data, recs[3].data);
        let rep = rd.report();
        assert_eq!(rep.bad_record_headers, 1);
        assert_eq!(rep.resyncs, 1);
        // The scan skipped the mangled header plus record 2's frame bytes.
        assert_eq!(rep.resync_skipped_bytes, 16 + 42);
        assert_eq!(rep.dropped_records(), 1);
    }

    #[test]
    fn recovery_resync_near_epoch_skips_zero_bytes() {
        // A capture 1272 s after the epoch: every frame ends in 8 zero
        // bytes, and record 5's length field is mangled. Scanning forward,
        // the 16 bytes starting 8 bytes before record 6's header read as
        // {sec 0, usec 0, incl 1272, orig 200000}: plausible fields, and
        // 1272 + 16 bytes on sits exactly on record 26's header, so the
        // chain check passes too. Only the timestamp window can refuse it.
        let recs: Vec<PcapRecord> = (0..40u8)
            .map(|i| {
                let mut data = vec![0xab; 40];
                data[0] = i;
                data.extend_from_slice(&[0; 8]);
                PcapRecord { ts: 1272.2, data }
            })
            .collect();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let mut buf = w.finish().unwrap();
        let rec5_hdr = 24 + 5 * (16 + 48);
        buf[rec5_hdr + 8..rec5_hdr + 12].copy_from_slice(&0x4000_0000u32.to_le_bytes());

        let mut rd = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        let out = rd.read_all().unwrap();
        let mut expected = recs.clone();
        expected.remove(5);
        assert_eq!(out, expected, "resynced on a false header inside record 5");
        let rep = rd.report();
        assert_eq!((rep.bad_record_headers, rep.resyncs), (1, 1));
        assert_eq!(rep.resync_skipped_bytes, 16 + 48);
    }

    #[test]
    fn recovery_swallows_truncated_tail() {
        let (recs, mut buf) = sample_capture(6);
        buf.truncate(buf.len() - 20); // cut into the last record's body
        let mut rd = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        let out = rd.read_all().unwrap();
        assert_eq!(out.len(), recs.len() - 1);
        assert_eq!(rd.report().truncated_tail, 1);
        assert_eq!(rd.report().dropped_records(), 1);
    }

    #[test]
    fn recovery_handles_garbage_only_stream() {
        // Valid global header followed by non-record noise: nothing yields,
        // nothing panics, nothing loops.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 5.0,
            data: vec![0xaa; 20],
        })
        .unwrap();
        let mut buf = w.finish().unwrap();
        // Overwrite the record header with 0xff noise so it is implausible.
        for b in &mut buf[24..40] {
            *b = 0xff;
        }
        let mut rd = PcapReader::new_recovering(Cursor::new(buf)).unwrap();
        assert!(rd.read_all().unwrap().is_empty());
        assert_eq!(rd.report().bad_record_headers, 1);
        assert_eq!(rd.report().resyncs, 0);
    }

    #[test]
    fn recovery_still_rejects_bad_magic() {
        let buf = vec![0u8; 24];
        assert!(PcapReader::new_recovering(Cursor::new(buf)).is_err());
    }

    #[test]
    fn microsecond_rounding_never_overflows() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord {
            ts: 41.9999996,
            data: vec![],
        })
        .unwrap();
        let buf = w.finish().unwrap();
        let mut rd = PcapReader::new(Cursor::new(buf)).unwrap();
        let r = rd.next_record().unwrap().unwrap();
        assert!((r.ts - 42.0).abs() < 1e-9);
    }
}
