//! The write-ahead line log under both durable logs in the workspace:
//! the daemon journal ([`crate::journal`]) and the fleet coordinator's
//! fleetlog (`corun_fleet::fleetlog`).
//!
//! A log is one JSON record per line, headed by a versioned record. This
//! module owns the record-agnostic half: the one durable writer
//! ([`Journal`]), the one reader ([`scan`]) and the one tail repair
//! ([`repair_tail`]). Each log supplies only its vocabulary, as a
//! [`LineRecord`] implementation.
//!
//! The scan has one torn-tail rule (`docs/FAULTS.md`): a malformed
//! *final* line is the write a crash interrupted — a warning, excluded
//! from the records and truncated by [`repair_tail`]. A malformed line
//! with lines after it, an unreadable file, or a missing or mismatched
//! header is an error, and recovery abandons the log instead of guessing.

use corun_verify::{Code, Diagnostic, Report, Severity};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// A record vocabulary stored one compact JSON object per line.
pub trait LineRecord: Sized {
    /// The format revision this build writes; a header declaring any
    /// other revision is refused.
    const FORMAT_VERSION: u32;

    /// Render as one compact JSON line (no trailing newline).
    fn to_json(&self) -> String;

    /// Parse one line. `Ok(None)` is a well-formed record of a type this
    /// build does not know (skipped with a warning); `Err` is a
    /// malformed line.
    fn from_json(line: &str) -> Result<Option<Self>, String>;

    /// The declared format revision, if this record is the log header.
    fn header_version(&self) -> Option<u32>;
}

/// An open log file. Every append writes the line and its `\n` in one
/// `write_all`, then flushes and `sync_data`s before returning, so a
/// record the caller has seen committed survives `kill -9`.
pub struct Journal {
    file: File,
    path: PathBuf,
    seq: u64,
}

impl Journal {
    /// Create (truncate) a fresh log and durably write its `header`.
    pub fn create<R: LineRecord>(path: &Path, header: &R) -> io::Result<Journal> {
        let mut j = Journal::create_raw(path)?;
        j.append(header)?;
        Ok(j)
    }

    /// Create (truncate) a fresh log without writing a header.
    pub fn create_raw(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            seq: 0,
        })
    }

    /// Open an existing log for appending (after a successful recovery
    /// scan and [`repair_tail`]). `seq` is the number of records already
    /// in the file, so sequence numbers stay contiguous across restarts.
    pub fn open_append(path: &Path, seq: u64) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            seq,
        })
    }

    /// Durably append one record.
    pub fn append<R: LineRecord>(&mut self, record: &R) -> io::Result<()> {
        self.commit(record.to_json())
    }

    /// Durably append one pre-rendered line (no trailing newline).
    pub fn append_line(&mut self, line: &str) -> io::Result<()> {
        self.commit(line.to_owned())
    }

    fn commit(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.seq += 1;
        Ok(())
    }

    /// Records written to the file so far (the index the next record
    /// will take).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything [`scan`] learned about a log file, including the byte
/// geometry [`repair_tail`] needs.
#[derive(Debug)]
pub struct Scan<R> {
    /// The records of the intact prefix; empty when the header gate
    /// failed.
    pub records: Vec<R>,
    /// Findings under the caller's code; `has_errors()` means the log
    /// must be abandoned.
    pub report: Report,
    /// Byte length of the intact prefix: every complete, parseable line
    /// lies below this offset.
    pub valid_len: u64,
    /// Byte offset of the first malformed line, if the scan hit one.
    pub torn_at: Option<u64>,
    /// The last intact record is not newline-terminated (the crash cut
    /// the write between the payload and the `\n`); [`repair_tail`]
    /// restores the terminator so appends start on a fresh line.
    pub needs_newline: bool,
}

/// Read a log byte-accurately under the one torn-tail rule (see the
/// module docs), reporting every finding under `code` at an explicit
/// severity, then check that the first record is a header declaring
/// [`LineRecord::FORMAT_VERSION`].
pub fn scan<R: LineRecord>(path: &Path, code: Code) -> Scan<R> {
    let loc = path.display().to_string();
    let mut scan = Scan {
        records: Vec::new(),
        report: Report::new(),
        valid_len: 0,
        torn_at: None,
        needs_newline: false,
    };
    let refuse = |report: &mut Report, at: String, msg: String| {
        report.push(Diagnostic::new(code, at, msg).with_severity(Severity::Error));
    };
    let mut reader = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) => {
            refuse(&mut scan.report, loc, format!("cannot read log: {e}"));
            return scan;
        }
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut offset: u64 = 0;
    let mut lineno: usize = 0;
    loop {
        buf.clear();
        let n = match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                let at = format!("{loc}:{}", lineno + 1);
                refuse(&mut scan.report, at, format!("cannot read log: {e}"));
                break;
            }
        };
        let line_start = offset;
        offset += n as u64;
        lineno += 1;
        let terminated = buf.last() == Some(&b'\n');
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            if terminated {
                scan.valid_len = offset;
            }
            continue;
        }
        match R::from_json(line) {
            Ok(parsed) => {
                match parsed {
                    Some(rec) => scan.records.push(rec),
                    None => scan.report.push(
                        Diagnostic::new(
                            code,
                            format!("{loc}:{lineno}"),
                            "unknown record type; skipped",
                        )
                        .with_severity(Severity::Warning),
                    ),
                }
                scan.valid_len = offset;
                // An unterminated payload that still parses is durable;
                // only the `\n` needs repair before appends resume.
                scan.needs_newline = !terminated;
            }
            Err(e) => {
                scan.torn_at = Some(line_start);
                let at = format!("{loc}:{lineno}");
                let mut rest = Vec::new();
                match reader.read_to_end(&mut rest) {
                    Err(io) => refuse(&mut scan.report, at, format!("cannot read log: {io}")),
                    Ok(_) if rest.iter().all(u8::is_ascii_whitespace) => scan.report.push(
                        Diagnostic::new(
                            code,
                            at,
                            format!("torn final record dropped: {e} (first corrupt record at byte {line_start})"),
                        )
                        .with_severity(Severity::Warning)
                        .with_help("the writer was killed mid-write; the intact prefix is recovered"),
                    ),
                    Ok(_) => refuse(
                        &mut scan.report,
                        at,
                        format!(
                            "corrupt record with records after it: {e} (first corrupt record at byte {line_start}); recovery abandons the log"
                        ),
                    ),
                }
                break;
            }
        }
    }
    let header = scan.records.first().and_then(R::header_version);
    if !scan.report.has_errors() && header != Some(R::FORMAT_VERSION) {
        let msg = match header {
            Some(v) => format!(
                "log format v{v} does not match this build (v{})",
                R::FORMAT_VERSION
            ),
            None => "log has no version header".to_string(),
        };
        refuse(&mut scan.report, loc, msg);
    }
    // An abandoned log yields no records: recovery must not act on a
    // prefix of a history it has refused.
    if scan.report.has_errors() {
        scan.records.clear();
    }
    scan
}

/// Truncate a torn tail off a log so the file once again ends at a
/// record boundary, and restore a missing final newline. Recovery calls
/// this (with the scan it already has) before [`Journal::open_append`];
/// otherwise the first post-recovery record would concatenate onto the
/// torn fragment and corrupt the log for the *next* recovery. Returns
/// whether the file was modified.
pub fn repair_tail<R>(path: &Path, scan: &Scan<R>) -> io::Result<bool> {
    let mut changed = false;
    if std::fs::metadata(path)?.len() > scan.valid_len {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(scan.valid_len)?;
        f.sync_data()?;
        changed = true;
    }
    if scan.needs_newline {
        let mut f = OpenOptions::new().append(true).open(path)?;
        f.write_all(b"\n")?;
        f.sync_data()?;
        changed = true;
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Json};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A two-type vocabulary: a versioned header and a numbered note.
    #[derive(Debug, Clone, PartialEq)]
    enum Rec {
        Head { version: u32 },
        Note { n: usize },
    }

    impl LineRecord for Rec {
        const FORMAT_VERSION: u32 = 3;

        fn to_json(&self) -> String {
            match self {
                Rec::Head { version } => obj(vec![
                    ("t", Json::Str("head".into())),
                    ("v", Json::Num(f64::from(*version))),
                ]),
                Rec::Note { n } => obj(vec![
                    ("t", Json::Str("note".into())),
                    ("n", Json::Num(*n as f64)),
                ]),
            }
            .render()
        }

        fn from_json(line: &str) -> Result<Option<Rec>, String> {
            let v = Json::parse(line)?;
            Ok(Some(match v.text("t")?.as_str() {
                "head" => Rec::Head {
                    version: v.idx("v")? as u32,
                },
                "note" => Rec::Note { n: v.idx("n")? },
                _ => return Ok(None),
            }))
        }

        fn header_version(&self) -> Option<u32> {
            match self {
                Rec::Head { version } => Some(*version),
                Rec::Note { .. } => None,
            }
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "corun-wal-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    const HEAD: Rec = Rec::Head {
        version: Rec::FORMAT_VERSION,
    };

    /// A header and `notes` notes, durably written; returns the bytes.
    fn write_log(path: &Path, notes: usize) -> Vec<u8> {
        let mut j = Journal::create(path, &HEAD).unwrap();
        for n in 0..notes {
            j.append(&Rec::Note { n }).unwrap();
        }
        std::fs::read(path).unwrap()
    }

    fn scan_rec(path: &Path) -> Scan<Rec> {
        scan(path, Code::Srv007)
    }

    #[test]
    fn torn_tail_diagnostic_reports_the_byte_offset() {
        let path = temp_path("torn-offset");
        let bytes = write_log(&path, 6);
        // The corrupt record starts right after the last intact newline.
        let cut = bytes.len() - 5;
        let expect_at = bytes[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap() as u64;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let scan = scan_rec(&path);
        assert!(!scan.report.has_errors(), "a torn tail is recoverable");
        assert_eq!(scan.records.len(), 6, "header + all notes but the torn one");
        assert_eq!(scan.torn_at, Some(expect_at));
        assert_eq!(scan.valid_len, expect_at);
        let rendered = scan.report.render_human();
        assert!(
            rendered.contains(&format!("first corrupt record at byte {expect_at}")),
            "diagnostic must name the byte offset: {rendered}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repair_tail_restores_a_record_boundary() {
        let path = temp_path("repair");
        let clean = write_log(&path, 6);

        // Torn mid-record: repair truncates the fragment, and appends
        // resume on a clean boundary that a later scan fully reads.
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        let scan = scan_rec(&path);
        assert!(repair_tail(&path, &scan).unwrap());
        let mut j = Journal::open_append(&path, scan.records.len() as u64).unwrap();
        j.append(&Rec::Note { n: 99 }).unwrap();
        drop(j);
        let rescan = scan_rec(&path);
        assert!(rescan.torn_at.is_none());
        assert!(rescan.report.is_empty(), "{}", rescan.report.render_human());
        assert_eq!(rescan.records.len(), 7);
        assert_eq!(rescan.records.last(), Some(&Rec::Note { n: 99 }));

        // Missing final newline only: the record is durable; repair
        // restores the terminator without dropping it.
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        let scan = scan_rec(&path);
        assert!(scan.torn_at.is_none());
        assert!(scan.needs_newline);
        assert_eq!(scan.records.len(), 7);
        assert!(repair_tail(&path, &scan).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        // An intact log needs no repair.
        assert!(!repair_tail(&path, &scan_rec(&path)).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_tolerates_torn_tail_but_not_mid_file_corruption() {
        let path = temp_path("mid");
        let clean = write_log(&path, 3);
        let text = String::from_utf8(clean).unwrap();
        let lines: Vec<&str> = text.lines().collect();

        // A corrupt final line, terminated or not, is a torn tail.
        for tail in [
            "{\"t\":\"note\",\"n",
            "garbage\n",
            "{\"t\":\"note\"}\n\n  \n",
        ] {
            std::fs::write(&path, format!("{}\n{}\n{tail}", lines[0], lines[1])).unwrap();
            let scan = scan_rec(&path);
            assert!(
                !scan.report.has_errors(),
                "{tail:?}: {}",
                scan.report.render_human()
            );
            assert_eq!(scan.report.len(), 1);
            assert_eq!(scan.records.len(), 2);
        }

        // The same bad line with a record after it is corruption: the
        // scan refuses the log rather than drop acknowledged records.
        std::fs::write(
            &path,
            format!("{}\n{}\ngarbage\n{}\n", lines[0], lines[1], lines[3]),
        )
        .unwrap();
        let scan = scan_rec(&path);
        assert!(
            scan.report.has_errors(),
            "mid-file corruption must abandon the log"
        );
        assert!(scan.report.has(Code::Srv007));
        assert!(scan.records.is_empty());
        let at = (lines[0].len() + lines[1].len() + 2) as u64;
        assert_eq!(scan.torn_at, Some(at));
        assert!(scan
            .report
            .render_human()
            .contains(&format!("at byte {at}")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_gate_refuses_missing_or_mismatched_versions() {
        let path = temp_path("header");
        let note = Rec::Note { n: 0 }.to_json();
        let cases = [
            (
                format!("{}\n{note}\n", Rec::Head { version: 99 }.to_json()),
                "v99",
            ),
            (format!("{note}\n"), "no version header"),
            (String::new(), "no version header"),
        ];
        for (text, why) in cases {
            std::fs::write(&path, text).unwrap();
            let scan = scan_rec(&path);
            assert!(scan.records.is_empty());
            assert!(scan.report.has_errors(), "a bad header is not recoverable");
            assert!(scan.report.render_human().contains(why));
        }
        // A missing file is an error too, under the caller's code.
        std::fs::remove_file(&path).ok();
        let scan: Scan<Rec> = scan(&path, Code::Flt009);
        assert!(scan.report.has_errors() && scan.report.has(Code::Flt009));
    }

    #[test]
    fn unknown_record_types_are_skipped_with_a_warning() {
        let path = temp_path("unknown");
        let mut j = Journal::create(&path, &HEAD).unwrap();
        j.append_line(r#"{"t":"from_the_future"}"#).unwrap();
        j.append(&Rec::Note { n: 1 }).unwrap();
        drop(j);
        let scan = scan_rec(&path);
        assert!(!scan.report.has_errors());
        assert_eq!(scan.report.count(Code::Srv007), 1);
        assert_eq!(scan.records, vec![HEAD, Rec::Note { n: 1 }]);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn durable_writer_survives_reopen() {
        let path = temp_path("reopen");
        {
            let mut j = Journal::create(&path, &HEAD).unwrap();
            j.append(&Rec::Note { n: 0 }).unwrap();
            assert_eq!(j.seq(), 2);
            assert_eq!(j.path(), path.as_path());
        }
        let scan = scan_rec(&path);
        assert_eq!(scan.records.len(), 2);
        {
            let mut j = Journal::open_append(&path, scan.records.len() as u64).unwrap();
            j.append(&Rec::Note { n: 1 }).unwrap();
            assert_eq!(j.seq(), 3);
        }
        assert_eq!(scan_rec(&path).records.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
