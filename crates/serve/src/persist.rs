//! The one file format for persisted designs: a header line, then one
//! `canonical key \t outcome \t #checksum` line per design. The LRU
//! cache saves and loads it ([`ShardedCache::save`] and
//! [`ShardedCache::load`]), and the precomputed mart of the `gomil-mart`
//! crate is a pinned, read-only copy of it.
//!
//! Floats use Rust's shortest-roundtrip formatting, so a reloaded outcome
//! is bit-identical to the one written. Every line ends in the FNV-1a
//! checksum of everything before its last tab, so a torn line (cut
//! mid-float by a crashed or interrupted writer) is rejected instead of
//! loading as a plausible but wrong value. The reader takes each line on
//! its own: a line that is torn, fails its checksum, is not UTF-8, does
//! not parse, or holds an outcome for another (m, PPG) than its key names
//! is skipped and counted, never served.
//!
//! [`ShardedCache::save`]: crate::ShardedCache::save
//! [`ShardedCache::load`]: crate::ShardedCache::load

use crate::key::{fnv1a_64, SolveKey};
use crate::outcome::ServeOutcome;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// First line of every persisted design file. Bumped on incompatible
/// changes, so a file of any other version is never read as this one.
/// v3 carries an outcome's counters as `name=value` fields.
pub const PERSIST_HEADER: &str = "gomil-serve-cache v3";

/// The designs [`read_design_lines`] found in one file.
#[derive(Debug, Default)]
pub struct DesignLines {
    /// The key and outcome of every line that checked out, in file order.
    pub entries: Vec<(SolveKey, ServeOutcome)>,
    /// Lines skipped as torn or corrupt.
    pub skipped: usize,
}

/// Writes `(canonical key, outcome)` pairs to `path` in the order given,
/// atomically: the lines go to a sibling temp file (suffixed with this
/// process's PID, so two writers of one path never interleave into one
/// temp file), which is flushed *and fsynced* and only then renamed into
/// place, and the directory is synced after the rename. A crash at any
/// point leaves either the old complete file or the new complete one, and
/// a stray temp file from a crashed writer is invisible to
/// [`read_design_lines`]. Returns the number of designs written.
///
/// # Errors
///
/// Propagates filesystem errors (the temp file is removed on error).
pub fn write_design_lines<'a>(
    path: &Path,
    entries: impl IntoIterator<Item = (&'a str, &'a ServeOutcome)>,
) -> io::Result<usize> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = write_to_tmp(&tmp, path, entries);
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

fn write_to_tmp<'a>(
    tmp: &Path,
    path: &Path,
    entries: impl IntoIterator<Item = (&'a str, &'a ServeOutcome)>,
) -> io::Result<usize> {
    let mut out = io::BufWriter::new(std::fs::File::create(tmp)?);
    writeln!(out, "{PERSIST_HEADER}")?;
    let mut written = 0usize;
    for (canonical, outcome) in entries {
        let content = format!("{canonical}\t{}", outcome.to_line());
        let sum = fnv1a_64(content.as_bytes());
        writeln!(out, "{content}\t#{sum:016x}")?;
        written += 1;
    }
    out.flush()?;
    // The rename only commits bytes that are durably on disk: without the
    // fsync a crash shortly after rename could surface a complete-looking
    // file with a zeroed tail.
    out.get_ref().sync_all()?;
    std::fs::rename(tmp, path)?;
    // The rename itself survives a crash only once the directory that
    // holds the new entry is synced too.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(written)
}

/// Reads a file written by [`write_design_lines`]. `Ok(None)` when its
/// first line is not [`PERSIST_HEADER`]: an empty file, a torn header,
/// another version or another format. Each later line is checked on its
/// own and skipped (and counted) when it is torn or corrupt.
///
/// # Errors
///
/// Propagates I/O errors, a missing file among them.
pub fn read_design_lines(path: &Path) -> io::Result<Option<DesignLines>> {
    let mut reader = io::BufReader::new(std::fs::File::open(path)?);
    let mut line = Vec::new();
    if !next_line(&mut reader, &mut line)? || line != PERSIST_HEADER.as_bytes() {
        return Ok(None);
    }
    let mut lines = DesignLines::default();
    while next_line(&mut reader, &mut line)? {
        match std::str::from_utf8(&line).ok().and_then(parse_line) {
            Some(entry) => lines.entries.push(entry),
            None => lines.skipped += 1,
        }
    }
    Ok(Some(lines))
}

/// Reads the next line into `buf` as bytes, without its `\n` or `\r\n`;
/// `false` at the end of the file.
fn next_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.ends_with(b"\n") {
        buf.pop();
        if buf.ends_with(b"\r") {
            buf.pop();
        }
    }
    Ok(true)
}

/// The design on one line, or `None` when the line is torn or corrupt.
fn parse_line(line: &str) -> Option<(SolveKey, ServeOutcome)> {
    // A line must end with `\t#<16-hex fnv of everything before it>`; a
    // torn tail fails this gate instead of parsing as a plausible shorter
    // number.
    let (content, tag) = line.rsplit_once('\t')?;
    let hex = tag.strip_prefix('#').filter(|hex| hex.len() == 16)?;
    if u64::from_str_radix(hex, 16).ok()? != fnv1a_64(content.as_bytes()) {
        return None;
    }
    let (canonical, rest) = content.split_once('\t')?;
    let outcome = ServeOutcome::from_line(rest)?;
    let key = SolveKey::from_canonical(canonical.to_string());
    key.is_for(outcome.m, outcome.ppg).then_some((key, outcome))
}
