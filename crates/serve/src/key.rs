//! Canonical cache keys for solve requests.
//!
//! A GOMIL solve is a deterministic function of the word length, the PPG
//! kind and the solve-relevant configuration fields, so a cache key must
//! be exactly that tuple — no more (budgets shape *latency*, not the
//! certified optimum, and are excluded so a request served under a tight
//! deadline can still be answered by a cached full-quality result) and no
//! less. The configuration half arrives as a caller-produced canonical
//! *fingerprint* string (see `GomilConfig::solve_fingerprint` in the
//! `gomil` crate), keeping this crate independent of the config type.

use gomil_arith::PpgKind;
use std::fmt;

/// FNV-1a 64-bit hash — tiny, dependency-free and *stable across
/// processes* (unlike `std`'s `DefaultHasher`, whose seeds are
/// deliberately randomized), which the persisted cache relies on.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Injective single-line encoding of a caller fingerprint: `\` → `\\`,
/// tab → `\t`, newline → `\n`, carriage return → `\r`. Well-formed
/// fingerprints (no backslash, no control delimiters) pass through
/// unchanged, so existing persisted canonical keys stay valid.
fn escape_fingerprint(fingerprint: &str) -> std::borrow::Cow<'_, str> {
    if !fingerprint.contains(['\\', '\t', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(fingerprint);
    }
    let mut out = String::with_capacity(fingerprint.len() + 8);
    for c in fingerprint.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// The fields every canonical key for an `m × m` multiplier with PPG
/// `ppg` starts with; the caller's fingerprint follows.
fn key_prefix(m: usize, ppg: PpgKind) -> String {
    format!("v1;m={m};ppg={};", ppg.label())
}

/// The canonical identity of one solve request.
///
/// Two keys are equal iff the solves they describe are guaranteed to
/// produce identical results; the canonical string is the persisted/hashed
/// form and the 64-bit hash picks the cache shard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolveKey {
    canonical: String,
    hash: u64,
}

impl SolveKey {
    /// Builds the key for an `m × m` multiplier with PPG `ppg` under the
    /// configuration identified by `fingerprint`.
    ///
    /// `fingerprint` must be a canonical encoding of every solve-relevant
    /// configuration field (same fields ⇒ same string, any differing field
    /// ⇒ different string). Tab, newline and carriage-return characters —
    /// which delimit the persisted design lines of the cache and the mart —
    /// are escaped here, in every build profile, so a hostile fingerprint can
    /// never corrupt a persisted store: the escaping is injective
    /// (backslash itself is escaped), so distinct fingerprints still map
    /// to distinct canonical keys, and fingerprints that were already
    /// single-line and backslash-free (every fingerprint the `gomil`
    /// crate produces) keep their historical canonical form byte for
    /// byte.
    pub fn new(m: usize, ppg: PpgKind, fingerprint: &str) -> SolveKey {
        let fingerprint = escape_fingerprint(fingerprint);
        SolveKey::from_canonical(format!("{}{fingerprint}", key_prefix(m, ppg)))
    }

    /// Whether this key names an `m × m` multiplier with PPG `ppg`: a
    /// persisted line whose outcome fails this against its own key is
    /// corrupt.
    pub(crate) fn is_for(&self, m: usize, ppg: PpgKind) -> bool {
        self.canonical.starts_with(&key_prefix(m, ppg))
    }

    /// Re-wraps an already-canonical string (used when reloading the
    /// persisted cache).
    pub fn from_canonical(canonical: String) -> SolveKey {
        let hash = fnv1a_64(canonical.as_bytes());
        SolveKey { canonical, hash }
    }

    /// The canonical string form.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The stable 64-bit hash of the canonical form.
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Shard index for a cache with `shards` shards.
    pub fn shard(&self, shards: usize) -> usize {
        (self.hash % shards.max(1) as u64) as usize
    }
}

impl fmt::Display for SolveKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{:016x}]", self.canonical, self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn keys_separate_m_ppg_and_fingerprint() {
        let k = SolveKey::new(8, PpgKind::And, "w=8");
        assert_eq!(k, SolveKey::new(8, PpgKind::And, "w=8"));
        assert_ne!(k, SolveKey::new(9, PpgKind::And, "w=8"));
        assert_ne!(k, SolveKey::new(8, PpgKind::Booth4, "w=8"));
        assert_ne!(k, SolveKey::new(8, PpgKind::And, "w=9"));
    }

    /// Regression for the release-mode sanitizer hole: `SolveKey::new`
    /// used to only `debug_assert!` the fingerprint was tab/newline-free,
    /// so in release builds a tab-bearing fingerprint flowed straight into
    /// the canonical string and corrupted the persisted design lines (the
    /// tab reads as a field delimiter). The key must now be single-line
    /// and tab-free in every build profile.
    #[test]
    fn hostile_fingerprints_are_escaped_in_all_builds() {
        let hostile = SolveKey::new(8, PpgKind::And, "w=8\tinjected\nline");
        assert!(
            !hostile.canonical().contains(['\t', '\n', '\r']),
            "canonical key must never carry TSV delimiters: {:?}",
            hostile.canonical()
        );
        // The escaping is injective: a fingerprint containing a literal
        // tab and one containing the two-character sequence `\t` must not
        // collide (backslash itself is escaped).
        let tab = SolveKey::new(8, PpgKind::And, "a\tb");
        let literal = SolveKey::new(8, PpgKind::And, "a\\tb");
        assert_ne!(tab, literal, "escaping must not introduce collisions");
        assert_ne!(tab.hash64(), literal.hash64());
        // Round trip through the persistence form stays exact.
        let back = SolveKey::from_canonical(hostile.canonical().to_string());
        assert_eq!(hostile, back);
        // Benign fingerprints keep their historical canonical form.
        assert_eq!(
            SolveKey::new(8, PpgKind::And, "w=8").canonical(),
            "v1;m=8;ppg=AND;w=8"
        );
    }

    #[test]
    fn a_key_names_exactly_its_own_m_and_ppg() {
        let k = SolveKey::new(1, PpgKind::Booth4, "w=8");
        assert!(k.is_for(1, PpgKind::Booth4));
        assert!(
            !k.is_for(10, PpgKind::Booth4),
            "m=1 is not a prefix of m=10"
        );
        assert!(!k.is_for(1, PpgKind::Booth8), "MBE is not a prefix of MBE8");
        assert!(!SolveKey::new(10, PpgKind::Booth8, "w=8").is_for(1, PpgKind::Booth4));
    }

    #[test]
    fn canonical_roundtrips_through_persistence_form() {
        let k = SolveKey::new(16, PpgKind::Booth8, "w=8;l=10");
        let back = SolveKey::from_canonical(k.canonical().to_string());
        assert_eq!(k, back);
        assert_eq!(k.hash64(), back.hash64());
        assert_eq!(k.shard(8), back.shard(8));
    }
}
