//! Property tests for the LP-format parser behind `POST /lp`: any text,
//! arbitrary bytes decoded lossily included, parses to a model or a typed
//! error — never a panic.

use gomil_ilp::Model;
use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments that steer generated text into every section of the grammar,
/// with multi-byte characters among them.
const PIECES: [&str; 28] = [
    "minimize",
    "maximize",
    "subject to",
    "bounds",
    "generals",
    "binaries",
    "end",
    "obj:",
    "c1:",
    "x",
    "y_2",
    "é",
    "∞",
    "\u{a0}",
    "1.5",
    "-2",
    "1e-7",
    "+",
    "-",
    "<=",
    ">=",
    "=",
    "inf",
    "free",
    ":",
    "\\ model: ü",
    " ",
    "\n",
];

proptest! {
    /// Arbitrary bytes, decoded lossily, never panic the parser.
    #[test]
    fn arbitrary_text_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let _ = Model::from_lp_format(&String::from_utf8_lossy(&bytes));
    }

    /// Token soup shaped like LP files never panics the parser.
    #[test]
    fn lp_shaped_text_never_panics(picks in vec(0..PIECES.len(), 0..48)) {
        let text: Vec<&str> = picks.iter().map(|&i| PIECES[i]).collect();
        let _ = Model::from_lp_format(&text.join(" "));
    }
}
