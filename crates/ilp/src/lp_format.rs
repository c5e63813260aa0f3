//! CPLEX LP-format export and import.
//!
//! The exporter ([`Model::to_lp_format`]) has always existed for
//! debugging; the parser ([`Model::from_lp_format`]) closes the loop so
//! external models — notably raw `.lp` uploads to `gomil-httpd`'s
//! `POST /lp` route — can be solved by this crate's branch and bound.
//! The parser accepts the subset of the CPLEX LP grammar the exporter
//! emits (plus the usual keyword spellings): an objective section,
//! `Subject To`, `Bounds`, `Generals`/`Binaries`, `End`.

use crate::model::{Cmp, Model, Sense, VarKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

impl Model {
    /// Renders the model in CPLEX LP format.
    ///
    /// Useful for eyeballing a formulation or feeding it to an external
    /// solver when one is available.
    pub fn to_lp_format(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "\\ model: {}", self.name());
        let _ = writeln!(
            s,
            "{}",
            match self.sense {
                Sense::Minimize => "Minimize",
                Sense::Maximize => "Maximize",
            }
        );
        let _ = write!(s, " obj:");
        for (v, c) in self.objective.iter() {
            let _ = write!(s, " {} {}", fmt_coef(c), self.var_name(v));
        }
        if self.objective.constant() != 0.0 {
            let _ = write!(s, " {}", fmt_coef(self.objective.constant()));
        }
        let _ = writeln!(s, "\nSubject To");
        for c in &self.constraints {
            let _ = write!(s, " {}:", sanitize(&c.name));
            for (v, a) in c.expr.iter() {
                let _ = write!(s, " {} {}", fmt_coef(a), self.var_name(v));
            }
            let _ = writeln!(s, " {} {}", c.cmp, c.rhs);
        }
        let _ = writeln!(s, "Bounds");
        for (i, v) in self.vars.iter().enumerate() {
            let name = &self.vars[i].name;
            let _ = match (v.lb.is_finite(), v.ub.is_finite()) {
                (true, true) => writeln!(s, " {} <= {} <= {}", v.lb, name, v.ub),
                (true, false) => writeln!(s, " {} >= {}", name, v.lb),
                (false, true) => writeln!(s, " {} <= {}", name, v.ub),
                (false, false) => writeln!(s, " {} free", name),
            };
        }
        let generals: Vec<&str> = self
            .vars
            .iter()
            .filter(|v| v.kind == VarKind::Integer)
            .map(|v| v.name.as_str())
            .collect();
        if !generals.is_empty() {
            let _ = writeln!(s, "Generals\n {}", generals.join(" "));
        }
        let binaries: Vec<&str> = self
            .vars
            .iter()
            .filter(|v| v.kind == VarKind::Binary)
            .map(|v| v.name.as_str())
            .collect();
        if !binaries.is_empty() {
            let _ = writeln!(s, "Binaries\n {}", binaries.join(" "));
        }
        let _ = writeln!(s, "End");
        s
    }
}

/// Error from [`Model::from_lp_format`]: what went wrong and on which
/// 1-based input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpParseError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// Human-readable description of the problem.
    pub msg: String,
}

impl fmt::Display for LpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LP parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LpParseError {}

/// One lexical token of an LP file.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Identifier or keyword.
    Word(String),
    /// Number literal, sign included.
    Num(f64),
    Plus,
    Minus,
    Colon,
    Le,
    Ge,
    Eq,
}

/// Sections of an LP file, in the order the grammar allows them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Preamble,
    Objective,
    Constraints,
    Bounds,
    Generals,
    Binaries,
    Done,
}

/// A variable being assembled: LP-format defaults are `[0, +inf)`
/// continuous; `Bounds` and `Generals`/`Binaries` lines override.
struct VarDraft {
    name: String,
    kind: VarKind,
    lb: Option<f64>,
    ub: Option<f64>,
    free: bool,
}

/// Signed linear expression accumulated term by term, repeated
/// variables merged.
#[derive(Default)]
struct ExprDraft {
    terms: BTreeMap<usize, f64>,
    constant: f64,
}

impl ExprDraft {
    /// Adds `v` to the coefficient of variable `var`, or to the constant
    /// when `var` is `None`. A sum that overflows is an error on `lineno`.
    fn add(&mut self, var: Option<usize>, v: f64, lineno: usize) -> Result<(), LpParseError> {
        let slot = match var {
            Some(vi) => self.terms.entry(vi).or_insert(0.0),
            None => &mut self.constant,
        };
        *slot += v;
        if slot.is_finite() {
            Ok(())
        } else {
            Err(err(lineno, "coefficients or constants sum out of range"))
        }
    }
}

struct Parser {
    vars: Vec<VarDraft>,
    index: HashMap<String, usize>,
    name: String,
    sense: Option<Sense>,
    objective: ExprDraft,
    constraints: Vec<(String, ExprDraft, Cmp, f64)>,
    anon_rows: usize,
}

fn err(line: usize, msg: impl Into<String>) -> LpParseError {
    LpParseError {
        line,
        msg: msg.into(),
    }
}

/// Lexes one line into tokens. `+`/`-` immediately followed by a digit
/// or dot fuse into a signed number, which must be finite (`1e400` is
/// refused); `inf`/`infinity` words become infinite [`Tok::Num`]s so
/// bounds like `-inf <= x` work, and only the Bounds section accepts
/// them. The lexer reads bytes, so a non-ASCII character is refused
/// before it could be split mid-sequence.
fn lex_line(text: &str, lineno: usize) -> Result<Vec<Tok>, LpParseError> {
    if let Some(c) = text.chars().find(|c| !c.is_ascii()) {
        return Err(err(
            lineno,
            format!("unexpected character `{c}` (LP files are ASCII)"),
        ));
    }
    let mut toks = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        match c {
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '<' | '>' | '=' => {
                let tok = match c {
                    '<' => Tok::Le,
                    '>' => Tok::Ge,
                    _ => Tok::Eq,
                };
                i += 1;
                if i < bytes.len() && bytes[i] == b'=' && tok != Tok::Eq {
                    i += 1;
                }
                toks.push(tok);
            }
            '+' | '-' => {
                let next = bytes.get(i + 1).map(|&b| b as char);
                if matches!(next, Some(d) if d.is_ascii_digit() || d == '.') {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && is_num_char(bytes[i] as char, bytes.get(i - 1)) {
                        i += 1;
                    }
                    toks.push(Tok::Num(number(&text[start..i], lineno)?));
                } else {
                    toks.push(if c == '+' { Tok::Plus } else { Tok::Minus });
                    i += 1;
                }
            }
            d if d.is_ascii_digit() || d == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len() && is_num_char(bytes[i] as char, bytes.get(i - 1)) {
                    i += 1;
                }
                toks.push(Tok::Num(number(&text[start..i], lineno)?));
            }
            w if w.is_alphanumeric() || w == '_' => {
                let start = i;
                while i < bytes.len() && {
                    let ch = bytes[i] as char;
                    ch.is_alphanumeric() || ch == '_' || ch == '.'
                } {
                    i += 1;
                }
                let word = &text[start..i];
                if word.eq_ignore_ascii_case("inf") || word.eq_ignore_ascii_case("infinity") {
                    toks.push(Tok::Num(f64::INFINITY));
                } else {
                    toks.push(Tok::Word(word.to_string()));
                }
            }
            other => return Err(err(lineno, format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

/// The value of the number literal `lit`, which must be finite.
fn number(lit: &str, lineno: usize) -> Result<f64, LpParseError> {
    match lit.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(err(lineno, format!("number `{lit}` is out of range"))),
        Err(_) => Err(err(lineno, format!("bad number `{lit}`"))),
    }
}

/// Error for an `inf` word outside the Bounds section.
fn inf_outside_bounds(lineno: usize) -> LpParseError {
    err(lineno, "`inf` is allowed only in the Bounds section")
}

/// Whether `c` continues a number literal started earlier. `+`/`-`
/// continue only right after an exponent marker (`1e-7`).
fn is_num_char(c: char, prev: Option<&u8>) -> bool {
    c.is_ascii_digit()
        || c == '.'
        || c == 'e'
        || c == 'E'
        || ((c == '+' || c == '-') && matches!(prev, Some(&b'e') | Some(&b'E')))
}

/// Which section does a line starting with these tokens open, if any?
fn section_of(toks: &[Tok]) -> Option<(Section, usize)> {
    let word = |i: usize| match toks.get(i) {
        Some(Tok::Word(w)) => Some(w.to_ascii_lowercase()),
        _ => None,
    };
    let w0 = word(0)?;
    match w0.as_str() {
        "minimize" | "minimise" | "min" | "maximize" | "maximise" | "max" => {
            Some((Section::Objective, 1))
        }
        "subject" | "such"
            if word(1).as_deref() == Some("to") || word(1).as_deref() == Some("that") =>
        {
            Some((Section::Constraints, 2))
        }
        "st" | "s.t." => Some((Section::Constraints, 1)),
        "bounds" | "bound" => Some((Section::Bounds, 1)),
        "generals" | "general" | "gen" | "integers" | "integer" | "int" => {
            Some((Section::Generals, 1))
        }
        "binaries" | "binary" | "bin" => Some((Section::Binaries, 1)),
        "end" => Some((Section::Done, 1)),
        _ => None,
    }
}

impl Parser {
    fn new() -> Parser {
        Parser {
            vars: Vec::new(),
            index: HashMap::new(),
            name: "lp".to_string(),
            sense: None,
            objective: ExprDraft::default(),
            constraints: Vec::new(),
            anon_rows: 0,
        }
    }

    fn var(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.vars.len();
        self.vars.push(VarDraft {
            name: name.to_string(),
            kind: VarKind::Continuous,
            lb: None,
            ub: None,
            free: false,
        });
        self.index.insert(name.to_string(), i);
        i
    }

    /// Parses a run of `[sign] [number] [name]` terms into `expr`,
    /// starting at `toks[at]`; stops at the first token that cannot
    /// begin a term and returns its position.
    fn parse_terms(
        &mut self,
        toks: &[Tok],
        mut at: usize,
        expr: &mut ExprDraft,
        lineno: usize,
    ) -> Result<usize, LpParseError> {
        loop {
            let mut sign = 1.0;
            let mut saw_sign = false;
            while let Some(tok) = toks.get(at) {
                match tok {
                    Tok::Plus => {
                        saw_sign = true;
                        at += 1;
                    }
                    Tok::Minus => {
                        sign = -sign;
                        saw_sign = true;
                        at += 1;
                    }
                    _ => break,
                }
            }
            match toks.get(at) {
                Some(Tok::Num(v)) if v.is_infinite() => return Err(inf_outside_bounds(lineno)),
                Some(Tok::Num(v)) => {
                    let v = sign * v;
                    at += 1;
                    let var = match toks.get(at) {
                        Some(Tok::Word(name)) => {
                            at += 1;
                            Some(self.var(name))
                        }
                        _ => None,
                    };
                    expr.add(var, v, lineno)?;
                }
                Some(Tok::Word(name)) => {
                    let vi = self.var(name);
                    expr.add(Some(vi), sign, lineno)?;
                    at += 1;
                }
                _ if saw_sign => return Err(err(lineno, "dangling sign in expression")),
                _ => return Ok(at),
            }
        }
    }

    /// Consumes one `Bounds` line (the grammar keeps each bound on its
    /// own line): `l <= x <= u`, `x <= u`, `x >= l`, `l <= x`, `x = v`,
    /// or `x free`.
    fn parse_bound(&mut self, toks: &[Tok], lineno: usize) -> Result<(), LpParseError> {
        let bad = || err(lineno, "malformed bound");
        let num = |t: Option<&Tok>, neg: bool| match t {
            Some(Tok::Num(v)) => Some(if neg { -v } else { *v }),
            _ => None,
        };
        // Optional leading sign before a number (`-inf <= x`).
        let (lead, at) = match toks.first() {
            Some(Tok::Minus) => (num(toks.get(1), true), 2),
            Some(Tok::Plus) => (num(toks.get(1), false), 2),
            Some(Tok::Num(_)) => (num(toks.first(), false), 1),
            _ => (None, 0),
        };
        if let Some(lo) = lead {
            // `l <= x [<= u]` or `l >= x` (upper bound, reversed).
            let ge = match toks.get(at) {
                Some(Tok::Le) => false,
                Some(Tok::Ge) => true,
                _ => return Err(bad()),
            };
            let name = match toks.get(at + 1) {
                Some(Tok::Word(w)) => w.clone(),
                _ => return Err(bad()),
            };
            let vi = self.var(&name);
            if ge {
                self.vars[vi].ub = Some(lo);
                return expect_end(toks, at + 2, lineno);
            }
            self.vars[vi].lb = Some(lo);
            match toks.get(at + 2) {
                None => Ok(()),
                Some(Tok::Le) => {
                    let (hi, skip) = signed_num(toks, at + 3).ok_or_else(bad)?;
                    self.vars[vi].ub = Some(hi);
                    expect_end(toks, at + 3 + skip, lineno)
                }
                _ => Err(bad()),
            }
        } else {
            // `x <= u`, `x >= l`, `x = v`, `x free`.
            let name = match toks.first() {
                Some(Tok::Word(w)) => w.clone(),
                _ => return Err(bad()),
            };
            let vi = self.var(&name);
            match toks.get(1) {
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("free") => {
                    self.vars[vi].free = true;
                    expect_end(toks, 2, lineno)
                }
                Some(op @ (Tok::Le | Tok::Ge | Tok::Eq)) => {
                    let (v, skip) = signed_num(toks, 2).ok_or_else(bad)?;
                    match op {
                        Tok::Le => self.vars[vi].ub = Some(v),
                        Tok::Ge => self.vars[vi].lb = Some(v),
                        _ => {
                            self.vars[vi].lb = Some(v);
                            self.vars[vi].ub = Some(v);
                        }
                    }
                    expect_end(toks, 2 + skip, lineno)
                }
                _ => Err(bad()),
            }
        }
    }

    fn finish(self, lineno: usize) -> Result<Model, LpParseError> {
        let sense = self
            .sense
            .ok_or_else(|| err(lineno, "missing Minimize/Maximize section"))?;
        let mut model = Model::new(self.name.clone());
        let mut handles = Vec::with_capacity(self.vars.len());
        for d in &self.vars {
            let (mut lb, mut ub) = if d.free {
                (f64::NEG_INFINITY, f64::INFINITY)
            } else {
                (d.lb.unwrap_or(0.0), d.ub.unwrap_or(f64::INFINITY))
            };
            if let Some(l) = d.lb {
                lb = l;
            }
            if let Some(u) = d.ub {
                ub = u;
            }
            if d.kind == VarKind::Binary {
                lb = lb.max(0.0);
                ub = ub.min(1.0);
            }
            if lb > ub || lb == f64::INFINITY || ub == f64::NEG_INFINITY {
                return Err(err(
                    lineno,
                    format!("variable `{}` has empty bounds [{lb}, {ub}]", d.name),
                ));
            }
            handles.push(model.add_var(d.name.clone(), d.kind, lb, ub));
        }
        let mut obj = crate::LinExpr::new();
        for (&vi, &c) in &self.objective.terms {
            obj.add_term(handles[vi], c);
        }
        obj.add_constant(self.objective.constant);
        model.set_objective(obj, sense);
        for (name, expr, cmp, rhs) in self.constraints {
            let mut lhs = crate::LinExpr::new();
            for (&vi, &c) in &expr.terms {
                lhs.add_term(handles[vi], c);
            }
            model.add_constraint(name, lhs, cmp, rhs);
        }
        Ok(model)
    }
}

/// A signed number at `toks[at]`, returning the value and how many
/// tokens it consumed.
fn signed_num(toks: &[Tok], at: usize) -> Option<(f64, usize)> {
    match toks.get(at) {
        Some(Tok::Num(v)) => Some((*v, 1)),
        Some(Tok::Minus) => match toks.get(at + 1) {
            Some(Tok::Num(v)) => Some((-v, 2)),
            _ => None,
        },
        Some(Tok::Plus) => match toks.get(at + 1) {
            Some(Tok::Num(v)) => Some((*v, 2)),
            _ => None,
        },
        _ => None,
    }
}

fn expect_end(toks: &[Tok], at: usize, lineno: usize) -> Result<(), LpParseError> {
    if at == toks.len() {
        Ok(())
    } else {
        Err(err(lineno, "trailing tokens"))
    }
}

impl Model {
    /// Parses a CPLEX LP-format model — the inverse of
    /// [`to_lp_format`](Model::to_lp_format).
    ///
    /// Supports the sections the exporter emits (objective, `Subject
    /// To`, `Bounds`, `Generals`, `Binaries`, `End`) with the common
    /// keyword spellings, `\`-comments, and multi-line expressions.
    /// Variables default to continuous over `[0, +inf)` as the format
    /// prescribes. A leading `\ model: NAME` comment (which the
    /// exporter writes) restores the model name.
    ///
    /// # Errors
    ///
    /// Returns [`LpParseError`] with a 1-based line number on malformed
    /// input, including empty variable bounds and a missing objective
    /// section.
    pub fn from_lp_format(text: &str) -> Result<Model, LpParseError> {
        let mut p = Parser::new();
        let mut section = Section::Preamble;
        // Errors past the last line name it; empty text has a line 1.
        let mut last_line = 1;
        // Constraint accumulation state: label, expression so far, and
        // the relation once seen (an LP row may span lines).
        let mut row_label: Option<String> = None;
        let mut row_expr = ExprDraft::default();
        let mut row_cmp: Option<Cmp> = None;

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            last_line = lineno;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('\\') {
                if let Some(name) = comment.trim().strip_prefix("model:") {
                    p.name = name.trim().to_string();
                }
                continue;
            }
            let toks = lex_line(line, lineno)?;
            let mut at = 0;
            if let Some((next, skip)) = section_of(&toks) {
                if next == Section::Objective {
                    let word = match &toks[0] {
                        Tok::Word(w) => w.to_ascii_lowercase(),
                        _ => unreachable!("objective keyword is a word"),
                    };
                    p.sense = Some(if word.starts_with("min") {
                        Sense::Minimize
                    } else {
                        Sense::Maximize
                    });
                } else if p.sense.is_none() {
                    return Err(err(lineno, "missing Minimize/Maximize section"));
                }
                if next == Section::Constraints && row_cmp.is_some() {
                    return Err(err(lineno, "constraint missing right-hand side"));
                }
                section = next;
                at = skip;
                if at == toks.len() {
                    continue;
                }
            }
            match section {
                Section::Preamble => {
                    return Err(err(lineno, "expected Minimize or Maximize"));
                }
                Section::Objective => {
                    // Optional `label:` prefix, then terms.
                    if matches!(toks.get(at), Some(Tok::Word(_)))
                        && matches!(toks.get(at + 1), Some(Tok::Colon))
                    {
                        at += 2;
                    }
                    // Move the objective out while `parse_terms` holds
                    // `&mut p` for variable interning, then put it back.
                    let mut obj = std::mem::take(&mut p.objective);
                    let end = p.parse_terms(&toks, at, &mut obj, lineno)?;
                    p.objective = obj;
                    expect_end(&toks, end, lineno)?;
                }
                Section::Constraints => {
                    if row_cmp.is_none()
                        && row_expr.terms.is_empty()
                        && row_expr.constant == 0.0
                        && matches!(toks.get(at), Some(Tok::Word(_)))
                        && matches!(toks.get(at + 1), Some(Tok::Colon))
                    {
                        if let Some(Tok::Word(w)) = toks.get(at) {
                            row_label = Some(w.clone());
                        }
                        at += 2;
                    }
                    while at < toks.len() {
                        if row_cmp.is_none() {
                            at = p.parse_terms(&toks, at, &mut row_expr, lineno)?;
                            match toks.get(at) {
                                None => break,
                                Some(Tok::Le) => row_cmp = Some(Cmp::Le),
                                Some(Tok::Ge) => row_cmp = Some(Cmp::Ge),
                                Some(Tok::Eq) => row_cmp = Some(Cmp::Eq),
                                Some(_) => return Err(err(lineno, "expected <=, >= or =")),
                            }
                            at += 1;
                        } else {
                            let (rhs, skip) = signed_num(&toks, at)
                                .ok_or_else(|| err(lineno, "expected right-hand side"))?;
                            if rhs.is_infinite() {
                                return Err(inf_outside_bounds(lineno));
                            }
                            // The left-hand side's constant folds into the
                            // right-hand side.
                            let rhs = rhs - row_expr.constant;
                            if !rhs.is_finite() {
                                return Err(err(lineno, "right-hand side out of range"));
                            }
                            at += skip;
                            let label = row_label.take().unwrap_or_else(|| {
                                p.anon_rows += 1;
                                format!("r{}", p.anon_rows)
                            });
                            let expr = std::mem::take(&mut row_expr);
                            let cmp = row_cmp.take().expect("relation recorded");
                            p.constraints.push((label, expr, cmp, rhs));
                        }
                    }
                }
                Section::Bounds => {
                    p.parse_bound(&toks[at..], lineno)?;
                }
                Section::Generals | Section::Binaries => {
                    let kind = if section == Section::Generals {
                        VarKind::Integer
                    } else {
                        VarKind::Binary
                    };
                    for tok in &toks[at..] {
                        match tok {
                            Tok::Word(w) => {
                                let name = w.clone();
                                let vi = p.var(&name);
                                p.vars[vi].kind = kind;
                            }
                            _ => return Err(err(lineno, "expected variable name")),
                        }
                    }
                }
                Section::Done => {
                    return Err(err(lineno, "content after End"));
                }
            }
        }
        if row_cmp.is_some() || !row_expr.terms.is_empty() {
            return Err(err(last_line, "unterminated constraint"));
        }
        p.finish(last_line)
    }
}

fn fmt_coef(c: f64) -> String {
    if c >= 0.0 {
        format!("+{c}")
    } else {
        format!("{c}")
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cmp as _Cmp;

    #[test]
    fn export_contains_all_sections() {
        let mut m = Model::new("demo");
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 9.0);
        let z = m.add_continuous("z", 0.0, f64::INFINITY);
        m.add_constraint("row a", x + y + z, _Cmp::Le, 5.0);
        m.set_objective(x + 2.0 * y, Sense::Maximize);
        let lp = m.to_lp_format();
        assert!(lp.contains("Maximize"));
        assert!(lp.contains("row_a:"));
        assert!(lp.contains("Generals"));
        assert!(lp.contains("Binaries"));
        assert!(lp.contains("z >= 0"));
        assert!(lp.ends_with("End\n"));
    }

    /// The parser inverts the exporter exactly: export → parse →
    /// export reproduces the identical string (names, order, bounds).
    #[test]
    fn export_parse_export_round_trips() {
        let mut m = Model::new("rt");
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 9.0);
        let z = m.add_continuous("z", 0.0, f64::INFINITY);
        let w = m.add_continuous("w", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("cap", x + y + z, _Cmp::Le, 5.0);
        m.add_constraint("floor", 2.0 * y - z + w, _Cmp::Ge, -1.5);
        m.add_constraint("tie", x + w, _Cmp::Eq, 0.25);
        m.set_objective(x + 2.0 * y - 0.5 * z, Sense::Maximize);
        let lp = m.to_lp_format();
        let parsed = Model::from_lp_format(&lp).expect("parses its own export");
        assert_eq!(parsed.to_lp_format(), lp);
    }

    /// A parsed model solves to the objective the formulation implies.
    #[test]
    fn parsed_model_solves() {
        let text = "\\ model: knap\n\
                    Maximize\n obj: +3 a +4 b +2 c\n\
                    Subject To\n weight: +2 a +3 b +1 c <= 4\n\
                    Bounds\n 0 <= a <= 1\n 0 <= b <= 1\n 0 <= c <= 1\n\
                    Generals\n a b c\nEnd\n";
        let m = Model::from_lp_format(text).expect("valid LP text");
        assert_eq!(m.name(), "knap");
        let sol = m.solve().expect("solvable");
        assert!(
            (sol.objective() - 6.0).abs() < 1e-6,
            "b + c: {}",
            sol.objective()
        );
    }

    /// Keyword spellings, multi-line rows, free vars, and constants on
    /// the left-hand side all parse.
    #[test]
    fn parser_accepts_common_grammar_variants() {
        let text = "Minimize\n cost: x + 2 y\n\
                    st\n r1: x\n + y\n >= 2\n r2: x - y + 1 <= 4\n\
                    Bounds\n x free\n -1 <= y <= 10\nEnd";
        let m = Model::from_lp_format(text).expect("valid LP text");
        let lp = m.to_lp_format();
        assert!(lp.contains("x free"));
        assert!(lp.contains("-1 <= y <= 10"));
        // The LHS constant of r2 folds into the RHS: x - y <= 3.
        assert!(lp.contains("r2: +1 x -1 y <= 3"));
        let sol = m.solve().expect("solvable");
        // r1 and r2 both bind: x = 2.5, y = -0.5, objective 1.5.
        assert!(
            (sol.objective() - 1.5).abs() < 1e-6,
            "objective {}",
            sol.objective()
        );
    }

    /// Malformed text is refused with a message and the line it is on.
    /// Every number must be finite, and `inf` is a bound, never a
    /// coefficient, constant or right-hand side.
    #[test]
    fn parser_rejects_malformed_input() {
        for (text, want, line) in [
            ("", "Minimize/Maximize", 1),
            ("Subject To\n r: x <= 1\nEnd", "Minimize/Maximize", 1),
            (
                "Minimize\n obj: x\nSubject To\n r: x <=\nEnd",
                "unterminated",
                5,
            ),
            (
                "Minimize\n obj: x\nBounds\n 3 <= x <= 1\nEnd",
                "empty bounds",
                5,
            ),
            (
                "Minimize\n obj: x\nBounds\n x >= inf\nEnd",
                "empty bounds",
                5,
            ),
            ("Minimize\n obj: x ?\nEnd", "unexpected character", 2),
            ("Minimize\n obj: é\nEnd", "unexpected character `é`", 2),
            (
                "Minimize\n obj: x\nSubject To\n c: 1e400 x >= 1\nEnd",
                "number `1e400` is out of range",
                4,
            ),
            (
                "Minimize\n obj: x + y\nSubject To\n c: inf x + y >= 1\nGenerals\n x y\nEnd",
                "only in the Bounds section",
                4,
            ),
            (
                "Minimize\n obj: x\nSubject To\n c: x + inf <= inf\nEnd",
                "only in the Bounds section",
                4,
            ),
            (
                "Minimize\n obj: x\nSubject To\n c: x >= inf\nEnd",
                "only in the Bounds section",
                4,
            ),
            (
                "Minimize\n obj: inf x\nSubject To\n c: x >= 1\nEnd",
                "only in the Bounds section",
                2,
            ),
            (
                "Minimize\n obj: x\nSubject To\n c: 1e308 x + 1e308 x >= 1\nEnd",
                "out of range",
                4,
            ),
            (
                "Minimize\n obj: x\nSubject To\n c: x - 1e308 <= 1e308\nEnd",
                "out of range",
                4,
            ),
        ] {
            let e = Model::from_lp_format(text).expect_err(text);
            assert!(e.msg.contains(want), "`{}` → {}", text, e);
            assert_eq!(e.line, line, "`{}` → {}", text, e);
        }
    }

    /// `inf` words stay legal in the Bounds section.
    #[test]
    fn bounds_accept_infinite_words() {
        let text = "Minimize\n obj: x + y + z\nSubject To\n r: x + y + z >= 1\n\
                    Bounds\n -inf <= x\n y <= inf\n z free\n -infinity <= x <= 2\nEnd";
        let lp = Model::from_lp_format(text)
            .expect("valid LP text")
            .to_lp_format();
        assert!(lp.contains("x <= 2"), "{lp}");
        assert!(lp.contains("y >= 0"), "{lp}");
        assert!(lp.contains("z free"), "{lp}");
    }
}
