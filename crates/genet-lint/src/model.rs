//! The brace-matched structural model over the token stream: delimiter
//! matching, `#[cfg(test)]` / `#[test]` region marking, `fn` item and
//! closure extraction (with a locals-vs-captures split per closure), a
//! coarse `let`/param type table, parallel-entry call sites, and the
//! `genet-lint: allow(...)` annotation list.
//!
//! This is the layer that turns "a line mentions X" into "this *expression*,
//! inside this closure, handed to this parallel entry point, does X" — the
//! capability every scope-aware rule is built on. It is still heuristic (no
//! name resolution, no type inference); each rule documents its blind spots
//! in DESIGN.md §13.

use crate::lexer::{lex, Comment, Delim, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Parsed `genet-lint: allow(<rule>) <justification>` annotation.
#[derive(Debug, Clone)]
pub struct AllowAnnotation {
    /// Line the annotation comment sits on.
    pub comment_line: usize,
    /// Line the annotation applies to (same line for trailing comments,
    /// next code line for whole-line comments).
    pub target_line: usize,
    pub rule: String,
    pub justification: String,
    /// Set by the scanner when the annotation suppresses a diagnostic.
    pub used: bool,
}

/// One `fn` item: name, signature start, and body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Index of the `fn` keyword token.
    pub kw: usize,
    /// Body `{`/`}` token indices (`None` for bodyless trait decls).
    pub body: Option<(usize, usize)>,
}

/// One closure expression.
#[derive(Debug, Clone)]
pub struct ClosureItem {
    /// Index of the opening `|` (or `||`) token.
    pub start: usize,
    /// Body token range, inclusive.
    pub body: (usize, usize),
    /// Identifiers bound inside the closure: params, `let` bindings and
    /// `for` patterns (type names in patterns are over-collected, which can
    /// only under-report captures of same-named values — a documented
    /// blind spot).
    pub locals: BTreeSet<String>,
    /// Name of the parallel entry point this closure is an argument of
    /// (one of [`PAR_ENTRY_POINTS`]), if any.
    pub par_entry: Option<&'static str>,
}

/// The full structural model of one source file.
pub struct FileModel {
    pub toks: Vec<Tok>,
    /// For each Open/Close token index, the index of its partner
    /// (`usize::MAX` when unmatched).
    pub match_of: Vec<usize>,
    /// 1-based line → any non-comment token on it.
    pub line_has_code: Vec<bool>,
    /// 1-based line → inside a `#[cfg(test)]` region or `#[test]` item.
    pub test_lines: Vec<bool>,
    pub fns: Vec<FnItem>,
    pub closures: Vec<ClosureItem>,
    /// Coarse `name -> declared type text` table from `let x: T` bindings
    /// and fn params (file-wide, last write wins).
    pub let_types: BTreeMap<String, String>,
    /// Token ranges (open..=close) of macro invocation groups (`foo!(...)`).
    pub macro_ranges: Vec<(usize, usize)>,
    pub annotations: Vec<AllowAnnotation>,
}

/// Parallel entry points whose closure arguments run on worker threads.
pub const PAR_ENTRY_POINTS: [&str; 6] = [
    "par_map",
    "par_map_profiled",
    "par_map_sharded",
    "par_map_mut_profiled",
    "par_map_with",
    "spawn",
];

/// Builds the model for one file.
pub fn build(source: &str) -> FileModel {
    let lexed = lex(source);
    let toks = lexed.toks;
    let match_of = match_delims(&toks);

    let nlines = lexed.line_count.max(1);
    let mut line_has_code = vec![false; nlines + 1];
    for t in &toks {
        if t.line <= nlines {
            line_has_code[t.line] = true;
        }
    }

    let test_lines = mark_test_lines(&toks, &match_of, nlines);
    let fns = extract_fns(&toks, &match_of);
    let macro_ranges = extract_macro_ranges(&toks, &match_of);
    let mut closures = extract_closures(&toks, &match_of);
    mark_par_closures(&toks, &match_of, &mut closures);
    let let_types = collect_let_types(&toks, &match_of, &fns);
    let annotations = parse_annotations(&lexed.comments, &line_has_code);

    FileModel {
        toks,
        match_of,
        line_has_code,
        test_lines,
        fns,
        closures,
        let_types,
        macro_ranges,
        annotations,
    }
}

impl FileModel {
    /// Is the token at `idx` inside a test region?
    pub fn in_test(&self, idx: usize) -> bool {
        let line = self.toks[idx].line;
        line < self.test_lines.len() && self.test_lines[line]
    }

    /// Innermost `fn` whose body contains `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < idx && idx < c))
            .min_by_key(|f| {
                let (o, c) = f.body.unwrap_or((0, usize::MAX));
                c - o
            })
    }

    /// Innermost closure whose body contains `idx`.
    pub fn enclosing_closure(&self, idx: usize) -> Option<&ClosureItem> {
        self.closures
            .iter()
            .filter(|c| c.body.0 <= idx && idx <= c.body.1)
            .min_by_key(|c| c.body.1 - c.body.0)
    }

    /// Is `idx` inside a macro invocation's argument group or an attribute?
    pub fn in_macro(&self, idx: usize) -> bool {
        self.macro_ranges.iter().any(|&(o, c)| o < idx && idx < c)
    }

    /// Is the identifier at `idx` a local of *any* closure whose body
    /// contains it (innermost or an enclosing one)? Used to decide
    /// captured-ness: an ident that is no closure's local is captured from
    /// the enclosing fn.
    pub fn is_closure_local(&self, idx: usize) -> bool {
        let name = &self.toks[idx].text;
        self.closures
            .iter()
            .any(|c| c.body.0 <= idx && idx <= c.body.1 && c.locals.contains(name))
    }

    /// The statement token range containing `idx` (bounded by `;` and
    /// brace edges at the same nesting level), inclusive.
    pub fn stmt_range(&self, idx: usize) -> (usize, usize) {
        let mut lo = idx;
        while lo > 0 {
            let j = lo - 1;
            match self.toks[j].kind {
                // A close brace ends the *previous* statement or block;
                // only paren/bracket groups belong to this statement.
                TokKind::Close(Delim::Brace) => break,
                TokKind::Close(_) => {
                    let open = self.match_of[j];
                    if open == usize::MAX {
                        break;
                    }
                    lo = open;
                }
                TokKind::Open(Delim::Brace) => break,
                TokKind::Punct if self.toks[j].text == ";" => break,
                _ => lo = j,
            }
        }
        let mut hi = idx;
        while hi + 1 < self.toks.len() {
            let j = hi + 1;
            match self.toks[j].kind {
                TokKind::Open(_) => {
                    let close = self.match_of[j];
                    if close == usize::MAX {
                        break;
                    }
                    hi = close;
                }
                TokKind::Close(_) => break,
                TokKind::Punct if self.toks[j].text == ";" => break,
                _ => hi = j,
            }
        }
        (lo, hi)
    }

    /// Spans (exclusive of the brace) of `if`/`while`/`match` heads:
    /// everything between the keyword and its block.
    pub fn condition_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, t) in self.toks.iter().enumerate() {
            if !(t.is_ident("if") || t.is_ident("while") || t.is_ident("match")) {
                continue;
            }
            let mut j = i + 1;
            while j < self.toks.len() {
                match self.toks[j].kind {
                    TokKind::Open(Delim::Brace) => {
                        out.push((i, j));
                        break;
                    }
                    TokKind::Open(_) => {
                        let close = self.match_of[j];
                        if close == usize::MAX {
                            break;
                        }
                        j = close + 1;
                    }
                    TokKind::Close(_) => break,
                    TokKind::Punct if self.toks[j].text == ";" => break,
                    _ => j += 1,
                }
            }
        }
        out
    }
}

/// Pairs up delimiter tokens with a stack; unmatched ends get `usize::MAX`.
fn match_delims(toks: &[Tok]) -> Vec<usize> {
    let mut match_of = vec![usize::MAX; toks.len()];
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open(d) => stack.push((d, i)),
            TokKind::Close(d) => {
                // Pop until a matching open (tolerates unbalanced input).
                while let Some((od, oi)) = stack.pop() {
                    if od == d {
                        match_of[oi] = i;
                        match_of[i] = oi;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    match_of
}

/// Marks every line covered by a `#[cfg(test)]` item/region or a `#[test]`
/// function.
fn mark_test_lines(toks: &[Tok], match_of: &[usize], nlines: usize) -> Vec<bool> {
    let mut test = vec![false; nlines + 1];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct("#")
            && matches!(
                toks.get(i + 1).map(|t| t.kind),
                Some(TokKind::Open(Delim::Bracket))
            ))
        {
            i += 1;
            continue;
        }
        let attr_open = i + 1;
        let attr_close = match_of[attr_open];
        if attr_close == usize::MAX {
            i += 1;
            continue;
        }
        let inner = &toks[attr_open + 1..attr_close];
        let is_cfg_test = inner.first().is_some_and(|t| t.is_ident("cfg"))
            && inner.iter().any(|t| t.is_ident("test"))
            && !inner.iter().any(|t| t.is_ident("not"));
        let is_test_attr = inner.len() == 1 && inner[0].is_ident("test");
        if !(is_cfg_test || is_test_attr) {
            i = attr_close + 1;
            continue;
        }
        // Find the attached item's extent: skip further attributes, then
        // run to the first `;` or brace block at this level.
        let mut j = attr_close + 1;
        let mut end_line = toks[attr_close].line;
        while j < toks.len() {
            if toks[j].is_punct("#")
                && matches!(
                    toks.get(j + 1).map(|t| t.kind),
                    Some(TokKind::Open(Delim::Bracket))
                )
            {
                let c = match_of[j + 1];
                if c == usize::MAX {
                    break;
                }
                j = c + 1;
                continue;
            }
            match toks[j].kind {
                TokKind::Open(Delim::Brace) => {
                    let c = match_of[j];
                    if c != usize::MAX {
                        end_line = toks[c].line;
                    }
                    break;
                }
                TokKind::Open(_) => {
                    let c = match_of[j];
                    if c == usize::MAX {
                        break;
                    }
                    j = c + 1;
                }
                TokKind::Close(_) => break,
                TokKind::Punct if toks[j].text == ";" => {
                    end_line = toks[j].line;
                    break;
                }
                _ => j += 1,
            }
        }
        for line in toks[i].line..=end_line.min(nlines) {
            test[line] = true;
        }
        i = attr_close + 1;
    }
    test
}

/// Extracts `fn` items (name + body range). `fn` in function-pointer types
/// (`fn(usize) -> T`) is skipped because no name ident follows.
fn extract_fns(toks: &[Tok], match_of: &[usize]) -> Vec<FnItem> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let name = name_tok.text.clone();
        // Scan for the body `{`, jumping over groups (params, where-clause
        // bounds); a `;` first means a bodyless declaration.
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Open(Delim::Brace) => {
                    let c = match_of[j];
                    if c != usize::MAX {
                        body = Some((j, c));
                    }
                    break;
                }
                TokKind::Open(_) => {
                    let c = match_of[j];
                    if c == usize::MAX {
                        break;
                    }
                    j = c + 1;
                }
                TokKind::Close(_) => break,
                TokKind::Punct if toks[j].text == ";" => break,
                _ => j += 1,
            }
        }
        out.push(FnItem { name, kw: i, body });
    }
    out
}

/// Token ranges of macro invocation argument groups (`name!(…)`, `name![…]`,
/// `name!{…}`) and attribute groups (`#[…]`). Both can contain `=` that is
/// not an assignment (named macro args, `cfg(feature = "x")`), so mutation
/// detection treats them as opaque.
fn extract_macro_ranges(toks: &[Tok], match_of: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && matches!(toks.get(i + 2).map(|t| t.kind), Some(TokKind::Open(_)))
        {
            let c = match_of[i + 2];
            if c != usize::MAX {
                out.push((i + 2, c));
            }
        }
        if toks[i].is_punct("#")
            && matches!(
                toks.get(i + 1).map(|t| t.kind),
                Some(TokKind::Open(Delim::Bracket))
            )
        {
            let c = match_of[i + 1];
            if c != usize::MAX {
                out.push((i + 1, c));
            }
        }
    }
    out
}

/// True when the token before `i` puts a `|` in closure (not bit-or)
/// position.
fn closure_position(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = &toks[i - 1];
    match p.kind {
        TokKind::Open(_) => true,
        TokKind::Punct => matches!(p.text.as_str(), "," | "=" | "=>" | ":" | ";" | "->"),
        TokKind::Ident => matches!(p.text.as_str(), "move" | "return" | "else" | "in"),
        _ => false,
    }
}

/// Extracts closures: `|params| body` and `|| body`.
fn extract_closures(toks: &[Tok], match_of: &[usize]) -> Vec<ClosureItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct || !(t.text == "|" || t.text == "||") {
            continue;
        }
        if !closure_position(toks, i) {
            continue;
        }
        let mut locals = BTreeSet::new();
        let body_first = if t.text == "||" {
            i + 1
        } else {
            // Find the closing `|` at this level; param idents become locals.
            let mut j = i + 1;
            let mut close = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct if toks[j].text == "|" => {
                        close = Some(j);
                        break;
                    }
                    TokKind::Punct if toks[j].text == ";" => break,
                    TokKind::Open(_) => {
                        let c = match_of[j];
                        if c == usize::MAX {
                            break;
                        }
                        for k in j..=c {
                            if toks[k].kind == TokKind::Ident {
                                locals.insert(toks[k].text.clone());
                            }
                        }
                        j = c + 1;
                    }
                    TokKind::Close(_) => break,
                    TokKind::Ident => {
                        locals.insert(toks[j].text.clone());
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            match close {
                Some(c) => c + 1,
                None => continue, // not a closure after all
            }
        };
        if body_first >= toks.len() {
            continue;
        }
        // Body extent: a brace group, or the expression up to a `,`/`;`/
        // closing delimiter at this level.
        let body = if toks[body_first].kind == TokKind::Open(Delim::Brace) {
            let c = match_of[body_first];
            if c == usize::MAX {
                continue;
            }
            (body_first, c)
        } else {
            let mut j = body_first;
            let mut last = body_first;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Open(_) => {
                        let c = match_of[j];
                        if c == usize::MAX {
                            break;
                        }
                        last = c;
                        j = c + 1;
                    }
                    TokKind::Close(_) => break,
                    TokKind::Punct if toks[j].text == "," || toks[j].text == ";" => break,
                    _ => {
                        last = j;
                        j += 1;
                    }
                }
            }
            (body_first, last)
        };
        // `let` bindings and `for` patterns inside the body are locals too.
        let mut j = body.0;
        while j <= body.1 {
            if toks[j].is_ident("let") {
                let mut k = j + 1;
                while k <= body.1 {
                    match toks[k].kind {
                        TokKind::Ident => {
                            locals.insert(toks[k].text.clone());
                            k += 1;
                        }
                        TokKind::Punct if toks[k].text == "=" || toks[k].text == ";" => break,
                        TokKind::Open(_) => {
                            let c = match_of[k];
                            if c == usize::MAX || c > body.1 {
                                break;
                            }
                            for m in k..=c {
                                if toks[m].kind == TokKind::Ident {
                                    locals.insert(toks[m].text.clone());
                                }
                            }
                            k = c + 1;
                        }
                        _ => k += 1,
                    }
                }
            } else if toks[j].is_ident("for") {
                let mut k = j + 1;
                while k <= body.1 && !toks[k].is_ident("in") {
                    if toks[k].kind == TokKind::Ident {
                        locals.insert(toks[k].text.clone());
                    }
                    k += 1;
                }
            }
            j += 1;
        }
        out.push(ClosureItem {
            start: i,
            body,
            locals,
            par_entry: None,
        });
    }
    out
}

/// Tags closures that sit (anywhere) inside the argument list of a
/// parallel entry-point call.
fn mark_par_closures(toks: &[Tok], match_of: &[usize], closures: &mut [ClosureItem]) {
    for i in 0..toks.len() {
        let Some(entry) = PAR_ENTRY_POINTS
            .iter()
            .find(|e| toks[i].is_ident(e))
            .copied()
        else {
            continue;
        };
        if !matches!(
            toks.get(i + 1).map(|t| t.kind),
            Some(TokKind::Open(Delim::Paren))
        ) {
            continue;
        }
        // Skip the *definition* (`fn par_map(` …).
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        let close = match_of[i + 1];
        if close == usize::MAX {
            continue;
        }
        for cl in closures.iter_mut() {
            if cl.start > i + 1 && cl.start < close {
                cl.par_entry = Some(entry);
            }
        }
    }
}

/// Collects `let name: Type = …` bindings and typed fn params into a
/// file-wide `name -> type text` table.
fn collect_let_types(toks: &[Tok], match_of: &[usize], fns: &[FnItem]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // let bindings
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
            continue;
        }
        let mut ty = String::new();
        let mut k = j + 2;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct if toks[k].text == "=" || toks[k].text == ";" => break,
                TokKind::Open(_) => {
                    let c = match_of[k];
                    if c == usize::MAX {
                        break;
                    }
                    for m in k..=c {
                        ty.push_str(&toks[m].text);
                        ty.push(' ');
                    }
                    k = c + 1;
                }
                TokKind::Close(_) => break,
                _ => {
                    ty.push_str(&toks[k].text);
                    ty.push(' ');
                    k += 1;
                }
            }
        }
        out.insert(name_tok.text.clone(), ty);
    }
    // fn params: name `: Type` segments of the signature's paren group
    for f in fns {
        let mut open = None;
        let limit = f.body.map_or(toks.len(), |(o, _)| o);
        for j in f.kw + 1..limit {
            if toks[j].kind == TokKind::Open(Delim::Paren) {
                open = Some(j);
                break;
            }
        }
        let Some(o) = open else { continue };
        let c = match_of[o];
        if c == usize::MAX {
            continue;
        }
        let mut j = o + 1;
        while j < c {
            // Segment start: ident `:` type-tokens (to the `,` at depth 0).
            if toks[j].kind == TokKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                let name = toks[j].text.clone();
                let mut ty = String::new();
                let mut k = j + 2;
                while k < c {
                    match toks[k].kind {
                        TokKind::Punct if toks[k].text == "," => break,
                        TokKind::Open(_) => {
                            let cc = match_of[k];
                            if cc == usize::MAX || cc > c {
                                break;
                            }
                            for m in k..=cc {
                                ty.push_str(&toks[m].text);
                                ty.push(' ');
                            }
                            k = cc + 1;
                        }
                        _ => {
                            ty.push_str(&toks[k].text);
                            ty.push(' ');
                            k += 1;
                        }
                    }
                }
                out.insert(name, ty);
                j = k + 1;
            } else {
                j += 1;
            }
        }
    }
    out
}

/// Extracts `genet-lint: allow(rule) justification` annotations and computes
/// the code line each one targets.
fn parse_annotations(comments: &[Comment], line_has_code: &[bool]) -> Vec<AllowAnnotation> {
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("genet-lint:") else {
            continue;
        };
        let rest = c.text[pos + "genet-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justification = rest[close + 1..].trim().to_string();
        let target_line = if line_has_code.get(c.line).copied().unwrap_or(false) {
            c.line
        } else {
            (c.line + 1..line_has_code.len())
                .find(|&l| line_has_code[l])
                .unwrap_or(c.line)
        };
        out.push(AllowAnnotation {
            comment_line: c.line,
            target_line,
            rule,
            justification,
            used: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.len(); }\n}\nfn after() {}\n";
        let m = build(src);
        assert!(!m.test_lines[1]);
        assert!(m.test_lines[2] && m.test_lines[3] && m.test_lines[4] && m.test_lines[5]);
        assert!(!m.test_lines[6]);
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn lib() {}\n";
        let m = build(src);
        assert!(m.test_lines[1] && m.test_lines[2] && m.test_lines[3] && m.test_lines[4]);
        assert!(!m.test_lines[5]);
    }

    #[test]
    fn out_of_line_test_mod() {
        let src = "#[cfg(test)] mod t;\nfn lib() {}\n";
        let m = build(src);
        assert!(m.test_lines[1]);
        assert!(!m.test_lines[2]);
    }

    #[test]
    fn fns_and_bodies_extracted() {
        let src = "fn a(x: usize) -> usize { x + 1 }\nfn decl();\nfn b<T: Fn(usize) -> usize>(f: T) { f(1); }\n";
        let m = build(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "decl", "b"]);
        assert!(m.fns[0].body.is_some());
        assert!(m.fns[1].body.is_none());
        assert!(m.fns[2].body.is_some());
    }

    #[test]
    fn closures_extracted_with_locals() {
        let src = "fn f() { g(3, |i| { let s = i * 2; s }); let c = || 1; }\n";
        let m = build(src);
        assert_eq!(m.closures.len(), 2);
        assert!(m.closures[0].locals.contains("i"));
        assert!(m.closures[0].locals.contains("s"));
    }

    #[test]
    fn bitor_is_not_a_closure() {
        let src = "fn f(a: u8, b: u8) -> u8 { a | b }\n";
        let m = build(src);
        assert!(m.closures.is_empty());
    }

    #[test]
    fn par_entry_marks_closures() {
        let src = "fn f() { par_map(10, |i| i * 2); other(|j| j); }\n";
        let m = build(src);
        assert_eq!(m.closures.len(), 2);
        assert_eq!(m.closures[0].par_entry, Some("par_map"));
        assert_eq!(m.closures[1].par_entry, None);
    }

    #[test]
    fn let_types_collected() {
        let src =
            "fn f(m: &Mutex<Vec<u32>>) { let c: RefCell<u8> = RefCell::new(0); let x = 1; }\n";
        let m = build(src);
        assert!(m.let_types.get("m").is_some_and(|t| t.contains("Mutex")));
        assert!(m.let_types.get("c").is_some_and(|t| t.contains("RefCell")));
        assert!(!m.let_types.contains_key("x"));
    }

    #[test]
    fn annotations_trailing_and_preceding() {
        let src = "fn f() { m.len(); } // genet-lint: allow(panic-in-library) startup only\n// genet-lint: allow(unordered-iteration) order never escapes\nfn g() {}\n";
        let m = build(src);
        assert_eq!(m.annotations.len(), 2);
        assert_eq!(m.annotations[0].target_line, 1);
        assert_eq!(m.annotations[0].rule, "panic-in-library");
        assert!(m.annotations[0].justification.contains("startup"));
        assert_eq!(m.annotations[1].target_line, 3);
    }

    #[test]
    fn doc_comments_never_carry_annotations() {
        let src = "/// Write `// genet-lint: allow(some-rule) why` above the line.\n//! Docs may mention genet-lint: allow(other-rule) too.\nfn f() {}\n";
        let m = build(src);
        assert!(m.annotations.is_empty(), "{:?}", m.annotations);
    }

    #[test]
    fn condition_spans_cover_if_heads() {
        let src = "fn f(n: usize) { if n > compute(n) { g(); } }\n";
        let m = build(src);
        let spans = m.condition_spans();
        assert_eq!(spans.len(), 1);
        let (lo, hi) = spans[0];
        let texts: Vec<&str> = m.toks[lo..hi].iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"compute"));
    }

    #[test]
    fn stmt_range_stops_at_semicolons() {
        let src = "fn f() { let a = 1; let b = g(a) <= 1; h(b); }\n";
        let m = build(src);
        let g_idx = m.toks.iter().position(|t| t.is_ident("g")).unwrap();
        let (lo, hi) = m.stmt_range(g_idx);
        let texts: Vec<&str> = m.toks[lo..=hi].iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"<="));
        assert!(!texts.contains(&"a") || texts.iter().filter(|t| **t == "let").count() == 1);
        assert!(!texts.contains(&"h"));
    }
}
