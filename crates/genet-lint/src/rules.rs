//! The determinism & numeric-safety rules, now scope-aware: every scanner
//! walks the brace-matched token tree from [`crate::model`] instead of
//! matching line text. Each rule documents the experiment invariant it
//! protects; the full specs (and the capture-analysis model's blind spots)
//! live in DESIGN.md §13.

use crate::lexer::{Delim, Tok, TokKind};
use crate::model::FileModel;

/// Stable rule identifiers (the names used in `allow(...)` annotations and
/// per-crate config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in result-path code: iteration order is
    /// randomized per-process, which silently breaks seeded reproducibility.
    UnorderedIteration,
    /// `Instant::now`/`SystemTime::now` reads outside telemetry timing:
    /// wall-clock must never influence experiment results.
    WallClock,
    /// RNG constructed from ambient entropy instead of an explicit seed.
    UnseededRng,
    /// `as <int>` applied to a float expression without an explicit
    /// rounding step: silent truncation must be a deliberate, visible act.
    TruncatingCast,
    /// `.unwrap()`/`.expect(`/`panic!` in library (non-test) code.
    PanicInLibrary,
    /// Cargo.toml dependency that does not resolve inside the repository.
    DependencyHygiene,
    /// A closure handed to a `genet-par` entry point that mutates captured
    /// state or touches interior-mutability types: per-worker effects make
    /// results depend on the schedule.
    ParSharedMutableCapture,
    /// Float accumulation (`+=`, `.sum()`, `.fold(`) over captured data
    /// inside a parallel closure: float addition is non-associative, so
    /// reduction order must be pinned.
    UnorderedFloatReduction,
    /// Result-path control flow conditioned on the worker count or the
    /// `GENET_THREADS` env var outside the sanctioned shard-shaping
    /// helpers: thread count must stay a pure perf knob.
    ThreadCountBranching,
    /// `std::env::var` in result-path code outside `genet_telemetry::paths`
    /// and the threads parser: ambient environment must not steer results.
    EnvReadInResultPath,
    /// Unstable sorts keyed on floats, or `partial_cmp().unwrap()`
    /// comparators: ties (or NaN) make the order run-dependent.
    NonreproducibleSort,
    /// An `allow` annotation that suppressed nothing (stale escape hatch).
    UnusedAllow,
    /// An `allow` annotation without a written justification.
    MissingJustification,
}

impl RuleId {
    pub const ALL: [RuleId; 11] = [
        RuleId::UnorderedIteration,
        RuleId::WallClock,
        RuleId::UnseededRng,
        RuleId::TruncatingCast,
        RuleId::PanicInLibrary,
        RuleId::DependencyHygiene,
        RuleId::ParSharedMutableCapture,
        RuleId::UnorderedFloatReduction,
        RuleId::ThreadCountBranching,
        RuleId::EnvReadInResultPath,
        RuleId::NonreproducibleSort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnorderedIteration => "unordered-iteration",
            RuleId::WallClock => "wall-clock-in-result-path",
            RuleId::UnseededRng => "unseeded-rng",
            RuleId::TruncatingCast => "truncating-cast",
            RuleId::PanicInLibrary => "panic-in-library",
            RuleId::DependencyHygiene => "dependency-hygiene",
            RuleId::ParSharedMutableCapture => "par-shared-mutable-capture",
            RuleId::UnorderedFloatReduction => "unordered-float-reduction",
            RuleId::ThreadCountBranching => "thread-count-branching",
            RuleId::EnvReadInResultPath => "env-read-in-result-path",
            RuleId::NonreproducibleSort => "nonreproducible-sort",
            RuleId::UnusedAllow => "unused-allow",
            RuleId::MissingJustification => "missing-justification",
        }
    }

    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// What kind of compilation target a source file belongs to; decides which
/// rules apply (e.g. panic hygiene is a library-only rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` of a library crate.
    Lib,
    /// `src/bin/**` or `src/main.rs` — executable code.
    Bin,
    /// `tests/**`, `benches/**`, `examples/**`.
    TestOrBench,
}

/// A single finding, formatted as `file:line:col: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    /// 1-based char column of the offending token.
    pub col: usize,
    pub rule: RuleId,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// One rule hit, positioned at a token. The caller (scan.rs) turns these
/// into [`Diagnostic`]s and applies annotation/config suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    pub line: usize,
    pub col: usize,
    pub rule: RuleId,
    pub message: String,
}

/// Functions allowed to read/branch on the worker count: the shard-shaping
/// layer of `genet-par` (DESIGN.md §10).
const SANCTIONED_THREAD_FNS: [&str; 4] = [
    "genet_threads_env",
    "worker_count",
    "configured_threads",
    "override_worker_threads",
];

/// File allowed to read arbitrary env vars (`GENET_BENCH_OUT` relocation).
const SANCTIONED_ENV_FILE_SUFFIX: &str = "genet-telemetry/src/paths.rs";

const INT_TARGETS: [&str; 10] = [
    "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
];

/// Methods that produce floats — evidence that a cast operand is float-typed.
const FLOAT_METHODS: [&str; 12] = [
    "floor", "ceil", "round", "trunc", "sqrt", "abs", "powi", "powf", "exp", "ln", "log2", "log10",
];

/// Explicit rounding steps that make a float→int `as` cast deliberate.
const ROUNDING_METHODS: [&str; 4] = ["floor", "ceil", "round", "trunc"];

/// Methods transparent to rounding (may follow a rounding step without
/// re-introducing a fraction).
const ROUNDING_TRANSPARENT: [&str; 4] = ["max", "min", "clamp", "abs"];

/// Methods that mutate their receiver in place.
const MUTATING_METHODS: [&str; 16] = [
    "push",
    "push_str",
    "insert",
    "remove",
    "extend",
    "clear",
    "truncate",
    "pop",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "swap",
    "fill",
];

/// Interior-mutability access methods: any of these inside a parallel
/// closure means shared state is in play.
const INTERIOR_MUT_METHODS: [&str; 14] = [
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
    "store",
    "compare_exchange",
    "compare_exchange_weak",
    "get_or_init",
];

/// Interior-mutability markers in declared type text.
const INTERIOR_MUT_TYPES: [&str; 4] = ["Mutex", "RefCell", "Cell", "Atomic"];

/// Par entry points whose closures the capture rules inspect. `spawn` is
/// excluded from `par-shared-mutable-capture` (the engine's own spawn
/// closures legitimately write disjoint `&mut` slots) but included for
/// `unordered-float-reduction`.
const CAPTURE_RULE_ENTRIES: [&str; 5] = [
    "par_map",
    "par_map_profiled",
    "par_map_sharded",
    "par_map_mut_profiled",
    "par_map_with",
];

/// Scans one file's structural model. Suppression is applied by the caller.
pub fn scan_model(model: &FileModel, kind: TargetKind, file: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &model.toks;
    let cond_spans = model.condition_spans();

    for i in 0..toks.len() {
        let t = &toks[i];
        // These two apply everywhere, `#[cfg(test)]` regions and test
        // targets included — unseeded or flaky-ordered tests flake.
        scan_unseeded_rng(model, i, &mut out);
        scan_nonreproducible_sort(model, i, &mut out);
        if model.in_test(i) || kind == TargetKind::TestOrBench {
            continue;
        }

        // unordered-iteration: any appearance in lib/bin code — even a
        // non-iterated HashMap invites a later `for` loop.
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(&mut out, t, RuleId::UnorderedIteration, format!(
                "{} in result-path code: iteration order is unstable; use BTreeMap/BTreeSet or a sorted Vec (or annotate why ordering can never escape)",
                t.text
            ));
        }

        scan_wall_clock(model, i, &mut out);
        scan_truncating_cast(model, i, &mut out);
        if kind == TargetKind::Lib {
            scan_panic(model, i, &mut out);
        }
        scan_thread_count_branching(model, i, &cond_spans, &mut out);
        scan_env_read(model, i, file, &mut out);
        scan_nonreproducible_sort(model, i, &mut out);
    }

    scan_par_closures(model, &mut out);

    out.sort_by_key(|a| (a.line, a.col));
    out
}

fn push(out: &mut Vec<Finding>, t: &Tok, rule: RuleId, message: String) {
    out.push(Finding {
        line: t.line,
        col: t.col,
        rule,
        message,
    });
}

/// unseeded-rng: applies everywhere, `#[cfg(test)]` regions included —
/// unseeded tests flake.
fn scan_unseeded_rng(model: &FileModel, i: usize, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    let t = &toks[i];
    for token in ["thread_rng", "from_entropy", "from_os_rng", "OsRng"] {
        if t.is_ident(token) {
            push(
                out,
                t,
                RuleId::UnseededRng,
                format!("{token}: every RNG must be constructed from an explicit seed"),
            );
        }
    }
    // The `rand::rng()` free function (rand 0.9 spelling of thread_rng).
    if t.is_ident("rng") && i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("rand") {
        push(
            out,
            t,
            RuleId::UnseededRng,
            "rand::rng: every RNG must be constructed from an explicit seed".to_string(),
        );
    }
}

/// Walks back over `Ident ::` pairs to the first segment of the path ending
/// at `i` (an Ident). Returns the start index.
fn path_start(toks: &[Tok], i: usize) -> usize {
    let mut s = i;
    while s >= 2 && toks[s - 1].is_punct("::") && toks[s - 2].kind == TokKind::Ident {
        s -= 2;
    }
    s
}

/// wall-clock-in-result-path: `Instant::now` / `SystemTime::now` reads.
/// Imports and struct fields of type `Instant` are fine (they can't tick);
/// the sanctioned telemetry idiom `timed.then(Instant::now)` — passing the
/// clock as an `Option`-gated constructor — is exempt.
fn scan_wall_clock(model: &FileModel, i: usize, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    if !toks[i].is_ident("now") {
        return;
    }
    if !(i >= 2
        && toks[i - 1].is_punct("::")
        && (toks[i - 2].is_ident("Instant") || toks[i - 2].is_ident("SystemTime")))
    {
        return;
    }
    let clock = &toks[i - 2].text;
    let pstart = path_start(toks, i);
    // Exempt `.then(<path to now>)`: the whole arg group is exactly the path.
    if pstart >= 3
        && toks[pstart - 1].kind == TokKind::Open(Delim::Paren)
        && model.match_of[pstart - 1] == i + 1
        && toks[pstart - 2].is_ident("then")
        && toks[pstart - 3].is_punct(".")
    {
        return;
    }
    push(out, &toks[pstart], RuleId::WallClock, format!(
        "{clock}::now in result-path code: wall-clock reads must stay inside genet-telemetry or annotated timing-only sites"
    ));
}

/// truncating-cast: `<float expr> as <int>`. The operand is the token span
/// scanned back from `as` to the nearest top-level boundary; float-ness is
/// literal/`f32`/`f64`/float-method evidence. Casts whose operand ends in
/// an explicit rounding step (`.round()` etc., optionally followed by
/// `max`/`min`/`clamp`/`abs`) are deliberate and exempt.
fn scan_truncating_cast(model: &FileModel, i: usize, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    if !toks[i].is_ident("as") {
        return;
    }
    let Some(target) = toks.get(i + 1) else {
        return;
    };
    if target.kind != TokKind::Ident || !INT_TARGETS.contains(&target.text.as_str()) {
        return;
    }
    // Operand span: walk left, jumping over groups, stopping at a
    // top-level boundary.
    let mut lo = i;
    while lo > 0 {
        let j = lo - 1;
        match toks[j].kind {
            TokKind::Close(_) => {
                let open = model.match_of[j];
                if open == usize::MAX {
                    break;
                }
                lo = open;
            }
            TokKind::Open(_) => break,
            TokKind::Punct => {
                let p = toks[j].text.as_str();
                let boundary = p.contains('=') || matches!(p, "," | ";" | "&&" | "||" | "=>");
                if boundary {
                    break;
                }
                lo = j;
            }
            TokKind::Ident => {
                if matches!(
                    toks[j].text.as_str(),
                    "return" | "let" | "if" | "else" | "while" | "match" | "in" | "as"
                ) {
                    break;
                }
                lo = j;
            }
            _ => lo = j,
        }
    }
    if lo >= i {
        return;
    }
    let operand = &toks[lo..i];
    let float = operand.iter().enumerate().any(|(k, t)| {
        t.kind == TokKind::NumFloat
            || t.is_ident("f32")
            || t.is_ident("f64")
            || (t.kind == TokKind::Ident
                && FLOAT_METHODS.contains(&t.text.as_str())
                && k > 0
                && operand[k - 1].is_punct("."))
    });
    if !float {
        return;
    }
    // Trailing method chain of the operand, outermost first.
    let mut chain: Vec<&str> = Vec::new();
    let mut end = i; // exclusive
    while end >= lo + 4 {
        let close = end - 1;
        if !matches!(toks[close].kind, TokKind::Close(Delim::Paren)) {
            break;
        }
        let open = model.match_of[close];
        if open == usize::MAX || open < lo + 2 {
            break;
        }
        if toks[open - 1].kind == TokKind::Ident && toks[open - 2].is_punct(".") {
            chain.push(toks[open - 1].text.as_str());
            end = open - 2;
        } else {
            break;
        }
    }
    for (k, m) in chain.iter().enumerate() {
        if ROUNDING_METHODS.contains(m)
            && chain[..k].iter().all(|o| ROUNDING_TRANSPARENT.contains(o))
        {
            return; // explicit rounding: deliberate cast
        }
    }
    push(out, &toks[lo], RuleId::TruncatingCast, format!(
        "float expression cast with `as {}` truncates; make the rounding explicit (.round()/.floor()/.ceil()/.trunc()) or annotate why truncation is the intent",
        target.text
    ));
}

/// panic-in-library: `.unwrap()`, `.expect(`, and the panicking macros.
fn scan_panic(model: &FileModel, i: usize, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    let dotted = i >= 1 && toks[i - 1].is_punct(".");
    let called = matches!(
        toks.get(i + 1).map(|n| n.kind),
        Some(TokKind::Open(Delim::Paren))
    );
    if dotted && called && (t.text == "unwrap" || t.text == "expect") {
        push(
            out,
            t,
            RuleId::PanicInLibrary,
            format!(
                "{}{} in library code: return Result or annotate why this cannot fail",
                t.text,
                if t.text == "unwrap" { "()" } else { "(" }
            ),
        );
        return;
    }
    if toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        && matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        )
    {
        push(
            out,
            t,
            RuleId::PanicInLibrary,
            format!(
                "{}! in library code: return Result or annotate why this cannot fail",
                t.text
            ),
        );
    }
}

/// thread-count-branching: result-path logic conditioned on the worker
/// count. Hazards are reads of the count helpers (or the literal
/// `GENET_THREADS` env name); they fire when used inside an
/// `if`/`while`/`match` head or compared in a statement, outside the
/// sanctioned shard-shaping helpers.
fn scan_thread_count_branching(
    model: &FileModel,
    i: usize,
    cond_spans: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let toks = &model.toks;
    let t = &toks[i];
    let hazard = match t.kind {
        TokKind::Ident => {
            matches!(
                t.text.as_str(),
                "worker_count" | "configured_threads" | "available_parallelism"
            ) && !(i >= 1 && toks[i - 1].is_ident("fn"))
        }
        // genet-lint: allow(thread-count-branching) the hazard pattern itself must name the env var
        TokKind::Str => t.text.contains("GENET_THREADS"),
        _ => false,
    };
    if !hazard {
        return;
    }
    if let Some(f) = model.enclosing_fn(i) {
        if SANCTIONED_THREAD_FNS.contains(&f.name.as_str()) {
            return;
        }
    }
    let (lo, hi) = model.stmt_range(i);
    // `use genet_par::worker_count;` imports are not reads.
    if toks[lo..=hi].iter().any(|x| x.is_ident("use")) {
        return;
    }
    let in_cond = cond_spans.iter().any(|&(s, e)| s <= i && i < e);
    let compared = t.kind == TokKind::Ident
        && toks[lo..=hi].iter().any(|x| {
            x.kind == TokKind::Punct && matches!(x.text.as_str(), "==" | "!=" | "<=" | ">=")
        });
    // The literal env name outside its parser is always a finding (it means
    // someone is reading or documenting the knob in result code); helper
    // reads only matter when they steer control flow or comparisons.
    let fires = match t.kind {
        TokKind::Str => true,
        _ => in_cond || compared,
    };
    if fires {
        push(out, t, RuleId::ThreadCountBranching, format!(
            "{} steers result-path logic: thread count must stay a pure perf knob (only the genet-par shard-shaping helpers may branch on it)",
            if t.kind == TokKind::Str {
                "the thread-count env var"
            } else {
                t.text.as_str()
            }
        ));
    }
}

/// env-read-in-result-path: `env::var` family reads outside
/// `genet_telemetry::paths` and the threads parser.
fn scan_env_read(model: &FileModel, i: usize, file: &str, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    let t = &toks[i];
    if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "var" | "var_os" | "vars" | "vars_os")
    {
        return;
    }
    if !(i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("env")) {
        return;
    }
    if !matches!(
        toks.get(i + 1).map(|n| n.kind),
        Some(TokKind::Open(Delim::Paren))
    ) {
        return;
    }
    if file.ends_with(SANCTIONED_ENV_FILE_SUFFIX) {
        return;
    }
    if let Some(f) = model.enclosing_fn(i) {
        if f.name == "genet_threads_env" {
            return;
        }
    }
    let pstart = path_start(toks, i);
    push(out, &toks[pstart], RuleId::EnvReadInResultPath, format!(
        "env::{} in result-path code: ambient environment must not steer results (only genet_telemetry::paths and the thread-count parser may read env)",
        t.text
    ));
}

/// nonreproducible-sort: applies everywhere, tests included — a flaky
/// comparator in a test is still a flaky test.
fn scan_nonreproducible_sort(model: &FileModel, i: usize, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    // (a) `partial_cmp(...)` immediately unwrapped: NaN panics, and the
    // idiom invites `unwrap_or(Equal)` which breaks total order. total_cmp
    // is the deterministic spelling.
    if t.text == "partial_cmp" {
        if let Some(open) = toks.get(i + 1) {
            if open.kind == TokKind::Open(Delim::Paren) {
                let close = model.match_of[i + 1];
                if close != usize::MAX
                    && toks.get(close + 1).is_some_and(|d| d.is_punct("."))
                    && toks
                        .get(close + 2)
                        .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
                {
                    push(out, t, RuleId::NonreproducibleSort, "partial_cmp().unwrap() comparator: use total_cmp for a deterministic total order over floats".to_string());
                }
            }
        }
        return;
    }
    // (b) unstable sorts keyed on floats: equal keys land in
    // schedule-dependent order.
    if matches!(t.text.as_str(), "sort_unstable_by" | "sort_unstable_by_key")
        && i >= 1
        && toks[i - 1].is_punct(".")
    {
        if let Some(open) = toks.get(i + 1) {
            if open.kind == TokKind::Open(Delim::Paren) {
                let close = model.match_of[i + 1];
                if close != usize::MAX {
                    let float = toks[i + 2..close].iter().any(|x| {
                        x.kind == TokKind::NumFloat
                            || x.is_ident("f32")
                            || x.is_ident("f64")
                            || x.is_ident("partial_cmp")
                            || x.is_ident("total_cmp")
                    });
                    if float {
                        push(out, t, RuleId::NonreproducibleSort, format!(
                            "{} keyed on floats: equal keys land in arbitrary order; use the stable sort_by/sort_by_key with total_cmp",
                            t.text
                        ));
                    }
                }
            }
        }
    }
}

/// The root identifier of the place-expression ending just before `j`
/// (walks left over `.field`, `[index]` and deref/`&` sigils).
fn place_root(model: &FileModel, j: usize, floor: usize) -> Option<usize> {
    let toks = &model.toks;
    let mut k = j;
    let mut root = None;
    while k > floor {
        k -= 1;
        match toks[k].kind {
            TokKind::Close(Delim::Bracket) => {
                let open = model.match_of[k];
                if open == usize::MAX || open <= floor {
                    break;
                }
                k = open;
            }
            TokKind::Ident => {
                if matches!(toks[k].text.as_str(), "mut" | "let") {
                    break;
                }
                root = Some(k);
            }
            TokKind::Punct if matches!(toks[k].text.as_str(), "." | "*" | "&") => {}
            _ => break,
        }
    }
    root
}

/// The root variable of the method-call chain ending at the `.` token
/// `dot`, found by a forward walk from the statement start `slo`: the
/// chain-start candidate resets at every non-postfix punct and skips
/// argument groups, so identifiers inside nested closures/args never count.
/// Returns `None` when the chain is rooted in a call or a grouped
/// expression (a documented blind spot).
fn receiver_root(model: &FileModel, slo: usize, dot: usize) -> Option<usize> {
    let toks = &model.toks;
    let mut root: Option<usize> = None;
    let mut k = slo;
    while k < dot {
        match toks[k].kind {
            TokKind::Ident => {
                if root.is_none() {
                    root = Some(k);
                }
                k += 1;
            }
            TokKind::Punct if matches!(toks[k].text.as_str(), "." | "::" | "?" | "&" | "*") => {
                k += 1;
            }
            TokKind::Open(_) => {
                let close = model.match_of[k];
                if close == usize::MAX || close > dot {
                    return None;
                }
                if root.is_none() {
                    // Chain starts with a grouped expression: root unknown.
                    root = None;
                }
                k = close + 1;
            }
            _ => {
                root = None;
                k += 1;
            }
        }
    }
    let r = root?;
    // A root immediately followed by `(` is a call, not a variable; keywords
    // and primitive types are never receivers.
    if matches!(
        toks.get(r + 1).map(|n| n.kind),
        Some(TokKind::Open(Delim::Paren))
    ) || matches!(
        toks[r].text.as_str(),
        "let" | "mut" | "f32" | "f64" | "return" | "if" | "else" | "match"
    ) {
        return None;
    }
    Some(r)
}

/// Does the statement around `idx` carry float evidence (literal, f32/f64
/// token, or a root whose declared type is float)?
fn stmt_float_evidence(model: &FileModel, lo: usize, hi: usize) -> bool {
    model.toks[lo..=hi]
        .iter()
        .any(|t| t.kind == TokKind::NumFloat || t.is_ident("f32") || t.is_ident("f64"))
}

fn declared_type_is_float(model: &FileModel, root: usize) -> bool {
    model
        .let_types
        .get(&model.toks[root].text)
        .is_some_and(|ty| ty.contains("f32") || ty.contains("f64"))
}

/// The capture rules: for every closure handed to a `genet-par` entry
/// point, flag mutation of captured state (par-shared-mutable-capture),
/// interior-mutability access, and unordered float accumulation
/// (unordered-float-reduction). Test regions are exempt.
fn scan_par_closures(model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    for cl in &model.closures {
        let Some(entry) = cl.par_entry else { continue };
        if model.in_test(cl.start) {
            continue;
        }
        let capture_rule_applies = CAPTURE_RULE_ENTRIES.contains(&entry);
        let (blo, bhi) = cl.body;
        // Skip tokens owned by nested *non-par* closure param lists? No —
        // nested closure bodies are still executed on the worker, so their
        // effects count; locals are resolved via is_closure_local.
        let mut j = blo;
        while j <= bhi {
            let t = &toks[j];
            // --- assignments / compound assignments to captured places ---
            if t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "%=")
                && !model.in_macro(j)
            {
                let (slo, shi) = model.stmt_range(j);
                let is_let_binding =
                    t.text == "=" && toks[slo..j].iter().any(|x| x.is_ident("let"));
                if !is_let_binding {
                    if let Some(root) = place_root(model, j, blo.saturating_sub(1)) {
                        let captured =
                            !model.is_closure_local(root) && toks[root].kind == TokKind::Ident;
                        if captured {
                            let float = stmt_float_evidence(model, slo, shi)
                                || declared_type_is_float(model, root);
                            let compound = t.text != "=";
                            if compound && float {
                                push(out, &toks[root], RuleId::UnorderedFloatReduction, format!(
                                    "float `{}` into captured `{}` inside a {} closure: reduction order depends on the schedule; return per-item values and combine them in index order after the batch",
                                    t.text, toks[root].text, entry
                                ));
                            } else if capture_rule_applies {
                                push(out, &toks[root], RuleId::ParSharedMutableCapture, format!(
                                    "closure passed to {} mutates captured `{}`: per-worker side effects break thread-count invariance; return the value instead",
                                    entry, toks[root].text
                                ));
                            }
                        }
                    }
                }
            }
            // --- &mut on captured idents ---
            if t.is_punct("&")
                && toks.get(j + 1).is_some_and(|x| x.is_ident("mut"))
                && capture_rule_applies
            {
                if let Some(x) = toks.get(j + 2) {
                    if x.kind == TokKind::Ident
                        && !model.is_closure_local(j + 2)
                        && !model.in_macro(j)
                    {
                        push(out, x, RuleId::ParSharedMutableCapture, format!(
                            "closure passed to {} takes `&mut {}` to captured state: per-worker side effects break thread-count invariance",
                            entry, x.text
                        ));
                    }
                }
            }
            if t.kind == TokKind::Ident {
                let dotted = j >= 1 && toks[j - 1].is_punct(".");
                let called = matches!(
                    toks.get(j + 1).map(|n| n.kind),
                    Some(TokKind::Open(Delim::Paren))
                );
                // --- interior-mutability access ---
                if capture_rule_applies
                    && dotted
                    && called
                    && INTERIOR_MUT_METHODS.contains(&t.text.as_str())
                {
                    push(out, t, RuleId::ParSharedMutableCapture, format!(
                        ".{}() inside a {} closure: interior mutability is shared state; results become schedule-dependent",
                        t.text, entry
                    ));
                }
                // --- mutating methods on captured receivers ---
                if capture_rule_applies
                    && dotted
                    && called
                    && MUTATING_METHODS.contains(&t.text.as_str())
                {
                    if let Some(root) = place_root(model, j - 1, blo.saturating_sub(1)) {
                        if !model.is_closure_local(root) {
                            push(out, &toks[root], RuleId::ParSharedMutableCapture, format!(
                                "closure passed to {} calls `.{}()` on captured `{}`: per-worker mutation breaks thread-count invariance",
                                entry, t.text, toks[root].text
                            ));
                        }
                    }
                }
                // --- captured interior-mutability values by declared type ---
                if capture_rule_applies
                    && !model.is_closure_local(j)
                    && model
                        .let_types
                        .get(&t.text)
                        .is_some_and(|ty| INTERIOR_MUT_TYPES.iter().any(|m| ty.contains(m)))
                {
                    push(out, t, RuleId::ParSharedMutableCapture, format!(
                        "closure passed to {} captures `{}` (interior-mutability type): shared state makes results schedule-dependent",
                        entry, t.text
                    ));
                }
                // --- float .sum()/.product()/.fold( over captured data ---
                // (`called` or turbofish: `.sum::<f64>()`)
                let reduce_called = called || toks.get(j + 1).is_some_and(|n| n.is_punct("::"));
                if dotted && reduce_called && matches!(t.text.as_str(), "sum" | "product" | "fold")
                {
                    let (slo, shi) = model.stmt_range(j);
                    if stmt_float_evidence(model, slo, shi) {
                        // The reduction is a hazard when its receiver chain
                        // is rooted in a captured variable (shared data);
                        // per-item reductions over closure locals are
                        // serial and deterministic.
                        if let Some(root) = receiver_root(model, slo, j - 1) {
                            if !model.is_closure_local(root) {
                                push(out, &toks[root], RuleId::UnorderedFloatReduction, format!(
                                    ".{}() over captured `{}` inside a {} closure: shared floats reduced per-worker; return per-item values and combine them in index order after the batch",
                                    t.text, toks[root].text, entry
                                ));
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }
}
