//! The D-rule implementations.
//!
//! Each rule walks the blanked token stream of [`ScannedFile`]s and emits
//! raw findings; suppression directives and the baseline are applied by the
//! caller ([`crate::Corpus::lint_with_baseline`]). Rules are heuristic by
//! design — they trade soundness for zero dependencies and zero false
//! negatives on the constructs this workspace actually uses.

use crate::scan::{has_token, is_ident, token_positions, ScannedFile};
use crate::LintRule;
use std::collections::BTreeSet;

/// A raw finding before suppression/baseline filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Violated rule.
    pub rule: LintRule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based offending line.
    pub line: usize,
    /// Human-oriented message with a fix-it hint.
    pub message: String,
}

impl RawFinding {
    fn new(rule: LintRule, file: &ScannedFile, idx: usize, message: impl Into<String>) -> Self {
        RawFinding {
            rule,
            path: file.path.clone(),
            line: idx + 1,
            message: message.into(),
        }
    }
}

/// How a file is classified for rule scoping.
#[derive(Debug)]
pub struct FileCtx {
    /// Crate short name (`core`, `stats`, …; `dcfail` for the root facade).
    pub crate_name: String,
    /// Under a `tests/` directory.
    pub in_tests_dir: bool,
    /// A binary, bench or example entry point.
    pub is_bin_or_example: bool,
}

impl FileCtx {
    /// Classifies a workspace-relative path.
    pub fn classify(path: &str) -> FileCtx {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("dcfail")
            .to_string();
        FileCtx {
            crate_name,
            in_tests_dir: path.starts_with("tests/") || path.contains("/tests/"),
            is_bin_or_example: path.contains("/bin/")
                || path.contains("/benches/")
                || path.starts_with("examples/")
                || path.contains("/examples/"),
        }
    }
}

/// Crates whose analysis output feeds the golden digests: unordered
/// iteration anywhere in them is a reproducibility hazard (D01).
const ORDERED_CRATES: &[&str] = &[
    "core", "stats", "synth", "report", "shard", "tickets", "stream",
];

/// Crates allowed to read wall-clock time and ambient randomness (D03):
/// obs and bench exist to measure, and the serve daemon times request
/// latency and socket deadlines — none of it reaches analysis output.
const CLOCK_CRATES: &[&str] = &["obs", "bench", "serve"];

/// Crates whose *libraries* may write to stdout/stderr (D09). Narrower than
/// [`CLOCK_CRATES`]: serve may read clocks but must return `Response`
/// values, not print — its binary front-end (`repro serve`) owns the
/// terminal.
const STDOUT_CRATES: &[&str] = &["obs", "bench"];

/// The one library module allowed to touch `TcpStream` (D16): every socket
/// read/write shares its timeout, size-cap and shutdown policy.
const SOCKET_ALLOWLIST: &[&str] = &["crates/serve/src/conn.rs"];

/// Files allowed to read process environment variables (D04): the thread
/// count is resolved once, here, and nowhere else.
const ENV_ALLOWLIST: &[&str] = &["crates/par/src/lib.rs"];

/// Estimator crates where `f32` silently halves precision (D10)…
const F64_CRATES: &[&str] = &["core", "shard", "stats", "stream"];

/// …except the TF-IDF/k-means feature-vector pipeline, which uses `f32`
/// deliberately for memory-bound feature vectors. Its distance bits are
/// order-sensitive, so the k-means kernels keep `sq_dist`'s add order per
/// (point, centroid) pair; inertia and centroid sums accumulate in f64.
const F32_ALLOWLIST: &[&str] = &["crates/stats/src/text.rs", "crates/stats/src/kmeans.rs"];

/// Ambient time / randomness constructors (D03).
const CLOCK_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
];

/// Direct filesystem-mutation constructors (D13). Boundary-checked, so
/// `fs::create_dir` does not double-fire on `fs::create_dir_all`.
const FS_WRITE_TOKENS: &[&str] = &[
    "fs::write",
    "File::create",
    "OpenOptions",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir",
    "fs::create_dir",
    "fs::create_dir_all",
];

/// Calls that scan a whole input per call (D14), each with its fix-it.
/// The per-log telemetry scans cost O(window samples): calling one per
/// machine rebuilds the quadratic fleet × samples hot path the columnar
/// report rewrite removed, and the bulk `Telemetry::monthly_transition_rates`
/// pass exists so nothing has to. `score_week` replays every event from
/// t=0: calling it per week rebuilds the quadratic walk-forward that
/// `prediction::evaluate`'s one sweep replaced.
const HOT_SCAN_TOKENS: &[(&str, &str)] = &[
    ("samples_15min", TELEMETRY_SCAN_HINT),
    ("monthly_transition_rate", TELEMETRY_SCAN_HINT),
    ("score_week", "rescans every event from t=0 per call; a per-week loop over it rebuilds the quadratic walk-forward — use evaluate's sweep"),
];

const TELEMETRY_SCAN_HINT: &str = "is O(window samples) per call; a loop over it rebuilds the quadratic telemetry path — hoist the scan or use the bulk Telemetry::monthly_transition_rates pass";

/// Entry points whose closures must fork their RNG per item (D05). The
/// sharded driver's `resume::stage` hands its per-shard closure to
/// `par_map`.
const PAR_ENTRY_POINTS: &[&str] = &["par_map_index", "par_map", "resume::stage"];

/// Sanctioned ways to derive a per-item RNG stream inside a par closure.
const RNG_FORK_TOKENS: &[&str] = &["fork_index", ".fork(", "StreamRng::new"];

/// Runs every per-file rule over one scanned file.
pub fn lint_file(file: &ScannedFile, findings: &mut Vec<RawFinding>) {
    let ctx = FileCtx::classify(&file.path);
    for (idx, line) in file.lines.iter().enumerate() {
        let in_test = file.is_test_line(idx);

        // D07 applies everywhere, including tests: `forbid(unsafe_code)` can
        // be re-allowed by an inner attribute, the token scan cannot.
        if has_token(line, "unsafe") {
            findings.push(RawFinding::new(
                LintRule::D07,
                file,
                idx,
                "`unsafe` is banned workspace-wide; restructure with safe abstractions",
            ));
        }

        if in_test {
            continue;
        }

        lint_code_line(&ctx, file, idx, line, findings);
    }

    lint_par_closures(file, findings);
    if !ctx.is_bin_or_example {
        lint_hot_loops(file, findings);
    }
}

/// The I/O-confinement rules: each nondeterministic edge gets exactly one
/// named door — `std::fs` mutation goes through `dcfail_ckpt::FaultFs`
/// (D13), raw sockets through the serve connection module (D16).
fn lint_io_doors(
    ctx: &FileCtx,
    file: &ScannedFile,
    idx: usize,
    line: &str,
    findings: &mut Vec<RawFinding>,
) {
    if ctx.is_bin_or_example {
        return;
    }

    if !SOCKET_ALLOWLIST.contains(&file.path.as_str()) && has_token(line, "TcpStream") {
        findings.push(RawFinding::new(
            LintRule::D16,
            file,
            idx,
            "TcpStream in library code outside the serve connection module scatters socket I/O; route it through crates/serve/src/conn.rs so timeouts, size caps and shutdown semantics stay in one place",
        ));
    }

    for tok in FS_WRITE_TOKENS {
        if has_token(line, tok) {
            findings.push(RawFinding::new(
                LintRule::D13,
                file,
                idx,
                format!("{tok} mutates the filesystem from library code; route the write through dcfail_ckpt::FaultFs so faults stay injectable and tests stay hermetic"),
            ));
        }
    }
}

/// The per-line rules that only apply outside test regions (D01–D04, D06,
/// D09, D10, D13, D15, D16).
fn lint_code_line(
    ctx: &FileCtx,
    file: &ScannedFile,
    idx: usize,
    line: &str,
    findings: &mut Vec<RawFinding>,
) {
    if ORDERED_CRATES.contains(&ctx.crate_name.as_str()) {
        for tok in ["HashMap", "HashSet"] {
            if has_token(line, tok) {
                findings.push(RawFinding::new(
                    LintRule::D01,
                    file,
                    idx,
                    format!("{tok} in a digest-bearing crate; use BTreeMap/BTreeSet or a sorted Vec so iteration order is deterministic"),
                ));
            }
        }
    }

    if has_token(line, "partial_cmp") {
        findings.push(RawFinding::new(
            LintRule::D02,
            file,
            idx,
            "partial_cmp yields None on NaN and makes comparator order input-dependent; use f64::total_cmp",
        ));
    }

    if !CLOCK_CRATES.contains(&ctx.crate_name.as_str()) {
        for tok in CLOCK_TOKENS {
            if has_token(line, tok) {
                findings.push(RawFinding::new(
                    LintRule::D03,
                    file,
                    idx,
                    format!("{tok} injects wall-clock/ambient state into an analysis crate; thread a seeded StreamRng or move timing into obs/bench"),
                ));
            }
        }
    }

    if has_token(line, "env::var") && !ENV_ALLOWLIST.contains(&file.path.as_str()) {
        findings.push(RawFinding::new(
            LintRule::D04,
            file,
            idx,
            "environment reads outside the par thread-resolution point make output depend on ambient process state; plumb configuration explicitly",
        ));
    }

    if is_accumulator_file(&file.path) && line.contains("+=") && line_has_float_evidence(line) {
        findings.push(RawFinding::new(
            LintRule::D06,
            file,
            idx,
            "bare float += in an accumulator module; route the sum through ExactSum/NormAccum so merge order cannot change the total",
        ));
    }

    if !(ctx.is_bin_or_example || STDOUT_CRATES.contains(&ctx.crate_name.as_str())) {
        for tok in ["println!", "eprintln!"] {
            if line.contains(tok) {
                findings.push(RawFinding::new(
                    LintRule::D09,
                    file,
                    idx,
                    format!("{tok} in library code; return data or use the obs layer — stdout belongs to binaries"),
                ));
            }
        }
    }

    lint_io_doors(ctx, file, idx, line, findings);

    if ctx.crate_name == "stream" {
        for call in GROWING_CALLS {
            for (pos, _) in line.match_indices(call) {
                let arg = paren_argument(&line[pos + call.len()..]);
                if names_event(arg) {
                    findings.push(RawFinding::new(
                        LintRule::D15,
                        file,
                        idx,
                        format!("{call}…) of a feed event into a collection in stream library code voids the O(slack) memory bound; park arrivals in the watermark-drained reorder buffer instead"),
                    ));
                }
            }
        }
    }

    if F64_CRATES.contains(&ctx.crate_name.as_str())
        && !F32_ALLOWLIST.contains(&file.path.as_str())
        && has_token(line, "f32")
    {
        findings.push(RawFinding::new(
            LintRule::D10,
            file,
            idx,
            "f32 in an estimator crate halves precision and breaks cross-platform bit-identity; use f64 (feature vectors live in text/kmeans)",
        ));
    }
}

/// The calls through which a value enters a growable collection (D15).
const GROWING_CALLS: [&str; 4] = [".push(", ".push_back(", ".extend(", ".insert("];

/// Trims `rest` (the text just past a call's open paren) to the argument
/// list: everything up to the matching close paren, or the whole remainder
/// of the line when the call spans lines (D15 heuristic).
fn paren_argument(rest: &str) -> &str {
    let mut depth = 1usize;
    for (pos, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return &rest[..pos];
                }
            }
            _ => {}
        }
    }
    rest
}

/// True when the region names an identifier that denotes a raw feed event
/// (D15): `ev`, `evt`, `event`, `payload`, or anything containing `event`.
fn names_event(region: &str) -> bool {
    let mut ident = String::new();
    for c in region.chars().chain(std::iter::once(' ')) {
        if is_ident(c) {
            ident.push(c);
        } else {
            if !ident.is_empty() {
                let lower = ident.to_ascii_lowercase();
                if matches!(lower.as_str(), "ev" | "evt" | "payload") || lower.contains("event") {
                    return true;
                }
            }
            ident.clear();
        }
    }
    false
}

/// D14: a whole-input scan ([`HOT_SCAN_TOKENS`]: the O(window) telemetry
/// scans `samples_15min` and `monthly_transition_rate`, and the O(events)
/// `score_week`) called inside a `for`/`while`/`loop` body in library code.
/// Loops over these scans are exactly the quadratic hot paths the columnar
/// report rewrite and the predictor sweep removed — hoist the call, use the
/// bulk `monthly_transition_rates` pass (whose own loop is the one
/// sanctioned, `dlint::allow`ed site) or `evaluate`'s sweep.
///
/// The walk is lexical: brace depth plus a stack of the depths at which a
/// loop body opened. `for` counts as a loop header only when followed by an
/// `in` token on the same line, which keeps `impl Trait for T` and
/// `for<'a>` bounds out; closures handed to iterator adapters are not loops
/// to this rule — heuristic by design, like every rule here.
fn lint_hot_loops(file: &ScannedFile, findings: &mut Vec<RawFinding>) {
    enum Ev {
        Open,
        Close,
        Semi,
        LoopKw,
        Hot(&'static str, &'static str),
    }
    let mut depth = 0usize;
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut pending = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let mut events: Vec<(usize, Ev)> = Vec::new();
        for (pos, c) in line.char_indices() {
            match c {
                '{' => events.push((pos, Ev::Open)),
                '}' => events.push((pos, Ev::Close)),
                ';' => events.push((pos, Ev::Semi)),
                _ => {}
            }
        }
        for kw in ["while", "loop"] {
            for pos in token_positions(line, kw) {
                events.push((pos, Ev::LoopKw));
            }
        }
        for pos in token_positions(line, "for") {
            if has_token(&line[pos..], "in") {
                events.push((pos, Ev::LoopKw));
            }
        }
        for &(tok, hint) in HOT_SCAN_TOKENS {
            for pos in token_positions(line, tok) {
                events.push((pos, Ev::Hot(tok, hint)));
            }
        }
        // Cold path (one pass per source line) and positions are unique per
        // event kind, so a stable sort costs nothing and keys are total.
        events.sort_by_key(|&(pos, _)| pos);
        for (_, ev) in events {
            match ev {
                Ev::Open => {
                    depth += 1;
                    if pending {
                        loop_depths.push(depth);
                        pending = false;
                    }
                }
                Ev::Close => {
                    depth = depth.saturating_sub(1);
                    while loop_depths.last().is_some_and(|&d| d > depth) {
                        loop_depths.pop();
                    }
                }
                Ev::Semi => pending = false,
                Ev::LoopKw => pending = true,
                Ev::Hot(tok, hint) => {
                    if !loop_depths.is_empty() && !file.is_test_line(idx) {
                        findings.push(RawFinding::new(
                            LintRule::D14,
                            file,
                            idx,
                            format!("{tok} {hint}"),
                        ));
                    }
                }
            }
        }
    }
}

/// D05: a closure handed to a `par_map*` entry point that names an RNG must
/// derive it per item via `fork_index`/`fork`/`StreamRng::new`; capturing a
/// shared stream reintroduces schedule-dependent draws.
fn lint_par_closures(file: &ScannedFile, findings: &mut Vec<RawFinding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for entry in PAR_ENTRY_POINTS {
            for pos in token_positions(line, entry) {
                let Some(region) = call_region(file, idx, pos + entry.len()) else {
                    continue;
                };
                let sanctioned = RNG_FORK_TOKENS.iter().any(|t| region.contains(t));
                if !sanctioned && region_names_rng(&region) {
                    findings.push(RawFinding::new(
                        LintRule::D05,
                        file,
                        idx,
                        format!("closure passed to {entry} names an RNG without deriving it via fork_index/fork; shared streams make draw order depend on the schedule"),
                    ));
                }
            }
        }
    }
}

/// Extracts the text of a call's argument list starting at `start` (a byte
/// offset just past the callee name on 0-based line `idx`), spanning lines
/// until the matching close paren.
fn call_region(file: &ScannedFile, idx: usize, start: usize) -> Option<String> {
    let mut region = String::new();
    let mut depth = 0usize;
    let mut started = false;
    for (li, line) in file.lines.iter().enumerate().skip(idx) {
        let tail: &str = if li == idx { line.get(start..)? } else { line };
        for c in tail.chars() {
            if !started {
                match c {
                    '(' => {
                        started = true;
                        depth = 1;
                    }
                    c if c.is_whitespace() => {}
                    _ => return None, // not a call site (e.g. a doc mention)
                }
                continue;
            }
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(region);
                    }
                }
                _ => region.push(c),
            }
        }
        region.push('\n');
        if region.len() > 20_000 {
            break; // unbalanced parens; bail rather than scan the whole file
        }
    }
    None
}

/// True when the region mentions an identifier containing `rng`.
fn region_names_rng(region: &str) -> bool {
    let mut ident = String::new();
    for c in region.chars().chain(std::iter::once(' ')) {
        if is_ident(c) {
            ident.push(c);
        } else {
            if !ident.is_empty() && ident.to_ascii_lowercase().contains("rng") {
                return true;
            }
            ident.clear();
        }
    }
    false
}

/// D06 scope: modules that exist to accumulate floating-point state.
fn is_accumulator_file(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    ["accum", "norm", "merge", "hazard"]
        .iter()
        .any(|m| name.contains(m))
}

/// Heuristic: does this line visibly manipulate floats?
fn line_has_float_evidence(line: &str) -> bool {
    if has_token(line, "f64") || has_token(line, "f32") {
        return true;
    }
    // A numeric literal with a decimal point, e.g. `* 7.0`.
    let b: Vec<char> = line.chars().collect();
    b.windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit())
}

/// D08: every `impl Mergeable for X` must be exercised by an absorb-law
/// test — some test region mentioning both `X` and `absorb`.
pub fn lint_absorb_coverage(files: &[ScannedFile], findings: &mut Vec<RawFinding>) {
    struct Impl {
        type_name: String,
        file_index: usize,
        line_idx: usize,
    }
    let mut impls: Vec<Impl> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (idx, line) in file.lines.iter().enumerate() {
            if file.is_test_line(idx) {
                continue;
            }
            for pos in token_positions(line, "Mergeable for") {
                if !line[..pos].contains("impl") {
                    continue;
                }
                let after = &line[pos + "Mergeable for".len()..];
                let type_name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect();
                if !type_name.is_empty() {
                    impls.push(Impl {
                        type_name,
                        file_index: fi,
                        line_idx: idx,
                    });
                }
            }
        }
    }
    for im in impls {
        let covered = files.iter().any(|f| {
            let Some(test_from) = f.test_from else {
                return false;
            };
            let mut names_type = false;
            let mut names_absorb = false;
            for line in &f.lines[test_from..] {
                names_type = names_type || has_token(line, &im.type_name);
                names_absorb = names_absorb || has_token(line, "absorb");
                if names_type && names_absorb {
                    return true;
                }
            }
            false
        });
        if !covered {
            findings.push(RawFinding::new(
                LintRule::D08,
                &files[im.file_index],
                im.line_idx,
                format!("Mergeable impl for {} has no absorb-law test; add a test absorbing split halves and comparing against the sequential result", im.type_name),
            ));
        }
    }
}

/// D17: every `pub fn` (or `pub const fn`) on a non-test line of a library
/// file (`crates/*/src`, not `bin/`) must be named, other than by a `fn`
/// definition, on some non-test line outside a `use` item, anywhere in
/// `files` or `callers`. A public function only tests name is API the
/// library carries for nobody.
///
/// A function without a `self` receiver inside `impl Type` is called by
/// path, so only `Type::name` (or `Self::name` inside an impl of `Type`)
/// counts as its caller. A method (a `self` receiver) is called by call
/// syntax: a `.name(` call, turbofish allowed, or that path. A line scanner
/// cannot see a call's receiver type, so a call of any same-named method
/// counts, but a field, local or free function of the name does not. A free
/// function matches by name: any use other than another definition counts.
/// A definition under a `#[cfg(test)]` attribute is test code and is not
/// checked.
pub fn lint_test_only_api(
    files: &[ScannedFile],
    callers: &[ScannedFile],
    findings: &mut Vec<RawFinding>,
) {
    // Identifiers some code line uses; the name after `fn` defines and
    // does not count. Every `.name(` method call. And every `Type::name`
    // path, `Self` resolved to the impl a line sits in.
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let mut calls: BTreeSet<&str> = BTreeSet::new();
    let mut paths: BTreeSet<String> = BTreeSet::new();
    let impls: Vec<_> = files.iter().chain(callers).map(impl_types).collect();
    for (file, impls) in files.iter().chain(callers).zip(&impls) {
        for (idx, line) in code_lines(file) {
            let mut prev = "";
            used.extend(idents(line).filter(|&ident| std::mem::replace(&mut prev, ident) != "fn"));
            calls.extend(method_calls(line));
            for (ty, name) in path_pairs(line) {
                let ty = impls[idx].as_deref().filter(|_| ty == "Self").unwrap_or(ty);
                paths.insert(format!("{ty}::{name}"));
            }
        }
    }
    for (file, impls) in files.iter().zip(&impls) {
        if !(file.path.starts_with("crates/") && file.path.contains("/src/"))
            || FileCtx::classify(&file.path).is_bin_or_example
        {
            continue;
        }
        for (idx, line) in code_lines(file) {
            for head in ["pub fn", "pub const fn"] {
                for pos in token_positions(line, head) {
                    let name: String = line[pos + head.len()..]
                        .trim_start()
                        .chars()
                        .take_while(|&c| is_ident(c))
                        .collect();
                    let by_path = impls[idx]
                        .as_ref()
                        .map(|ty| paths.contains(&format!("{ty}::{name}")));
                    let called = match by_path {
                        Some(by_path) if has_receiver(file, idx, pos) => {
                            by_path || calls.contains(name.as_str())
                        }
                        Some(by_path) => by_path,
                        None => used.contains(name.as_str()),
                    };
                    if name.is_empty() || called || under_cfg_test(file, idx) {
                        continue;
                    }
                    findings.push(RawFinding::new(
                        LintRule::D17,
                        file,
                        idx,
                        format!("pub fn {name} has no caller outside tests; delete it, move it behind #[cfg(test)], or allow it with a reason if an integration test must reach it"),
                    ));
                }
            }
        }
    }
}

/// For each line of `file`, the type of the `impl` block it sits in, if
/// any, by brace depth. A trait impl names the implementing type; a header
/// that does not name its type on its first line leaves its lines outside.
fn impl_types(file: &ScannedFile) -> Vec<Option<String>> {
    let (mut depth, mut pending, mut open) = (0usize, None, Vec::<(usize, String)>::new());
    let mut types = Vec::with_capacity(file.lines.len());
    for line in &file.lines {
        let header = line.trim_start().strip_prefix("impl");
        if let Some(header) = header.filter(|h| h.starts_with([' ', '<'])) {
            let header = skip_generics(header);
            let ty = header.split_once(" for ").map_or(header, |(_, ty)| ty);
            let path = ty
                .trim_start()
                .split(|c: char| !is_ident(c) && c != ':')
                .next();
            pending = path.and_then(|p| p.rsplit("::").next()).map(String::from);
        }
        for c in line.chars() {
            if c == '{' {
                depth += 1;
                open.extend(
                    pending
                        .take()
                        .filter(|ty| !ty.is_empty())
                        .map(|ty| (depth, ty)),
                );
            } else if c == '}' {
                if open.last().is_some_and(|&(d, _)| d == depth) {
                    open.pop();
                }
                depth = depth.saturating_sub(1);
            }
        }
        types.push(open.last().map(|(_, ty)| ty.clone()));
    }
    types
}

/// `text` past a leading `<…>` generics list (an arrow's `>` does not
/// close it).
fn skip_generics(text: &str) -> &str {
    let text = text.trim_start();
    let (mut depth, mut prev) = (0usize, ' ');
    for (i, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' && depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return &text[i + 1..];
                }
            }
            _ if depth == 0 => return text,
            _ => {}
        }
        prev = c;
    }
    text
}

/// Whether the function defined at `pos` of 0-based line `idx` takes
/// `self`: its first parameter, on that line or the next, names it.
fn has_receiver(file: &ScannedFile, idx: usize, pos: usize) -> bool {
    let next = file.lines.get(idx + 1).map_or("", String::as_str);
    let sig = format!("{} {next}", &file.lines[idx][pos..]);
    let params = skip_generics(sig.trim_start_matches(|c: char| c.is_whitespace() || is_ident(c)));
    params
        .strip_prefix('(')
        .and_then(|params| params.split([',', ')']).next())
        .is_some_and(|first| has_token(first, "self"))
}

/// Every `Left::right` identifier pair on a blanked line.
fn path_pairs(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.match_indices("::").filter_map(move |(at, _)| {
        let left = line[..at].rsplit(|c: char| !is_ident(c)).next()?;
        let right = line[at + 2..].split(|c: char| !is_ident(c)).next()?;
        (!left.is_empty() && !right.is_empty()).then_some((left, right))
    })
}

/// The method name of every `.name(` call on a blanked line, turbofish
/// allowed; a range's `..` is no call.
fn method_calls(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices('.').filter_map(move |(at, _)| {
        let rest = &line[at + 1..];
        let name = &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())];
        let args = &rest[name.len()..];
        let args = args.strip_prefix("::").map_or(args, skip_generics);
        let called = args.starts_with('(') && !line[..at].ends_with('.');
        (called && name.starts_with(|c: char| !c.is_ascii_digit())).then_some(name)
    })
}

/// The non-test lines of `file` that are not part of a `use` item, with
/// their 0-based indices (D17's caller evidence and definition sites).
fn code_lines(file: &ScannedFile) -> impl Iterator<Item = (usize, &str)> {
    let mut in_use = false;
    file.lines
        .iter()
        .enumerate()
        .filter(move |&(idx, line)| {
            let item = line.trim_start();
            let item = item
                .strip_prefix("pub")
                .map_or(item, |rest| match rest.trim_start().strip_prefix('(') {
                    Some(scoped) => scoped.split_once(')').map_or("", |(_, r)| r),
                    None => rest,
                })
                .trim_start();
            in_use = in_use || item.starts_with("use ");
            let skip = in_use || file.is_test_line(idx);
            if in_use && line.contains(';') {
                in_use = false;
            }
            !skip
        })
        .map(|(idx, line)| (idx, line.as_str()))
}

/// The identifiers on a blanked line.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c))
        .filter(|w| w.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// True when the attributes directly above 0-based line `idx` (doc comments
/// are blank after scanning) include `#[cfg(test)]`.
fn under_cfg_test(file: &ScannedFile, idx: usize) -> bool {
    file.lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.is_empty() || l.starts_with("#["))
        .any(|l| l == "#[cfg(test)]")
}
