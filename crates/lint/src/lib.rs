//! # fastg-lint — workspace-native static analysis
//!
//! A dependency-free, hand-rolled token scanner (no `syn`, consistent with
//! the offline-shims policy) that walks every workspace source file and
//! enforces the repo-specific invariants the paper's reproducibility rests
//! on. The DES replays event-for-event only while the runtime has no
//! unaccounted nondeterminism and no panic path that can kill the cluster
//! loop mid-run; these rules make both properties mechanically checkable:
//!
//! * **`no-panic-in-lib`** — `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!` and release-mode `assert!` family macros are
//!   denied in library code. Tests, benches, examples, `src/bin/`
//!   entry points, `#[cfg(test)]` and `#[cfg(debug_assertions)]` blocks are
//!   exempt, and `debug_assert!` is always allowed (invariant checks belong
//!   in debug builds, not in the production cluster loop).
//! * **`no-wallclock`** — `std::time::{Instant, SystemTime}` are denied in
//!   the deterministic crates (`des`, `gpu`, `core`, `cluster`): all time
//!   must flow through `SimTime`.
//! * **`no-unordered-iter`** — `HashMap`/`HashSet` are denied in the
//!   deterministic crates; iteration order would leak randomization into
//!   the event stream. Use `BTreeMap`/`BTreeSet`.
//! * **`no-float-eq`** — `==`/`!=` against float literals (or expressions
//!   cast `as f64`/`as f32`) is denied everywhere; use an epsilon
//!   comparison.
//! * **`no-lossy-cast`** — integer `as` casts are denied everywhere; use
//!   `From`/`TryFrom` or widen the accumulator so quota/memory accounting
//!   can never silently truncate.
//! * **`no-threads-outside-par`** — `std::thread` and the blocking
//!   `std::sync` primitives (`Mutex`, `RwLock`, `Condvar`, channels,
//!   atomics) are denied in library code outside `crates/par`: all
//!   parallelism must flow through `fastg-par`, whose input-order result
//!   collection is what keeps sweeps byte-identical across thread counts.
//!   `Arc` stays allowed (immutable sharing is deterministic); binaries,
//!   tests and benches are exempt.
//! * **`no-default-hasher`** — `HashMap`/`HashSet` are denied in library
//!   code *outside* the deterministic crates too (inside them
//!   `no-unordered-iter` already applies): the default hasher is
//!   randomly seeded, so iteration order is a latent determinism race
//!   the moment such code migrates toward the core.
//! * **`no-tiebreak-sensitive-drain`** — comparators that order events by
//!   `time` alone (`.time.cmp(..)` without a `.then` chain, or
//!   `sort_by_key`/`min_by_key`/`max_by_key` keyed by a bare `.time`)
//!   are denied in the deterministic crates: equal-time order would be
//!   whatever the container happens to hold, i.e. a tie-break race.
//! * **`exhaustive-event-match`** — `_ =>` arms are denied in matches
//!   over the platform `Event` enum, so a new event variant cannot
//!   silently bypass the class ranking or sanitizer hooks.
//! * **`no-btreemap-hot-path`** — `BTreeMap`/`BTreeSet` are denied in
//!   the per-event hot-path files (the platform engine, request
//!   lifecycle, pod records and node data plane, gateway and backend,
//!   node selection): entity state there lives in dense
//!   arena storage behind generation-stamped handles (`IdArena`), where
//!   a lookup is an index, not a pointer-chasing tree walk. Cold report-assembly code keeps
//!   ordered maps behind a per-line allow escape.
//! * **`exhaustive-snapshot-fields`** — `..` rest patterns are denied
//!   inside snapshot encode/decode bodies (`snap`, `unsnap`,
//!   `snap_state`, `unsnap_state`, and their `_with`/`_cursor`
//!   variants): a rest pattern is exactly how a newly added state field
//!   silently skips serialization, so the codec destructures every
//!   struct exhaustively and a new field becomes a compile error, not a
//!   checkpoint that restores to a different simulation.
//!
//! Diagnostics carry `file:line:col` positions. Existing violations are
//! allowlisted per-rule-per-file in a checked-in baseline
//! (`lint-baseline.json`); any *new* violation fails `--check`. A per-line
//! `// fastg-lint: allow(rule)` escape hatch suppresses a single finding.

use std::collections::BTreeMap;
use std::fmt;

/// Deny panicking macros and methods in library code.
pub const NO_PANIC: &str = "no-panic-in-lib";
/// Deny wall-clock time sources in deterministic crates.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Deny randomized-iteration-order collections in deterministic crates.
pub const NO_UNORDERED_ITER: &str = "no-unordered-iter";
/// Deny exact float comparison.
pub const NO_FLOAT_EQ: &str = "no-float-eq";
/// Deny integer `as` casts.
pub const NO_LOSSY_CAST: &str = "no-lossy-cast";
/// Deny raw threading/synchronization primitives outside `crates/par`.
pub const NO_THREADS: &str = "no-threads-outside-par";
/// Deny std-default-hasher collections in library code everywhere (the
/// non-deterministic-crate complement of `no-unordered-iter`).
pub const NO_DEFAULT_HASHER: &str = "no-default-hasher";
/// Deny time-only comparators over event-like orderings in deterministic
/// crates (missing tie-break keys are latent races).
pub const NO_TIEBREAK_DRAIN: &str = "no-tiebreak-sensitive-drain";
/// Deny wildcard arms in matches over the platform `Event` enum.
pub const EXHAUSTIVE_EVENT_MATCH: &str = "exhaustive-event-match";
/// Deny tree-walk collections in the per-event hot-path files.
pub const NO_BTREEMAP_HOT_PATH: &str = "no-btreemap-hot-path";
/// Deny `..` rest patterns inside snapshot encode/decode bodies.
pub const EXHAUSTIVE_SNAPSHOT_FIELDS: &str = "exhaustive-snapshot-fields";

/// Every rule, in diagnostic order.
pub const RULES: [&str; 11] = [
    NO_PANIC,
    NO_WALLCLOCK,
    NO_UNORDERED_ITER,
    NO_FLOAT_EQ,
    NO_LOSSY_CAST,
    NO_THREADS,
    NO_DEFAULT_HASHER,
    NO_TIEBREAK_DRAIN,
    EXHAUSTIVE_EVENT_MATCH,
    NO_BTREEMAP_HOT_PATH,
    EXHAUSTIVE_SNAPSHOT_FIELDS,
];

/// One finding at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes).
    pub col: usize,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// `no-panic-in-lib` applies (library code, not a `src/bin/` target).
    pub lib_code: bool,
    /// `no-wallclock` / `no-unordered-iter` apply (deterministic crate).
    pub deterministic: bool,
    /// `no-threads-outside-par` applies (library code outside `crates/par`).
    pub threads_banned: bool,
    /// `no-btreemap-hot-path` applies (a per-event hot-path file).
    pub hot_path: bool,
}

impl FileScope {
    /// Scope with every rule family enabled (used by fixture tests).
    pub fn full() -> Self {
        FileScope {
            lib_code: true,
            deterministic: true,
            threads_banned: true,
            hot_path: true,
        }
    }
}

/// Crates whose runtime must stay deterministic: sim time only, ordered
/// collections only.
const DETERMINISTIC_CRATES: [&str; 4] = [
    "crates/des/",
    "crates/gpu/",
    "crates/core/",
    "crates/cluster/",
];

/// Files on the per-event hot path, where entity lookups must be arena
/// indexing rather than ordered-tree walks (`no-btreemap-hot-path`).
const HOT_PATH_FILES: [&str; 7] = [
    "crates/core/src/platform/engine.rs",
    "crates/core/src/platform/lifecycle.rs",
    "crates/core/src/platform/node.rs",
    "crates/core/src/platform/pod.rs",
    "crates/core/src/manager/backend.rs",
    "crates/core/src/scheduler/node_select.rs",
    "crates/cluster/src/gateway.rs",
];

/// Classifies a workspace-relative path. `None` means the file is out of
/// scope entirely (test, bench or example code).
pub fn classify(rel_path: &str) -> Option<FileScope> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let mut in_bin = false;
    for seg in rel_path.split('/') {
        match seg {
            "tests" | "benches" | "examples" | "fixtures" => return None,
            "bin" | "main.rs" => in_bin = true,
            _ => {}
        }
    }
    let deterministic = DETERMINISTIC_CRATES
        .iter()
        .any(|prefix| rel_path.starts_with(prefix));
    let lib_code = !in_bin;
    Some(FileScope {
        lib_code,
        deterministic,
        threads_banned: lib_code && !rel_path.starts_with("crates/par/"),
        hot_path: HOT_PATH_FILES.contains(&rel_path),
    })
}

// ---------------------------------------------------------------------------
// Source cleaning: strip comments, strings and char literals so the rule
// pass sees only code tokens, while collecting `fastg-lint: allow(...)`
// escapes per line.
// ---------------------------------------------------------------------------

/// Cleaned source: `code` has the same byte length and line structure as the
/// input, with comments, string bodies and char literals blanked out.
pub struct Cleaned {
    /// Code-only text (non-code bytes replaced by spaces).
    pub code: Vec<u8>,
    /// Per 1-based line: rules allowed by a `// fastg-lint: allow(...)`
    /// comment on that line.
    pub allows: BTreeMap<usize, Vec<String>>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Strips comments/strings/chars, records allow escapes.
pub fn clean(source: &str) -> Cleaned {
    let src = source.as_bytes();
    let mut code = src.to_vec();
    let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Blanks src[from..to] in `code`, keeping newlines.
    let blank = |code: &mut Vec<u8>, from: usize, to: usize| {
        for b in code.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < src.len() {
        let b = src[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < src.len() && src[i + 1] == b'/' => {
                let start = i;
                while i < src.len() && src[i] != b'\n' {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&src[start..i]).into_owned();
                record_allows(&text, line, &mut allows);
                // A comment alone on its line escapes the *next* line, so
                // multi-line statements can carry a lead-in allow.
                let standalone = src[..start]
                    .iter()
                    .rev()
                    .take_while(|&&b| b != b'\n')
                    .all(|b| b.is_ascii_whitespace());
                if standalone {
                    record_allows(&text, line + 1, &mut allows);
                }
                blank(&mut code, start, i);
            }
            b'/' if i + 1 < src.len() && src[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < src.len() && depth > 0 {
                    if src[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if src[i] == b'/' && i + 1 < src.len() && src[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if src[i] == b'*' && i + 1 < src.len() && src[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut code, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < src.len() {
                    match src[i] {
                        // An escape may hide a newline (`\` line
                        // continuation); keep the line count honest.
                        b'\\' => {
                            if src.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                // Keep the quotes so `""` stays a token boundary.
                blank(&mut code, start + 1, i.saturating_sub(1));
            }
            b'r' | b'b' if starts_raw_string(src, i) => {
                let prev_ident = i > 0 && is_ident(src[i - 1]);
                if prev_ident {
                    i += 1;
                    continue;
                }
                let start = i;
                // Skip the `r`/`br`/`rb` prefix.
                while i < src.len() && (src[i] == b'r' || src[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < src.len() && src[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                loop {
                    if i >= src.len() {
                        break;
                    }
                    if src[i] == b'\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    if src[i] == b'"' {
                        let mut closing = 0usize;
                        while i + 1 + closing < src.len() && src[i + 1 + closing] == b'#' {
                            closing += 1;
                        }
                        if closing >= hashes {
                            i += 1 + hashes;
                            break;
                        }
                    }
                    i += 1;
                }
                blank(&mut code, start, i);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let next = src.get(i + 1).copied().unwrap_or(b' ');
                let after = src.get(i + 2).copied().unwrap_or(b' ');
                if next == b'\\' {
                    let start = i;
                    i += 2; // quote + backslash
                    while i < src.len() && src[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    blank(&mut code, start, i.min(src.len()));
                } else if is_ident(next) && after != b'\'' {
                    i += 1; // lifetime: skip the quote only
                } else {
                    let start = i;
                    i += 2; // quote + char
                    if i < src.len() && src[i] == b'\'' {
                        i += 1;
                    }
                    blank(&mut code, start, i.min(src.len()));
                }
            }
            _ => i += 1,
        }
    }
    Cleaned { code, allows }
}

fn starts_raw_string(src: &[u8], i: usize) -> bool {
    // `r"`, `r#`, `br"`, `br#`, `rb"` (the latter is not legal Rust but
    // harmless to accept).
    let mut j = i;
    while j < src.len() && (src[j] == b'r' || src[j] == b'b') && j - i < 2 {
        j += 1;
    }
    if j == i || !src[i..j].contains(&b'r') {
        return false;
    }
    while j < src.len() && src[j] == b'#' {
        j += 1;
    }
    src.get(j) == Some(&b'"')
}

fn record_allows(comment: &str, line: usize, allows: &mut BTreeMap<usize, Vec<String>>) {
    let Some(pos) = comment.find("fastg-lint:") else {
        return;
    };
    let rest = &comment[pos + "fastg-lint:".len()..];
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split(')').next()) else {
        return;
    };
    let entry = allows.entry(line).or_default();
    for rule in inner.split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            entry.push(rule.to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// cfg(test) / cfg(debug_assertions) span exclusion
// ---------------------------------------------------------------------------

/// Blanks every item gated by `#[cfg(test)]` or `#[cfg(debug_assertions)]`
/// (including `any(...)` combinations of the two) from the cleaned code.
fn blank_cfg_spans(code: &mut [u8]) {
    let mut i = 0usize;
    while i < code.len() {
        let Some(off) = find_from(code, i, b"#[cfg(") else {
            break;
        };
        let attr_start = off;
        let args_start = off + b"#[cfg(".len();
        let Some(args_end) = matching(code, args_start - 1, b'(', b')') else {
            break;
        };
        let args = String::from_utf8_lossy(&code[args_start..args_end]).into_owned();
        let gated = cfg_is_test_like(&args);
        let Some(attr_end) = matching(code, attr_start + 1, b'[', b']') else {
            break;
        };
        if !gated {
            i = attr_end + 1;
            continue;
        }
        // Skip trailing attributes and whitespace, then the gated item:
        // either `;`-terminated or a `{ ... }` body.
        let mut j = attr_end + 1;
        loop {
            while j < code.len() && code[j].is_ascii_whitespace() {
                j += 1;
            }
            if j + 1 < code.len() && code[j] == b'#' && code[j + 1] == b'[' {
                match matching(code, j + 1, b'[', b']') {
                    Some(e) => j = e + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        let mut end = j;
        while end < code.len() {
            match code[end] {
                b';' => {
                    end += 1;
                    break;
                }
                b'{' => {
                    end = matching(code, end, b'{', b'}').map_or(code.len(), |e| e + 1);
                    break;
                }
                _ => end += 1,
            }
        }
        for b in code.iter_mut().take(end).skip(attr_start) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        i = end;
    }
}

/// Whether a `cfg(...)` argument list gates test-or-debug-only code.
fn cfg_is_test_like(args: &str) -> bool {
    let t = args.trim();
    if t == "test" || t == "debug_assertions" {
        return true;
    }
    if let Some(inner) = t.strip_prefix("any(").and_then(|r| r.strip_suffix(")")) {
        return inner
            .split(',')
            .all(|p| matches!(p.trim(), "test" | "debug_assertions"));
    }
    false
}

fn find_from(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= hay.len() || needle.is_empty() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Byte offset of the bracket matching `hay[open]`.
fn matching(hay: &[u8], open: usize, open_b: u8, close_b: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in hay.iter().enumerate().skip(open) {
        if b == open_b {
            depth += 1;
        } else if b == close_b {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule pass
// ---------------------------------------------------------------------------

struct LineMap {
    /// Byte offset of the start of each line.
    starts: Vec<usize>,
}

impl LineMap {
    fn new(code: &[u8]) -> Self {
        let mut starts = vec![0usize];
        for (i, &b) in code.iter().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineMap { starts }
    }

    /// (1-based line, 1-based col) of a byte offset.
    fn pos(&self, off: usize) -> (usize, usize) {
        let idx = match self.starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        (idx + 1, off - self.starts[idx] + 1)
    }
}

const PANIC_MACROS: [&str; 7] = [
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Scans one file's source, returning every diagnostic (allow escapes
/// already applied, baseline not).
pub fn scan_file(rel_path: &str, source: &str, scope: FileScope) -> Vec<Diagnostic> {
    let mut cleaned = clean(source);
    blank_cfg_spans(&mut cleaned.code);
    let code = &cleaned.code;
    let map = LineMap::new(code);
    let mut out = Vec::new();

    let mut push = |rule: &'static str, off: usize, message: String| {
        let (line, col) = map.pos(off);
        let allowed = cleaned
            .allows
            .get(&line)
            .is_some_and(|rules| rules.iter().any(|r| r == rule));
        if !allowed {
            out.push(Diagnostic {
                rule,
                file: rel_path.to_string(),
                line,
                col,
                message,
            });
        }
    };

    if scope.lib_code {
        scan_no_panic(code, &mut push);
    }
    if scope.deterministic {
        scan_words(code, &["Instant", "SystemTime"], |off, word| {
            push(
                NO_WALLCLOCK,
                off,
                format!("`{word}` is wall-clock time; deterministic crates must use `SimTime`"),
            );
        });
        scan_words(code, &["HashMap", "HashSet"], |off, word| {
            push(
                NO_UNORDERED_ITER,
                off,
                format!(
                    "`{word}` has randomized iteration order; use `BTree{}` in deterministic crates",
                    &word[4..]
                ),
            );
        });
    }
    if scope.threads_banned {
        scan_words(code, &THREAD_WORDS, |off, word| {
            push(
                NO_THREADS,
                off,
                format!(
                    "`{word}` is a raw threading primitive; parallelism outside `crates/par` \
                     must go through `fastg_par::par_map` to stay deterministic"
                ),
            );
        });
    }
    if scope.lib_code && !scope.deterministic {
        // Inside the deterministic crates `no-unordered-iter` already
        // denies these (with a stronger rationale); this rule extends the
        // ban to the rest of the workspace's library code so helper
        // crates can migrate into the core without smuggling in a
        // randomized iteration order.
        scan_words(code, &["HashMap", "HashSet"], |off, word| {
            push(
                NO_DEFAULT_HASHER,
                off,
                format!(
                    "`{word}` uses the randomly-seeded default hasher; iteration order is a \
                     latent determinism race — use `BTree{}`",
                    &word[4..]
                ),
            );
        });
    }
    if scope.deterministic {
        scan_tiebreak_drain(code, &mut push);
        scan_event_match(code, &mut push);
    }
    if scope.hot_path {
        scan_words(code, &["BTreeMap", "BTreeSet"], |off, word| {
            push(
                NO_BTREEMAP_HOT_PATH,
                off,
                format!(
                    "`{word}` on a per-event hot path is a pointer-chasing tree walk; keep \
                     entity state in `IdArena`/dense slabs (cold report assembly may keep it \
                     behind a per-line allow escape)"
                ),
            );
        });
    }
    if scope.lib_code {
        scan_snapshot_fields(code, &mut push);
    }
    scan_float_eq(code, &mut push);
    scan_lossy_cast(code, &mut push);
    out
}

/// Whether a function name marks a snapshot encode/decode body: `snap`,
/// `unsnap`, or any `snap_*`/`unsnap_*` variant (`snap_state`,
/// `unsnap_with`, `snap_cursor`, ...).
fn is_snapshot_fn(name: &[u8]) -> bool {
    name == b"snap"
        || name == b"unsnap"
        || name.starts_with(b"snap_")
        || name.starts_with(b"unsnap_")
}

/// `exhaustive-snapshot-fields`: a `..` rest pattern inside a snapshot
/// encode/decode body. The codec's correctness rests on every struct
/// being destructured exhaustively — `let Self { a, b } = self;` — so a
/// newly added field fails to compile until it is wired onto the wire.
/// A rest pattern defeats exactly that: the new field silently skips
/// serialization and the checkpoint restores to a different simulation.
///
/// Only genuine rest patterns are flagged (`..` preceded by `{`, `(` or
/// `,` and followed by `}` or `)`); ranges (`0..n`), slice indexing
/// (`&b[..4]`) and `..=` stay legal.
fn scan_snapshot_fields(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    let needle = b"fn ";
    let mut i = 0usize;
    while let Some(off) = find_from(code, i, needle) {
        i = off + needle.len();
        if off > 0 && is_ident(code[off - 1]) {
            continue;
        }
        let mut j = i;
        while code.get(j).copied().is_some_and(is_ident) {
            j += 1;
        }
        if !is_snapshot_fn(&code[i..j]) {
            continue;
        }
        // Find the body's opening brace at paren depth 0 (a `;` first
        // means a bodyless trait method declaration).
        let mut k = j;
        let mut pdepth = 0usize;
        let mut open = None;
        while k < code.len() {
            match code[k] {
                b'(' => pdepth += 1,
                b')' => pdepth = pdepth.saturating_sub(1),
                b'{' if pdepth == 0 => {
                    open = Some(k);
                    break;
                }
                b';' if pdepth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            continue;
        };
        let Some(close) = matching(code, open, b'{', b'}') else {
            continue;
        };
        let mut u = open;
        while let Some(dots) = find_from(code, u, b"..") {
            if dots >= close {
                break;
            }
            u = dots + 2;
            // `..=` and `...` are ranges, never rest patterns.
            if matches!(code.get(dots + 2), Some(&b'=') | Some(&b'.')) {
                continue;
            }
            let prev = code[..dots]
                .iter()
                .rev()
                .find(|b| !b.is_ascii_whitespace())
                .copied()
                .unwrap_or(b' ');
            if !matches!(prev, b',' | b'{' | b'(') {
                continue;
            }
            let mut v = dots + 2;
            while code.get(v).copied().is_some_and(|b| b.is_ascii_whitespace()) {
                v += 1;
            }
            if matches!(code.get(v), Some(&b'}') | Some(&b')')) {
                push(
                    EXHAUSTIVE_SNAPSHOT_FIELDS,
                    dots,
                    "`..` rest pattern in a snapshot encode/decode body; destructure every \
                     field explicitly so a new state field cannot silently skip serialization"
                        .to_string(),
                );
            }
        }
        i = close;
    }
}

/// `no-tiebreak-sensitive-drain`: a comparator that orders events by
/// `time` alone. Two findings families:
///
/// * `.time.cmp(..)` not chained into `.then`/`.then_with` — an `Ord`
///   implementation (or sort comparator) whose result for equal-time
///   entries is unspecified, i.e. whatever the container's internal
///   order happens to be;
/// * `sort_by_key`/`min_by_key`/`max_by_key` with a closure returning a
///   bare `<expr>.time` — equal-time elements keep slice order, so the
///   drain result silently depends on how the slice was built.
///
/// Both are latent tie-break races: append a discriminating key
/// (sequence number, id) to make equal-time order explicit.
fn scan_tiebreak_drain(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    let needle = b".time.cmp(";
    let mut i = 0usize;
    while let Some(off) = find_from(code, i, needle) {
        i = off + needle.len();
        let open = off + needle.len() - 1;
        let Some(close) = matching(code, open, b'(', b')') else {
            continue;
        };
        let mut j = close + 1;
        while code.get(j).copied().is_some_and(|b| b.is_ascii_whitespace()) {
            j += 1;
        }
        if find_from(code, j, b".then") != Some(j) {
            push(
                NO_TIEBREAK_DRAIN,
                off + 1,
                "comparator orders by `time` alone; equal-time order is a latent race — \
                 chain `.then_with(..)` on a discriminating key (seq, id)"
                    .to_string(),
            );
        }
    }
    for name in ["sort_by_key", "min_by_key", "max_by_key"] {
        let needle = name.as_bytes();
        let mut i = 0usize;
        while let Some(off) = find_from(code, i, needle) {
            i = off + needle.len();
            if off > 0 && is_ident(code[off - 1]) {
                continue;
            }
            let mut j = i;
            while code.get(j).copied().is_some_and(|b| b.is_ascii_whitespace()) {
                j += 1;
            }
            if code.get(j) != Some(&b'(') {
                continue;
            }
            let Some(close) = matching(code, j, b'(', b')') else {
                continue;
            };
            let body: Vec<u8> = code[j + 1..close]
                .iter()
                .copied()
                .filter(|b| !b.is_ascii_whitespace())
                .collect();
            if body.contains(&b'|') && body.ends_with(b".time") {
                push(
                    NO_TIEBREAK_DRAIN,
                    off,
                    format!(
                        "`{name}` keyed by `time` alone leaves equal-time order to the \
                         container; key by a tuple like `(e.time, e.seq)` instead"
                    ),
                );
            }
        }
    }
}

/// `exhaustive-event-match`: a `match` whose body has `Event::` arms must
/// not have a `_ =>` arm. A wildcard silently absorbs every future event
/// variant — exactly how a new event kind bypasses the class ranking,
/// sanitizer hooks or trace coverage without the compiler noticing.
fn scan_event_match(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    let needle = b"match ";
    let mut i = 0usize;
    while let Some(off) = find_from(code, i, needle) {
        i = off + needle.len();
        if off > 0 && is_ident(code[off - 1]) {
            continue;
        }
        let Some(open) = find_from(code, off, b"{") else {
            continue;
        };
        let Some(close) = matching(code, open, b'{', b'}') else {
            continue;
        };
        let body = &code[open..=close];
        if !has_event_arm(body) {
            continue;
        }
        let mut k = 0usize;
        while let Some(u) = find_from(body, k, b"_") {
            k = u + 1;
            if u > 0 && is_ident(body[u - 1]) {
                continue;
            }
            if body.get(u + 1).copied().is_some_and(is_ident) {
                continue;
            }
            // A wildcard *arm* starts at an arm boundary (`{`, `,` or a
            // block arm's `}`) — `Some(_)` / `|_|` / `(_, x)` do not.
            let prev = body[..u]
                .iter()
                .rev()
                .find(|b| !b.is_ascii_whitespace())
                .copied()
                .unwrap_or(b' ');
            if !matches!(prev, b'{' | b',' | b'}') {
                continue;
            }
            let mut v = u + 1;
            while body.get(v).copied().is_some_and(|b| b.is_ascii_whitespace()) {
                v += 1;
            }
            if find_from(body, v, b"=>") == Some(v) {
                push(
                    EXHAUSTIVE_EVENT_MATCH,
                    open + u,
                    "wildcard arm in a match over `Event`; new event variants would be \
                     silently absorbed — list every variant explicitly"
                        .to_string(),
                );
            }
        }
        i = close;
    }
}

/// Whether a match body contains an `Event::` path at an identifier
/// boundary (so `FaultEvent::` does not count).
fn has_event_arm(body: &[u8]) -> bool {
    let needle = b"Event::";
    let mut i = 0usize;
    while let Some(off) = find_from(body, i, needle) {
        i = off + needle.len();
        if off == 0 || !is_ident(body[off - 1]) {
            return true;
        }
    }
    false
}

/// Tokens denied by `no-threads-outside-par`. `Arc` is deliberately
/// absent: shared immutable data is deterministic.
const THREAD_WORDS: [&str; 11] = [
    "thread",
    "Mutex",
    "RwLock",
    "Condvar",
    "JoinHandle",
    "mpsc",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU64",
    "AtomicU32",
];

fn scan_no_panic(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    // Method calls: `.unwrap()` and `.expect(`.
    for (needle, hint) in [
        (
            &b".unwrap"[..],
            "return a typed error (`?`, `ok_or`) instead of unwrapping",
        ),
        (
            &b".expect"[..],
            "return a typed error (`?`, `ok_or`) instead of expecting",
        ),
    ] {
        let mut i = 0usize;
        while let Some(off) = find_from(code, i, needle) {
            i = off + needle.len();
            // Reject `.unwrap_or`, `.expect_err`, identifiers.
            if code.get(i).copied().is_some_and(is_ident) {
                continue;
            }
            // Must be a call.
            let mut j = i;
            while code.get(j).copied().is_some_and(|b| b.is_ascii_whitespace()) {
                j += 1;
            }
            if code.get(j) != Some(&b'(') {
                continue;
            }
            let name = String::from_utf8_lossy(&code[off + 1..i]).into_owned();
            push(
                NO_PANIC,
                off + 1,
                format!("`{name}()` can panic in library code; {hint}"),
            );
        }
    }
    // Panicking macros (debug_assert* excluded by the boundary check).
    for mac in PANIC_MACROS {
        let needle = mac.as_bytes();
        let mut i = 0usize;
        while let Some(off) = find_from(code, i, needle) {
            i = off + needle.len();
            if off > 0 && is_ident(code[off - 1]) {
                continue; // debug_assert!, my_panic!, ...
            }
            push(
                NO_PANIC,
                off,
                format!(
                    "`{mac}` panics in library code; return a typed error or use `debug_assert!`"
                ),
            );
        }
    }
}

fn scan_words(code: &[u8], words: &[&'static str], mut hit: impl FnMut(usize, &'static str)) {
    for word in words {
        let needle = word.as_bytes();
        let mut i = 0usize;
        while let Some(off) = find_from(code, i, needle) {
            i = off + needle.len();
            let before_ok = off == 0 || !is_ident(code[off - 1]);
            let after_ok = !code.get(i).copied().is_some_and(is_ident);
            if before_ok && after_ok {
                hit(off, word);
            }
        }
    }
}

/// A backward token ending at `end` (exclusive): the longest run of
/// identifier/number bytes (plus `.` so `1.0` is one token).
fn token_before(code: &[u8], end: usize) -> &[u8] {
    let mut j = end;
    while j > 0 && code[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let stop = j;
    while j > 0 && (is_ident(code[j - 1]) || code[j - 1] == b'.') {
        j -= 1;
    }
    &code[j..stop]
}

fn token_after(code: &[u8], start: usize) -> &[u8] {
    let mut j = start;
    while j < code.len() && code[j].is_ascii_whitespace() {
        j += 1;
    }
    // Skip a unary sign.
    if code.get(j) == Some(&b'-') {
        j += 1;
    }
    let begin = j;
    while j < code.len() && (is_ident(code[j]) || code[j] == b'.') {
        j += 1;
    }
    &code[begin..j]
}

/// `1.0`, `0.5`, `12.`, `1.5e3` — a numeric token containing a dot.
fn is_float_literal(tok: &[u8]) -> bool {
    if tok.is_empty() || !tok[0].is_ascii_digit() || !tok.contains(&b'.') {
        return false;
    }
    tok.iter()
        .all(|&b| b.is_ascii_digit() || matches!(b, b'.' | b'_' | b'e' | b'E' | b'f'))
}

fn scan_float_eq(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    let mut i = 0usize;
    while i + 1 < code.len() {
        let pair = &code[i..i + 2];
        let is_eq = pair == b"==";
        let is_ne = pair == b"!=";
        if !is_eq && !is_ne {
            i += 1;
            continue;
        }
        let prev = if i > 0 { code[i - 1] } else { b' ' };
        let next = code.get(i + 2).copied().unwrap_or(b' ');
        // Exclude `<=`, `>=`, `===`-ish, `!==`, pattern `=>`, `&&=`…
        if is_eq && (matches!(prev, b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^') || next == b'=') {
            i += 2;
            continue;
        }
        if is_ne && next == b'=' {
            i += 2;
            continue;
        }
        let lhs = token_before(code, i);
        let rhs = token_after(code, i + 2);
        let lhs_cast = ends_with_float_cast(code, i);
        if is_float_literal(lhs) || is_float_literal(rhs) || lhs_cast {
            push(
                NO_FLOAT_EQ,
                i,
                "exact float comparison; use an epsilon test like `(a - b).abs() < EPS`"
                    .to_string(),
            );
        }
        i += 2;
    }
}

/// Whether the text before offset `end` ends with `as f64` / `as f32`.
fn ends_with_float_cast(code: &[u8], end: usize) -> bool {
    let tok = token_before(code, end);
    if tok != b"f64" && tok != b"f32" {
        return false;
    }
    let mut j = end;
    while j > 0 && code[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let tok2 = token_before(code, j - tok.len());
    tok2 == b"as"
}

fn scan_lossy_cast(code: &[u8], push: &mut impl FnMut(&'static str, usize, String)) {
    let needle = b"as";
    let mut i = 0usize;
    while let Some(off) = find_from(code, i, needle) {
        i = off + 2;
        let before_ok = off == 0 || !is_ident(code[off - 1]);
        let after_ws = code.get(i).copied().is_some_and(|b| b.is_ascii_whitespace());
        if !before_ok || !after_ws {
            continue;
        }
        let target = token_after(code, i);
        if INT_TYPES.iter().any(|t| t.as_bytes() == target) {
            let t = String::from_utf8_lossy(target).into_owned();
            push(
                NO_LOSSY_CAST,
                off,
                format!(
                    "`as {t}` can silently truncate; use `{t}::from`/`{t}::try_from` or widen the accumulator"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline: per-rule-per-file allowlisted violation counts
// ---------------------------------------------------------------------------

/// The checked-in ratchet: existing violation counts per rule per file.
/// `--check` fails only when a (rule, file) pair exceeds its entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// rule -> file -> allowlisted count.
    pub entries: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Baseline {
    /// Builds a baseline that exactly allowlists `diags`.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Self {
        let mut entries: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for d in diags {
            *entries
                .entry(d.rule.to_string())
                .or_default()
                .entry(d.file.clone())
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Total allowlisted violations.
    pub fn total(&self) -> u64 {
        self.entries.values().flat_map(|m| m.values()).sum()
    }

    /// Allowlisted count for a (rule, file) pair.
    pub fn allowed(&self, rule: &str, file: &str) -> u64 {
        self.entries
            .get(rule)
            .and_then(|m| m.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Renders the canonical JSON form (sorted keys, pretty-printed).
    pub fn render(&self) -> String {
        use fastg_json::{ObjectBuilder, Value};
        let mut rules = ObjectBuilder::new();
        for (rule, files) in &self.entries {
            let mut per_file = ObjectBuilder::new();
            for (file, &count) in files {
                per_file = per_file.field(file, count);
            }
            rules = rules.field(rule, per_file.build());
        }
        let doc = ObjectBuilder::new()
            .field("version", 1u64)
            .field("rules", rules.build())
            .build();
        let mut s = Value::to_string_pretty(&doc);
        s.push('\n');
        s
    }

    /// Parses the JSON form produced by [`Self::render`].
    pub fn parse(text: &str) -> Result<Self, String> {
        use fastg_json::Value;
        let v = Value::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let rules = v
            .get("rules")
            .and_then(|r| r.as_object())
            .ok_or("baseline has no `rules` object")?;
        let mut entries: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for (rule, files) in rules {
            let files = files
                .as_object()
                .ok_or_else(|| format!("rule `{rule}` is not an object"))?;
            let mut per_file = BTreeMap::new();
            for (file, count) in files {
                let count = count
                    .as_u64()
                    .ok_or_else(|| format!("count for `{rule}`/`{file}` is not an integer"))?;
                per_file.insert(file.clone(), count);
            }
            entries.insert(rule.clone(), per_file);
        }
        Ok(Baseline { entries })
    }
}

/// Result of checking a diagnostic set against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// (rule, file, found, allowed) for every pair over its baseline.
    pub regressions: Vec<(String, String, u64, u64)>,
    /// (rule, file, found, allowed) for stale entries (fewer violations
    /// than allowlisted — the baseline should be re-tightened).
    pub stale: Vec<(String, String, u64, u64)>,
}

impl CheckReport {
    /// Whether the check passed (no pair exceeds its baseline).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares found diagnostics against the baseline ratchet.
pub fn check(diags: &[Diagnostic], baseline: &Baseline) -> CheckReport {
    let found = Baseline::from_diagnostics(diags);
    let mut report = CheckReport::default();
    for (rule, files) in &found.entries {
        for (file, &count) in files {
            let allowed = baseline.allowed(rule, file);
            if count > allowed {
                report
                    .regressions
                    .push((rule.clone(), file.clone(), count, allowed));
            }
        }
    }
    for (rule, files) in &baseline.entries {
        for (file, &allowed) in files {
            let have = found.allowed(rule, file);
            if have < allowed {
                report.stale.push((rule.clone(), file.clone(), have, allowed));
            }
        }
    }
    report
}

/// Renders diagnostics as a machine-readable JSON array.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    use fastg_json::{ObjectBuilder, Value};
    let items: Vec<Value> = diags
        .iter()
        .map(|d| {
            ObjectBuilder::new()
                .field("rule", d.rule)
                .field("file", d.file.as_str())
                .field("line", u64::try_from(d.line).unwrap_or(u64::MAX))
                .field("col", u64::try_from(d.col).unwrap_or(u64::MAX))
                .field("message", d.message.as_str())
                .build()
        })
        .collect();
    let mut s = Value::from(items).to_string_pretty();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Diagnostic> {
        scan_file("lib.rs", src, FileScope::full())
    }

    #[test]
    fn unwrap_in_lib_flagged() {
        let d = scan("fn f() { x.unwrap(); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NO_PANIC);
        assert_eq!((d[0].line, d[0].col), (1, 12));
    }

    #[test]
    fn unwrap_or_not_flagged() {
        assert!(scan("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }").is_empty());
        assert!(scan("fn f() { x.expect_err(\"e\"); }").is_empty());
    }

    #[test]
    fn debug_assert_not_flagged_but_assert_is() {
        assert!(scan("fn f() { debug_assert!(true); debug_assert_eq!(1, 1); }").is_empty());
        let d = scan("fn f() { assert!(true); }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn strings_and_comments_are_skipped() {
        assert!(scan("// x.unwrap()\nfn f() { let s = \"panic!\"; }").is_empty());
        assert!(scan("/* panic! */ fn f() {}").is_empty());
        assert!(scan("/// x.unwrap()\nfn f() {}").is_empty());
    }

    #[test]
    fn cfg_test_block_is_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }\n";
        assert!(scan(src).is_empty());
        let src = "#[cfg(debug_assertions)]\nfn check() { assert!(true); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_escape_suppresses_one_line() {
        let src = "fn f() { x.unwrap(); // fastg-lint: allow(no-panic-in-lib)\n y.unwrap(); }";
        let d = scan(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn standalone_allow_escapes_next_line() {
        let src = "fn f() {\n    // fastg-lint: allow(no-panic-in-lib)\n    x.unwrap();\n    y.unwrap();\n}\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "only the un-escaped unwrap should remain");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn trailing_allow_does_not_leak_to_next_line() {
        // A comment that follows code on its line escapes only that line.
        let src = "fn f() { let a = 1; // fastg-lint: allow(no-panic-in-lib)\n    x.unwrap();\n}\n";
        let d = scan(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn wallclock_and_hash_flagged_in_deterministic_scope_only() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\n";
        assert_eq!(scan(src).len(), 2);
        // Outside the deterministic crates the unordered-iter and
        // wallclock rules stand down, but the default-hasher rule picks
        // the HashMap up instead.
        let lib_only = FileScope { lib_code: true, deterministic: false, threads_banned: false, hot_path: false };
        let d = scan_file("lib.rs", src, lib_only);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NO_DEFAULT_HASHER);
    }

    #[test]
    fn string_line_continuation_keeps_line_count() {
        // A `\` line continuation inside a string hides a newline from a
        // naive scanner; allow escapes after it must still land on the
        // right line.
        let src = "fn f() {\n    let s = \"a \\\n       b\";\n    x.unwrap(); // fastg-lint: allow(no-panic-in-lib)\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let d = scan("fn f(x: f64) -> bool { x == 1.0 }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NO_FLOAT_EQ);
        assert_eq!(scan("fn f(x: f64) -> bool { 0.5 != x }").len(), 1);
        assert!(scan("fn f(x: u64) -> bool { x == 1 }").is_empty());
        assert!(scan("fn f(x: f64) -> bool { x <= 1.0 }").is_empty());
    }

    #[test]
    fn float_cast_eq_flagged() {
        let d = scan("fn f(x: u32, y: f64) -> bool { x as f64 == y }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NO_FLOAT_EQ);
    }

    #[test]
    fn lossy_cast_flagged() {
        let d = scan("fn f(x: u64) -> u32 { x as u32 }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, NO_LOSSY_CAST);
        assert!(scan("fn f(x: u32) -> f64 { x as f64 }").is_empty());
        assert!(scan("fn f() { let basket = 1; }").is_empty()); // `as` inside ident
    }

    #[test]
    fn bin_scope_skips_no_panic_only() {
        let scope = FileScope { lib_code: false, deterministic: true, threads_banned: false, hot_path: false };
        let src = "fn main() { x.unwrap(); let m: HashMap<u8, u8> = HashMap::new(); }";
        let d = scan_file("main.rs", src, scope);
        assert!(d.iter().all(|d| d.rule == NO_UNORDERED_ITER));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn thread_primitives_flagged_outside_par() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == NO_THREADS));
        // Arc and plural identifiers stay clean; scope off disables it.
        assert!(scan("use std::sync::Arc;\nfn f(threads: usize) {}\n").is_empty());
        let par_scope = FileScope { lib_code: true, deterministic: false, threads_banned: false, hot_path: false };
        assert!(scan_file("crates/par/src/lib.rs", src, par_scope).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/gpu/src/device.rs"), Some(FileScope { lib_code: true, deterministic: true, threads_banned: true, hot_path: false }));
        assert_eq!(classify("crates/workload/src/rate.rs"), Some(FileScope { lib_code: true, deterministic: false, threads_banned: true, hot_path: false }));
        assert_eq!(classify("crates/par/src/lib.rs"), Some(FileScope { lib_code: true, deterministic: false, threads_banned: false, hot_path: false }));
        assert_eq!(classify("crates/core/src/bin/fastgshare.rs"), Some(FileScope { lib_code: false, deterministic: true, threads_banned: false, hot_path: false }));
        assert_eq!(classify("crates/core/src/scheduler/node_select.rs"), Some(FileScope { lib_code: true, deterministic: true, threads_banned: true, hot_path: true }));
        assert_eq!(classify("crates/core/src/platform/node.rs"), Some(FileScope { lib_code: true, deterministic: true, threads_banned: true, hot_path: true }));
        assert_eq!(classify("crates/core/src/scheduler/rects.rs"), Some(FileScope { lib_code: true, deterministic: true, threads_banned: true, hot_path: false }));
        assert_eq!(classify("crates/lint/src/main.rs"), Some(FileScope { lib_code: false, deterministic: false, threads_banned: false, hot_path: false }));
        assert_eq!(classify("crates/gpu/tests/scenarios.rs"), None);
        assert_eq!(classify("tests/end_to_end.rs"), None);
        assert_eq!(classify("examples/quickstart.rs"), None);
        assert_eq!(classify("crates/bench/benches/ablation_manager.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn baseline_round_trip_and_check() {
        let diags = scan("fn f() { x.unwrap(); y.unwrap(); }");
        assert_eq!(diags.len(), 2);
        let base = Baseline::from_diagnostics(&diags);
        assert_eq!(base.total(), 2);
        let parsed = Baseline::parse(&base.render()).expect("round trip");
        assert_eq!(parsed, base);
        // Exactly-at-baseline passes; one more violation fails.
        assert!(check(&diags, &base).passed());
        let more = scan("fn f() { x.unwrap(); y.unwrap(); z.unwrap(); }");
        let report = check(&more, &base);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].2, 3);
        assert_eq!(report.regressions[0].3, 2);
        // Fewer violations than allowlisted is stale, not failing.
        let fewer = scan("fn f() { x.unwrap(); }");
        let report = check(&fewer, &base);
        assert!(report.passed());
        assert_eq!(report.stale.len(), 1);
    }

    #[test]
    fn snapshot_rest_pattern_flagged_in_snap_fns_only() {
        // A rest pattern inside `snap` hides fields from the wire.
        let d = scan("fn snap(&self, w: &mut W) { let Self { a, .. } = self; w.u64(*a); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, EXHAUSTIVE_SNAPSHOT_FIELDS);
        // `snap_state` / `unsnap_with` variants are covered too.
        assert_eq!(
            scan("fn unsnap_with(r: &mut R) { let Self { b, .. } = x; }").len(),
            1
        );
        // The same pattern outside a snapshot body stays legal.
        assert!(scan("fn summary(&self) -> u64 { let Self { a, .. } = self; *a }").is_empty());
        // Ranges, slices and `..=` inside snapshot bodies are not rest
        // patterns.
        assert!(scan(
            "fn snap(&self, w: &mut W) { for i in 0..3 { w.u64(i); } let s = &self.b[..2]; \
             if matches!(self.a, 0..=9) { w.u64(1); } }"
        )
        .is_empty());
        // Tuple rest patterns are rest patterns.
        assert_eq!(
            scan("fn unsnap(r: &mut R) { let Self(a, ..) = x; }").len(),
            1
        );
    }

    #[test]
    fn raw_strings_and_lifetimes_survive_cleaning() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"x.unwrap()\"#; let c = '\"'; }";
        assert!(scan(src).is_empty());
    }
}
