//! A lightweight item parser on top of the lexer: just enough structure
//! for whole-workspace dataflow, with no `syn` (the workspace builds
//! offline) and no expression grammar.
//!
//! One left-to-right pass over the token stream recovers:
//!
//! * **fn items** — name, enclosing `impl` type (or trait), whether the
//!   first parameter is `self`, whether the body implements or defaults a
//!   trait method, and the token range of the body;
//! * **call sites** inside each body — free calls, `path::segment`
//!   calls (the last qualifier is kept), and `.method(...)` calls — plus
//!   **fn values**: a fn named but not called (`.map(PageKey::pack)`,
//!   `(cmd_profile, true)`), and the fn values of a same-file
//!   `const`/`static` table the body names (`EXPERIMENTS`);
//! * **panic sites** — `.unwrap()` / `.expect(...)`, the panic macro
//!   family, and slice-index expressions `recv[...]`;
//! * **lock sites** — `.lock()` / `.read()` / `.write()` with the
//!   receiver's final path segment as the lock identity, plus the token
//!   index where the enclosing block closes (the conservative end of the
//!   guard's lifetime);
//! * **determinism sources** — wall-clock types, ambient RNG, thread
//!   IDs, and std hash-iteration shapes;
//! * **env reads** — `env::var(...)` calls with the argument resolved to
//!   a string literal, a named constant, or "dynamic";
//! * **`use` declarations** and **`&str` constants**, which the symbol
//!   table uses to resolve qualified calls and knob-name constants.
//!
//! The parser never fails: unrecognized shapes are skipped, and every
//! token ends up tagged with an owner (a fn body or top-level item
//! space) so the round-trip test can assert full accounting.

use crate::lexer::{Lexed, Token, TokenKind};

/// Keywords that can be followed by `(` or `[` without being calls or
/// index expressions.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// A call expression inside a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (final path segment or method name).
    pub name: String,
    /// Last path qualifier before the name (`Machine` in
    /// `Machine::new`, `rank` in `rank::ranked_pages`), if any.
    pub qual: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// True when the fn is named as a value rather than called
    /// (`.map(PageKey::pack)`, a bare `cmd_profile` argument).
    pub value: bool,
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
}

/// What kind of panic a site is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(...)`
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`
    Macro,
    /// `recv[...]` slice/array indexing in expression position.
    Index,
}

/// A potential panic inside a fn body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub kind: PanicKind,
    /// The offending name (`unwrap`, `panic`, or the indexed receiver).
    pub what: String,
    pub line: u32,
    /// For `Index` sites: the index expression contains a `&` mask, `%`
    /// modulo, or `.min(...)` clamp — bounded by construction, so the
    /// panic-reachability pass skips it.
    pub masked: bool,
}

/// How a lock is acquired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    Lock,
    Read,
    Write,
}

impl LockKind {
    pub fn label(self) -> &'static str {
        match self {
            LockKind::Lock => "lock",
            LockKind::Read => "read",
            LockKind::Write => "write",
        }
    }
}

/// A `.lock()` / `.read()` / `.write()` acquisition.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// Final path segment of the receiver (`state` in
    /// `self.state.lock()`); `"?"` when the receiver is a call result.
    pub recv: String,
    pub kind: LockKind,
    pub line: u32,
    /// Token index of the method name.
    pub tok: usize,
    /// Token index just past the close of the enclosing block — the
    /// conservative end of the guard's lifetime.
    pub region_end: usize,
}

/// A determinism source used directly in a fn body.
#[derive(Clone, Debug)]
pub struct TaintSource {
    /// Stable label, e.g. `wall-clock (Instant)` or `ambient-rng
    /// (thread_rng)`.
    pub what: String,
    pub line: u32,
}

/// The argument of an `env::var(...)` read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvArg {
    /// A string literal.
    Lit(String),
    /// A named constant (resolved later via the symbol table).
    Const(String),
    /// Anything else (field access, computed).
    Dynamic,
}

/// An `env::var(...)` / `env::var_os(...)` call.
#[derive(Clone, Debug)]
pub struct EnvRead {
    pub arg: EnvArg,
    pub line: u32,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl` target type, if any.
    pub qual: Option<String>,
    /// Innermost inline `mod name { .. }` around the fn, if any (so
    /// `ring::with_ring` resolves to a fn in a same-file `mod ring`).
    pub module: Option<String>,
    /// Line of the `fn` keyword (where a function-level allow anchors).
    pub line: u32,
    /// Token range of the body, `[lo, hi)` (`lo` is the `{`).
    pub body: (usize, usize),
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// The body of a trait method: inside `impl Trait for Type`, or a
    /// default body inside `trait Name { .. }`. Dispatch through a trait
    /// object or a generic bound reaches it without naming its type.
    pub trait_body: bool,
    /// Inside `#[cfg(test)]` or a `tests/` file.
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub locks: Vec<LockSite>,
    pub sources: Vec<TaintSource>,
    pub env_reads: Vec<EnvRead>,
}

/// A `use` declaration, flattened: one entry per imported name.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Local name the import binds (after `as`, or the final segment).
    pub alias: String,
    /// Full path segments, e.g. `["tmprof_sim", "machine", "Machine"]`.
    pub path: Vec<String>,
}

/// A string constant (`const NAME: &str = "...";` or `static`).
#[derive(Clone, Debug)]
pub struct StrConst {
    pub name: String,
    pub value: String,
    pub line: u32,
}

/// A parsed file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
    pub str_consts: Vec<StrConst>,
    /// Per-token owner: index into `fns` for tokens inside that fn's
    /// body (innermost wins), `NO_OWNER` for item-level tokens. Always
    /// the same length as the token stream — the round-trip accounting.
    pub owner: Vec<u32>,
}

/// Owner tag for tokens outside every fn body.
pub const NO_OWNER: u32 = u32::MAX;

/// Parse one lexed file. `tests_file` marks every fn as test code (used
/// for `tests/` integration files, which compile without `#[cfg(test)]`).
pub fn parse(lexed: &Lexed, tests_file: bool) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile {
        owner: vec![NO_OWNER; toks.len()],
        ..ParsedFile::default()
    };

    // Pass 1: impl- and trait-block spans, so fns pick up their
    // enclosing type.
    let impls = find_impl_spans(toks);
    let mods = find_mod_spans(toks);
    // Item-level `const`/`static` tables and the fns they hold as values.
    let mut tables: Vec<(String, Vec<CallSite>)> = Vec::new();

    // Pass 2: fn items.
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && t.text == "use" && !prev_is_punct(toks, i, '.') {
            i = parse_use(toks, i, &mut out.uses);
            continue;
        }
        if t.kind == TokenKind::Ident && (t.text == "const" || t.text == "static") {
            if let Some((c, ni)) = parse_str_const(toks, i) {
                out.str_consts.push(c);
                i = ni;
                continue;
            }
            if out.owner[i] == NO_OWNER {
                if let Some(table) = parse_fn_table(toks, i) {
                    tables.push(table);
                }
            }
        }
        if t.kind == TokenKind::Ident && t.text == "fn" {
            if let Some(ni) = parse_fn(lexed, i, &impls, &mods, tests_file, &mut out) {
                i = ni;
                continue;
            }
        }
        i += 1;
    }

    // A fn that names a same-file table reaches every fn value in it.
    if !tables.is_empty() {
        for item in &mut out.fns {
            let (lo, hi) = item.body;
            for (k, t) in toks.iter().enumerate().take(hi).skip(lo) {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                for (name, refs) in &tables {
                    if t.text == *name {
                        item.calls.extend(refs.iter().map(|r| CallSite {
                            line: t.line,
                            tok: k,
                            ..r.clone()
                        }));
                    }
                }
            }
        }
    }

    out
}

/// The fn values held by an item-level `const`/`static` whose keyword
/// sits at `start`: `(NAME, refs)`, or `None` for `const fn`, a bodyless
/// declaration or a table that holds no fn.
fn parse_fn_table(toks: &[Token], start: usize) -> Option<(String, Vec<CallSite>)> {
    let mut j = start + 1;
    if toks.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name = toks.get(j)?;
    if name.kind != TokenKind::Ident || is_keyword(&name.text) {
        return None;
    }
    // The type may hold brackets of its own (`[(&str, Experiment); 12]`).
    let mut depth = 0i32;
    let mut eq = j + 1;
    loop {
        match toks.get(eq)?.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('=') if depth == 0 => break,
            TokenKind::Punct(';') | TokenKind::Punct('{') if depth == 0 => return None,
            _ => {}
        }
        eq += 1;
    }
    let mut end = eq + 1;
    while end < toks.len() {
        match toks[end].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct(';') if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    let refs: Vec<CallSite> = (eq + 1..end).filter_map(|k| fn_value_at(toks, k)).collect();
    (!refs.is_empty()).then(|| (name.text.clone(), refs))
}

/// A fn named as a value at token `i`, if the token is one:
///
/// * a path whose last segment is lower-case and is not called, indexed
///   into or continued (`PageKey::pack`, `fig2_ptw_ratio::run`);
/// * a bare lower-case identifier standing alone as an argument or tuple
///   field (`(cmd_profile, true)`, `.map(parse_line)`).
///
/// Locals and fields can take either shape; the symbol table resolves a
/// bare one only to a same-file or imported fn, so a miss costs nothing.
fn fn_value_at(toks: &[Token], i: usize) -> Option<CallSite> {
    let t = &toks[i];
    let lower = t
        .text
        .starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
    if t.kind != TokenKind::Ident || !lower || is_keyword(&t.text) {
        return None;
    }
    let next = toks.get(i + 1).map(|n| &n.kind);
    if matches!(
        next,
        Some(TokenKind::Punct('(' | '!' | ':' | '[' | '{' | '.' | '='))
    ) {
        return None;
    }
    let pathed = i >= 3
        && prev_is_punct(toks, i, ':')
        && prev_is_punct(toks, i - 1, ':')
        && toks[i - 3].kind == TokenKind::Ident;
    let qual = if pathed {
        Some(toks[i - 3].text.clone())
    } else {
        let arg_start = i > 0 && matches!(toks[i - 1].kind, TokenKind::Punct('(' | ','));
        let arg_end = matches!(next, Some(TokenKind::Punct(')' | ',')));
        if !(arg_start && arg_end) {
            return None;
        }
        None
    };
    Some(CallSite {
        name: t.text.clone(),
        qual,
        method: false,
        value: true,
        line: t.line,
        tok: i,
    })
}

/// An `impl` or `trait` block: its body's token range, the type (or
/// trait) its fns belong to, and whether those fns are trait methods.
struct ImplSpan {
    body: (usize, usize),
    target: String,
    trait_body: bool,
}

/// Spans of `impl` and `trait` blocks. Handles `impl Type`, `impl Trait
/// for Type`, `trait Name: Bound`, and generic arguments on any of them.
fn find_impl_spans(toks: &[Token]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_trait = match (&toks[i].kind, toks[i].text.as_str()) {
            (TokenKind::Ident, "impl") => false,
            (TokenKind::Ident, "trait") => true,
            _ => {
                i += 1;
                continue;
            }
        };
        // Scan the header up to the opening `{`, tracking the last plain
        // identifier seen outside generic brackets; after `for`, that is
        // the impl target. Without `for`, it is the type itself. A
        // trait's name is the first identifier after `trait`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut target = String::new();
        let mut for_trait = is_trait;
        let mut bounds = false;
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if !prev_is_punct(toks, j, '-') => angle -= 1,
                TokenKind::Punct(':') if is_trait && angle <= 0 => bounds = true,
                TokenKind::Punct('{') if angle <= 0 => break,
                TokenKind::Punct(';') => break, // `impl Trait for Type;` style — skip
                TokenKind::Ident if angle <= 0 && !bounds => {
                    let s = toks[j].text.as_str();
                    if s == "for" {
                        target.clear(); // the real target follows
                        for_trait = true;
                    } else if s == "where" {
                        bounds = true; // header over; type already captured
                    } else if !is_keyword(s) && (!is_trait || target.is_empty()) {
                        target = s.to_string();
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].kind != TokenKind::Punct('{') {
            i = j;
            continue;
        }
        let open = j;
        let close = match_brace(toks, open);
        if !target.is_empty() {
            spans.push(ImplSpan {
                body: (open, close),
                target,
                trait_body: for_trait,
            });
        }
        // Descend into the body (nested fns live there); continue the
        // outer scan right after the header.
        i = open + 1;
    }
    spans
}

/// An inline `mod name { .. }` block: (body token range, name).
type ModSpan = ((usize, usize), String);

/// Spans of inline `mod name { .. }` blocks.
fn find_mod_spans(toks: &[Token]) -> Vec<ModSpan> {
    let mut spans = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "mod"
            && toks[i + 1].kind == TokenKind::Ident
            && toks[i + 2].kind == TokenKind::Punct('{')
        {
            spans.push(((i + 2, match_brace(toks, i + 2)), toks[i + 1].text.clone()));
        }
    }
    spans
}

/// Index just past the matching `}` for the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

fn prev_is_punct(toks: &[Token], i: usize, c: char) -> bool {
    i > 0 && toks[i - 1].kind == TokenKind::Punct(c)
}

fn next_is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c))
}

/// Parse a `use` declaration starting at the `use` token; returns the
/// index just past the terminating `;`. Handles nested groups and `as`.
fn parse_use(toks: &[Token], start: usize, out: &mut Vec<UseDecl>) -> usize {
    // Collect until `;`, expanding `{}` groups with a prefix stack.
    let mut j = start + 1;
    let mut prefix: Vec<Vec<String>> = vec![Vec::new()];
    let mut cur: Vec<String> = Vec::new();
    let mut pending_as: Option<String> = None;
    let mut in_as = false;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct(';') => {
                j += 1;
                break;
            }
            TokenKind::Punct('{') => {
                let mut base = prefix.last().cloned().unwrap_or_default();
                base.append(&mut cur);
                prefix.push(base);
            }
            TokenKind::Punct('}') => {
                flush_use(&prefix, &mut cur, &mut pending_as, out);
                prefix.pop();
            }
            TokenKind::Punct(',') => {
                flush_use(&prefix, &mut cur, &mut pending_as, out);
                in_as = false;
            }
            TokenKind::Punct('*') => {
                cur.push("*".to_string());
            }
            TokenKind::Ident => {
                let s = toks[j].text.as_str();
                if s == "as" {
                    in_as = true;
                } else if in_as {
                    pending_as = Some(s.to_string());
                    in_as = false;
                } else {
                    cur.push(s.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    flush_use(&prefix, &mut cur, &mut pending_as, out);
    j
}

fn flush_use(
    prefix: &[Vec<String>],
    cur: &mut Vec<String>,
    pending_as: &mut Option<String>,
    out: &mut Vec<UseDecl>,
) {
    if cur.is_empty() {
        *pending_as = None;
        return;
    }
    let mut path = prefix.last().cloned().unwrap_or_default();
    path.append(cur);
    let alias = pending_as
        .take()
        .or_else(|| path.last().cloned())
        .unwrap_or_default();
    if alias != "*" && !alias.is_empty() {
        out.push(UseDecl { alias, path });
    }
}

/// Parse `const NAME: &str = "...";` (or `static`). Returns the constant
/// and the index past the `;` on success.
fn parse_str_const(toks: &[Token], start: usize) -> Option<(StrConst, usize)> {
    // start is `const`/`static`; allow `mut` after static.
    let mut j = start + 1;
    if toks.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokenKind::Ident || is_keyword(&name_tok.text) {
        return None;
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    // Scan to `=` then expect a string literal then `;` (tolerating an
    // intervening type annotation of any shape without braces).
    let mut k = j + 1;
    while k < toks.len() {
        match toks[k].kind {
            TokenKind::Punct('=') => break,
            TokenKind::Punct(';') | TokenKind::Punct('{') => return None,
            _ => k += 1,
        }
    }
    let lit = toks.get(k + 1)?;
    if lit.kind != TokenKind::StrLit
        || !toks
            .get(k + 2)
            .is_some_and(|t| t.kind == TokenKind::Punct(';'))
    {
        return None;
    }
    Some((
        StrConst {
            name,
            value: lit.text.clone(),
            line,
        },
        k + 3,
    ))
}

/// Parse a fn item whose `fn` keyword sits at `start`. Returns the index
/// just past the body on success (so nested fns inside the body are
/// re-scanned by the caller loop — we return `start + 2` instead, see
/// below).
fn parse_fn(
    lexed: &Lexed,
    start: usize,
    impls: &[ImplSpan],
    mods: &[ModSpan],
    tests_file: bool,
    out: &mut ParsedFile,
) -> Option<usize> {
    let toks = &lexed.tokens;
    let name_tok = toks.get(start + 1)?;
    if name_tok.kind != TokenKind::Ident || is_keyword(&name_tok.text) {
        return None; // `fn` in a type position (`fn(...)` pointer)
    }
    let name = name_tok.text.clone();
    let line = toks[start].line;

    // Parameter list: scan to the first `(` (skipping generics).
    let mut j = start + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('(') if angle <= 0 => break,
            TokenKind::Punct('{') | TokenKind::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let params_open = j;
    // Does the parameter list start with `self` (after `&`, `mut`,
    // lifetimes)?
    let mut k = params_open + 1;
    let mut has_self = false;
    while k < toks.len() {
        match &toks[k].kind {
            TokenKind::Punct('&') | TokenKind::Lifetime => k += 1,
            TokenKind::Ident if toks[k].text == "mut" => k += 1,
            TokenKind::Ident => {
                has_self = toks[k].text == "self";
                break;
            }
            _ => break,
        }
    }
    // Close of the parameter list.
    let mut depth = 1usize;
    let mut m = params_open + 1;
    while m < toks.len() && depth > 0 {
        match toks[m].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => depth -= 1,
            _ => {}
        }
        m += 1;
    }
    // Body `{` (skipping return type / where clause); a `;` first means
    // a bodyless declaration (trait method, extern).
    let mut angle2 = 0i32;
    while m < toks.len() {
        match toks[m].kind {
            TokenKind::Punct('<') => angle2 += 1,
            TokenKind::Punct('>') if !prev_is_punct(toks, m, '-') => angle2 -= 1,
            TokenKind::Punct(';') if angle2 <= 0 => return None,
            TokenKind::Punct('{') if angle2 <= 0 => break,
            _ => {}
        }
        m += 1;
    }
    if m >= toks.len() {
        return None;
    }
    let body_open = m;
    let body_close = match_brace(toks, body_open);

    let owner = impls.iter().rfind(|s| s.body.0 < start && start < s.body.1); // innermost impl wins
    let qual = owner.map(|s| s.target.clone());
    let module = mods
        .iter()
        .filter(|((lo, hi), _)| *lo < start && start < *hi)
        .map(|(_, name)| name.clone())
        .next_back();
    let trait_body = owner.is_some_and(|s| s.trait_body);

    let is_test = tests_file || lexed.in_test(line) || has_test_attr(toks, start);

    let mut item = FnItem {
        name,
        qual,
        module,
        line,
        body: (body_open, body_close),
        has_self,
        trait_body,
        is_test,
        calls: Vec::new(),
        panics: Vec::new(),
        locks: Vec::new(),
        sources: Vec::new(),
        env_reads: Vec::new(),
    };
    scan_body(lexed, &mut item);

    let idx = out.fns.len() as u32;
    // Innermost fn wins ownership: nested fns are parsed after their
    // parent (the caller loop continues at start + 2 and will re-find
    // them), and later paints overwrite earlier ones.
    let paint_end = body_close.min(out.owner.len());
    for o in &mut out.owner[body_open..paint_end] {
        *o = idx;
    }
    out.fns.push(item);

    // Continue scanning *inside* the body so nested fns are found.
    Some(start + 2)
}

/// Is the fn at token `start` preceded by a `#[test]`-family attribute?
/// Looks back over contiguous attributes and modifiers.
fn has_test_attr(toks: &[Token], start: usize) -> bool {
    let mut j = start;
    // Skip back over modifiers: pub, (crate), unsafe, async, const, extern "C".
    while j > 0 {
        let p = &toks[j - 1];
        let skip = matches!(p.kind, TokenKind::Ident if matches!(p.text.as_str(), "pub" | "unsafe" | "async" | "const" | "extern"))
            || matches!(p.kind, TokenKind::Punct(')') | TokenKind::Punct('(') | TokenKind::StrLit if j >= 2)
                && matches!(toks.get(j.saturating_sub(3)), Some(t) if t.text == "pub" || t.text == "extern");
        if skip {
            j -= 1;
        } else {
            break;
        }
    }
    // Now look back over `#[...]` attribute groups.
    while j >= 2 && toks[j - 1].kind == TokenKind::Punct(']') {
        // Find the matching `[`.
        let mut depth = 1usize;
        let mut k = j - 1;
        while k > 0 && depth > 0 {
            k -= 1;
            match toks[k].kind {
                TokenKind::Punct(']') => depth += 1,
                TokenKind::Punct('[') => depth -= 1,
                _ => {}
            }
        }
        if k == 0 || toks[k - 1].kind != TokenKind::Punct('#') {
            return false;
        }
        // Attribute tokens are toks[k+1 .. j-1].
        for t in &toks[k + 1..j - 1] {
            if t.kind == TokenKind::Ident && (t.text == "test" || t.text == "bench") {
                return true;
            }
        }
        j = k - 1;
    }
    false
}

/// Walk a fn body and collect calls, panic sites, locks, determinism
/// sources, and env reads.
fn scan_body(lexed: &Lexed, item: &mut FnItem) {
    let toks = &lexed.tokens;
    let (lo, hi) = item.body;
    let hi = hi.min(toks.len());
    // Track whether the body mentions std hash types; combined with an
    // iteration call this becomes a determinism source.
    let mut hash_type_line: Option<u32> = None;
    let mut hash_iter_line: Option<u32> = None;
    let bounded = bounded_locals(toks, lo, hi);

    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            // Index expression: `[` whose previous token closes a value.
            if t.kind == TokenKind::Punct('[') && i > lo {
                let p = &toks[i - 1];
                let value_pos = match &p.kind {
                    TokenKind::Ident => !is_keyword(&p.text),
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    _ => false,
                };
                if value_pos && !index_is_full_range(toks, i, hi) {
                    let recv = match &p.kind {
                        TokenKind::Ident => p.text.clone(),
                        _ => "<expr>".to_string(),
                    };
                    item.panics.push(PanicSite {
                        kind: PanicKind::Index,
                        what: recv,
                        line: t.line,
                        masked: index_is_masked(toks, i, hi, &bounded),
                    });
                }
            }
            i += 1;
            continue;
        }
        let name = t.text.as_str();

        // Macro invocation `name!(` / `name![` / `name!{`.
        if next_is_punct(toks, i + 1, '!') {
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
                item.panics.push(PanicSite {
                    kind: PanicKind::Macro,
                    what: name.to_string(),
                    line: t.line,
                    masked: false,
                });
            }
            i += 2;
            continue;
        }

        let is_method = prev_is_punct(toks, i, '.');
        let called = next_is_punct(toks, i + 1, '(');

        if is_method && called {
            match name {
                "unwrap" => item.panics.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    what: name.to_string(),
                    line: t.line,
                    masked: false,
                }),
                "expect" => item.panics.push(PanicSite {
                    kind: PanicKind::Expect,
                    what: name.to_string(),
                    line: t.line,
                    masked: false,
                }),
                "lock" | "read" | "write"
                    // Locks take no arguments; `read(buf)`/`write(buf)`
                    // are I/O, not locks.
                    if next_is_punct(toks, i + 2, ')') => {
                        let kind = match name {
                            "lock" => LockKind::Lock,
                            "read" => LockKind::Read,
                            _ => LockKind::Write,
                        };
                        item.locks.push(LockSite {
                            recv: receiver_of(toks, i),
                            kind,
                            line: t.line,
                            tok: i,
                            region_end: enclosing_block_end(toks, i, item.body),
                        });
                    }
                "iter" | "keys" | "values" | "iter_mut" | "drain" | "into_iter" => {
                    hash_iter_line.get_or_insert(t.line);
                }
                _ => {}
            }
        }

        // Determinism sources by identifier.
        match name {
            "Instant" | "SystemTime" => item.sources.push(TaintSource {
                what: format!("wall-clock ({name})"),
                line: t.line,
            }),
            "thread_rng" | "from_entropy" | "RandomState" => item.sources.push(TaintSource {
                what: format!("ambient-rng ({name})"),
                line: t.line,
            }),
            "ThreadId" => item.sources.push(TaintSource {
                what: "thread-id (ThreadId)".to_string(),
                line: t.line,
            }),
            "HashMap" | "HashSet" => {
                hash_type_line.get_or_insert(t.line);
            }
            _ => {}
        }

        // `env::var(...)` / `env::var_os(...)` reads.
        if (name == "var" || name == "var_os")
            && called
            && i >= 3
            && prev_is_punct(toks, i, ':')
            && prev_is_punct(toks, i - 1, ':')
            && toks
                .get(i - 3)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "env")
        {
            let arg = match toks.get(i + 2) {
                Some(a) if a.kind == TokenKind::StrLit => EnvArg::Lit(a.text.clone()),
                Some(a)
                    if a.kind == TokenKind::Ident
                        && !is_keyword(&a.text)
                        && next_is_punct(toks, i + 3, ')') =>
                {
                    EnvArg::Const(a.text.clone())
                }
                _ => EnvArg::Dynamic,
            };
            item.env_reads.push(EnvRead { arg, line: t.line });
        }

        // Call sites (after the special forms above so `unwrap`/locks
        // are not double-counted as ordinary calls; `read(buf)` and
        // `write(buf)` take arguments, so they are calls, not locks).
        if called && !is_keyword(name) {
            if is_method {
                let lock_site =
                    matches!(name, "lock" | "read" | "write") && next_is_punct(toks, i + 2, ')');
                if !lock_site && !matches!(name, "unwrap" | "expect") {
                    item.calls.push(CallSite {
                        name: name.to_string(),
                        qual: None,
                        method: true,
                        value: false,
                        line: t.line,
                        tok: i,
                    });
                }
            } else {
                // Free or path call: look back for `qual::name`.
                let qual = if i >= 3
                    && prev_is_punct(toks, i, ':')
                    && prev_is_punct(toks, i - 1, ':')
                    && toks[i - 3].kind == TokenKind::Ident
                {
                    Some(toks[i - 3].text.clone())
                } else {
                    None
                };
                item.calls.push(CallSite {
                    name: name.to_string(),
                    qual,
                    method: false,
                    value: false,
                    line: t.line,
                    tok: i,
                });
            }
        } else if !is_method {
            item.calls.extend(fn_value_at(toks, i));
        }

        i += 1;
    }

    if let (Some(tl), Some(il)) = (hash_type_line, hash_iter_line) {
        item.sources.push(TaintSource {
            what: "std-hash-iteration (HashMap/HashSet)".to_string(),
            line: tl.max(il),
        });
    }
}

/// Is the index expression starting at `[` (token `open`) exactly `[..]`
/// (a full-range slice, which cannot panic)?
fn index_is_full_range(toks: &[Token], open: usize, hi: usize) -> bool {
    matches!(
        (toks.get(open + 1), toks.get(open + 2), toks.get(open + 3)),
        (
            Some(Token {
                kind: TokenKind::Punct('.'),
                ..
            }),
            Some(Token {
                kind: TokenKind::Punct('.'),
                ..
            }),
            Some(Token {
                kind: TokenKind::Punct(']'),
                ..
            }),
        )
    ) && open + 3 < hi
}

/// Does the index expression starting at `[` (token `open`) contain a
/// bounding idiom — a `&` bitmask, `%` modulo, a `.min(...)` clamp, or a
/// single local previously bound by one of those idioms?
fn index_is_masked(
    toks: &[Token],
    open: usize,
    hi: usize,
    bounded: &std::collections::BTreeSet<String>,
) -> bool {
    let mut depth = 1usize;
    let mut j = open + 1;
    let mut inner = Vec::new();
    while j < hi.min(toks.len()) && depth > 0 {
        match &toks[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('&') | TokenKind::Punct('%') => return true,
            TokenKind::Punct('>') if prev_is_punct(toks, j, '>') => return true,
            TokenKind::Ident
                if toks[j].text == "min" && j > 0 && toks[j - 1].kind == TokenKind::Punct('.') =>
            {
                return true;
            }
            // `.index()` is the workspace's enum-discriminant accessor
            // (Tier::index → 0|1 into fixed two-element arrays).
            TokenKind::Ident
                if toks[j].text == "index"
                    && j > 0
                    && toks[j - 1].kind == TokenKind::Punct('.')
                    && next_is_punct(toks, j + 1, '(')
                    && next_is_punct(toks, j + 2, ')') =>
            {
                return true;
            }
            _ => {}
        }
        if depth > 0 {
            inner.push(j);
        }
        j += 1;
    }
    // `v[w]`, `v[w..]`, `v[..w]`: every identifier inside is a bounded
    // local and everything else is range punctuation.
    let mut saw_bounded = false;
    for &k in &inner {
        match &toks[k].kind {
            TokenKind::Ident if bounded.contains(&toks[k].text) => saw_bounded = true,
            TokenKind::Punct('.') => {}
            _ => return false,
        }
    }
    saw_bounded
}

/// Locals bound from a bounding expression within the body: `let v = …;`
/// where the initializer contains a `&` mask, `%` modulo, `>>` shift, or
/// `.min(...)` clamp, plus `for v in 0..xs.len()` loop variables. Indexing
/// by such a local counts as masked. Purely syntactic — a heuristic, not
/// a proof — but it matches how the simulator derives word/slot indices.
fn bounded_locals(toks: &[Token], lo: usize, hi: usize) -> std::collections::BTreeSet<String> {
    let hi = hi.min(toks.len());
    let mut out = std::collections::BTreeSet::new();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "let" {
            // `let (mut)? NAME (: Type)? = INIT ;`
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { break };
            if name_tok.kind != TokenKind::Ident || is_keyword(&name_tok.text) {
                i += 1;
                continue;
            }
            // Scan to `=` (skipping a type annotation), bail at `;`/`{`.
            let mut k = j + 1;
            let eq = loop {
                match toks.get(k).map(|t| &t.kind) {
                    Some(TokenKind::Punct('=')) => break Some(k),
                    Some(TokenKind::Punct(';')) | Some(TokenKind::Punct('{')) | None => break None,
                    _ => k += 1,
                }
            };
            if let Some(eq) = eq {
                let mut m = eq + 1;
                let mut masked = false;
                while m < hi {
                    match &toks[m].kind {
                        TokenKind::Punct(';') => break,
                        TokenKind::Punct('&') | TokenKind::Punct('%') => masked = true,
                        TokenKind::Punct('>') if prev_is_punct(toks, m, '>') => masked = true,
                        TokenKind::Ident
                            if toks[m].text == "min" && prev_is_punct(toks, m, '.') =>
                        {
                            masked = true
                        }
                        _ => {}
                    }
                    m += 1;
                }
                if masked {
                    out.insert(name_tok.text.clone());
                }
                i = m;
                continue;
            }
        } else if t.text == "while" {
            // `while NAME < … .len()` — NAME stays below a length for the
            // loop body (indexing elsewhere is outside this fn's sites
            // only when the loop owns the variable; heuristic, see above).
            if let (Some(name_tok), true) = (toks.get(i + 1), next_is_punct(toks, i + 2, '<')) {
                if name_tok.kind == TokenKind::Ident && !is_keyword(&name_tok.text) {
                    let mut m = i + 3;
                    let mut len_bound = false;
                    while m < hi {
                        match &toks[m].kind {
                            TokenKind::Punct('{') => break,
                            TokenKind::Ident
                                if toks[m].text == "len" && prev_is_punct(toks, m, '.') =>
                            {
                                len_bound = true
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    if len_bound {
                        out.insert(name_tok.text.clone());
                    }
                    i = m;
                    continue;
                }
            }
            i += 1;
            continue;
        } else if t.text == "for" {
            // `for NAME in RANGE {` with a `.len()` upper bound.
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokenKind::Ident
                    && toks.get(i + 2).is_some_and(|t| t.text == "in")
                {
                    let mut m = i + 3;
                    let mut len_bound = false;
                    while m < hi {
                        match &toks[m].kind {
                            TokenKind::Punct('{') => break,
                            TokenKind::Ident
                                if toks[m].text == "len" && prev_is_punct(toks, m, '.') =>
                            {
                                len_bound = true
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    if len_bound {
                        out.insert(name_tok.text.clone());
                    }
                    i = m;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Final path segment of the receiver of the method call at token `i`
/// (`i` is the method name, `i-1` the dot).
fn receiver_of(toks: &[Token], i: usize) -> String {
    // Walk back over `ident . ident . ident` chains; the receiver key is
    // the identifier immediately before this call's dot.
    if i < 2 {
        return "?".to_string();
    }
    match &toks[i - 2].kind {
        TokenKind::Ident if !is_keyword(&toks[i - 2].text) || toks[i - 2].text == "self" => {
            if toks[i - 2].text == "self" {
                "self".to_string()
            } else {
                toks[i - 2].text.clone()
            }
        }
        TokenKind::Punct(')') | TokenKind::Punct(']') => "?".to_string(),
        _ => "?".to_string(),
    }
}

/// Token index just past the `}` closing the innermost block containing
/// token `i`, bounded by the fn body.
fn enclosing_block_end(toks: &[Token], i: usize, body: (usize, usize)) -> usize {
    let (lo, hi) = body;
    let hi = hi.min(toks.len());
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        match toks[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                if depth == 0 {
                    return j + 1;
                }
                depth -= 1;
            }
            _ => {}
        }
        j += 1;
    }
    let _ = lo;
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src), false)
    }

    #[test]
    fn fn_items_with_impl_qual_and_self() {
        let p = parse_src(
            "impl Machine { pub fn exec_batch(&mut self, n: u64) { self.step(n); } }\n\
             fn free(x: u64) -> u64 { helper(x) }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "exec_batch");
        assert_eq!(p.fns[0].qual.as_deref(), Some("Machine"));
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[1].name, "free");
        assert!(!p.fns[1].has_self);
        assert!(p.fns[1]
            .calls
            .iter()
            .any(|c| c.name == "helper" && !c.method));
        assert!(p.fns[0].calls.iter().any(|c| c.name == "step" && c.method));
    }

    #[test]
    fn trait_impls_attribute_to_the_target_type() {
        let p = parse_src("impl Default for Tlb { fn default() -> Self { Tlb::new() } }");
        assert_eq!(p.fns[0].qual.as_deref(), Some("Tlb"));
        assert!(p.fns[0]
            .calls
            .iter()
            .any(|c| c.name == "new" && c.qual.as_deref() == Some("Tlb")));
    }

    #[test]
    fn panic_sites_unwrap_expect_macro_index() {
        let p = parse_src(
            "fn f(v: Vec<u64>, o: Option<u64>) -> u64 {\n\
               let a = o.unwrap();\n\
               let b = o.expect(\"msg\");\n\
               if a > b { panic!(\"boom\"); }\n\
               v[a as usize] + v[..].len() as u64\n\
             }\n",
        );
        let kinds: Vec<PanicKind> = p.fns[0].panics.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::Macro,
                PanicKind::Index
            ],
            "{:?}",
            p.fns[0].panics
        );
        // `v[..]` (full-range) is not a panic site.
        assert_eq!(
            p.fns[0]
                .panics
                .iter()
                .filter(|s| s.kind == PanicKind::Index)
                .count(),
            1
        );
    }

    #[test]
    fn attribute_brackets_and_slice_patterns_are_not_index_sites() {
        let p = parse_src(
            "fn f(xs: &[u64]) -> u64 {\n\
               #[allow(dead_code)]\n\
               let [a, b] = [xs.len() as u64, 2];\n\
               let v: [u64; 2] = [a, b];\n\
               v[0]\n\
             }\n",
        );
        assert_eq!(
            p.fns[0]
                .panics
                .iter()
                .filter(|s| s.kind == PanicKind::Index)
                .count(),
            1,
            "{:?}",
            p.fns[0].panics
        );
    }

    #[test]
    fn lock_sites_record_receiver_and_kind() {
        let p = parse_src(
            "fn f(&self) {\n\
               let g = self.state.lock();\n\
               let r = self.table.read();\n\
               self.io.read(buf);\n\
               drop(g); drop(r);\n\
             }\n",
        );
        let locks = &p.fns[0].locks;
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert_eq!(locks[0].recv, "state");
        assert_eq!(locks[0].kind, LockKind::Lock);
        assert_eq!(locks[1].recv, "table");
        assert_eq!(locks[1].kind, LockKind::Read);
    }

    #[test]
    fn env_reads_resolve_literal_and_const_args() {
        let p = parse_src(
            "const CAP_ENV: &str = \"TMPROF_X\";\n\
             fn f() {\n\
               let a = std::env::var(\"TMPROF_Y\");\n\
               let b = std::env::var(CAP_ENV);\n\
               let c = std::env::var(self.name);\n\
             }\n",
        );
        assert_eq!(p.str_consts.len(), 1);
        assert_eq!(p.str_consts[0].name, "CAP_ENV");
        assert_eq!(p.str_consts[0].value, "TMPROF_X");
        let reads = &p.fns[0].env_reads;
        assert_eq!(reads.len(), 3, "{reads:?}");
        assert_eq!(reads[0].arg, EnvArg::Lit("TMPROF_Y".into()));
        assert_eq!(reads[1].arg, EnvArg::Const("CAP_ENV".into()));
        assert_eq!(reads[2].arg, EnvArg::Dynamic);
    }

    #[test]
    fn use_decls_flatten_groups_and_renames() {
        let p = parse_src(
            "use std::collections::{BTreeMap, BTreeSet as Set};\n\
             use tmprof_sim::machine::Machine;\n",
        );
        let aliases: Vec<&str> = p.uses.iter().map(|u| u.alias.as_str()).collect();
        assert_eq!(aliases, vec!["BTreeMap", "Set", "Machine"]);
        assert_eq!(p.uses[2].path, vec!["tmprof_sim", "machine", "Machine"]);
    }

    #[test]
    fn determinism_sources_detected() {
        let p = parse_src(
            "fn f() {\n\
               let t = Instant::now();\n\
               let mut r = thread_rng();\n\
               let m: HashMap<u64, u64> = HashMap::new();\n\
               for (k, v) in m.iter() { let _ = (k, v, t, r); }\n\
             }\n",
        );
        let whats: Vec<&str> = p.fns[0].sources.iter().map(|s| s.what.as_str()).collect();
        assert!(
            whats.iter().any(|w| w.starts_with("wall-clock")),
            "{whats:?}"
        );
        assert!(
            whats.iter().any(|w| w.starts_with("ambient-rng")),
            "{whats:?}"
        );
        assert!(
            whats.iter().any(|w| w.starts_with("std-hash-iteration")),
            "{whats:?}"
        );
    }

    #[test]
    fn test_fns_are_marked() {
        let p = parse(
            &lex(
                "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn live() {}\n",
            ),
            false,
        );
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
        let pt = parse(&lex("fn anything() {}"), true);
        assert!(pt.fns[0].is_test);
    }

    #[test]
    fn owner_accounts_for_every_token() {
        let src = "fn a() { inner(); }\nconst X: u64 = 3;\nimpl T { fn b(&self) { self.c(); } }\n";
        let lexed = lex(src);
        let p = parse(&lexed, false);
        assert_eq!(p.owner.len(), lexed.tokens.len());
        // Body tokens owned; item-level tokens not.
        assert!(p.owner.contains(&0));
        assert!(p.owner.contains(&NO_OWNER));
        for &o in &p.owner {
            assert!(o == NO_OWNER || (o as usize) < p.fns.len());
        }
    }

    #[test]
    fn nested_fns_are_found_and_own_their_tokens() {
        let src = "fn outer() { fn inner() { leaf(); } inner(); }";
        let lexed = lex(src);
        let p = parse(&lexed, false);
        assert_eq!(p.fns.len(), 2);
        let inner = p.fns.iter().position(|f| f.name == "inner").unwrap();
        // The leaf() call tokens belong to inner, not outer.
        let leaf_tok = lexed.tokens.iter().position(|t| t.text == "leaf").unwrap();
        assert_eq!(p.owner[leaf_tok] as usize, inner);
    }

    #[test]
    fn fn_values_are_recorded_as_value_calls() {
        let p = parse_src(
            "fn f(v: Vec<u64>) {\n\
               let t = (cmd_profile, true);\n\
               v.iter().map(PageKey::pack);\n\
               let x = local + other;\n\
               let w = Vec::<u64>::new();\n\
             }\n",
        );
        let values: Vec<(&str, Option<&str>)> = p.fns[0]
            .calls
            .iter()
            .filter(|c| c.value)
            .map(|c| (c.name.as_str(), c.qual.as_deref()))
            .collect();
        assert_eq!(values, [("cmd_profile", None), ("pack", Some("PageKey"))]);
    }

    #[test]
    fn const_tables_lend_their_fn_values_to_the_fns_that_name_them() {
        let p = parse_src(
            "const TABLE: [(&str, fn()); 2] = [(\"a\", a::run), (\"b\", b::run)];\n\
             fn main() { for (_, run) in TABLE { run(); } }\n",
        );
        let quals: Vec<&str> = p.fns[0]
            .calls
            .iter()
            .filter(|c| c.value && c.name == "run")
            .filter_map(|c| c.qual.as_deref())
            .collect();
        assert_eq!(quals, ["a", "b"]);
    }

    #[test]
    fn trait_bodies_and_inline_modules_are_marked() {
        let p = parse_src(
            "impl Tlb { fn inherent(&self) {} }\n\
             impl Default for Tlb { fn default() -> Self { Tlb } }\n\
             trait Scan { fn scan(&self) { self.step(); } fn step(&self); }\n\
             mod ring { pub fn with_ring() {} }\n",
        );
        let flags: Vec<(&str, bool, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.trait_body, f.module.as_deref()))
            .collect();
        assert_eq!(
            flags,
            [
                ("inherent", false, None),
                ("default", true, None),
                ("scan", true, None),
                ("with_ring", false, Some("ring")),
            ]
        );
        assert_eq!(p.fns[2].qual.as_deref(), Some("Scan"));
    }

    #[test]
    fn read_and_write_with_arguments_are_calls_not_locks() {
        let p = parse_src("fn f(&self) { let g = self.t.read(); self.pmu.read(&m); }");
        assert_eq!(p.fns[0].locks.len(), 1);
        assert!(p.fns[0].calls.iter().any(|c| c.name == "read" && c.method));
    }
}
