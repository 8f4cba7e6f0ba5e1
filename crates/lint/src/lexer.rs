//! A hand-rolled Rust tokenizer, just deep enough for linting.
//!
//! The rules in this crate key on identifiers, string literals, and a few
//! punctuation shapes — never on the full grammar — so the lexer only has
//! to get the *boundaries* right: comments (line, nested block), string
//! literals (plain, byte, raw with any hash count), char literals vs
//! lifetimes, and numbers. Everything else is single-character punctuation.
//!
//! Two pieces of side information ride along with the token stream:
//!
//! * **Directives** — `// tmprof-lint: allow(<rule>) — <reason>` comments,
//!   parsed here and resolved to target lines by the engine;
//! * **Test spans** — line ranges covered by `#[cfg(test)]` items, found
//!   by brace counting, so hot-path rules can skip test code.

/// What a token is. Only the distinctions the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// String literal (plain, byte, or raw); `text` holds the contents.
    StrLit,
    /// Character literal.
    CharLit,
    /// Numeric literal; `text` holds the raw spelling.
    NumLit,
    /// A lifetime like `'a`.
    Lifetime,
    /// Any other single character.
    Punct(char),
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// Identifier text, string contents, or number spelling ("" for punct).
    pub text: String,
}

/// One `tmprof-lint:` comment, as written. The engine validates the rule
/// name and the reason and computes which line the directive governs.
#[derive(Clone, Debug)]
pub struct Directive {
    /// The rule named inside `allow(...)`; empty when the comment carried
    /// the `tmprof-lint:` marker but didn't parse as an allow form.
    pub rule: String,
    /// Everything after `allow(...)`, dashes stripped. Empty = no reason.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Whether code tokens precede the comment on its line (trailing
    /// directives govern their own line; standalone ones govern the next
    /// code line).
    pub trailing: bool,
}

/// A lexed file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub directives: Vec<Directive>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
}

impl Lexed {
    /// Whether `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The line a directive governs: its own line when it trails code,
    /// otherwise the next line that carries a token.
    pub fn governed_line(&self, d: &Directive) -> Option<u32> {
        if d.trailing {
            Some(d.line)
        } else {
            self.tokens.iter().map(|t| t.line).find(|&l| l > d.line)
        }
    }
}

/// Tokenize `src`.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut line_has_token = false;

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            line_has_token = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (including /// and //! doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if let Some(d) = parse_directive(&text, line, line_has_token) {
                out.directives.push(d);
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        line_has_token = true;
        // String literal.
        if c == '"' {
            let (text, ni, nl) = lex_string(&b, i + 1, line);
            out.tokens.push(Token {
                kind: TokenKind::StrLit,
                line,
                text,
            });
            i = ni;
            line = nl;
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: skip the escape, find the close.
                i += 2;
                if i < n {
                    i += 1; // the escaped character
                }
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token {
                    kind: TokenKind::CharLit,
                    line,
                    text: String::new(),
                });
            } else if i + 2 < n && b[i + 2] == '\'' {
                // Plain char literal: 'x'.
                i += 3;
                out.tokens.push(Token {
                    kind: TokenKind::CharLit,
                    line,
                    text: String::new(),
                });
            } else {
                // Lifetime: consume identifier characters.
                let start = i + 1;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    line,
                    text: b[start..i].iter().collect(),
                });
            }
            continue;
        }
        // Identifier (and the raw/byte-string prefixes r, b, br).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if matches!(text.as_str(), "r" | "b" | "br") && i < n {
                // Raw string r"..." / r#"..."# (and byte variants).
                let mut j = i;
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' && (text != "b" || hashes == 0) {
                    if text == "b" {
                        // b"...": escapes apply, reuse the string lexer.
                        let (s, ni, nl) = lex_string(&b, j + 1, line);
                        out.tokens.push(Token {
                            kind: TokenKind::StrLit,
                            line,
                            text: s,
                        });
                        i = ni;
                        line = nl;
                    } else {
                        let (s, ni, nl) = lex_raw_string(&b, j + 1, hashes, line);
                        out.tokens.push(Token {
                            kind: TokenKind::StrLit,
                            line,
                            text: s,
                        });
                        i = ni;
                        line = nl;
                    }
                    continue;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                line,
                text,
            });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            // Fractional part — but not the `..` of a range.
            if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::NumLit,
                line,
                text: b[start..i].iter().collect(),
            });
            continue;
        }
        out.tokens.push(Token {
            kind: TokenKind::Punct(c),
            line,
            text: String::new(),
        });
        i += 1;
    }

    out.test_spans = find_test_spans(&out.tokens);
    out
}

/// Lex a plain (escaped) string starting just after the opening quote.
/// Returns (contents, next index, current line).
fn lex_string(b: &[char], mut i: usize, mut line: u32) -> (String, usize, u32) {
    let n = b.len();
    let mut text = String::new();
    while i < n {
        match b[i] {
            '\\' => {
                // Keep escapes opaque; the rules only match plain prefixes.
                // A backslash-newline continuation still ends a source
                // line, so count it or every later token anchors high.
                if b.get(i + 1) == Some(&'\n') {
                    line += 1;
                }
                i += 2;
            }
            '"' => {
                i += 1;
                break;
            }
            c => {
                if c == '\n' {
                    line += 1;
                }
                text.push(c);
                i += 1;
            }
        }
    }
    (text, i, line)
}

/// Lex a raw string body starting just after the opening quote, with
/// `hashes` trailing `#` required to close.
fn lex_raw_string(b: &[char], mut i: usize, hashes: usize, mut line: u32) -> (String, usize, u32) {
    let n = b.len();
    let mut text = String::new();
    while i < n {
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && seen < hashes && b[j] == '#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (text, j, line);
            }
        }
        if b[i] == '\n' {
            line += 1;
        }
        text.push(b[i]);
        i += 1;
    }
    (text, i, line)
}

/// Parse a `tmprof-lint:` marker out of a line comment, if present. The
/// marker must be the first thing in the comment (after the slashes) so
/// prose that merely *mentions* the directive syntax is not parsed.
fn parse_directive(comment: &str, line: u32, trailing: bool) -> Option<Directive> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let rest = body.strip_prefix("tmprof-lint:")?.trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        // Marker present but malformed: surface it so typos don't
        // silently fail to suppress.
        return Some(Directive {
            rule: String::new(),
            reason: String::new(),
            line,
            trailing,
        });
    };
    let Some(close) = args.find(')') else {
        return Some(Directive {
            rule: String::new(),
            reason: String::new(),
            line,
            trailing,
        });
    };
    let rule = args[..close].trim().to_string();
    let reason = args[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':'])
        .trim()
        .to_string();
    Some(Directive {
        rule,
        reason,
        line,
        trailing,
    })
}

/// Find `#[cfg(test)] <item>` line ranges by brace counting.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(tokens, i, '#') || !is_punct(tokens, i + 1, '[') {
            i += 1;
            continue;
        }
        let Some(t) = tokens.get(i + 2) else { break };
        if !(t.kind == TokenKind::Ident && t.text == "cfg" && is_punct(tokens, i + 3, '(')) {
            i += 1;
            continue;
        }
        // Scan the cfg argument list for a `test` identifier.
        let mut j = i + 4;
        let mut depth = 1usize;
        let mut has_test = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => depth -= 1,
                TokenKind::Ident if tokens[j].text == "test" => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || !is_punct(tokens, j, ']') {
            i = j;
            continue;
        }
        let start_line = tokens[i].line;
        j += 1;
        // Skip further attributes on the same item.
        while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
            let mut d = 1usize;
            j += 2;
            while j < tokens.len() && d > 0 {
                match tokens[j].kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // The governed item's body: brace-count from its first `{`.
        while j < tokens.len() && tokens[j].kind != TokenKind::Punct('{') {
            // An item ending before any `{` (e.g. `#[cfg(test)] use x;`)
            // has no body to skip.
            if tokens[j].kind == TokenKind::Punct(';') {
                break;
            }
            j += 1;
        }
        if j < tokens.len() && tokens[j].kind == TokenKind::Punct('{') {
            let mut d = 1usize;
            j += 1;
            while j < tokens.len() && d > 0 {
                match tokens[j].kind {
                    TokenKind::Punct('{') => d += 1,
                    TokenKind::Punct('}') => d -= 1,
                    _ => {}
                }
                j += 1;
            }
            let end_line = tokens
                .get(j.saturating_sub(1))
                .map_or(start_line, |t| t.line);
            spans.push((start_line, end_line));
        } else if j < tokens.len() {
            spans.push((start_line, tokens[j].line));
        }
        i = j;
    }
    spans
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_strings_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let s = \"TMPROF_X\"; let c = 'y'; }");
        let idents: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"fn") && idents.contains(&"str"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::StrLit && t.text == "TMPROF_X"));
        assert!(l.tokens.iter().any(|t| t.kind == TokenKind::CharLit));
    }

    #[test]
    fn comments_do_not_tokenize() {
        let l = lex("// HashMap in a comment\n/* Instant::now() /* nested */ */\nlet x = 1;");
        assert!(!l
            .tokens
            .iter()
            .any(|t| t.text == "HashMap" || t.text == "Instant"));
        assert!(l.tokens.iter().any(|t| t.text == "x"));
    }

    #[test]
    fn raw_strings_swallow_quotes() {
        let l = lex("let s = r#\"say \"hi\" TMPROF_Y\"#; let t = r\"plain\";");
        let strs: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["say \"hi\" TMPROF_Y", "plain"]);
    }

    #[test]
    fn directive_forms() {
        let l = lex(concat!(
            "let a = 1; // tmprof-lint: allow(nondet-iter) — bounded and sorted\n",
            "// tmprof-lint: allow(wall-clock)\n",
            "let b = 2;\n",
        ));
        assert_eq!(l.directives.len(), 2);
        assert_eq!(l.directives[0].rule, "nondet-iter");
        assert_eq!(l.directives[0].reason, "bounded and sorted");
        assert!(l.directives[0].trailing);
        assert_eq!(l.directives[1].rule, "wall-clock");
        assert!(l.directives[1].reason.is_empty());
        assert!(!l.directives[1].trailing);
    }

    #[test]
    fn cfg_test_spans_cover_the_mod() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn also_live() {}
";
        let l = lex(src);
        assert_eq!(l.test_spans.len(), 1);
        assert!(l.in_test(3) && l.in_test(4));
        assert!(!l.in_test(1) && !l.in_test(6));
    }

    #[test]
    fn string_continuations_count_lines() {
        let l = lex("let s = \"first \\\n    second\";\nlet after = 1;");
        let after = l.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3, "backslash-newline must advance the line");
    }

    #[test]
    fn float_literals_keep_their_dot() {
        let l = lex("let x = 1.5; let r = 0..10;");
        let nums: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::NumLit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1.5", "0", "10"]);
    }
}
