//! R4 — taxonomy completeness, the cross-file structural rule.
//!
//! Every mechanism runs as one core reached through `Mechanism::call`, so
//! the taxonomy is the set of `impl Mechanism for T` blocks in the core
//! sources. Each must:
//!
//! 1. have a `From<T> for AnyMechanism` conversion — the dispatch enum the
//!    bench grid and the serving layer drive (a mechanism outside it is
//!    unreachable from both), and every such conversion must belong to a
//!    `Mechanism` impl;
//! 2. return from `name()` a string literal that is a `MECHANISM_PATHS`
//!    row (otherwise `bench-check` cannot notice its cells going missing),
//!    and every row must be some mechanism's `name()` — a grid name
//!    without a mechanism is exactly the drift this rule exists to catch;
//! 3. appear in the `scratch_equivalence` suite (otherwise nothing proves
//!    its providers bit-identical to the reference).
//!
//! `AnyMechanism`'s own `Mechanism` impl is the dispatcher, not a
//! mechanism, and is skipped.

use crate::lexer::{lex, Token, TokenKind};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The dispatch enum every mechanism converts into.
const DISPATCH: &str = "AnyMechanism";

/// Where an impl block starts.
#[derive(Debug, Clone)]
struct Site {
    file: PathBuf,
    line: u32,
}

/// One `impl Mechanism for T` block.
#[derive(Debug)]
struct MechanismImpl {
    site: Site,
    /// The string literal `name()` returns, when it returns one.
    name: Option<String>,
}

/// Everything R4 extracts from the tree before cross-checking.
#[derive(Debug, Default)]
pub struct Inventory {
    /// Type → its `Mechanism` impl.
    mechanisms: BTreeMap<String, MechanismImpl>,
    /// Types with a `From<T> for AnyMechanism` conversion.
    conversions: BTreeMap<String, Site>,
    /// Identifiers appearing in the equivalence suite.
    equivalence_idents: Vec<String>,
    /// Mechanism names in `MECHANISM_PATHS`, with the literal's line.
    grid: Vec<(String, u32)>,
}

impl Inventory {
    /// Sorted `name()` literals of the `Mechanism` impls — the seed for the
    /// exhaustiveness test that pins today's taxonomy.
    pub fn mechanism_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .mechanisms
            .values()
            .filter_map(|m| m.name.clone())
            .collect();
        v.sort();
        v
    }

    /// Sorted mechanism names of the bench grid.
    pub fn grid_mechanisms(&self) -> Vec<String> {
        let mut v: Vec<String> = self.grid.iter().map(|(n, _)| n.clone()).collect();
        v.sort();
        v
    }
}

/// Collects the inventory from the core sources, the equivalence suite and
/// the bench grid file.
pub fn inventory(core_src: &Path, equivalence: &Path, perf: &Path) -> io::Result<Inventory> {
    let mut inv = Inventory::default();
    for file in crate::rust_files(core_src)? {
        collect_impls(&file, &mut inv)?;
    }
    let eq_src = std::fs::read_to_string(equivalence)?;
    inv.equivalence_idents = lex(&eq_src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect();
    let perf_src = std::fs::read_to_string(perf)?;
    inv.grid = grid_mechanisms(&lex(&perf_src).tokens);
    Ok(inv)
}

fn finding(file: &Path, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_path_buf(),
        line,
        rule: Rule::Taxonomy,
        allow: crate::AllowState::None,
        message,
    }
}

/// Runs the cross-checks over a collected inventory.
pub fn check(inv: &Inventory, equivalence: &Path, perf: &Path, out: &mut Vec<Diagnostic>) {
    for (ty, m) in &inv.mechanisms {
        let Site { file, line } = &m.site;
        if !inv.conversions.contains_key(ty) {
            out.push(finding(
                file,
                *line,
                format!(
                    "`{ty}` implements Mechanism but has no `From<{ty}> for {DISPATCH}`: \
                     neither the bench grid nor the server can reach it"
                ),
            ));
        }
        match &m.name {
            None => out.push(finding(
                file,
                *line,
                format!(
                    "`{ty}`'s `Mechanism::name()` must return a string literal so its \
                     MECHANISM_PATHS row can be checked"
                ),
            )),
            Some(name) if !inv.grid.iter().any(|(n, _)| n == name) => out.push(finding(
                file,
                *line,
                format!(
                    "`{ty}` is named \"{name}\" but MECHANISM_PATHS ({}) has no such row: \
                     bench-check cannot guard cells that were never declared",
                    perf.display()
                ),
            )),
            Some(_) => {}
        }
        if !inv.equivalence_idents.iter().any(|i| i == ty) {
            out.push(finding(
                file,
                *line,
                format!(
                    "`{ty}` implements Mechanism but never appears in the \
                     scratch_equivalence suite ({}): nothing proves its providers \
                     bit-identical to the reference",
                    equivalence.display()
                ),
            ));
        }
    }
    for (ty, Site { file, line }) in &inv.conversions {
        if !inv.mechanisms.contains_key(ty) {
            out.push(finding(
                file,
                *line,
                format!(
                    "`From<{ty}> for {DISPATCH}` exists but `{ty}` does not implement Mechanism"
                ),
            ));
        }
    }
    for (name, line) in &inv.grid {
        if !inv
            .mechanisms
            .values()
            .any(|m| m.name.as_deref() == Some(name.as_str()))
        {
            out.push(finding(
                perf,
                *line,
                format!(
                    "MECHANISM_PATHS lists `{name}` but no `Mechanism` impl in the core \
                     sources returns that name"
                ),
            ));
        }
    }
}

/// Collects `impl Mechanism for T` blocks (with their `name()` literal)
/// and `impl From<T> for AnyMechanism` conversions from one file.
fn collect_impls(path: &Path, inv: &mut Inventory) -> io::Result<()> {
    let src = std::fs::read_to_string(path)?;
    let toks = lex(&src).tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "impl" {
            if let Some(header) = parse_impl_header(&toks, i + 1) {
                let body_end = matching_brace(&toks, header.body_start);
                let site = Site {
                    file: path.to_path_buf(),
                    line: toks[i].line,
                };
                match (header.trait_name.as_deref(), header.trait_arg) {
                    (Some("Mechanism"), _) if header.self_ty != DISPATCH => {
                        let name = name_literal(&toks[header.body_start..body_end]);
                        inv.mechanisms
                            .insert(header.self_ty, MechanismImpl { site, name });
                    }
                    (Some("From"), Some(arg)) if header.self_ty == DISPATCH => {
                        inv.conversions.insert(arg, site);
                    }
                    _ => {}
                }
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    Ok(())
}

/// The first string literal after `fn name` in an impl body.
fn name_literal(body: &[Token]) -> Option<String> {
    let at = body.windows(2).position(|w| {
        w[0].kind == TokenKind::Ident
            && w[0].text == "fn"
            && w[1].kind == TokenKind::Ident
            && w[1].text == "name"
    })?;
    body[at..]
        .iter()
        .find(|t| t.kind == TokenKind::Literal)
        .map(|t| t.text.clone())
}

/// A parsed impl header.
#[derive(Debug, PartialEq)]
struct ImplHeader {
    /// The implemented trait's name (`None` for an inherent impl).
    trait_name: Option<String>,
    /// The trait's first generic argument (`T` in `From<T>`).
    trait_arg: Option<String>,
    /// The implementing type's name.
    self_ty: String,
    /// Index of the body's `{`.
    body_start: usize,
}

/// Parses an impl header starting right after the `impl` token.
fn parse_impl_header(toks: &[Token], mut i: usize) -> Option<ImplHeader> {
    // Skip `<generics>` (angle depth; impl headers contain no `->`).
    if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // First ident at angle depth 0 (the trait, or the self-type of an
    // inherent impl), its first generic argument, and the first ident
    // after `for`.
    let (mut first, mut first_arg, mut after_for) = (None, None, None);
    let mut seen_for = false;
    let mut in_where = false;
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct('{') if depth <= 0 => {
                let (trait_name, trait_arg, self_ty) = if seen_for {
                    (first, first_arg, after_for?)
                } else {
                    (None, None, first?)
                };
                return Some(ImplHeader {
                    trait_name,
                    trait_arg,
                    self_ty,
                    body_start: i,
                });
            }
            TokenKind::Ident if !in_where && toks[i].text != "dyn" => {
                let t = toks[i].text.as_str();
                if depth <= 0 && t == "for" {
                    seen_for = true;
                } else if depth <= 0 && t == "where" {
                    in_where = true; // bounds only from here on
                } else if seen_for {
                    if depth <= 0 && after_for.is_none() {
                        after_for = Some(t.to_string());
                    }
                } else if depth <= 0 && first.is_none() {
                    first = Some(t.to_string());
                } else if depth == 1 && first.is_some() && first_arg.is_none() {
                    first_arg = Some(t.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Extracts `(name, line)` for each mechanism in the `MECHANISM_PATHS`
/// array literal: the string literal directly following a `(` inside the
/// array (path strings follow `[` or `,` instead).
fn grid_mechanisms(toks: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "MECHANISM_PATHS" {
            // Require an `=` before any top-level `;` — i.e. the definition,
            // not a later use.
            let mut j = i + 1;
            let mut bracket = 0i32;
            let mut is_def = false;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct('[') | TokenKind::Punct('(') => bracket += 1,
                    TokenKind::Punct(']') | TokenKind::Punct(')') => bracket -= 1,
                    TokenKind::Punct('=') if bracket == 0 => {
                        is_def = true;
                        break;
                    }
                    TokenKind::Punct(';') if bracket == 0 => break,
                    TokenKind::Punct('{') if bracket == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if is_def {
                // Advance to the array's `[`, then walk it.
                while j < toks.len() && toks[j].kind != TokenKind::Punct('[') {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < toks.len() {
                    match &toks[j].kind {
                        TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                return out;
                            }
                        }
                        TokenKind::Literal
                            if matches!(
                                toks.get(j - 1).map(|t| &t.kind),
                                Some(TokenKind::Punct('('))
                            ) =>
                        {
                            out.push((toks[j].text.clone(), toks[j].line));
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(src: &str) -> (Option<String>, Option<String>, String) {
        let toks = lex(src).tokens;
        let h = parse_impl_header(&toks, 1).expect(src);
        (h.trait_name, h.trait_arg, h.self_ty)
    }

    #[test]
    fn impl_header_variants_resolve_trait_and_self_type() {
        let s = |x: &str| Some(x.to_string());
        assert_eq!(
            header("impl NoisyTopKWithGap { }"),
            (None, None, "NoisyTopKWithGap".into())
        );
        assert_eq!(
            header("impl<R: Rng + ?Sized> DrawProvider for ScratchDraws<'_, R> { }"),
            (s("DrawProvider"), None, "ScratchDraws".into())
        );
        assert_eq!(
            header("impl From<StaircaseMechanism> for AnyMechanism { }"),
            (s("From"), s("StaircaseMechanism"), "AnyMechanism".into())
        );
        assert_eq!(
            header("impl Mechanism for ExponentialTopK { }"),
            (s("Mechanism"), None, "ExponentialTopK".into())
        );
        assert_eq!(
            header("impl<T> Foo<T> where T: Clone { }"),
            (None, None, "Foo".into())
        );
    }

    #[test]
    fn name_literal_reads_the_name_fn_only() {
        let src = r#"impl Mechanism for X {
            fn cost(&self) -> f64 { self.eps }
            fn name(&self) -> &'static str { "XMechanism" }
        }"#;
        let toks = lex(src).tokens;
        assert_eq!(name_literal(&toks), Some("XMechanism".to_string()));
        assert_eq!(name_literal(&lex("impl X { fn run() {} }").tokens), None);
    }

    #[test]
    fn grid_extraction_takes_mechanism_names_only() {
        let src = r#"
            pub const MECHANISM_PATHS: [(&str, &[&str]); 2] = [
                ("NoisyTopKWithGap", &["dyn", "scratch"]),
                ("ClassicSparseVector", &["dyn", "scratch", "streaming"]),
            ];
            fn use_it() { for (m, p) in MECHANISM_PATHS { drop((m, p)); } }
        "#;
        let names: Vec<String> = grid_mechanisms(&lex(src).tokens)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["NoisyTopKWithGap", "ClassicSparseVector"]);
    }
}
