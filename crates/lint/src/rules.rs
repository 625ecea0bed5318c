//! The three token-level rules: stream-discipline (R1), endpoint-guard
//! (R2), and panic-freedom (R3). The cross-file taxonomy rule (R4) lives in
//! [`crate::taxonomy`].

use crate::allow::Allows;
use crate::lexer::{Token, TokenKind};
use crate::scanner::ScopedToken;
use crate::{Diagnostic, Rule};
use std::path::Path;

/// Which crate a file belongs to, which decides the rules that apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileScope {
    /// `crates/core/src` — mechanism cores: R1 + R3 + R5 + R7 + R8.
    Core,
    /// `crates/noise/src` — samplers and transforms: R2 + R3 + R7 + R8.
    Noise,
    /// `crates/serve/src` — the multi-tenant serving layer:
    /// R1 + R3 + R5 + R6 + R8. Serving code dispatches through the unified
    /// `api` surface, so any provider-generic helper it grows is held to
    /// the same stream discipline as the cores — and a panic here takes
    /// live sessions down.
    Serve,
    /// `crates/attack/src` — the audit harness: R3 + R8. A panic
    /// mid-board loses the whole audit; a NaN-partial sort mis-ranks the
    /// detection statistics it gates on.
    Attack,
    /// `crates/bench/src` — grid, baselines, and the `repro` CLI:
    /// R3 + R8. A panicking cell invalidates a whole timing run; NaN
    /// partial sorts corrupt the percentile estimates CI compares.
    Bench,
}

impl FileScope {
    /// The per-file rules active in this scope (R4 is tree-level and not
    /// listed). This single table is what both the token tier and the
    /// dataflow tier consult.
    pub fn rules(self) -> &'static [Rule] {
        match self {
            FileScope::Core => &[
                Rule::StreamDiscipline,
                Rule::PanicFreedom,
                Rule::BudgetBalance,
                Rule::ParPurity,
                Rule::FloatTotality,
            ],
            FileScope::Noise => &[
                Rule::EndpointGuard,
                Rule::PanicFreedom,
                Rule::ParPurity,
                Rule::FloatTotality,
            ],
            FileScope::Serve => &[
                Rule::StreamDiscipline,
                Rule::PanicFreedom,
                Rule::BudgetBalance,
                Rule::LockDiscipline,
                Rule::FloatTotality,
            ],
            FileScope::Attack | FileScope::Bench => &[Rule::PanicFreedom, Rule::FloatTotality],
        }
    }
}

/// Method names whose call inside a stream-disciplined scope bypasses the
/// provider: raw RNG draws, direct distribution sampling, and the
/// `TapeSource` hooks — `draw` and `draw_tuple`, plus the per-family names
/// `draw` replaced, so a reintroduced family hook is caught too.
/// Identifier-exact, so `draw` never matches `draws_taken`.
const R1_BANNED_CALLS: [&str; 20] = [
    // rand::Rng surface
    "sample",
    "gen",
    "gen_range",
    "gen_bool",
    "next_u32",
    "next_u64",
    "fill_bytes",
    // distribution batch/sample surface (free-gap-noise)
    "sample_value",
    "sample_index",
    "fill_into",
    "fill_into_offset",
    "fill_values_into",
    "fill_values_into_offset",
    // TapeSource hooks
    "draw",
    "draw_tuple",
    "laplace",
    "discrete_laplace",
    "gumbel",
    "exponential",
    "staircase",
];

/// Bare identifiers that mark raw-stream plumbing inside a
/// stream-disciplined scope (constructing an RNG or a recording tape where
/// only a provider may draw).
const R1_BANNED_IDENTS: [&str; 3] = ["FastRng", "rng_from_seed", "TapeSource"];

/// Panic surfaces banned by R3: `.name(` method calls…
const R3_BANNED_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
/// …and `name!(` macros. `debug_assert*` stays legal: it compiles out of
/// release builds, so it cannot take a serving path down.
const R3_BANNED_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// True when the token at `i` is an identifier called as a method:
/// preceded by `.`, followed by `(`, `::` (turbofish) or `<`.
fn is_method_call(scoped: &[ScopedToken<'_>], i: usize) -> bool {
    if i == 0 || scoped[i].tok.kind != TokenKind::Ident {
        return false;
    }
    if scoped[i - 1].tok.kind != TokenKind::Punct('.') {
        return false;
    }
    matches!(
        scoped.get(i + 1).map(|s| &s.tok.kind),
        Some(TokenKind::Punct('(')) | Some(TokenKind::Punct(':')) | Some(TokenKind::Punct('<'))
    )
}

/// True when the token at `i` is a macro invocation `ident!`.
fn is_macro_call(scoped: &[ScopedToken<'_>], i: usize) -> bool {
    scoped[i].tok.kind == TokenKind::Ident
        && matches!(
            scoped.get(i + 1).map(|s| &s.tok.kind),
            Some(TokenKind::Punct('!'))
        )
}

/// A function is stream-disciplined (R1 scope) when it is generic over a
/// draw provider, or implements one of the stream-owning providers: the
/// blocked `ScratchDraws` tape, or the per-block `ParallelDraws` (whose
/// whole contract is that every draw comes off a derived sub-stream). The
/// draw-exact providers (`TapeSource`, `RngDraws`) sample directly by
/// design and are exempt.
fn r1_in_scope(ctx: &crate::scanner::Ctx) -> bool {
    let header = ctx.header.as_deref().unwrap_or("");
    if header.contains("TapeSource") || header.contains("RngDraws") {
        return false;
    }
    if ctx
        .fn_sig
        .as_deref()
        .is_some_and(|s| s.contains("DrawProvider"))
    {
        return true;
    }
    header.contains("DrawProvider")
        && (header.contains("ScratchDraws") || header.contains("ParallelDraws"))
}

/// A function is a uniform transform (R2 scope) when its name says it maps
/// uniforms (or an RNG stream) to noise: `sample*`, `fill_*`, or
/// `*from_uniform*`. Pure math like `quantile`/`pdf`/`cdf` takes caller
/// probabilities, not tape uniforms, and stays out of scope.
fn r2_in_scope(ctx: &crate::scanner::Ctx) -> bool {
    ctx.fn_name.as_deref().is_some_and(|name| {
        name.starts_with("sample") || name.starts_with("fill_") || name.contains("from_uniform")
    })
}

/// True when the tokens immediately before the `.` at `dot` close a
/// `.max(f64::MIN_POSITIVE)` call — the endpoint guard.
fn guarded_by_min_positive(scoped: &[ScopedToken<'_>], dot: usize) -> bool {
    // Expect: … .  max  (  f64  ::  MIN_POSITIVE  )  .  ln
    //                                              ^ dot-1
    if dot < 8 {
        return false;
    }
    let t = |k: usize| &scoped[k].tok;
    t(dot - 1).kind == TokenKind::Punct(')')
        && t(dot - 2).kind == TokenKind::Ident
        && t(dot - 2).text == "MIN_POSITIVE"
        && t(dot - 3).kind == TokenKind::Punct(':')
        && t(dot - 4).kind == TokenKind::Punct(':')
        && t(dot - 5).text == "f64"
        && t(dot - 6).kind == TokenKind::Punct('(')
        && t(dot - 7).text == "max"
        && t(dot - 8).kind == TokenKind::Punct('.')
}

/// Runs the requested token-level rules over one scoped file.
pub fn check_file(
    path: &Path,
    scoped: &[ScopedToken<'_>],
    allows: &Allows,
    scope: FileScope,
    rules: &[Rule],
    out: &mut Vec<Diagnostic>,
) {
    let want = |r: Rule| rules.contains(&r) && scope.rules().contains(&r);
    let push = |rule: Rule, tok: &Token, message: String, out: &mut Vec<Diagnostic>| {
        out.push(Diagnostic {
            file: path.to_path_buf(),
            line: tok.line,
            rule,
            message,
            allow: allows.state(rule, tok.line),
        });
    };

    for i in 0..scoped.len() {
        let st = &scoped[i];
        if st.ctx.in_test {
            continue;
        }
        let text = st.tok.text.as_str();

        // R1 — stream discipline.
        if want(Rule::StreamDiscipline) && r1_in_scope(&st.ctx) {
            let here = st
                .ctx
                .fn_name
                .as_deref()
                .map(|f| format!("`{f}`"))
                .unwrap_or_else(|| "a stream-disciplined scope".into());
            if is_method_call(scoped, i) && R1_BANNED_CALLS.contains(&text) {
                push(
                    Rule::StreamDiscipline,
                    st.tok,
                    format!(
                        "direct `.{text}(…)` draw inside {here}: randomness in a \
                         provider-generic core (and in the blocked ScratchDraws provider) \
                         must flow through DrawProvider methods so lookahead cannot \
                         silently desynchronize the stream"
                    ),
                    out,
                );
            } else if !is_method_call(scoped, i) && R1_BANNED_IDENTS.contains(&text) {
                push(
                    Rule::StreamDiscipline,
                    st.tok,
                    format!(
                        "`{text}` referenced inside {here}: provider-generic cores must \
                         not construct or touch raw RNG streams"
                    ),
                    out,
                );
            }
        }

        // R2 — endpoint guard.
        if want(Rule::EndpointGuard)
            && scope == FileScope::Noise
            && text == "ln"
            && is_method_call(scoped, i)
            && r2_in_scope(&st.ctx)
            && !guarded_by_min_positive(scoped, i - 1)
        {
            let fn_name = st.ctx.fn_name.as_deref().unwrap_or("?");
            push(
                Rule::EndpointGuard,
                st.tok,
                format!(
                    "unguarded `.ln()` in uniform transform `{fn_name}`: a tape uniform \
                     can be exactly 0 or 1, so the operand must be clamped as \
                     `.max(f64::MIN_POSITIVE).ln()` to keep every draw finite"
                ),
                out,
            );
        }

        // R3 — panic freedom (applies to both crates).
        if want(Rule::PanicFreedom) {
            if is_method_call(scoped, i) && R3_BANNED_METHODS.contains(&text) {
                push(
                    Rule::PanicFreedom,
                    st.tok,
                    format!(
                        "`.{text}(…)` in non-test mechanism code: return a typed \
                         `MechanismError` (or justify with \
                         `// lint:allow(panic-freedom): reason`)"
                    ),
                    out,
                );
            } else if is_macro_call(scoped, i) && R3_BANNED_MACROS.contains(&text) {
                push(
                    Rule::PanicFreedom,
                    st.tok,
                    format!(
                        "`{text}!` in non-test mechanism code: return a typed \
                         `MechanismError` (or justify with \
                         `// lint:allow(panic-freedom): reason`)"
                    ),
                    out,
                );
            }
        }
    }

    // Malformed allow annotations are findings under whichever rules run:
    // a typoed allow silently suppresses nothing while looking load-bearing.
    for (line, message) in &allows.malformed {
        out.push(Diagnostic {
            file: path.to_path_buf(),
            line: *line,
            rule: rules.first().copied().unwrap_or(Rule::PanicFreedom),
            message: message.clone(),
            allow: crate::AllowState::None,
        });
    }
}
