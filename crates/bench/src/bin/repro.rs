//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <command> [options]
//!
//! Commands:
//!   datasets           §7.1 dataset table
//!   fig1a | fig1b      Fig. 1: % MSE improvement vs k (BMS-POS)
//!   fig2a | fig2b      Fig. 2: % MSE improvement vs ε (kosarak, k = 10)
//!   fig3               Fig. 3: answers + precision/F-measure (per dataset)
//!   fig4               Fig. 4: % remaining budget (all datasets)
//!   ablation-theta     θ sweep for Adaptive-SVT
//!   ablation-sigma     σ-multiplier sweep for Adaptive-SVT
//!   ablation-split     selection/measurement budget-split sweep
//!   ablation-branches  branch-count sweep for multi-branch Adaptive-SVT
//!   bench              mechanism-throughput grid → BENCH_mechanisms.json
//!   serve-bench        multi-tenant serving-layer load generator →
//!                      BENCH_serve.json: p50/p95/p99 request latency,
//!                      budget-rejection counts, idle-session evictions and
//!                      the bit-reproducibility digest (fixed seed → same
//!                      digest for any worker count)
//!   bench-check        verify a written BENCH_mechanisms.json covers every
//!                      mechanism × path × n × k cell (CI smoke gate);
//!                      read-only — never re-times anything
//!   bench-compare      perf-regression gate: compare a fresh --json grid
//!                      against --baseline, failing when any cell's
//!                      runs/sec drops more than --tolerance after
//!                      normalizing out the machine-speed difference
//!   bench-history F..  merge several bench JSON files (e.g. CI's uploaded
//!                      /tmp/bench.json artifacts, oldest commit first)
//!                      into a cell × artifact runs/sec trend table
//!   lint               free-gap-lint: the eight static invariants
//!                      (stream-discipline, endpoint-guard, panic-freedom,
//!                      taxonomy, budget-balance, lock-discipline,
//!                      par-purity, float-totality) over
//!                      crates/{core,noise,serve,attack,bench}; exits
//!                      nonzero on any unallowed finding
//!   attack             adversarial privacy audit: attack every correct SVT
//!                      mechanism and every broken zoo variant, print the
//!                      claimed-ε vs empirical-ε-lower-bound board, and exit
//!                      nonzero if any correct mechanism is flagged or any
//!                      broken variant escapes detection
//!   all                everything above except `bench`, paper defaults
//!
//! Options:
//!   --runs N           Monte-Carlo runs per point (default: per experiment;
//!                      for `bench`: fixed runs per cell instead of a time budget)
//!   --budget F         `bench`: per-cell time budget in seconds (default 1.0;
//!                      best of three windows). Mutually exclusive with --runs.
//!                      CI's perf gate uses a reduced budget — fixed tiny run
//!                      counts are too noisy to compare against the baseline
//!   --scale F          dataset record-count fraction in (0, 1] (default 1.0)
//!   --seed N           root RNG seed (default 20190412)
//!   --eps F            total privacy budget ε (default 0.7)
//!   --dataset NAME     bms-pos | kosarak | t40 (fig3/ablations; default bms-pos)
//!   --csv              emit CSV instead of aligned tables
//!   --json PATH        where `bench` writes its JSON / which file
//!                      `bench-check`/`bench-compare` read (default
//!                      BENCH_mechanisms.json); for `lint`: write the
//!                      machine-readable finding report (schema
//!                      free-gap-lint/1, includes allow-suppressed
//!                      findings) before the pass/fail verdict
//!   --baseline PATH    committed baseline for `bench-compare`
//!                      (default BENCH_mechanisms.json)
//!   --tolerance F      allowed fractional throughput drop per cell for
//!                      `bench-compare` (default 0.25)
//!   --baseline-only    `bench-check`: check the committed baseline file
//!                      only (rejects --json); used by CI's second
//!                      invocation so the stale-baseline check is explicit
//!                      and instant
//!   --trials N         `attack`: estimate-phase Monte-Carlo trials per side
//!                      (search phase scales along; default 300000)
//!   --significance F   `attack`: significance α of the reported
//!                      Clopper–Pearson lower bounds, in (0, 0.5) (default
//!                      0.01, or 0.05 with --quick)
//!   --quick            `attack`: budgeted CI smoke configuration (fewer
//!                      trials, α = 0.05, same verdicts on the suite);
//!                      `serve-bench`: 4 tenants × 300 requests instead of
//!                      8 × 2000
//!   --tenants N        `serve-bench`: number of registered tenants
//!   --duration F       `serve-bench`: wall-clock cap in seconds; the run
//!                      stops issuing requests when it elapses and the
//!                      report is marked truncated
//!   --qps F            `serve-bench`: aggregate request-rate target the
//!                      workers pace themselves to (default: unpaced
//!                      closed loop)
//!   --rule NAME        `lint`: check a single rule (stream-discipline |
//!                      endpoint-guard | panic-freedom | taxonomy |
//!                      budget-balance | lock-discipline | par-purity |
//!                      float-totality)
//!   --fixtures         `lint`: run the power-check corpus instead of the
//!                      real tree — every known-bad fixture must be flagged
//!                      and every fixed twin must stay clean
//! ```
//!
//! The paper averages 10,000 runs per point; defaults here are chosen so the
//! full suite finishes in minutes on a laptop while the shapes are stable.
//! Pass `--runs 10000` for the full protocol.

use free_gap_bench::experiments::fig1::Panel;
use free_gap_bench::experiments::{self, epsilon_grid, k_grid};
use free_gap_bench::perf;
use free_gap_bench::table::{Cell, Table};
use free_gap_bench::workloads::parse_dataset;
use free_gap_bench::ExperimentConfig;
use free_gap_data::Dataset;
use std::process::ExitCode;

#[derive(Debug)]
struct CliOptions {
    command: String,
    runs: Option<usize>,
    scale: f64,
    seed: u64,
    epsilon: f64,
    dataset: Dataset,
    csv: bool,
    json: String,
    budget: Option<f64>,
    /// Whether `--json` was passed explicitly (`bench-check --baseline-only`
    /// rejects it).
    json_explicit: bool,
    baseline: String,
    baseline_explicit: bool,
    tolerance: f64,
    tolerance_explicit: bool,
    baseline_only: bool,
    /// `attack`: estimate-phase trials per side (`--trials`).
    attack_trials: Option<usize>,
    /// `attack`: significance α of the reported bounds (`--significance`).
    significance: Option<f64>,
    /// `attack`: budgeted CI smoke configuration (`--quick`).
    quick: bool,
    /// `serve-bench`: tenant count (`--tenants`).
    tenants: Option<usize>,
    /// `serve-bench`: wall-clock cap in seconds (`--duration`).
    duration: Option<f64>,
    /// `serve-bench`: aggregate request-rate target (`--qps`).
    qps: Option<f64>,
    /// `lint`: restrict to a single named rule (`--rule`).
    lint_rule: Option<String>,
    /// `lint`: run the fixture power checks instead of the tree (`--fixtures`).
    fixtures: bool,
    /// Which workload-shaping options were passed explicitly (the `bench`
    /// command uses a fixed synthetic workload and rejects them).
    workload_flags: Vec<&'static str>,
    /// Positional file arguments (`bench-history` artifacts, in order).
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        command: args
            .first()
            .cloned()
            .ok_or("missing command (try `repro all`)")?,
        runs: None,
        scale: 1.0,
        seed: 20190412,
        epsilon: 0.7,
        dataset: Dataset::BmsPos,
        csv: false,
        json: "BENCH_mechanisms.json".to_string(),
        budget: None,
        json_explicit: false,
        baseline: "BENCH_mechanisms.json".to_string(),
        baseline_explicit: false,
        tolerance: 0.25,
        tolerance_explicit: false,
        baseline_only: false,
        attack_trials: None,
        significance: None,
        quick: false,
        tenants: None,
        duration: None,
        qps: None,
        lint_rule: None,
        fixtures: false,
        workload_flags: Vec::new(),
        files: Vec::new(),
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or(format!("{name} expects a value"))
        };
        match flag {
            "--runs" => {
                let runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
                opts.runs = Some(runs);
            }
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                opts.workload_flags.push("--scale");
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--eps" => {
                opts.epsilon = value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
                opts.workload_flags.push("--eps");
            }
            "--dataset" => {
                let name = value("--dataset")?;
                opts.dataset = parse_dataset(&name).ok_or(format!("unknown dataset `{name}`"))?;
                opts.workload_flags.push("--dataset");
            }
            "--csv" => opts.csv = true,
            "--json" => {
                opts.json = value("--json")?;
                opts.json_explicit = true;
            }
            "--budget" => {
                let budget: f64 = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
                if !(budget.is_finite() && budget > 0.0) {
                    return Err("--budget must be positive".into());
                }
                opts.budget = Some(budget);
            }
            "--baseline" => {
                opts.baseline = value("--baseline")?;
                opts.baseline_explicit = true;
            }
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !(opts.tolerance.is_finite() && (0.0..1.0).contains(&opts.tolerance)) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
                opts.tolerance_explicit = true;
            }
            "--baseline-only" => opts.baseline_only = true,
            "--trials" => {
                let trials: usize = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
                if trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
                opts.attack_trials = Some(trials);
            }
            "--significance" => {
                let alpha: f64 = value("--significance")?
                    .parse()
                    .map_err(|e| format!("--significance: {e}"))?;
                if !(alpha.is_finite() && alpha > 0.0 && alpha < 0.5) {
                    return Err("--significance must be in (0, 0.5)".into());
                }
                opts.significance = Some(alpha);
            }
            "--quick" => opts.quick = true,
            "--tenants" => {
                let tenants: usize = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
                if tenants == 0 {
                    return Err("--tenants must be at least 1".into());
                }
                opts.tenants = Some(tenants);
            }
            "--duration" => {
                let duration: f64 = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
                if !(duration.is_finite() && duration > 0.0) {
                    return Err("--duration must be positive".into());
                }
                opts.duration = Some(duration);
            }
            "--qps" => {
                let qps: f64 = value("--qps")?.parse().map_err(|e| format!("--qps: {e}"))?;
                if !(qps.is_finite() && qps > 0.0) {
                    return Err("--qps must be positive".into());
                }
                opts.qps = Some(qps);
            }
            "--rule" => opts.lint_rule = Some(value("--rule")?),
            "--fixtures" => opts.fixtures = true,
            other if !other.starts_with('-') => opts.files.push(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(opts)
}

fn config(opts: &CliOptions, default_runs: usize) -> ExperimentConfig {
    ExperimentConfig {
        runs: opts.runs.unwrap_or(default_runs),
        scale: opts.scale,
        seed: opts.seed,
        epsilon: opts.epsilon,
    }
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_aligned());
    }
}

// The `all` arm builds its table list with sequential pushes: the experiment
// sequence reads better that way than as one giant vec![] literal.
#[allow(clippy::vec_init_then_push)]
fn run_command(opts: &CliOptions) -> Result<Vec<Table>, String> {
    // Reject flags that the selected command would silently ignore — a user
    // who names a file or knob must not get a success report for something
    // else (same policy as `bench`'s workload-flag rejection below).
    if opts.budget.is_some() && opts.command != "bench" {
        return Err(format!(
            "--budget only applies to `bench`, not `{}`",
            opts.command
        ));
    }
    if !opts.files.is_empty() && opts.command != "bench-history" {
        return Err(format!(
            "positional file arguments only apply to `bench-history`, not `{}`",
            opts.command
        ));
    }
    if opts.baseline_only && opts.command != "bench-check" {
        return Err(format!(
            "--baseline-only only applies to `bench-check`, not `{}`",
            opts.command
        ));
    }
    if opts.tolerance_explicit && opts.command != "bench-compare" {
        return Err(format!(
            "--tolerance only applies to `bench-compare`, not `{}`",
            opts.command
        ));
    }
    if opts.attack_trials.is_some() && opts.command != "attack" {
        return Err(format!(
            "--trials only applies to `attack`, not `{}`",
            opts.command
        ));
    }
    if opts.significance.is_some() && opts.command != "attack" {
        return Err(format!(
            "--significance only applies to `attack`, not `{}`",
            opts.command
        ));
    }
    if opts.quick && opts.command != "attack" && opts.command != "serve-bench" {
        return Err(format!(
            "--quick only applies to `attack` and `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.tenants.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--tenants only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.duration.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--duration only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.qps.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--qps only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.lint_rule.is_some() && opts.command != "lint" {
        return Err(format!(
            "--rule only applies to `lint`, not `{}`",
            opts.command
        ));
    }
    if opts.fixtures && opts.command != "lint" {
        return Err(format!(
            "--fixtures only applies to `lint`, not `{}`",
            opts.command
        ));
    }
    if opts.json_explicit
        && !matches!(
            opts.command.as_str(),
            "bench" | "serve-bench" | "bench-check" | "bench-compare" | "lint"
        )
    {
        return Err(format!(
            "--json only applies to `bench`, `serve-bench`, `bench-check`, `bench-compare`, and `lint`, not `{}`",
            opts.command
        ));
    }
    if opts.baseline_explicit
        && opts.command != "bench-compare"
        && !(opts.command == "bench-check" && opts.baseline_only)
    {
        return Err(format!(
            "--baseline only applies to `bench-compare` (or `bench-check --baseline-only`), not `{}`",
            opts.command
        ));
    }
    let tables = match opts.command.as_str() {
        "bench" => {
            // The throughput grid uses a fixed synthetic workload at ε = 0.7
            // so recorded baselines stay comparable across PRs; reject
            // options that would otherwise be silently ignored.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`bench` uses a fixed synthetic workload; {flag} is not supported (only --runs, --seed, --csv, --json apply)"
                ));
            }
            if opts.runs.is_some() && opts.budget.is_some() {
                return Err("--runs and --budget are mutually exclusive".into());
            }
            let defaults = perf::BenchConfig::default();
            let bench_config = perf::BenchConfig {
                seed: opts.seed,
                runs: opts.runs,
                budget_secs: opts.budget.unwrap_or(defaults.budget_secs),
            };
            let records = perf::run_grid(&bench_config);
            std::fs::write(&opts.json, perf::to_json(opts.seed, &records))
                .map_err(|e| format!("writing {}: {e}", opts.json))?;
            eprintln!("wrote {}", opts.json);
            vec![perf::to_table(&records)]
        }
        "serve-bench" => {
            // The serving benchmark scripts its own tenants/workload;
            // reject options it would silently ignore.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`serve-bench` scripts a fixed per-tenant workload; {flag} is not supported (only --tenants, --duration, --qps, --quick, --seed, --csv, --json apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err(
                    "`serve-bench` sizes its load with --tenants/--duration, not --runs"
                        .to_string(),
                );
            }
            let mut cfg = if opts.quick {
                free_gap_serve::ServeBenchConfig::quick(opts.seed)
            } else {
                free_gap_serve::ServeBenchConfig::full(opts.seed)
            };
            if let Some(tenants) = opts.tenants {
                cfg.tenants = tenants;
            }
            cfg.duration_cap_secs = opts.duration;
            cfg.qps = opts.qps;
            let report =
                free_gap_serve::bench::run(&cfg).map_err(|e| format!("serve-bench: {e}"))?;
            // serve-bench writes its own schema; default to its own file
            // rather than clobbering BENCH_mechanisms.json.
            let json_path = if opts.json_explicit {
                opts.json.clone()
            } else {
                "BENCH_serve.json".to_string()
            };
            std::fs::write(&json_path, free_gap_serve::bench::to_json(&cfg, &report))
                .map_err(|e| format!("writing {json_path}: {e}"))?;
            eprintln!("wrote {json_path}");
            let mut table = Table::new(
                format!(
                    "serve-bench: {} tenants × {} requests over {} workers (ε = {:.1}/tenant, digest {:#018x}{})",
                    cfg.tenants,
                    cfg.requests_per_tenant,
                    cfg.workers,
                    cfg.epsilon_per_tenant,
                    report.digest,
                    if report.truncated { ", TRUNCATED" } else { "" },
                ),
                &[
                    "completed",
                    "rejected",
                    "budget_rejected",
                    "evictions",
                    "p50_us",
                    "p95_us",
                    "p99_us",
                    "req/s",
                ],
            );
            table.push_row(vec![
                Cell::Int(report.completed as i64),
                Cell::Int(report.rejected as i64),
                Cell::Int(report.budget_rejected as i64),
                Cell::Int(report.evictions as i64),
                report.p50_us.into(),
                report.p95_us.into(),
                report.p99_us.into(),
                report.requests_per_sec.into(),
            ]);
            vec![table]
        }
        "bench-check" => {
            // Read-only: checks coverage of an already-written file, never
            // re-times the grid. `--baseline-only` pins the invocation to
            // the committed baseline so CI's stale-baseline check cannot be
            // silently redirected at a scratch file.
            if opts.baseline_only && opts.json_explicit {
                return Err(
                    "--baseline-only checks the committed baseline; drop --json".to_string()
                );
            }
            let path = if opts.baseline_only {
                &opts.baseline
            } else {
                &opts.json
            };
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let missing = perf::missing_cells(&json);
            if !missing.is_empty() {
                return Err(format!(
                    "{path} has {} missing bench cell(s):\n  {}",
                    missing.len(),
                    missing.join("\n  ")
                ));
            }
            eprintln!("{path}: all mechanism × path cells present");
            Vec::new()
        }
        "bench-compare" => {
            let fresh = std::fs::read_to_string(&opts.json)
                .map_err(|e| format!("reading {}: {e}", opts.json))?;
            let baseline = std::fs::read_to_string(&opts.baseline)
                .map_err(|e| format!("reading {}: {e}", opts.baseline))?;
            let report = perf::compare_against_baseline(&fresh, &baseline, opts.tolerance)?;
            eprintln!(
                "{} vs {}: {} cells, machine-speed factor {:.2}",
                opts.json, opts.baseline, report.cells, report.speed_factor
            );
            if !report.regressions.is_empty() {
                return Err(format!(
                    "{} cell(s) regressed beyond {:.0}% tolerance:\n  {}",
                    report.regressions.len(),
                    opts.tolerance * 100.0,
                    report.regressions.join("\n  ")
                ));
            }
            eprintln!(
                "no cell regressed beyond {:.0}% tolerance",
                opts.tolerance * 100.0
            );
            Vec::new()
        }
        "bench-history" => {
            // Aggregate uploaded bench artifacts (oldest commit first) into
            // a cell × artifact trend table — the triage view behind a
            // bench-compare failure.
            if opts.files.is_empty() {
                return Err("bench-history needs at least one bench JSON file argument".to_string());
            }
            let mut loaded = Vec::with_capacity(opts.files.len());
            for path in &opts.files {
                let json =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                loaded.push((path.clone(), json));
            }
            vec![perf::bench_history(&loaded)?]
        }
        "attack" => {
            // The suite is a self-contained audit over fixed synthetic
            // workloads; reject options it would silently ignore.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`attack` audits fixed adversarial workloads; {flag} is not supported (only --trials, --significance, --quick, --seed, --csv apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err(
                    "`attack` sizes its Monte-Carlo phases with --trials, not --runs".to_string(),
                );
            }
            let mut cfg = if opts.quick {
                free_gap_attack::AttackConfig::quick(opts.seed)
            } else {
                free_gap_attack::AttackConfig::full(opts.seed)
            };
            if let Some(trials) = opts.attack_trials {
                cfg.estimate_trials = trials;
                // Keep the dp-sniper phase split: the search phase explores
                // every (pair, classifier) cell at ~1/8 of the estimate
                // budget the chosen cell then gets.
                cfg.search_trials = (trials / 8).max(1_000);
            }
            if let Some(alpha) = opts.significance {
                cfg.alpha = alpha;
            }
            let report = free_gap_attack::run_suite(&cfg);
            let mut table = Table::new(
                format!(
                    "Adversarial privacy audit (α = {}, {} estimate trials/side)",
                    cfg.alpha, cfg.estimate_trials
                ),
                &[
                    "target",
                    "claimed ε",
                    "ε̂ ≥",
                    "expected",
                    "verdict",
                    "pair",
                    "classifier",
                    "hits D",
                    "hits D'",
                ],
            );
            for row in &report.rows {
                let r = &row.result;
                table.push_row(vec![
                    r.name.into(),
                    r.claimed_epsilon.into(),
                    r.epsilon_lower_bound.into(),
                    if row.expect_broken {
                        "broken"
                    } else {
                        "correct"
                    }
                    .into(),
                    match (r.flagged, row.verdict_ok()) {
                        (true, true) => "FLAGGED ✓",
                        (false, true) => "pass ✓",
                        (true, false) => "FLAGGED ✗ (false positive)",
                        (false, false) => "escaped ✗",
                    }
                    .into(),
                    r.pair.into(),
                    r.classifier.into(),
                    Cell::Int(r.counts.0 as i64),
                    Cell::Int(r.counts.1 as i64),
                ]);
            }
            emit(&table, opts.csv);
            let false_flags: Vec<&str> = report.false_flags().map(|r| r.result.name).collect();
            let escapes: Vec<&str> = report.escapes().map(|r| r.result.name).collect();
            if !false_flags.is_empty() || !escapes.is_empty() {
                return Err(format!(
                    "attack suite failed: {} correct mechanism(s) falsely flagged [{}], {} broken variant(s) escaped [{}]",
                    false_flags.len(),
                    false_flags.join(", "),
                    escapes.len(),
                    escapes.join(", ")
                ));
            }
            eprintln!(
                "all {} verdicts correct: every zoo variant flagged, every correct mechanism passed",
                report.rows.len()
            );
            Vec::new()
        }
        "lint" => {
            // Static analysis over the checkout: no workload, no RNG.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`lint` is a static check; {flag} is not supported (only --rule, --fixtures, --json apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err("`lint` is a static check; --runs does not apply".to_string());
            }
            if opts.fixtures && opts.json_explicit {
                return Err(
                    "--json reports tree findings; it does not apply to `lint --fixtures`"
                        .to_string(),
                );
            }
            let rules: Vec<free_gap_lint::Rule> = match &opts.lint_rule {
                Some(name) => vec![free_gap_lint::Rule::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown rule `{name}` (expected one of: {})",
                        free_gap_lint::Rule::ALL
                            .map(free_gap_lint::Rule::name)
                            .join(", ")
                    )
                })?],
                None => free_gap_lint::Rule::ALL.to_vec(),
            };
            if opts.fixtures {
                // Power mode: the corpus of historical bugs must still fire
                // its rule, and each fixed twin must still lint clean.
                let rows =
                    free_gap_lint::power_check().map_err(|e| format!("reading fixtures: {e}"))?;
                let rows: Vec<_> = rows
                    .into_iter()
                    .filter(|r| rules.contains(&r.fixture.rule))
                    .collect();
                let mut failed = 0usize;
                for row in &rows {
                    let expect = if row.fixture.expect_flagged {
                        "must flag"
                    } else {
                        "must pass"
                    };
                    let got = if row.ok { "ok" } else { "POWER FAILURE" };
                    eprintln!(
                        "  [{}] {:<24} {:>9} … {} ({} finding(s))",
                        row.fixture.rule,
                        row.fixture.path,
                        expect,
                        got,
                        row.diagnostics.len()
                    );
                    if !row.ok {
                        failed += 1;
                        for d in &row.diagnostics {
                            eprintln!("      {d}");
                        }
                    }
                }
                if failed > 0 {
                    return Err(format!(
                        "{failed} of {} fixture power check(s) failed: a rule lost the ability to catch (or over-fires on) its historical bug",
                        rows.len()
                    ));
                }
                eprintln!("all {} fixture power checks passed", rows.len());
            } else {
                let layout = free_gap_lint::TreeLayout::at(std::path::Path::new("."));
                layout.validate()?;
                // The full report keeps allow-suppressed findings so the JSON
                // artifact doubles as a machine-readable allow inventory; the
                // pass/fail verdict only counts the active ones.
                let report = free_gap_lint::lint_tree_report(&layout, &rules)
                    .map_err(|e| format!("linting: {e}"))?;
                if opts.json_explicit {
                    // Written before the verdict so CI still gets the artifact
                    // when the lint fails — that run is exactly the one whose
                    // report someone needs to read.
                    std::fs::write(&opts.json, free_gap_lint::report_json(&rules, &report))
                        .map_err(|e| format!("writing {}: {e}", opts.json))?;
                    eprintln!("wrote {}", opts.json);
                }
                let diagnostics: Vec<_> = report
                    .into_iter()
                    .filter(|d| d.allow == free_gap_lint::AllowState::None)
                    .collect();
                if !diagnostics.is_empty() {
                    let mut msg = format!("{} invariant violation(s):\n", diagnostics.len());
                    for d in &diagnostics {
                        msg.push_str(&format!("  {d}\n"));
                    }
                    msg.push_str(
                        "fix the violation or justify it with `// lint:allow(rule): reason`",
                    );
                    return Err(msg);
                }
                eprintln!(
                    "free-gap-lint: clean under {} ({} rule(s))",
                    rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    rules.len()
                );
            }
            Vec::new()
        }
        "datasets" => vec![experiments::datasets::run(&config(opts, 1))],
        "fig1a" => vec![experiments::fig1::run(
            &config(opts, 1000),
            Panel::Svt,
            Dataset::BmsPos,
            &k_grid(),
        )],
        "fig1b" => vec![experiments::fig1::run(
            &config(opts, 1000),
            Panel::TopK,
            Dataset::BmsPos,
            &k_grid(),
        )],
        "fig2a" => vec![experiments::fig2::run(
            &config(opts, 300),
            Panel::Svt,
            Dataset::Kosarak,
            10,
            &epsilon_grid(),
        )],
        "fig2b" => vec![experiments::fig2::run(
            &config(opts, 300),
            Panel::TopK,
            Dataset::Kosarak,
            10,
            &epsilon_grid(),
        )],
        "fig3" => vec![experiments::fig3::run(
            &config(opts, 300),
            opts.dataset,
            &k_grid(),
        )],
        "fig4" => vec![experiments::fig4::run(
            &config(opts, 300),
            &Dataset::ALL,
            &k_grid(),
        )],
        "ablation-theta" => vec![experiments::ablations::theta_sweep(
            &config(opts, 300),
            10,
            &[0.05, 0.1, 0.177, 0.3, 0.5, 0.7, 0.9],
        )],
        "ablation-sigma" => vec![experiments::ablations::sigma_sweep(
            &config(opts, 300),
            10,
            &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
        )],
        "ablation-split" => vec![experiments::ablations::split_sweep(
            &config(opts, 500),
            opts.dataset,
            10,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        )],
        "ablation-branches" => vec![experiments::ablations::branches_sweep(
            &config(opts, 300),
            opts.dataset,
            10,
            &[1, 2, 3, 4, 5],
        )],
        "all" => {
            let mut all = Vec::new();
            all.push(experiments::datasets::run(&config(opts, 1)));
            all.push(experiments::fig1::run(
                &config(opts, 1000),
                Panel::Svt,
                Dataset::BmsPos,
                &k_grid(),
            ));
            all.push(experiments::fig1::run(
                &config(opts, 1000),
                Panel::TopK,
                Dataset::BmsPos,
                &k_grid(),
            ));
            all.push(experiments::fig2::run(
                &config(opts, 300),
                Panel::Svt,
                Dataset::Kosarak,
                10,
                &epsilon_grid(),
            ));
            all.push(experiments::fig2::run(
                &config(opts, 300),
                Panel::TopK,
                Dataset::Kosarak,
                10,
                &epsilon_grid(),
            ));
            for ds in Dataset::ALL {
                all.push(experiments::fig3::run(&config(opts, 300), ds, &k_grid()));
            }
            all.push(experiments::fig4::run(
                &config(opts, 300),
                &Dataset::ALL,
                &k_grid(),
            ));
            all.push(experiments::ablations::theta_sweep(
                &config(opts, 300),
                10,
                &[0.05, 0.1, 0.177, 0.3, 0.5, 0.7, 0.9],
            ));
            all.push(experiments::ablations::sigma_sweep(
                &config(opts, 300),
                10,
                &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
            ));
            all.push(experiments::ablations::split_sweep(
                &config(opts, 500),
                opts.dataset,
                10,
                &[0.1, 0.3, 0.5, 0.7, 0.9],
            ));
            all.push(experiments::ablations::branches_sweep(
                &config(opts, 300),
                opts.dataset,
                10,
                &[1, 2, 3, 4, 5],
            ));
            all
        }
        other => return Err(format!("unknown command `{other}` (try `repro all`)")),
    };
    Ok(tables)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: repro <bench|serve-bench|bench-check|bench-compare|bench-history FILE..|attack|lint|datasets|fig1a|fig1b|fig2a|fig2b|fig3|fig4|ablation-theta|ablation-sigma|ablation-split|ablation-branches|all> [--runs N] [--scale F] [--seed N] [--eps F] [--dataset NAME] [--budget F] [--csv] [--json PATH] [--baseline PATH] [--tolerance F] [--baseline-only] [--trials N] [--significance F] [--quick] [--tenants N] [--duration F] [--qps F] [--rule NAME] [--fixtures]");
            return ExitCode::FAILURE;
        }
    };
    match run_command(&opts) {
        Ok(tables) => {
            for t in &tables {
                emit(t, opts.csv);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_attack_options() {
        let opts = parse_args(&args(&[
            "attack",
            "--trials",
            "5000",
            "--significance",
            "0.05",
            "--quick",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.command, "attack");
        assert_eq!(opts.attack_trials, Some(5000));
        assert_eq!(opts.significance, Some(0.05));
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn validates_attack_option_values() {
        assert!(parse_args(&args(&["attack", "--trials", "0"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "0.7"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "0"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "nan"])).is_err());
    }

    #[test]
    fn attack_options_are_rejected_on_other_commands() {
        // The cross-command flag-rejection pattern: a flag the selected
        // command would silently ignore is an error, not a no-op.
        for flags in [
            vec!["fig1a", "--trials", "5000"],
            vec!["bench", "--significance", "0.05"],
            vec!["all", "--quick"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("only applies to `attack`"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn attack_rejects_foreign_flags() {
        for flags in [
            vec!["attack", "--eps", "0.5"],
            vec!["attack", "--dataset", "kosarak"],
            vec!["attack", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["attack", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("--trials, not --runs"), "{err}");
        // --budget is still bench-only.
        let opts = parse_args(&args(&["attack", "--budget", "1.0"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("--budget only applies to `bench`"), "{err}");
    }

    #[test]
    fn parses_serve_bench_options() {
        let opts = parse_args(&args(&[
            "serve-bench",
            "--tenants",
            "16",
            "--duration",
            "2.5",
            "--qps",
            "5000",
            "--quick",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(opts.command, "serve-bench");
        assert_eq!(opts.tenants, Some(16));
        assert_eq!(opts.duration, Some(2.5));
        assert_eq!(opts.qps, Some(5000.0));
        assert!(opts.quick);
        assert_eq!(opts.seed, 9);
    }

    #[test]
    fn validates_serve_bench_option_values() {
        assert!(parse_args(&args(&["serve-bench", "--tenants", "0"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--duration", "0"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--duration", "nan"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--qps", "-5"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--qps", "inf"])).is_err());
    }

    #[test]
    fn serve_bench_options_are_rejected_on_other_commands() {
        for flags in [
            vec!["fig1a", "--tenants", "4"],
            vec!["bench", "--duration", "1.0"],
            vec!["attack", "--qps", "100"],
            vec!["all", "--tenants", "2"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(
                err.contains("only applies to `serve-bench`"),
                "{flags:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_bench_rejects_foreign_flags() {
        for flags in [
            vec!["serve-bench", "--eps", "0.5"],
            vec!["serve-bench", "--dataset", "kosarak"],
            vec!["serve-bench", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["serve-bench", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("not --runs"), "{err}");
        // The neighbouring commands' flags stay rejected too.
        let opts = parse_args(&args(&["serve-bench", "--trials", "100"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("only applies to `attack`"), "{err}");
        let opts = parse_args(&args(&["serve-bench", "--budget", "1.0"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("only applies to `bench`"), "{err}");
    }

    #[test]
    fn lint_options_are_rejected_on_other_commands() {
        for flags in [
            vec!["fig1a", "--rule", "panic-freedom"],
            vec!["bench", "--rule", "taxonomy"],
            vec!["attack", "--fixtures"],
            vec!["all", "--fixtures"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("only applies to `lint`"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn lint_rejects_foreign_flags_and_unknown_rules() {
        for flags in [
            vec!["lint", "--eps", "0.5"],
            vec!["lint", "--dataset", "kosarak"],
            vec!["lint", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["lint", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("--runs does not apply"), "{err}");
        let opts = parse_args(&args(&["lint", "--rule", "no-such-rule"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        assert!(err.contains("stream-discipline"), "{err}");
    }

    #[test]
    fn json_is_rejected_on_commands_that_never_write_it() {
        for flags in [
            vec!["fig1a", "--json", "/tmp/out.json"],
            vec!["attack", "--json", "/tmp/out.json"],
            vec!["datasets", "--json", "/tmp/out.json"],
            vec!["all", "--json", "/tmp/out.json"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("--json only applies to"), "{flags:?}: {err}");
        }
        // Fixture power mode has no tree report to serialize.
        let opts = parse_args(&args(&["lint", "--fixtures", "--json", "/tmp/out.json"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("does not apply to `lint --fixtures`"), "{err}");
    }

    #[test]
    fn lint_json_writes_a_stable_report() {
        // `lint --json` must produce the machine-readable report and exit
        // clean on the real tree — and two runs must agree byte-for-byte.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dir = std::env::temp_dir().join("repro-lint-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&root).unwrap();
        let mut opts = parse_args(&args(&["lint", "--json", out.to_str().unwrap()])).unwrap();
        let first = run_command(&opts);
        let run_a = std::fs::read_to_string(&out);
        opts = parse_args(&args(&["lint", "--json", out.to_str().unwrap()])).unwrap();
        let second = run_command(&opts);
        let run_b = std::fs::read_to_string(&out);
        std::env::set_current_dir(cwd).unwrap();
        first.expect("real tree lints clean");
        second.expect("real tree lints clean");
        let (a, b) = (run_a.unwrap(), run_b.unwrap());
        assert_eq!(a, b, "lint --json must be byte-stable across runs");
        assert!(a.contains("\"schema\": \"free-gap-lint/1\""));
        assert!(a.contains("\"active\": 0"));
    }
}
