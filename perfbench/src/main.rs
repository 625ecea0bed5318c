//! End-to-end and per-layer benchmark of the free-gap Monte-Carlo and
//! serving paths. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (with its sample count where it is a
//! percentile), then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones of the workload;
//! with `--trace 1` they are the per-layer ones, from a separate traced run.

mod calib;
mod counting;
mod layers;
mod mc;
mod serve;
mod stats;

use mc::{SvtBench, TopKBench, N};
use serve::{Serving, Shape, BUDGET, KINDS};
use stats::{median, Hist};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "mc-topk-gap",
    "mc-svt-adaptive",
    "serve-mixed",
    "serve-sessions",
];
/// An end-to-end run measures this many windows, each followed by a timed
/// set-up; `setup_s` is the median set-up.
const SLICES: usize = 10;
/// Untimed set-ups before the first window.
const WARM_SETUPS: usize = 3;
/// Fewest latency samples a window group's percentiles rest on.
const MIN_GROUP_SAMPLES: u64 = 1000;
/// Runs whose generator words `noise.u64_per_op` averages.
const WORD_COUNT_RUNS: u64 = 32;
/// A traced run splits `--seconds` into this many windows (at least one
/// second each).
const TRACE_WINDOWS: f64 = 11.0;
/// Length of each alternating untraced/traced serving window, seconds.
const TRACE_SLICE_S: f64 = 0.25;

/// The ops of one timed window and the outcome of its output checks.
#[derive(Debug)]
pub struct Window {
    /// Ops completed.
    pub ops: u64,
    /// Ops whose own output check failed.
    pub failed: u64,
    /// Wall time of the window, seconds.
    pub elapsed_s: f64,
    /// Per-op latency.
    pub hist: Hist,
    /// Why checks failed.
    pub problems: Vec<String>,
    /// An aggregate check (over the whole window) failed: every op counts
    /// as failed.
    pub aggregate_failed: bool,
}

impl Window {
    /// A window with no check outcome yet beyond per-op failures.
    pub fn new(ops: u64, failed: u64, elapsed_s: f64, hist: Hist) -> Self {
        Self {
            ops,
            failed,
            elapsed_s,
            hist,
            problems: Vec::new(),
            aggregate_failed: false,
        }
    }

    /// Records the outcome of a check over the whole window.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.problems.push(why);
            self.aggregate_failed = true;
        }
    }

    /// Records why some op failed (already counted in `failed`).
    pub fn note(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    /// Adds the ops, time, samples and check outcomes of `other`.
    pub fn merge(&mut self, other: Window) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        self.hist.merge(&other.hist);
        if self.problems.is_empty() {
            self.problems = other.problems;
        }
        self.aggregate_failed |= other.aggregate_failed;
    }

    fn failed_ops(&self) -> u64 {
        if self.aggregate_failed {
            self.ops
        } else {
            self.failed
        }
    }
}

/// The same workload measured untraced and traced, interleaved in time.
#[derive(Debug)]
pub struct Interleaved {
    /// The untraced ops.
    pub plain: Window,
    /// The traced ops.
    pub traced: Window,
}

impl Interleaved {
    /// Traced throughput's shortfall against untraced, percent.
    fn overhead_pct(&self) -> f64 {
        100.0 * (1.0 - self.traced.ops_per_s() / self.plain.ops_per_s())
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// For a percentile: its samples, and the windows it is the median over.
    samples: Option<(u64, usize)>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds the median over `groups` of each group's latency percentile,
    /// in microseconds, with the total sample count; returns it.
    fn add_percentile(&mut self, name: &str, groups: &[Hist], q: f64) -> Result<f64, String> {
        let values = groups
            .iter()
            .map(|h| h.percentile(q).map(|ns| ns / 1e3))
            .collect::<Result<Vec<f64>, String>>()
            .map_err(|e| format!("{name}: {e}"))?;
        let value = median(&values);
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: "us",
            samples: Some((groups.iter().map(Hist::count).sum(), groups.len())),
        });
        Ok(value)
    }

    fn add_window(&mut self, w: &Window) {
        self.attempted += w.ops;
        self.failed += w.failed_ops();
        self.problems.extend(w.problems.iter().cloned());
    }

    fn add_interleaved(&mut self, both: &Interleaved) {
        self.add_window(&both.plain);
        self.add_window(&both.traced);
    }

    fn print(&self) -> Result<(), String> {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let mut json = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not a finite number: {}", m.name, m.value));
            }
            match m.samples {
                Some((n, 1)) => {
                    println!("{:<48} {:>16.4} {:<6} (n = {n})", m.name, m.value, m.unit)
                }
                Some((n, g)) => println!(
                    "{:<48} {:>16.4} {:<6} (n = {n} in {g} window groups)",
                    m.name, m.value, m.unit
                ),
                None => println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit),
            }
            json.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Sets up, then measures `SLICES` windows that together last `seconds`,
/// timing one throwaway set-up after each window. Set-up is timed between
/// windows rather than in one burst so its median samples the same stretch
/// of machine time as the windows. The first set-ups of a process pay for
/// fresh memory from the kernel and run far slower (up to twice as slow on
/// a shared 2-vCPU Xeon VM), so `WARM_SETUPS` untimed ones go first.
/// Returns the state, the windows and the median set-up time in seconds,
/// scaled to the reference machine speed like the windows' timings.
fn sliced<T>(
    seconds: f64,
    setup: impl Fn() -> Result<T, String>,
    mut measure: impl FnMut(&mut T, f64) -> Window,
) -> Result<(T, Vec<Window>, f64), String> {
    let mut state = setup()?;
    for _ in 0..WARM_SETUPS {
        setup()?;
    }
    let mut setup_times = Vec::new();
    let mut windows = Vec::new();
    for _ in 0..SLICES {
        windows.push(measure(&mut state, seconds / SLICES as f64));
        // Scaled by a calibration taken just before it.
        let factor = calib::Speed::new().factor();
        let t0 = Instant::now();
        let throwaway = setup()?;
        setup_times.push(t0.elapsed().as_secs_f64() / factor);
        drop(throwaway);
    }
    Ok((state, windows, median(&setup_times)))
}

/// Latencies of consecutive windows, pooled until each group holds at
/// least `MIN_GROUP_SAMPLES` (a short tail group joins the one before).
/// A burst of machine noise then moves only the groups it hits, and the
/// median over groups shrugs it off.
fn latency_groups(windows: &[Window]) -> Vec<Hist> {
    let mut groups: Vec<Hist> = Vec::new();
    let mut open: Option<Hist> = None;
    for w in windows {
        let group = open.get_or_insert_with(Hist::new);
        group.merge(&w.hist);
        if group.count() >= MIN_GROUP_SAMPLES {
            groups.extend(open.take());
        }
    }
    match (open, groups.last_mut()) {
        (Some(rest), Some(last)) => last.merge(&rest),
        (Some(rest), None) => groups.push(rest),
        (None, _) => {}
    }
    groups
}

/// The process's peak resident memory, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    let err = |e: free_gap_core::MechanismError| e.to_string();
    let (windows, mut checks, setup_s) = match args.workload.as_str() {
        "mc-topk-gap" => {
            let (b, windows, setup_s) = sliced(
                secs,
                || TopKBench::setup(seed).map_err(err),
                TopKBench::window,
            )?;
            (windows, vec![b.check_mse()], setup_s)
        }
        "mc-svt-adaptive" => {
            let (_, windows, setup_s) = sliced(
                secs,
                || SvtBench::setup(seed).map_err(err),
                SvtBench::window,
            )?;
            (windows, Vec::new(), setup_s)
        }
        "serve-mixed" => {
            let (mut s, windows, setup_s) = sliced(
                secs,
                || Serving::setup(seed, Shape::Mixed),
                |s, t| s.window(t, false),
            )?;
            (
                windows,
                vec![s.check_replay(seed), s.check_ledgers()],
                setup_s,
            )
        }
        _ => {
            let (mut s, windows, setup_s) = sliced(
                secs,
                || Serving::setup(seed, Shape::Sessions(1)),
                |s, t| s.window(t, false),
            )?;
            (windows, vec![s.check_ledgers()], setup_s)
        }
    };
    let groups = latency_groups(&windows);
    let mut window = windows
        .into_iter()
        .reduce(|mut total, w| {
            total.merge(w);
            total
        })
        .expect("at least one window");
    for outcome in checks.drain(..) {
        window.check(outcome);
    }
    println!(
        "calibration loop now at {:.2} ns per iteration; timings are scaled to {} ns",
        calib::Speed::new().factor() * calib::REFERENCE_NS_PER_ITER,
        calib::REFERENCE_NS_PER_ITER
    );
    let mut r = Report::default();
    r.add_window(&window);
    r.add("setup_s", setup_s, "s");
    r.add("ops_per_s", window.ops_per_s(), "1/s");
    r.add_percentile("latency_us_p50", &groups, 0.5)?;
    r.add_percentile("latency_us_p90", &groups, 0.9)?;
    r.add(
        "ok_frac",
        1.0 - r.failed as f64 / r.attempted as f64,
        "ratio",
    );
    r.add("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(r)
}

fn per_layer(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let t = (args.seconds / TRACE_WINDOWS).max(1.0);
    let mut r = Report::default();
    let err = |e: free_gap_core::MechanismError| e.to_string();
    let mut overheads = Vec::new();

    // core: the §5.2 pipeline stage by stage, with the noise fill and raw
    // generator probed in the same interleaved window.
    let mut topk = TopKBench::setup(seed).map_err(err)?;
    let (both, spans) = topk.traced_window(3.0 * t);
    let per_op = |ns: f64| ns / spans.ops as f64 / 1e3;
    let (fill_ns, raw_ns) = (
        per_op(spans.fill_ns) * 1e3 / N as f64,
        per_op(spans.raw_ns) * 1e3 / N as f64,
    );
    r.add("noise.std_rng.ns_per_u64", raw_ns, "ns");
    r.add("noise.fast_rng.ns_per_u64", layers::fast_rng_ns(seed), "ns");
    r.add("noise.laplace_fill.ns_per_value", fill_ns, "ns");
    r.add(
        "noise.laplace_transform.ns_per_value",
        fill_ns - raw_ns,
        "ns",
    );
    r.add("noise.tape.ns_per_draw", layers::tape_ns(seed), "ns");
    let select_us = per_op(spans.select_ns);
    let spans_us = per_op(spans.select_ns + spans.measure_ns + spans.blue_ns);
    r.add("core.topk_select.us_per_op", select_us, "us");
    r.add(
        "core.topk_select.self_us_per_op",
        select_us - per_op(spans.fill_ns),
        "us",
    );
    r.add("core.measure.us_per_op", per_op(spans.measure_ns), "us");
    r.add("core.blue.us_per_op", per_op(spans.blue_ns), "us");
    r.add(
        "trace.topk_span_share_pct",
        100.0 * spans_us * 1e3 / both.plain.hist.mean_ns(),
        "%",
    );
    r.add(
        "noise.u64_per_op.mc-topk-gap",
        topk.words_per_op(WORD_COUNT_RUNS).map_err(err)?,
        "count",
    );
    overheads.push(("mc-topk-gap", both.overhead_pct()));
    r.add_interleaved(&both);

    // core: Algorithm 2.
    let mut svt = SvtBench::setup(seed).map_err(err)?;
    let (both, spans) = svt.traced_window(2.0 * t);
    let svt_us = spans.call_ns / spans.ops as f64 / 1e3;
    r.add("core.svt.us_per_op", svt_us, "us");
    r.add(
        "core.svt.queries_scanned_per_op",
        spans.scanned as f64 / spans.ops as f64,
        "count",
    );
    r.add(
        "trace.svt_span_share_pct",
        100.0 * svt_us * 1e3 / both.plain.hist.mean_ns(),
        "%",
    );
    r.add(
        "noise.u64_per_op.mc-svt-adaptive",
        svt.words_per_op(WORD_COUNT_RUNS).map_err(err)?,
        "count",
    );
    overheads.push(("mc-svt-adaptive", both.overhead_pct()));
    r.add_interleaved(&both);

    // core: one call of each grid mechanism.
    for (name, us) in layers::call_us(seed) {
        r.add(format!("core.call_us.{name}"), us, "us");
    }

    // serve: the mixed traffic, per request kind.
    let mut mixed = Serving::setup(seed, Shape::Mixed)?.unscaled();
    mixed.record_ledger();
    let mut both = mixed.interleaved(2.0 * t, TRACE_SLICE_S);
    for (kind, hist) in KINDS.iter().zip(mixed.kind_hists()) {
        let hist = std::slice::from_ref(hist);
        r.add_percentile(&format!("serve.handle_us_p50.{kind}"), hist, 0.5)?;
        r.add_percentile(&format!("serve.handle_us_p99.{kind}"), hist, 0.99)?;
    }
    let count = |f: fn(&serve::Lane) -> u64| mixed.lanes().map(f).sum::<u64>() as f64;
    r.add("serve.rejects.budget", count(|l| l.budget_rejects), "count");
    r.add(
        "serve.rejects.unknown_session",
        count(|l| l.unknown_session),
        "count",
    );
    let ledger_ops: Vec<(bool, f64)> = mixed
        .lanes()
        .flat_map(|l| l.ledger_ops.iter().flatten().copied())
        .collect();
    let (debit_ns, release_ns) = layers::ledger_ns(&ledger_ops, BUDGET);
    r.add("serve.ledger.debit_ns", debit_ns, "ns");
    r.add("serve.ledger.release_ns", release_ns, "ns");
    both.traced.check(mixed.check_ledgers());
    overheads.push(("serve-mixed", both.overhead_pct()));
    r.add_interleaved(&both);

    // serve: handle on a call against a replay of the same call.
    let mut replay = Serving::setup(seed, Shape::Mixed)?;
    let (diffs, mismatches) = replay.handle_self(t);
    if diffs.is_empty() {
        return Err("no call was served in the handle-self window".into());
    }
    r.add("serve.handle_self_us_p50", median(&diffs) / 1e3, "us");
    r.attempted += diffs.len() as u64;
    r.failed += mismatches;
    if mismatches > 0 {
        r.problems.push(format!(
            "{mismatches} served calls differ from their replay"
        ));
    }

    // serve: the session-heavy tenant as the end-to-end run drives it (one
    // client), then the same scripts from two clients for the lock wait.
    let mut sessions = Serving::setup(seed, Shape::Sessions(1))?.unscaled();
    let mut both = sessions.interleaved(2.0 * t, TRACE_SLICE_S);
    let feed = &sessions.kind_hists()[2];
    let feed = std::slice::from_ref(feed);
    let feed_p50 = r.add_percentile("serve.sessions.handle_us_p50.feed", feed, 0.5)?;
    r.add_percentile("serve.sessions.handle_us_p99.feed", feed, 0.99)?;
    let queries = serve::serving_queries(seed);
    let session_svt = serve::session_svt(&queries).map_err(err)?;
    let feed_us = layers::session_feed_us(seed, session_svt);
    r.add("serve.session_feed_us", feed_us, "us");
    r.add("serve.feed_overhead_us", feed_p50 - feed_us, "us");
    r.add("serve.evictions", sessions.evictions() as f64, "count");
    r.add(
        "serve.open_sessions_end",
        sessions.open_sessions() as f64,
        "count",
    );
    both.traced.check(sessions.check_ledgers());
    overheads.push(("serve-sessions", both.overhead_pct()));
    let mut shared = Serving::setup(seed, Shape::Sessions(2))?.unscaled();
    let mut two = shared.window(t, false);
    two.check(shared.check_ledgers());
    for (name, q) in [
        ("serve.lock_wait_us_p50", 0.5),
        ("serve.lock_wait_us_p99", 0.99),
    ] {
        let waited = two.hist.percentile(q)? / 1e3 - both.plain.hist.percentile(q)? / 1e3;
        r.add(name, waited, "us");
    }
    r.add_interleaved(&both);
    r.add_window(&two);

    for (workload, pct) in overheads {
        r.add(format!("trace.overhead_pct.{workload}"), pct, "%");
    }
    Ok(r)
}

fn main() {
    let outcome = Args::parse().and_then(|args| {
        if args.trace {
            per_layer(&args)
        } else {
            end_to_end(&args)
        }
    });
    if let Err(e) = outcome.and_then(|report| report.print()) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_of(samples: u64) -> Window {
        let mut hist = Hist::new();
        for ns in 0..samples {
            hist.record(ns);
        }
        Window::new(samples, 0, 1.0, hist)
    }

    #[test]
    fn latency_groups_pool_windows_until_each_has_enough_samples() {
        let counts = |sizes: &[u64]| -> Vec<u64> {
            let windows: Vec<Window> = sizes.iter().map(|&n| window_of(n)).collect();
            latency_groups(&windows).iter().map(Hist::count).collect()
        };
        assert_eq!(counts(&[700, 700, 700, 300]), vec![1400, 1000]);
        // A short tail joins the group before it.
        assert_eq!(counts(&[1200, 100]), vec![1300]);
        assert_eq!(counts(&[2000, 3000]), vec![2000, 3000]);
        // Too few samples in all: one group, whose p99 then errors.
        assert_eq!(counts(&[500]), vec![500]);
    }
}
