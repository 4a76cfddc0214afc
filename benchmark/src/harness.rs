//! What every workload shares: arguments, the round loop, the metric
//! ledger, verification bookkeeping, and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::catalogue::{self, NOT_APPLICABLE};
use crate::host::{self, Timed};
use crate::json::Json;
use crate::spans::Recorder;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds the rounds must add up to.
    pub seconds: f64,
    /// Traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Two rounds regardless of `seconds` (smoke runs; never for claims).
    pub quick: bool,
    /// Result-set directory (`<out>/<workload>/…`).
    pub out: PathBuf,
}

impl Args {
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }
}

/// Metric values by catalogue name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// The exact bit patterns, for "equal on every round" checks.
    pub fn bits(&self) -> Vec<(&'static str, u64)> {
        self.0.iter().map(|(k, v)| (*k, v.to_bits())).collect()
    }

    pub fn extend(&mut self, other: Ledger) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// Verification bookkeeping: every check counts as one attempted
/// operation, every failed check as one failure (and is printed).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// A check on wall-clock readings taken seconds apart. On a shared
    /// sandbox a burst of contention between the two readings can break it
    /// with nothing wrong in the program, so it is printed and recorded but
    /// does not fail the run.
    pub fn warn(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.warnings.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Requests of the measured round and how many of them were lost
/// (rejected, shed, dead-lettered or unfinished).
#[derive(Debug, Default, Clone, Copy)]
pub struct RequestTally {
    pub attempted: u64,
    pub lost: u64,
}

/// `1 − (lost requests + verification failures) / attempted requests`.
pub fn completed_frac(requests: RequestTally, checks: &Checks) -> f64 {
    let bad = (requests.lost + checks.failed()) as f64;
    (1.0 - bad / requests.attempted.max(1) as f64).max(0.0)
}

pub struct Outcome {
    pub metrics: Ledger,
    pub checks: Checks,
    pub requests: RequestTally,
    /// Free-form facts about the run (round count, sample counts, …),
    /// written to the result file beside the metrics.
    pub notes: Vec<(&'static str, Json)>,
    pub spans: Option<Recorder>,
}

/// Times of the measured rounds, and the first round's result. Later rounds
/// are verified against the first as they finish and then dropped, so the
/// process's peak memory does not grow with the round count.
pub struct Rounds<R> {
    pub timed: Vec<Timed>,
    first: Option<R>,
}

impl<R> Default for Rounds<R> {
    fn default() -> Self {
        Self { timed: Vec::new(), first: None }
    }
}

impl<R> Rounds<R> {
    /// The first measured round's result: where every count and virtual
    /// metric is read from.
    pub fn first(&self) -> &R {
        self.first.as_ref().expect("at least one round ran")
    }

    pub fn len(&self) -> usize {
        self.timed.len()
    }

    /// Seconds of each round at nominal machine speed ([`Timed::seconds`]).
    fn seconds(&self) -> Vec<f64> {
        self.timed.iter().map(|t| t.seconds).collect()
    }

    /// Median round time at nominal speed: what `host_tok_s` divides by.
    pub fn median_wall(&self) -> f64 {
        stats::median(&self.seconds())
    }

    /// Median of the rounds' raw wall seconds (the clock spans and probes use).
    pub fn median_raw_wall(&self) -> f64 {
        stats::median(&self.timed.iter().map(|t| t.wall).collect::<Vec<_>>())
    }

    /// The round count and every round's readings, for the result file.
    pub fn notes(&self) -> Vec<(&'static str, Json)> {
        let list = |f: fn(&Timed) -> f64| Json::Arr(self.timed.iter().map(|t| Json::Num(f(t))).collect());
        vec![
            ("rounds", Json::Num(self.len() as f64)),
            ("round_seconds", list(|t| t.seconds)),
            ("round_wall_s", list(|t| t.wall)),
            ("round_reference_s", list(|t| t.reference)),
        ]
    }

    /// The `bench.*` instrument-health metrics every traced run reports
    /// (the reconciliation is each workload's own). `untraced_raw_wall` is
    /// the median raw wall of the untraced rounds these were paired with:
    /// adjacent rounds of one process, so raw wall against raw wall.
    pub fn record_bench_health(
        &self,
        untraced_raw_wall: f64,
        probe_start: std::time::Instant,
        out: &mut Ledger,
    ) {
        out.set("bench.trace_overhead_frac", self.median_raw_wall() / untraced_raw_wall - 1.0);
        out.set("bench.round_iqr_frac", stats::iqr_frac(&self.seconds()));
        out.set("bench.rounds", self.len() as f64);
        out.set("bench.probe_seconds", host::secs(probe_start));
    }
}

/// The run's rounds. A round is a fixed, seeded unit of work that returns
/// its own time with set-up excluded; `round(traced)` runs one.
///
/// Untraced: rounds repeat until `args.seconds` of measured time have elapsed
/// and at least [`Args::min_rounds`] ran. Traced: one discarded warm-up (a
/// process's first round runs on cold caches and fresh pages), then two pairs
/// (`--quick`: one) of a traced round followed by an untraced one, so both
/// sides of `bench.trace_overhead_frac` see the same machine.
///
/// `verify(ordinal, result, first)` sees every result after the warm-up —
/// the first one too, as both arguments — before all but the first are
/// dropped. Returns the rounds the metrics come from and the times of the
/// untraced rounds they were paired with (none in an untraced run).
pub fn run_rounds<R>(
    args: &Args,
    mut round: impl FnMut(bool) -> (Timed, R),
    mut verify: impl FnMut(usize, &R, &R),
) -> (Rounds<R>, Rounds<R>) {
    let (mut measured, mut paired) = (Vec::new(), Vec::new());
    let mut first: Option<R> = None;
    let mut ordinal = 0;
    let mut take = |times: &mut Vec<Timed>, (timed, result): (Timed, R)| {
        times.push(timed);
        verify(ordinal, &result, first.as_ref().unwrap_or(&result));
        ordinal += 1;
        first.get_or_insert(result);
    };
    if args.trace {
        round(false);
        for _ in 0..if args.quick { 1 } else { 2 } {
            take(&mut measured, round(true));
            take(&mut paired, round(false));
        }
    } else {
        while measured.len() < args.min_rounds()
            || measured.iter().map(|t| t.seconds).sum::<f64>() < args.seconds
        {
            take(&mut measured, round(false));
        }
    }
    (Rounds { timed: measured, first }, Rounds { timed: paired, first: None })
}

/// Repeats `setup` at least five times and until 0.75 s have been timed, and
/// returns the median seconds of one set-up with the last product. A single
/// set-up is too short to bracket with reference passes, so the reference is
/// read before the first set-up and again after every fifth of a second of
/// set-ups, and the median reading scales the median set-up to nominal speed.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut readings = vec![host::reference_seconds()];
    let mut since_reading = 0.0;
    loop {
        let start = std::time::Instant::now();
        let product = setup();
        let elapsed = start.elapsed().as_secs_f64();
        times.push(elapsed);
        since_reading += elapsed;
        let done = times.len() >= 5 && times.iter().sum::<f64>() >= 0.75;
        if done || since_reading >= 0.2 {
            readings.push(host::reference_seconds());
            since_reading = 0.0;
        }
        if done {
            let nominal = host::REFERENCE_NOMINAL_S / stats::median(&readings);
            return (stats::median(&times) * nominal, product);
        }
    }
}

/// Checks the outcome against the catalogue, prints every metric by name
/// with its unit, writes the result files, and prints the result line.
/// Returns the process exit code: non-zero on any verification failure.
pub fn finish(args: &Args, outcome: Outcome) -> i32 {
    let Outcome { metrics, mut checks, requests, notes, spans } = outcome;
    let workload = args.workload.as_str();
    let catalogue: Vec<(&str, &str, Option<&[&str]>)> = if args.trace {
        catalogue::PER_LAYER.iter().map(|m| (m.name, m.unit, None)).collect()
    } else {
        catalogue::END_TO_END.iter().map(|m| (m.name, m.unit, Some(m.workloads))).collect()
    };

    for name in metrics.names() {
        checks.check(catalogue.iter().any(|(n, ..)| *n == name), || {
            format!("metric {name} is not in the catalogue")
        });
    }
    let mut rows = Vec::new();
    for &(name, unit, workloads) in &catalogue {
        let measured = metrics.get(name);
        let value = match workloads {
            // End-to-end: exactly the workloads the catalogue lists measure it.
            Some(listed) if listed.contains(&workload) => {
                checks.check(measured.is_some(), || format!("{name} was not measured on {workload}"));
                measured.unwrap_or(NOT_APPLICABLE)
            }
            Some(_) => {
                checks
                    .check(measured.is_none(), || format!("{name} is not defined on {workload} but was set"));
                NOT_APPLICABLE
            }
            // Per-layer: a layer the workload does not exercise reads 0.
            None => measured.unwrap_or(0.0),
        };
        checks.check(value.is_finite(), || format!("{name} is not finite"));
        if workloads.is_some() {
            checks.check(value != 0.0, || format!("{name} is 0 (the driver divides by the median)"));
        }
        rows.push((name, unit, value, measured.is_some()));
    }

    let kind = if args.trace { "per-layer (traced)" } else { "end-to-end (untraced)" };
    println!("# {workload}  seed {}  {kind}", args.seed);
    for (name, unit, value, measured) in &rows {
        if *measured {
            println!("{name:<40} {value:>22.6} {unit}");
        } else {
            println!("{name:<40} {:>22} {unit}", "n/a");
        }
    }
    for (key, value) in &notes {
        println!("# {key}: {}", value.to_line());
    }
    if !args.trace {
        // The result line's shape is fixed by the driver (every end-to-end
        // metric, each as {"value", "unit"}), so the cells that are not
        // measurements on this workload are named on the line before it.
        let not_applicable: Vec<&str> = rows.iter().filter(|r| !r.3).map(|r| r.0).collect();
        println!("# not_applicable (placeholder {NOT_APPLICABLE}): {}", not_applicable.join(" "));
    }
    for warning in &checks.warnings {
        println!("WARNING: {warning}");
    }
    for failure in &checks.failures {
        println!("VERIFICATION FAILED: {failure}");
    }

    let correct = checks.failures.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num((requests.attempted + checks.attempted).max(1) as f64)),
        ("failed", Json::Num(checks.failed() as f64)),
        (
            "metrics",
            Json::obj(rows.iter().map(|(name, unit, value, _)| {
                (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
            })),
        ),
    ]);

    let mut notes = notes;
    notes.push(("warnings", Json::Arr(checks.warnings.iter().map(Json::str).collect())));
    if let Err(err) = write_files(args, &result, &notes, &rows, spans.as_ref()) {
        eprintln!("could not write result files under {}: {err}", args.out.display());
        return 2;
    }
    println!("{}", result.to_line());
    if correct {
        0
    } else {
        1
    }
}

/// One line per run is appended to `<out>/<workload>/{e2e,layers}.jsonl`,
/// so a directory filled by several runs is a result set `--compare` can
/// take medians and quartiles over. The traced run also dumps its spans.
fn write_files(
    args: &Args,
    result: &Json,
    notes: &[(&'static str, Json)],
    rows: &[(&str, &str, f64, bool)],
    spans: Option<&Recorder>,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = args.out.join(&args.workload);
    std::fs::create_dir_all(&dir)?;
    let mut fields = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        (
            "not_applicable".to_string(),
            Json::Arr(rows.iter().filter(|r| !r.3).map(|r| Json::str(r.0)).collect()),
        ),
    ];
    fields.extend(notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    if let Json::Obj(result_fields) = result {
        fields.extend(result_fields.iter().cloned());
    }
    let file = if args.trace { "layers.jsonl" } else { "e2e.jsonl" };
    let mut out = std::fs::OpenOptions::new().create(true).append(true).open(dir.join(file))?;
    writeln!(out, "{}", Json::Obj(fields).to_line())?;
    out.flush()?;
    if let Some(recorder) = spans {
        std::fs::write(dir.join("spans.json"), recorder.to_json().to_line())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: f64, trace: bool, quick: bool) -> Args {
        Args { workload: "solo_stream".into(), seed: 7, seconds, trace, quick, out: "out".into() }
    }

    #[test]
    fn rounds_stop_on_time_and_count_and_keep_only_the_first_result() {
        let timed = Timed { seconds: 0.3, wall: 0.4, reference: 0.056 };
        let mut calls = 0;
        let mut seen = Vec::new();
        let (rounds, paired) = run_rounds(
            &args(1.0, false, false),
            |traced| {
                assert!(!traced);
                calls += 1;
                (timed, calls)
            },
            |ordinal, result, first| seen.push((ordinal, *result, *first)),
        );
        assert_eq!((rounds.len(), *rounds.first(), paired.len()), (5, 1, 0));
        assert_eq!(seen, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]);
        let (rounds, _) = run_rounds(&args(2.0, false, true), |_| (timed, ()), |_, _, _| {});
        assert_eq!(rounds.len(), 7, "0.3 s rounds need seven to cover 2 s");
        assert!((rounds.median_wall() - 0.3).abs() < 1e-12 && (rounds.median_raw_wall() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn traced_rounds_pair_up_after_a_warm_up() {
        let timed = Timed { seconds: 0.3, wall: 0.4, reference: 0.056 };
        let mut order = Vec::new();
        let (traced, untraced) = run_rounds(
            &args(8.0, true, false),
            |on| {
                order.push(on);
                (timed, order.len())
            },
            |_, _, first| assert_eq!(*first, 2, "the warm-up's result is discarded"),
        );
        assert_eq!(order, [false, true, false, true, false]);
        assert_eq!((traced.len(), *traced.first(), untraced.len()), (2, 2, 2));
    }

    #[test]
    fn completed_frac_counts_lost_requests_and_failed_checks() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        assert_eq!(completed_frac(RequestTally { attempted: 2000, lost: 0 }, &checks), 1.0);
        assert_eq!(completed_frac(RequestTally { attempted: 2000, lost: 100 }, &checks), 0.95);
        checks.check(false, || "token stream differs".into());
        assert_eq!((checks.attempted, checks.failed()), (2, 1));
        assert_eq!(completed_frac(RequestTally { attempted: 1, lost: 0 }, &checks), 0.0);
    }
}
