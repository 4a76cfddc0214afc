//! `--compare DIR_A DIR_B`: applies each end-to-end metric's bound to two
//! result sets (directories filled by runs of this benchmark) and prints
//! one row per workload × metric with both medians and quartiles.

use std::path::Path;

use crate::catalogue::{self, Better, EndToEnd};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The metric's own run-to-run spread exceeds its bound, so the sets
    /// cannot tell a change of that size from noise. Not "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Relative tolerance of a deterministic metric: it repeats exactly for a
/// seed, so two sets over the same seeds differ only if behaviour changed.
const DET_TOLERANCE: f64 = 1e-9;

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when `b` is better).
pub fn worsening(better: Better, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let delta = match better {
        Better::Higher => ma - mb,
        Better::Lower => mb - ma,
    };
    if ma == 0.0 {
        delta
    } else {
        delta / ma.abs()
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worsening(metric.better, a, b);
    let tolerance = if metric.det {
        DET_TOLERANCE
    } else {
        // A wall-clock metric is judged only if each set is steadier than
        // the bound it is judged against.
        if stats::iqr_frac(a).max(stats::iqr_frac(b)) > metric.bound {
            return Verdict::Unresolved;
        }
        metric.bound
    };
    if worse > tolerance {
        Verdict::Regressed
    } else if worse < -tolerance {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Values of every applicable end-to-end metric in one workload's
/// `e2e.jsonl`, in run order. Cells a run marked not applicable are skipped.
fn load(dir: &Path, workload: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let path = dir.join(workload).join("e2e.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), n + 1))?;
        let skip: Vec<&str> = run
            .get("not_applicable")
            .and_then(Json::as_arr)
            .map(|names| names.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{} line {}: no metrics object", path.display(), n + 1))?;
        for (name, cell) in metrics {
            if skip.contains(&name.as_str()) {
                continue;
            }
            let value = cell
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{} line {}: {name} has no numeric value", path.display(), n + 1))?;
            match out.iter_mut().find(|(k, _)| k == name) {
                Some((_, values)) => values.push(value),
                None => out.push((name.clone(), vec![value])),
            }
        }
    }
    Ok(out)
}

fn describe(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!("{:>14.6} [{:>14.6}, {:>14.6}] n={}", stats::median(values), q1, q3, values.len())
}

/// Prints the comparison; returns 0 when nothing regressed or is unresolved.
pub fn main(dir_a: &Path, dir_b: &Path) -> i32 {
    let mut bad = 0;
    let mut rows = 0;
    println!(
        "{:<14} {:<22} {:<10} {:<56} {:<56} {:>9}  verdict",
        "workload", "metric", "unit", "A: median [q1, q3]", "B: median [q1, q3]", "worse by"
    );
    for workload in &catalogue::WORKLOADS {
        let (a, b) = match (load(dir_a, workload.name), load(dir_b, workload.name)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("skipping {}: {e}", workload.name);
                continue;
            }
        };
        for (name, values_a) in &a {
            let Some(metric) = catalogue::end_to_end(name) else { continue };
            let Some((_, values_b)) = b.iter().find(|(k, _)| k == name) else { continue };
            let verdict = verdict(metric, values_a, values_b);
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                bad += 1;
            }
            rows += 1;
            println!(
                "{:<14} {:<22} {:<10} {:<56} {:<56} {:>8.2}%  {}{}",
                workload.name,
                name,
                metric.unit,
                describe(values_a),
                describe(values_b),
                worsening(metric.better, values_a, values_b) * 100.0,
                verdict.as_str(),
                if metric.det { " (det)" } else { "" },
            );
        }
    }
    println!("# {rows} rows, {bad} regressed or unresolved");
    if rows == 0 {
        eprintln!("no workload has results in both {} and {}", dir_a.display(), dir_b.display());
        return 2;
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic metric, so the verdicts do not depend on the catalogue's bounds.
    fn metric(better: Better, bound: f64, det: bool) -> EndToEnd {
        EndToEnd { name: "synthetic", unit: "x", better, bound, det, workloads: &[] }
    }

    #[test]
    fn wall_clock_metrics_are_judged_against_their_bound() {
        let tok = &metric(Better::Higher, 0.10, false);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(tok, &base, &[96.0, 97.0, 95.0, 96.5, 95.5]), Verdict::Unchanged);
        assert_eq!(verdict(tok, &base, &[88.0, 89.0, 87.0, 88.5, 87.5]), Verdict::Regressed);
        assert_eq!(verdict(tok, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]), Verdict::Improved);
        let rss = &metric(Better::Lower, 0.10, false);
        assert_eq!(verdict(rss, &[50.0], &[56.0]), Verdict::Regressed);
        assert_eq!(verdict(rss, &[50.0], &[44.0]), Verdict::Improved);
        assert_eq!(verdict(rss, &[50.0], &[52.0]), Verdict::Unchanged);
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_unchanged() {
        let tok = &metric(Better::Higher, 0.10, false);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let steady = [100.0, 100.0, 100.0, 100.0, 100.0];
        assert_eq!(verdict(tok, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(verdict(tok, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(tok, &steady, &steady), Verdict::Unchanged);
    }

    #[test]
    fn deterministic_metrics_must_repeat_exactly() {
        let p99 = &metric(Better::Lower, 0.02, true);
        assert_eq!(verdict(p99, &[1488.0, 1488.0], &[1488.0, 1488.0]), Verdict::Unchanged);
        assert_eq!(verdict(p99, &[1488.0], &[1489.0]), Verdict::Regressed);
        assert_eq!(verdict(p99, &[1488.0], &[1487.0]), Verdict::Improved);
        // Spread across seeds is not noise for a deterministic metric.
        let ppl = &metric(Better::Lower, 0.02, true);
        assert_eq!(verdict(ppl, &[40.0, 45.0, 50.0], &[40.0, 45.0, 50.0]), Verdict::Unchanged);
        let tok = &metric(Better::Higher, 0.02, true);
        assert_eq!(
            verdict(tok, &[11243.327691649629], &[11243.327691649629 * (1.0 + 1e-12)]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Higher, &[100.0], &[90.0]) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, &[100.0], &[90.0]) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, &[0.0], &[2.0]), 2.0);
    }

    #[test]
    fn result_files_round_trip_through_load() {
        // Under the package's ignored `out/`, so the test writes nothing outside it.
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-compare-{}", std::process::id()));
        let wl = dir.join("solo_stream");
        std::fs::create_dir_all(&wl).unwrap();
        let line = |tok: f64| {
            Json::obj([
                ("not_applicable", Json::Arr(vec![Json::str("evict_ppl_voting")])),
                (
                    "metrics",
                    Json::obj([
                        ("host_tok_s", Json::obj([("value", Json::Num(tok)), ("unit", Json::str("tok/s"))])),
                        (
                            "evict_ppl_voting",
                            Json::obj([("value", Json::Num(1.0)), ("unit", Json::str("ppl"))]),
                        ),
                    ]),
                ),
            ])
            .to_line()
        };
        std::fs::write(wl.join("e2e.jsonl"), format!("{}\n{}\n", line(350.0), line(352.5))).unwrap();
        let loaded = load(&dir, "solo_stream").unwrap();
        assert_eq!(loaded, vec![("host_tok_s".to_string(), vec![350.0, 352.5])]);
        assert!(load(&dir, "batch_mixed").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
