//! `--compare BASE NEW`: the paired rule for claiming a gain or ruling
//! out a regression, applied per workload and metric to two files of
//! `--out` lines (one line per benchmark run).
//!
//! * A metric is **worse** when its median worsened by more than its
//!   bound (the catalogue's, which `BENCHMARK.json` repeats).
//! * It is **unresolved** when the base runs spread wider than the bound,
//!   unless every new run beats every base run.
//! * It is **better** only when the new side wins at least 9 in 10 of at
//!   least ten alternating pairs and the medians differ by more than the
//!   base runs' interquartile distance.
//! * Simulated metrics are exact at a fixed seed: any difference between
//!   runs of equal seeds is reported as a change.

use crate::metrics::{self, Better, Def, Summary};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// Pairs needed before a win rate means anything.
const MIN_PAIRS: usize = 10;
const WIN_RATE: f64 = 0.9;

/// Per workload, per metric: the repetition values of every run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<Vec<f64>>>>;

fn load(path: &Path) -> Result<(Samples, BTreeMap<String, Vec<u64>>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    let mut seeds: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = fastg_json::Value::parse(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload =
            v["workload"]
                .as_str()
                .ok_or(format!("{}:{}: no workload", path.display(), n + 1))?;
        seeds
            .entry(workload.to_string())
            .or_default()
            .push(v["seed"].as_u64().unwrap_or(0));
        let Some(metrics) = v["metrics"].as_object() else {
            continue;
        };
        for (name, m) in metrics {
            let values: Vec<f64> = m["values"].as_array().map_or(Vec::new(), |a| {
                a.iter().filter_map(|x| x.as_f64()).collect()
            });
            samples
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(values);
        }
    }
    Ok((samples, seeds))
}

/// One value per run (its median) when there are several runs, else the
/// single run's repetition values.
fn flatten(runs: &[Vec<f64>]) -> Vec<f64> {
    if runs.len() > 1 {
        runs.iter().map(|r| Summary::of(r).median).collect()
    } else {
        runs.first().cloned().unwrap_or_default()
    }
}

/// Share of pairs the new side wins (ties count for neither side).
fn win_rate(better: Better, base: &[f64], new: &[f64]) -> Option<(f64, usize)> {
    let pairs: Vec<(f64, f64)> = base.iter().copied().zip(new.iter().copied()).collect();
    if pairs.len() < MIN_PAIRS {
        return None;
    }
    let decided: Vec<bool> = pairs
        .iter()
        .filter(|(b, n)| b != n)
        .map(|&(b, n)| better.worse(n, b))
        .collect();
    let wins = decided.iter().filter(|&&w| w).count();
    Some((wins as f64 / decided.len().max(1) as f64, pairs.len()))
}

fn verdict(d: &Def, base: &[f64], new: &[f64], same_seeds: bool) -> String {
    let (b, n) = (Summary::of(base), Summary::of(new));
    if d.exact && same_seeds {
        if base == new {
            return "identical".into();
        }
        return if d.better.worse(b.median, n.median) {
            "changed: worse".into()
        } else {
            "changed: better".into()
        };
    }
    let Some(bound) = d.bound else {
        return if d.better.worse(b.median, n.median) {
            "worse (no bound)".into()
        } else {
            "no worse".into()
        };
    };
    let scale = b.median.abs().max(f64::MIN_POSITIVE);
    let worsening = match d.better {
        Better::Higher => (b.median - n.median) / scale,
        Better::Lower => (n.median - b.median) / scale,
    };
    if worsening > bound {
        return format!(
            "worse ({:.1}% > bound {:.0}%)",
            worsening * 100.0,
            bound * 100.0
        );
    }
    let dominates = new
        .iter()
        .all(|&x| base.iter().all(|&y| d.better.worse(y, x)));
    if b.spread() > bound && !dominates {
        return format!(
            "unresolved (base spread {:.1}% > bound)",
            b.spread() * 100.0
        );
    }
    let gain = -worsening * scale > b.q3 - b.q1;
    match win_rate(d.better, base, new) {
        Some((rate, _)) if gain && rate >= WIN_RATE => {
            format!("better (wins {:.0}% of pairs)", rate * 100.0)
        }
        _ => "within bound".into(),
    }
}

pub fn compare(base_path: &Path, new_path: &Path) -> Result<String, String> {
    let (base, base_seeds) = load(base_path)?;
    let (new, new_seeds) = load(new_path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fastg-bench compare: base {} vs new {}",
        base_path.display(),
        new_path.display()
    );
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            let _ = writeln!(out, "\n{workload}: missing from {}", new_path.display());
            continue;
        };
        let same_seeds = base_seeds.get(workload) == new_seeds.get(workload);
        let _ = writeln!(
            out,
            "\n{workload} ({} base runs, {} new runs{})",
            base_seeds.get(workload).map_or(0, Vec::len),
            new_seeds.get(workload).map_or(0, Vec::len),
            if same_seeds {
                ", same seeds"
            } else {
                ", different seeds"
            },
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>30} {:>30} {:>8}  verdict",
            "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
        );
        for (name, base_runs) in base_metrics {
            let (Some(d), Some(new_runs)) = (metrics::find(name), new_metrics.get(name)) else {
                continue;
            };
            let (b, n) = (flatten(base_runs), flatten(new_runs));
            let (sb, sn) = (Summary::of(&b), Summary::of(&n));
            let change = 100.0 * (sn.median - sb.median) / sb.median.abs().max(f64::MIN_POSITIVE);
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let _ = write!(
                out,
                "  {name:<18} {:>30} {:>30} {change:>7.2}%  {}",
                cell(&sb),
                cell(&sn),
                verdict(d, &b, &n, same_seeds)
            );
            if let Some((rate, pairs)) = win_rate(d.better, &b, &n) {
                let _ = write!(out, "; new wins {:.0}% of {pairs} pairs", rate * 100.0);
            }
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed() -> &'static Def {
        metrics::find("sim_speed").expect("catalogued")
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert!(verdict(speed(), &base, &faster, true).starts_with("better"));
        assert!(verdict(speed(), &base, &slower, true).starts_with("worse"));
        assert_eq!(verdict(speed(), &base, &base, true), "within bound");
        // Too few pairs to claim a gain.
        assert_eq!(
            verdict(speed(), &base[..3], &faster[..3], true),
            "within bound"
        );
        let noisy = [50.0, 100.0, 150.0, 200.0];
        assert!(verdict(speed(), &noisy, &noisy, true).starts_with("unresolved"));
        let gpus = metrics::find("sim_gpus").expect("catalogued");
        assert_eq!(verdict(gpus, &[96.0], &[96.0], true), "identical");
        assert_eq!(verdict(gpus, &[96.0], &[97.0], true), "changed: worse");
        // At different seeds the bound applies: one more GPU breaks it.
        assert!(verdict(gpus, &[96.0], &[97.0], false).starts_with("worse"));
    }
}
