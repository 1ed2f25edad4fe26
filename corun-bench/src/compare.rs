//! `corun_bench compare BASE.jsonl HEAD.jsonl`: one row per workload and
//! metric with each side's median and quartiles and a verdict.
//!
//! Each input file holds result lines as `corun_bench` prints them, one
//! run per line: from a run of all workloads (metric names prefixed with
//! the workload) or from `--workload` runs of a single workload (shown
//! under `-`). Bounds and directions come from `BENCHMARK.json` in the
//! current directory.
//!
//! Verdicts for end-to-end metrics, following the benchmark's rules:
//! * `better` — the head wins at least nine tenths of the runs paired in
//!   file order, and the medians differ by more than the base's
//!   interquartile distance;
//! * `worse` — the head median is worse than the base median by more
//!   than the bound;
//! * `unresolved` — the base's own spread is wider than the bound, and
//!   not every head run beats (or loses to) every base run;
//! * `unchanged` — none of the above.

use crate::stats::{median, quartiles};
use corun_serve::Json;
use std::collections::BTreeMap;

struct Bound {
    bound: f64,
    higher_is_better: bool,
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

pub fn run(args: &[String]) -> Result<(), String> {
    let [base, head] = args else {
        return Err("expected BASE and HEAD result files".into());
    };
    let bounds = load_bounds("BENCHMARK.json")?;
    let base = load_runs(base)?;
    let head = load_runs(head)?;

    println!(
        "{:<16} {:<38} {:>32} {:>32} {:>9}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change"
    );
    for (key, b) in &base {
        let Some(h) = head.get(key) else { continue };
        let (workload, metric) = key;
        let (mb, mh) = (median(b), median(h));
        let verdict = bounds.get(metric).map_or("-", |bd| verdict(b, h, bd));
        let change = if mb == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (mh - mb) / mb.abs() * 100.0)
        };
        println!(
            "{workload:<16} {metric:<38} {:>32} {:>32} {change:>9}  {verdict}",
            summary(b),
            summary(h)
        );
    }
    Ok(())
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.4} [{q1:.4}, {q3:.4}]", median(values))
}

fn verdict(base: &[f64], head: &[f64], b: &Bound) -> &'static str {
    let better = |x: f64, y: f64| {
        if b.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let (mb, mh) = (median(base), median(head));
    let (q1, q3) = quartiles(base);
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    let worse_by = if b.higher_is_better { mb - mh } else { mh - mb } / scale;
    let spread = (q3 - q1) / scale;
    let all_better = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let all_worse = head.iter().all(|&x| base.iter().all(|&y| better(y, x)));
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&y, &x)| better(x, y))
        .count();
    if better(mh, mb) && wins as f64 >= 0.9 * pairs as f64 && (mh - mb).abs() > q3 - q1 {
        "better"
    } else if spread > b.bound && !all_better && !all_worse {
        "unresolved"
    } else if worse_by > b.bound {
        "worse"
    } else {
        "unchanged"
    }
}

fn load_bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `end_to_end` list"))?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(name), Some(bound), Some(better)) => Ok((
                    name.to_string(),
                    Bound {
                        bound,
                        higher_is_better: better == "higher",
                    },
                )),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let result = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}:{}: no `metrics` object", i + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: `{name}` has no value", i + 1))?;
            let (workload, metric) = match name.split_once('.') {
                Some((w, rest)) if crate::WORKLOADS.iter().any(|x| x.name == w) => (w, rest),
                _ => ("-", name.as_str()),
            };
            runs.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}
