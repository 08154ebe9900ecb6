//! CI perf gate: compares one metric of a freshly generated
//! `BENCH_<name>.json` against the committed baseline and fails (exit 1)
//! on a regression beyond the allowed fraction.
//!
//! Usage:
//!
//! ```text
//! bench_gate <baseline.json> <current.json> <metric> [max_regression]
//! bench_gate <baseline.json> <current.json> <metric> --min-speedup <factor>
//! ```
//!
//! `max_regression` is a fraction (default 0.20): the gate fails when
//! `current < baseline * (1 - max_regression)`.  With `--min-speedup F`
//! the gate inverts into an improvement floor: it fails unless
//! `current >= baseline * F` — used to pin a performance win (e.g.
//! recovery throughput vs a pre-optimisation baseline) so it cannot
//! quietly erode back.  Higher-is-better metrics only (rates like
//! `single_node.syscalls_per_sec`).  Simulated time is deterministic, so
//! the comparison is exact — no noise margin is needed beyond the
//! configured budget.

use std::process::ExitCode;

/// Extracts `"value"` for one metric from a `BenchJson`-rendered document
/// (one `{"metric": ..., "value": ..., "ticks": ...}` object per line).
fn metric_value(json: &str, metric: &str) -> Option<f64> {
    let needle = format!("\"metric\": \"{metric}\"");
    for line in json.lines() {
        if !line.contains(&needle) {
            continue;
        }
        let rest = line.split("\"value\":").nth(1)?;
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        return num.parse().ok();
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("usage: bench_gate <baseline.json> <current.json> <metric> [max_regression]");
        return ExitCode::FAILURE;
    }
    let (baseline_path, current_path, metric) = (&args[0], &args[1], &args[2]);
    let min_speedup: Option<f64> = if args.get(3).map(String::as_str) == Some("--min-speedup") {
        Some(
            args.get(4)
                .map(|s| s.parse().expect("--min-speedup needs a number"))
                .unwrap_or_else(|| {
                    eprintln!("bench_gate: --min-speedup needs a number");
                    std::process::exit(1);
                }),
        )
    } else {
        None
    };
    let max_regression: f64 = if min_speedup.is_some() {
        0.0
    } else {
        args.get(3)
            .map(|s| s.parse().expect("max_regression must be a number"))
            .unwrap_or(0.20)
    };

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let baseline_doc = read(baseline_path);
    let current_doc = read(current_path);
    let Some(baseline) = metric_value(&baseline_doc, metric) else {
        eprintln!("bench_gate: metric {metric} missing from {baseline_path}");
        return ExitCode::FAILURE;
    };
    let Some(current) = metric_value(&current_doc, metric) else {
        eprintln!("bench_gate: metric {metric} missing from {current_path}");
        return ExitCode::FAILURE;
    };

    let floor = match min_speedup {
        Some(factor) => baseline * factor,
        None => baseline * (1.0 - max_regression),
    };
    let delta_pct = if baseline != 0.0 {
        (current - baseline) / baseline * 100.0
    } else {
        0.0
    };
    println!(
        "bench_gate: {metric}: baseline {baseline:.3}, current {current:.3} ({delta_pct:+.2}%), floor {floor:.3}"
    );
    if current < floor {
        match min_speedup {
            Some(factor) => eprintln!(
                "bench_gate: FAIL — {metric} fell below {factor}x the committed baseline"
            ),
            None => eprintln!(
                "bench_gate: FAIL — {metric} regressed more than {:.0}% below the committed baseline",
                max_regression * 100.0
            ),
        }
        return ExitCode::FAILURE;
    }
    println!("bench_gate: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::metric_value;

    #[test]
    fn extracts_metric_values_from_bench_json() {
        let doc = "{\n  \"name\": \"sched\",\n  \"metrics\": [\n    {\"metric\": \"a.rate\", \"value\": 225450.508, \"ticks\": 1},\n    {\"metric\": \"b.count\", \"value\": 1548, \"ticks\": 2}\n  ]\n}\n";
        assert_eq!(metric_value(doc, "a.rate"), Some(225450.508));
        assert_eq!(metric_value(doc, "b.count"), Some(1548.0));
        assert_eq!(metric_value(doc, "missing"), None);
    }
}
