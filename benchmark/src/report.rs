//! The full run (every workload, both ways, one child process each), its
//! tables and `BENCH.json`, and `--check`.

use crate::json::Json;
use crate::names::END_TO_END;
use crate::workloads::WORKLOADS;
use crate::{out_dir, Args, DEFAULT_SEED};
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Timed reps per workload in a full run.
const FULL_REPS: usize = 5;

/// Renders `json` with containers expanded down to `depth` levels and
/// inline below that.
pub fn pretty_to(json: &Json, depth: usize) -> String {
    fn go(json: &Json, depth: usize, indent: usize, out: &mut String) {
        let pad = |n: usize| "  ".repeat(n);
        match json {
            Json::Arr(items) if depth > 0 && !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    go(item, depth - 1, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                write!(out, "{}]", pad(indent)).expect("string write");
            }
            Json::Obj(pairs) if depth > 0 && !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    write!(
                        out,
                        "{}{}: ",
                        pad(indent + 1),
                        Json::str(k.as_str()).render()
                    )
                    .expect("string write");
                    go(v, depth - 1, indent + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                write!(out, "{}}}", pad(indent)).expect("string write");
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    go(json, depth, 0, &mut out);
    out
}

/// One child run: its detail line and its result line.
struct Child {
    detail: Json,
    result: Json,
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--reps", &args.policy.reps.unwrap_or(FULL_REPS).to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output (exit {})", out.status))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: result line: {e}")))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    Ok(Child { detail, result })
}

/// One full set of runs.
pub struct Set {
    /// Whether every child reported `correct`.
    pub correct: bool,
    /// The whole report, as written to `BENCH.json`.
    pub json: Json,
}

fn num(j: Option<&Json>) -> f64 {
    j.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn metric(run: &Json, name: &str) -> f64 {
    num(run
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value")))
}

/// Runs every workload untraced and traced, prints the tables (stderr) and
/// the JSON (stdout and `out/BENCH.json`).
pub fn full(args: &Args) -> Option<Set> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS.iter().map(|w| w.name) {
        let mut run = |trace: bool| {
            eprintln!(
                "running {name} ({})",
                if trace { "traced" } else { "untraced" }
            );
            let child = run_child(args, name, trace)
                .map_err(|e| eprintln!("error: {e}"))
                .ok()?;
            correct &= child.result.get("correct") == Some(&Json::Bool(true));
            Some(child)
        };
        let untraced = run(false)?;
        let traced = run(true)?;
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("end_to_end", untraced.result),
            ("end_to_end_detail", untraced.detail),
            ("per_layer", traced.result),
            ("per_layer_detail", traced.detail),
        ]));
    }
    let json = Json::obj([
        ("seed", Json::Num(args.seed.unwrap_or(DEFAULT_SEED) as f64)),
        (
            "timed_reps",
            Json::Num(args.policy.reps.unwrap_or(FULL_REPS) as f64),
        ),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Arr(workloads)),
    ]);
    eprint!("{}", tables(&json));
    let text = pretty_to(&json, 5);
    println!("{text}");
    let path = out_dir().join("BENCH.json");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: {}: {e}", path.display());
    }
    Some(Set { correct, json })
}

fn workloads_of(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

/// The end-to-end table and the layer × workload table.
fn tables(set: &Json) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nEnd to end (host_*: wall clock at the reference speed, median of the timed reps, \
         tracing off; model_*: simulated, exact for the seed)\n{:<16} {:>14} {:>9} {:>15} {:>13} {:>13} {:>8} {:>9} {:>8} {:>6} {:>7}",
        "workload",
        "host_ops_per_s",
        "iqr",
        "model_ops_per_s",
        "model_p50_us",
        "model_p99_us",
        "samples",
        "rss_MiB",
        "setup_s",
        "cpu",
        "failed"
    );
    for w in workloads_of(set) {
        let (e2e, layer) = (w.get("end_to_end"), w.get("per_layer"));
        let (Some(e2e), Some(layer)) = (e2e, layer) else {
            continue;
        };
        let detail = w.get("end_to_end_detail");
        let host = detail.and_then(|d| d.get("host_s"));
        let iqr = (num(host.and_then(|h| h.get("q3"))) - num(host.and_then(|h| h.get("q1"))))
            / num(host.and_then(|h| h.get("median")));
        let _ = writeln!(
            out,
            "{:<16} {:>14.1} {:>8.1}% {:>15.1} {:>13.1} {:>13.1} {:>8} {:>9.1} {:>8.4} {:>6.2} {:>7.4}",
            w.get("name").and_then(Json::as_str).unwrap_or("?"),
            metric(e2e, "host_ops_per_s"),
            100.0 * iqr,
            metric(e2e, "model_ops_per_s"),
            metric(layer, "model.p50_us"),
            metric(layer, "model.p99_us"),
            metric(layer, "model.latency_samples"),
            metric(e2e, "host_peak_rss_mib"),
            metric(e2e, "setup_s"),
            num(detail
                .and_then(|d| d.get("host_cpu_share"))
                .and_then(|c| c.get("median"))),
            num(detail.and_then(|d| d.get("failed_op_share"))),
        );
    }
    let _ = writeln!(
        out,
        "\nLayers (self time per op in the traced rep: span duration minus child coverage)\n\
         {:<16} {:<10} {:>16} {:>15} {:>12}",
        "workload", "layer", "model_ns_per_op", "host_ns_per_op", "model_share"
    );
    for w in workloads_of(set) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let rows = w
            .get("per_layer_detail")
            .and_then(|d| d.get("layers"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for r in rows {
            let _ = writeln!(
                out,
                "{:<16} {:<10} {:>16.1} {:>15.1} {:>11.1}%",
                name,
                r.get("layer").and_then(Json::as_str).unwrap_or("?"),
                num(r.get("model_ns_per_op")),
                num(r.get("host_ns_per_op")),
                100.0 * num(r.get("model_share")),
            );
        }
        if let Some(layer) = w.get("per_layer") {
            let _ = writeln!(
                out,
                "{:<16} {:<10} {:>16} {:>15} {:>11.1}%   traced/untraced host {:.3}, digest {}",
                name,
                "(no span)",
                "",
                "",
                100.0 * metric(layer, "obs.model_unattributed_share"),
                metric(layer, "obs.traced_over_untraced_host"),
                w.get("per_layer_detail")
                    .and_then(|d| d.get("trace_digest"))
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
            );
        }
    }
    out
}

/// Whether a per-layer metric is simulated (so must repeat exactly).
fn is_exact(name: &str) -> bool {
    name.starts_with("model.")
        || name.ends_with("_per_op")
        || name.contains("_model_")
        || name.starts_with("sim.paper_ratio")
}

/// `--check`: two full sets back to back.  Every end-to-end metric of every
/// workload must agree within its own bound, and every simulated value and
/// trace digest must be identical.  Prints the per-metric table and returns
/// whether they all did.
pub fn check(args: &Args) -> bool {
    let (Some(a), Some(b)) = (full(args), full(args)) else {
        return false;
    };
    // (workload, metric, first, second, bound); a digest pair rides as
    // NaN values, which never compare equal.
    let mut rows: Vec<(String, String, f64, f64, f64)> = Vec::new();
    for (wa, wb) in workloads_of(&a.json).iter().zip(workloads_of(&b.json)) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let run = |w: &Json, key: &str| w.get(key).cloned().unwrap_or(Json::Null);
        let (ea, eb) = (run(wa, "end_to_end"), run(wb, "end_to_end"));
        for m in &END_TO_END {
            let bound = if m.name.starts_with("model_") {
                0.0
            } else {
                m.bound
            };
            let (x, y) = (metric(&ea, m.name), metric(&eb, m.name));
            rows.push((name.into(), m.name.into(), x, y, bound));
        }
        let (la, lb) = (run(wa, "per_layer"), run(wb, "per_layer"));
        let names = la.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (m, _) in names.iter().filter(|(m, _)| is_exact(m)) {
            let (x, y) = (metric(&la, m), metric(&lb, m));
            if x != y {
                rows.push((name.into(), m.clone(), x, y, 0.0));
            }
        }
        let digest = |w: &Json| {
            w.get("per_layer_detail")
                .and_then(|d| d.get("trace_digest"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if digest(wa).is_none() || digest(wa) != digest(wb) {
            rows.push((name.into(), "trace_digest".into(), f64::NAN, f64::NAN, 0.0));
        }
    }

    let mut ok = a.correct && b.correct;
    let mut table = format!(
        "\n--check: two sets of the same binary\n{:<16} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, m, x, y, bound) in rows {
        let diff = (x - y).abs() / x.abs().min(y.abs());
        let pass = x == y || diff <= bound;
        ok &= pass;
        let _ = writeln!(
            table,
            "{w:<16} {m:<34} {x:>16.6} {y:>16.6} {:>8.3}% {:>6.1}%  {}",
            100.0 * diff,
            100.0 * bound,
            if pass { "ok" } else { "DISAGREE" }
        );
    }
    eprint!("{table}");
    eprintln!(
        "--check: {}",
        if ok {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    ok
}
