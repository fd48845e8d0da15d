//! Printing one run, driving all of them from a parent process, and
//! comparing two sets of results against the declared bounds.

use crate::check::{declaration, Declared};
use crate::host;
use crate::json::{self, Json};
use crate::run::Report;
use crate::spec::{PER_LAYER, REPLICAS, WORKERS, WORKLOADS};
use crate::stats;
use lq_core::MicrokernelSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Print one run: a `workload metric value unit` line per metric, a
/// `detail` line (digest, sample counts), and last the result line the
/// acceptance driver reads.
pub fn print_child(report: &Report) {
    for m in &report.metrics {
        println!(
            "{} {} {} {}{}",
            report.workload,
            m.name,
            m.value,
            m.unit,
            if m.note.is_empty() {
                String::new()
            } else {
                format!("  # {}", m.note)
            }
        );
    }
    println!("detail {}", report.detail_json().dump());
    println!("{}", report.contract_json().dump());
}

fn host_stamp() -> Json {
    Json::obj([
        ("nproc", Json::Num(host::nproc() as f64)),
        (
            "microkernel",
            Json::Str(MicrokernelSet::global().variant().label().into()),
        ),
        ("pool_workers", Json::Num(WORKERS as f64)),
        ("replicas", Json::Num(REPLICAS as f64)),
        ("llc_mib", Json::Num((host::llc_bytes() >> 20) as f64)),
        ("git_sha", host::git_sha().map_or(Json::Null, Json::Str)),
    ])
}

/// Run one child and return `(detail, result)` from its last two lines.
fn child(
    seed: u64,
    seconds: f64,
    workload: &str,
    trace: bool,
    out: &Path,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().ok_or("child printed nothing")?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    for l in lines {
        println!("{l}");
    }
    Ok((json::parse(detail)?, json::parse(result)?))
}

/// Fold a child's two JSON lines into `{value, unit, note?}` members;
/// a per-layer metric also carries how it was obtained and which
/// end-to-end metric it is expected to move.
fn metrics_block(detail: &Json, result: &Json) -> Json {
    let notes = detail.get("notes");
    Json::Obj(
        result
            .get("metrics")
            .map_or(&[][..], Json::members)
            .iter()
            .map(|(name, m)| {
                let mut members = m.members().to_vec();
                if let Some(note) = notes.and_then(|n| n.get(name)) {
                    members.push(("note".into(), note.clone()));
                }
                if let Some(d) = PER_LAYER.iter().find(|d| d.name == name) {
                    members.push(("source".into(), Json::Str(d.source.into())));
                    members.push(("moves".into(), Json::Str(d.moves.into())));
                }
                (name.clone(), Json::Obj(members))
            })
            .collect(),
    )
}

/// The one command: every workload in a fresh process, untraced then
/// traced, `runs` times over; prints every metric and then one JSON
/// document, also written to `<out>/result.json`.
pub fn parent(
    seed: u64,
    seconds: f64,
    runs: usize,
    out: Option<PathBuf>,
) -> Result<ExitCode, String> {
    let out = out.unwrap_or_else(|| PathBuf::from("target/ledger"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut all_correct = true;
    let mut run_docs = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut workloads = Vec::new();
        for (name, _) in WORKLOADS {
            let (detail, result) = child(seed, seconds, name, false, &out)?;
            let (tdetail, tresult) = child(seed, seconds, name, true, &out)?;
            let flag = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
            all_correct &= flag(&result, "correct") == Json::Bool(true)
                && flag(&tresult, "correct") == Json::Bool(true);
            workloads.push((
                name.to_string(),
                Json::obj([
                    ("ops_attempted", flag(&result, "attempted")),
                    ("ops_failed", flag(&result, "failed")),
                    ("digest", flag(&detail, "digest")),
                    ("end_to_end", metrics_block(&detail, &result)),
                    ("traced_ops_attempted", flag(&tresult, "attempted")),
                    ("traced_ops_failed", flag(&tresult, "failed")),
                    ("traced_digest", flag(&tdetail, "digest")),
                    ("per_layer", metrics_block(&tdetail, &tresult)),
                ]),
            ));
        }
        run_docs.push(Json::obj([("workloads", Json::Obj(workloads))]));
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("ledger".into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("host", host_stamp()),
        ("runs", Json::Arr(run_docs)),
    ]);
    let text = doc.dump();
    println!("{text}");
    let path = out.join("result.json");
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What one result file says about one workload.
struct WorkloadSet {
    /// Per end-to-end metric, its value in each run.
    values: Vec<(String, Vec<f64>)>,
    digests: Vec<String>,
    failed: f64,
}

fn load(path: &Path, declared: &Declared) -> Result<(f64, Vec<(String, WorkloadSet)>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seed = doc
        .get("seed")
        .and_then(Json::num)
        .ok_or("result file has no seed")?;
    let runs = doc.get("runs").map_or(&[][..], Json::items);
    if runs.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    let mut sets = Vec::new();
    for w in &declared.workloads {
        let mut set = WorkloadSet {
            values: declared
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), Vec::new()))
                .collect(),
            digests: Vec::new(),
            failed: 0.0,
        };
        for run in runs {
            let entry = run
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .ok_or_else(|| format!("{}: a run lacks workload {w}", path.display()))?;
            for (name, vals) in &mut set.values {
                let v = entry
                    .get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: {w} lacks {name}", path.display()))?;
                vals.push(v);
            }
            set.digests.push(
                entry
                    .get("digest")
                    .and_then(Json::str)
                    .unwrap_or("")
                    .to_string(),
            );
            set.failed += entry.get("ops_failed").and_then(Json::num).unwrap_or(0.0);
        }
        sets.push((w.clone(), set));
    }
    Ok((seed, sets))
}

/// `ledger compare A B`: for every workload and end-to-end metric, the
/// median of each set against the declared bound, base first. A metric
/// whose spread within either set exceeds its bound is `unresolved`,
/// not unchanged. Exits non-zero on a regression, a digest mismatch
/// (same seed only) or more failed operations.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let declared = declaration()?;
    let (seed_a, sets_a) = load(a, &declared)?;
    let (seed_b, sets_b) = load(b, &declared)?;
    let mut bad = false;
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "bound", "spread_a", "spread_b"
    );
    for ((w, sa), (_, sb)) in sets_a.iter().zip(&sets_b) {
        for (m, ((_, va), (_, vb))) in declared
            .end_to_end
            .iter()
            .zip(sa.values.iter().zip(&sb.values))
        {
            let (ma, mb) = (stats::median(va), stats::median(vb));
            // Positive = worse, as a share of the base.
            let worse = if m.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
            let spread = |v: &[f64]| stats::quartile_spread(v).unwrap_or(0.0);
            let (spa, spb) = (spread(va), spread(vb));
            let verdict = if worse > m.bound {
                bad = true;
                "REGRESSION"
            } else if spa.max(spb) > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<13} {:>12.4} {:>12.4} {:>+7.2}% {:>5.1}% {:>7.2}% {:>7.2}%  {}",
                w,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                m.bound * 100.0,
                spa * 100.0,
                spb * 100.0,
                verdict
            );
        }
        if sb.failed > sa.failed {
            bad = true;
            println!(
                "{w}: failed operations rose from {} to {}",
                sa.failed, sb.failed
            );
        }
        if seed_a == seed_b {
            let first = &sa.digests[0];
            if sa.digests.iter().chain(&sb.digests).any(|d| d != first) {
                bad = true;
                println!("{w}: DIGEST MISMATCH at seed {seed_a}");
            }
        } else {
            println!("{w}: seeds differ ({seed_a} vs {seed_b}); digests not compared");
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(dir: &Path, name: &str, scale: f64, digest: &str, failed: f64) -> PathBuf {
        let declared = declaration().unwrap();
        let run = |jitter: f64| {
            Json::obj([(
                "workloads",
                Json::Obj(
                    declared
                        .workloads
                        .iter()
                        .map(|w| {
                            let metrics = declared.end_to_end.iter().map(|m| {
                                // Only `lower is better` metrics are scaled,
                                // so `scale > 1` is a pure slowdown.
                                let v =
                                    100.0 * jitter * if m.higher_is_better { 1.0 } else { scale };
                                (m.name.clone(), Json::obj([("value", Json::Num(v))]))
                            });
                            (
                                w.clone(),
                                Json::obj([
                                    ("ops_failed", Json::Num(failed)),
                                    ("digest", Json::Str(digest.into())),
                                    ("end_to_end", Json::Obj(metrics.collect())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            )])
        };
        let doc = Json::obj([
            ("seed", Json::Num(1.0)),
            ("runs", Json::Arr(vec![run(1.0), run(1.001), run(0.999)])),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.dump()).unwrap();
        path
    }

    #[test]
    fn compare_passes_equal_sets_and_fails_the_three_ways() {
        let dir = std::env::temp_dir().join(format!("ledger-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = result_file(&dir, "a.json", 1.0, "d1", 0.0);
        let same = result_file(&dir, "b.json", 1.0, "d1", 0.0);
        let slow = result_file(&dir, "c.json", 1.5, "d1", 0.0);
        let other = result_file(&dir, "d.json", 1.0, "d2", 0.0);
        let broken = result_file(&dir, "e.json", 1.0, "d1", 2.0);
        assert_eq!(compare(&base, &same).unwrap(), ExitCode::SUCCESS);
        assert_eq!(compare(&base, &slow).unwrap(), ExitCode::FAILURE);
        assert_eq!(compare(&base, &other).unwrap(), ExitCode::FAILURE);
        assert_eq!(compare(&base, &broken).unwrap(), ExitCode::FAILURE);
        // Faster is not a regression.
        assert_eq!(compare(&slow, &base).unwrap(), ExitCode::SUCCESS);
        assert!(compare(&base, &dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
