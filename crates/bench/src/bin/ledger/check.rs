//! `ledger --check`: the declaration in `BENCHMARK.json` against what
//! the binary emits, every workload at toy sizes, and the correctness
//! checks against deliberately corrupted outputs.

use crate::gemm::{self, GemmSetup, Path};
use crate::json::{self, Json};
use crate::run::{self, Args};
use crate::serve::{self, ServeSetup, Shape};
use crate::spec::{Plan, Workload, BENCHMARK_JSON, END_TO_END, PER_LAYER, WORKLOADS};
use lq_core::KernelKind;
use std::collections::BTreeMap;
use std::time::Instant;

/// One declared end-to-end metric.
pub struct DeclaredMetric {
    /// Name.
    pub name: String,
    /// Share of the base median it may worsen by.
    pub bound: f64,
    /// Direction.
    pub higher_is_better: bool,
}

/// What `BENCHMARK.json` declares, as far as the binary uses it.
pub struct Declared {
    /// Workload names in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics in order.
    pub end_to_end: Vec<DeclaredMetric>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

fn names_units(list: &[Json]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Parse the embedded `BENCHMARK.json`.
pub fn declaration() -> Result<Declared, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let end_to_end = doc
        .get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| {
            Ok(DeclaredMetric {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .into(),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without a bound")?,
                higher_is_better: m.get("better").and_then(Json::str) == Some("higher"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Declared {
        workloads: doc
            .get("workloads")
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str).map(String::from))
            .collect(),
        end_to_end,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    })
}

/// The declared `run_seconds` (the default of `--seconds`).
pub fn declared_run_seconds() -> Result<f64, String> {
    declaration().map(|d| d.run_seconds)
}

fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// The declaration is well-formed and lists exactly what the binary
/// emits.
fn check_declaration() -> Result<(), String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    let mut sorted_keys = keys.clone();
    sorted_keys.sort_unstable();
    ensure(
        sorted_keys
            == [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads",
            ],
        || format!("BENCHMARK.json keys are {keys:?}"),
    )?;
    let list = |k: &str| doc.get(k).map_or(&[][..], Json::items);
    let (workloads, e2e, layers) = (list("workloads"), list("end_to_end"), list("per_layer"));
    ensure((2..=8).contains(&workloads.len()), || {
        "2 to 8 workloads".into()
    })?;
    ensure((1..=16).contains(&e2e.len()), || {
        "1 to 16 end-to-end metrics".into()
    })?;
    ensure((1..=128).contains(&layers.len()), || {
        "1 to 128 per-layer metrics".into()
    })?;

    let declared_workloads: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    let emitted_workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    ensure(declared_workloads == emitted_workloads, || {
        format!("workloads declared {declared_workloads:?}, emitted {emitted_workloads:?}")
    })?;
    let own = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    ensure(names_units(e2e) == own(&END_TO_END), || {
        "end_to_end names or units differ from spec::END_TO_END".into()
    })?;
    let layer_pairs: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    ensure(names_units(layers) == own(&layer_pairs), || {
        "per_layer names or units differ from spec::PER_LAYER".into()
    })?;

    let mut seen = BTreeMap::new();
    for (name, _) in names_units(workloads)
        .into_iter()
        .chain(names_units(e2e))
        .chain(names_units(layers))
    {
        ensure(valid_name(&name), || format!("bad name {name:?}"))?;
        ensure(seen.insert(name.clone(), ()).is_none(), || {
            format!("{name} is declared twice")
        })?;
    }
    for m in e2e {
        let bound = m.get("bound").and_then(Json::num).unwrap_or(f64::NAN);
        ensure(bound > 0.0 && bound <= 0.25, || {
            format!("bound of {:?}", m.get("name"))
        })?;
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"))
        .ok_or("setup_s is not declared")?;
    ensure(
        setup.get("unit").and_then(Json::str) == Some("s")
            && setup.get("better").and_then(Json::str) == Some("lower"),
        || "setup_s must be in s, lower is better".into(),
    )
}

/// The correctness checks fire on corrupted outputs.
fn check_corruption_is_caught(plan: &Plan) -> Result<(), String> {
    let epoch = Instant::now();
    let setup = GemmSetup::build(plan, 11, &[4]);
    let acts = &setup.acts[0].1;
    let (want, _) = gemm::layer_pass(&setup.lg, &setup.layer, acts, Path::Serial, epoch);
    let (mut got, _) = gemm::layer_pass(
        &setup.lg,
        &setup.layer,
        acts,
        Path::Pool(KernelKind::ImFp),
        epoch,
    );
    ensure(gemm::bit_equal(&got, &want), || {
        "ImFp differs from w4a8_serial".into()
    })?;
    let cell = &mut got[0].as_mut_slice()[0];
    *cell = f32::from_bits(cell.to_bits() ^ 1);
    ensure(!gemm::bit_equal(&got, &want), || {
        "a flipped output bit went unnoticed".into()
    })?;

    let setup = ServeSetup::build(plan, Shape::Offline, 11);
    let requests = setup.requests.clone();
    let run = serve::run(setup, epoch);
    let mut histories: BTreeMap<u64, Vec<usize>> = run
        .timelines
        .iter()
        .map(|(id, t)| (*id, t.tokens.clone()))
        .collect();
    ensure(
        serve::replay_mismatches(plan, &requests, &histories, 2).is_empty(),
        || "served histories differ from the Serial replay".into(),
    )?;
    let first = requests[0].meta.id;
    if let Some(tok) = histories.get_mut(&first).and_then(|h| h.last_mut()) {
        *tok ^= 1;
    }
    ensure(
        serve::replay_mismatches(plan, &requests, &histories, 2) == [first],
        || "a corrupted token history went unnoticed".into(),
    )
}

/// Run the whole check.
pub fn check() -> Result<(), String> {
    check_declaration()?;
    let plan = Plan::toy();
    check_corruption_is_caught(&plan)?;
    for workload in Workload::ALL {
        let name = workload.name();
        for trace in [false, true] {
            let report = run::run(&Args {
                workload,
                seed: 5,
                plan: plan.clone(),
                half_plan: plan.clone(),
                trace,
                out: None,
                process_start: Instant::now(),
            });
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            ensure(got == want, || {
                format!("{name} trace={trace}: emitted {got:?}")
            })?;
            ensure(
                report.attempted >= 1 && report.failed == 0 && report.correct,
                || {
                    format!(
                        "{name} trace={trace}: attempted {} failed {} correct {}; metrics {:?}",
                        report.attempted, report.failed, report.correct, report.metrics
                    )
                },
            )?;
            // The result line must survive its own parser.
            json::parse(&report.contract_json().dump())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_matches_the_contract() {
        for ok in ["a", "core.layer_ms_m1", "9x-y_z.w", &"a".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".a", "_a", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declaration_parses_and_holds_setup_the_widest_bound() {
        let d = declaration().unwrap();
        assert_eq!(d.workloads.len(), WORKLOADS.len());
        let widest = d.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.bound, widest);
        assert!(!setup.higher_is_better);
        assert!((1.0..=60.0).contains(&d.run_seconds));
    }
}
