//! # lq-telemetry — zero-dependency metrics and span tracing
//!
//! The paper's evidence is *where time goes*: per-warp-group stall
//! breakdowns (Fig. 10), kernel latencies (Fig. 12), pipeline-bubble
//! accounting (§5.1). This crate makes those signals first-class in the
//! reproduction: every hot layer (`lq-core` pipelines, `lq-serving`
//! scheduler/KV cache, `lq-sim` resource model) records into one global
//! registry that exports Prometheus text format and a JSON snapshot.
//!
//! ## Design
//! * **std-only.** Counters and gauges are single relaxed atomics;
//!   histograms are 65 log₂ buckets of relaxed atomics (p50/p95/p99 are
//!   bucket-resolution estimates, `max` is exact).
//! * **Off by default.** Recording is gated on one process-global
//!   `AtomicBool`: until [`enable`] is called, every record path is a
//!   relaxed load + branch — the "noop recorder" — so hot loops are
//!   unaffected (<5% on the kernels is the budget; measured ~0%).
//!   Instrumented crates additionally skip handle lookups entirely when
//!   disabled.
//! * **Handles are `Arc`s.** Look up `registry().counter_with(...)`
//!   once per phase, then record lock-free through the handle.
//!
//! ## Usage
//! ```
//! lq_telemetry::enable();
//! let reg = lq_telemetry::registry();
//! let stalls = reg.counter_with("my_stall_total", &[("role", "producer")]);
//! stalls.inc();
//! let lat = reg.histogram("my_step_ns");
//! {
//!     let _span = lat.span(); // records elapsed ns on drop
//! }
//! assert!(lat.count() >= 1);
//! println!("{}", reg.to_prometheus());
//! println!("{}", reg.to_json());
//! ```
//!
//! Naming conventions: counters end `_total`; wall-clock histograms end
//! `_ns` and hold nanoseconds; modelled (simulated) durations also use
//! `_ns`; gauges carry a unit suffix (`_pages`, `_frac`, `_per_s`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metric;
pub mod registry;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, OwnedSpan, Span};
pub use registry::{global as registry, Key, Registry};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is recording enabled? All record paths check this first; the
/// disabled path is a relaxed load and a branch.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off process-wide (back to the noop recorder).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enable recording iff the environment asks for it
/// (`LQ_TELEMETRY=1|true|on`). Returns the resulting state.
pub fn enable_from_env() -> bool {
    if matches!(
        std::env::var("LQ_TELEMETRY").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    ) {
        enable();
    }
    enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this file share the process-global ENABLED flag; each
    // test that needs recording enables it and none disable it, so
    // parallel execution is safe.

    #[test]
    fn disabled_paths_record_nothing() {
        // A private registry keeps this test independent of others.
        let reg = Registry::new();
        let c = reg.counter("t_disabled_total");
        let h = reg.histogram("t_disabled_ns");
        disable();
        c.inc();
        h.record(5);
        // Note: another test may have re-enabled concurrently; only
        // assert when the flag is still off.
        if !enabled() {
            assert_eq!(c.get(), 0);
            assert_eq!(h.count(), 0);
        }
        enable();
        c.inc();
        h.record(5);
        assert!(c.get() >= 1);
        assert!(h.count() >= 1);
    }

    #[test]
    fn prometheus_and_json_shapes() {
        enable();
        let reg = Registry::new();
        reg.counter_with("t_stall_total", &[("role", "producer")])
            .add(3);
        reg.gauge("t_depth").set(2.5);
        let h = reg.histogram("t_lat_ns");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let prom = reg.to_prometheus();
        assert!(prom.contains("# TYPE t_stall_total counter"), "{prom}");
        assert!(
            prom.contains("t_stall_total{role=\"producer\"} 3"),
            "{prom}"
        );
        assert!(prom.contains("t_depth 2.5"), "{prom}");
        assert!(prom.contains("# TYPE t_lat_ns histogram"), "{prom}");
        assert!(prom.contains("t_lat_ns_count 4"), "{prom}");
        assert!(prom.contains("le=\"+Inf\"} 4"), "{prom}");
        let json = reg.to_json();
        assert!(
            json.contains("\"t_stall_total{role=\\\"producer\\\"}\": 3"),
            "{json}"
        );
        assert!(json.contains("\"count\": 4"), "{json}");
    }

    #[test]
    fn prometheus_quantile_lines_exact_format() {
        // Pin the quantile-line text byte-for-byte: dashboards scrape
        // it, so format drift is a breaking change. Samples [1,2,3,
        // 1000] in log₂ buckets: rank ⌈0.5·4⌉=2 lands in bucket (1,3]
        // (upper edge 3); ranks ⌈0.95·4⌉=⌈0.99·4⌉=4 land in (511,1023]
        // and clamp to the observed max 1000.
        enable();
        let reg = Registry::new();
        let h = reg.histogram("t_q_ns");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let prom = reg.to_prometheus();
        assert!(prom.contains("t_q_ns{quantile=\"0.5\"} 3\n"), "{prom}");
        assert!(prom.contains("t_q_ns{quantile=\"0.95\"} 1000\n"), "{prom}");
        assert!(prom.contains("t_q_ns{quantile=\"0.99\"} 1000\n"), "{prom}");
        // Quantile lines come after _count and compose with existing
        // labels (sorted labels first, quantile appended last).
        let lr = Registry::new();
        lr.histogram_with("t_ql_ns", &[("role", "mma")]).record(7);
        let lp = lr.to_prometheus();
        let tail = "t_ql_ns_count{role=\"mma\"} 1\n\
                    t_ql_ns{role=\"mma\",quantile=\"0.5\"} 7\n\
                    t_ql_ns{role=\"mma\",quantile=\"0.95\"} 7\n\
                    t_ql_ns{role=\"mma\",quantile=\"0.99\"} 7\n";
        assert!(lp.ends_with(tail), "{lp}");
    }

    #[test]
    fn labeled_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter_with("t_shared_total", &[("a", "1"), ("b", "2")]);
        // Label order must not matter.
        let b = reg.counter_with("t_shared_total", &[("b", "2"), ("a", "1")]);
        enable();
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }
}
