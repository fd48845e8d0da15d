//! The benchmark's own span tree: one span around each call it makes
//! into a layer, each naming the span that caused it. Spans are kept
//! in memory and written out once, when the run ends.
//!
//! `workload → {router.run | serving.run | layer_pass} →
//! {engine.prefill | engine.decode_batch | engine.release |
//! quant.act_quantize | core.gemm}`

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Display lane (replica or thread) in the written trace.
    pub lane: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Spans of one run, parents before children.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// The spans, in insertion order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span; returns its index for children to name.
    pub fn push(
        &mut self,
        name: &'static str,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            lane,
            start_ns,
            dur_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover (children of one parent never overlap here: each
    /// lane is one thread making blocking calls).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Σ self time ÷ Σ duration over the spans called `name` (0 when
    /// there are none).
    pub fn self_share(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let (mut self_sum, mut dur_sum) = (0u64, 0u64);
        for (s, o) in self.spans.iter().zip(own) {
            if s.name == name {
                self_sum += o;
                dur_sum += s.dur_ns;
            }
        }
        if dur_sum == 0 {
            0.0
        } else {
            self_sum as f64 / dur_sum as f64
        }
    }

    /// The tree as Chrome trace-event JSON (loads in Perfetto), with
    /// each span's parent index and self time in `args`.
    pub fn to_chrome(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(i, (s, own))| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(own as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::default();
        let root = log.push("workload", 0, 0, 100, None);
        let run = log.push("serving.run", 0, 5, 90, Some(root));
        log.push("engine.prefill", 0, 10, 30, Some(run));
        log.push("engine.decode_batch", 0, 45, 40, Some(run));
        let other = log.push("serving.run", 1, 5, 50, Some(root));
        log.push("engine.decode_batch", 1, 5, 50, Some(other));
        assert_eq!(log.self_ns(), vec![0, 20, 30, 40, 0, 50]);
        assert!((log.self_share("serving.run") - 20.0 / 140.0).abs() < 1e-12);
        assert_eq!(log.self_share("router.run"), 0.0);
        let text = log.to_chrome().dump();
        assert!(crate::json::parse(&text).is_ok());
        assert!(text.contains("\"self_us\": 0.02"));
    }
}
