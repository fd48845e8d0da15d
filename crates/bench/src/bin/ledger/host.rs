//! What the benchmark records about the machine it ran on, and the two
//! ceilings kernel numbers are read against: sustained read bandwidth
//! and the microkernel's L1-resident peak.

use lq_core::microkernel::APanels;
use lq_core::MicrokernelSet;
use lq_quant::Mat;
use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), MB. `None`
/// where `/proc` does not say.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of the last-level cache the OS reports for cpu0, bytes
/// (32 MiB where it reports none).
pub fn llc_bytes() -> usize {
    (0..8)
        .rev()
        .find_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, mult) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            digits.parse::<usize>().ok()?.checked_mul(mult)
        })
        .unwrap_or(32 << 20)
}

/// `git rev-parse HEAD`, if `git` answers (a driver checkout is not a
/// repository).
pub fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !sha.is_empty()).then_some(sha)
}

/// Sustained single-thread read bandwidth over `bytes` (GB/s): best of
/// two summing passes over a buffer too large for any cache.
pub fn stream_gbps(bytes: usize) -> f64 {
    let words = (bytes / 8).max(1 << 10);
    let buf = vec![1u64; words];
    let mut best = f64::MAX;
    for _ in 0..2 {
        let t0 = Instant::now();
        let sum: u64 = black_box(&buf).iter().fold(0u64, |a, &x| a.wrapping_add(x));
        black_box(sum);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (words * 8) as f64 / best / 1e9
}

/// The dispatched microkernel's peak on operands that stay in L1
/// (one 6-row panel × one weight strip × 512 of K), single thread,
/// Gop/s with 2 ops per multiply-accumulate.
pub fn mk_peak_gops() -> f64 {
    let mk = MicrokernelSet::global();
    let (m, kc) = (6usize, 512usize);
    // Small operands: a window's accumulators stay far from i32 range.
    let x = Mat::from_fn(m, kc, |r, c| ((r * 31 + c * 7) % 15) as i8 - 7);
    let a = APanels::pack(&x);
    let strip = mk.strip_width();
    let w: Vec<i8> = (0..strip * kc).map(|i| (i % 15) as i8 - 7).collect();
    let mut acc = vec![0i32; mk.acc_len(&a)];
    let ops_per_call = (2 * m * strip * kc) as f64;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let calls = 1000;
        let t0 = Instant::now();
        for _ in 0..calls {
            mk.accumulate(black_box(&a), 0, kc, black_box(&w), &mut acc);
        }
        black_box(&acc);
        best = best.max(ops_per_call * calls as f64 / t0.elapsed().as_secs_f64() / 1e9);
        acc.fill(0);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_answer_with_positive_numbers() {
        assert!(nproc() >= 1);
        assert!(llc_bytes() >= 1 << 16);
        assert!(stream_gbps(1 << 20) > 0.0);
        assert!(mk_peak_gops() > 0.0);
        if let Some(mb) = rss_peak_mb() {
            assert!(mb > 0.0);
        }
    }
}
