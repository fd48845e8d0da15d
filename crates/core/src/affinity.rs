//! Cache/topology-aware worker placement: CPU pinning via raw
//! `sched_setaffinity`, with a portable no-op fallback.
//!
//! The workspace is std-only (no `libc`), so on Linux/x86_64 the two
//! affinity syscalls are issued directly with `core::arch::asm!`. On
//! every other target the policy degrades to [`PlacementPolicy::Unpinned`]
//! behaviour: `cpu_for` still computes a placement, but `pin_thread`
//! reports failure and the pool simply records "not pinned" in
//! [`crate::WorkerStats`].
//!
//! The allowed-CPU list is snapshotted once (at first pool startup,
//! before any worker pins itself) from the process affinity mask, so
//! cgroup/taskset restrictions are respected and later per-thread pins
//! don't corrupt the view.
//!
//! This module (and [`crate::simd`]) are the only places in `lq-core`
//! allowed to use `unsafe`.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// How pool workers are placed on CPUs. Exposed through
/// `ParallelConfig::builder()` and `LiquidGemm::builder()`; the
/// resulting per-worker CPU is reported in `WorkerStats::pinned_cpu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Leave workers wherever the OS scheduler puts them (default —
    /// matches all prior releases).
    #[default]
    Unpinned,
    /// Pin worker `i` to the `i`-th allowed CPU, wrapping. Packs
    /// workers onto adjacent CPUs, which keeps sibling workers sharing
    /// L2/L3 — best when neighbouring tiles of one call share
    /// activation panels and adjacent weight rows.
    Compact,
    /// Spread workers evenly across the allowed-CPU list. Maximizes
    /// per-worker cache/bandwidth share — best for flat data-parallel
    /// jobs on multi-socket or hybrid parts.
    Scatter,
}

impl PlacementPolicy {
    /// Stable label, used in `worker_stats()` reporting and benches.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Unpinned => "unpinned",
            PlacementPolicy::Compact => "compact",
            PlacementPolicy::Scatter => "scatter",
        }
    }

    /// Parse a [`PlacementPolicy::label`] back.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "unpinned" => Some(PlacementPolicy::Unpinned),
            "compact" => Some(PlacementPolicy::Compact),
            "scatter" => Some(PlacementPolicy::Scatter),
            _ => None,
        }
    }

    /// The CPU worker `worker` (of `workers` total) should pin to under
    /// this policy, or `None` for unpinned.
    #[must_use]
    pub(crate) fn cpu_for(self, worker: usize, workers: usize) -> Option<usize> {
        if self == PlacementPolicy::Unpinned {
            return None;
        }
        let allowed = allowed_cpus();
        if allowed.is_empty() {
            return None;
        }
        let idx = match self {
            PlacementPolicy::Unpinned => unreachable!(),
            PlacementPolicy::Compact => worker % allowed.len(),
            PlacementPolicy::Scatter => (worker * allowed.len() / workers.max(1)) % allowed.len(),
        };
        Some(allowed[idx])
    }
}

/// CPUs this process may run on, snapshotted once from the process
/// affinity mask (falls back to `0..available_parallelism` where the
/// mask can't be read).
pub(crate) fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        sys::current_mask().unwrap_or_else(|| {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            (0..n).collect()
        })
    })
}

/// Pin the calling thread to `cpu`. Returns whether the kernel accepted
/// the mask (always `false` on non-Linux targets).
pub(crate) fn pin_thread(cpu: usize) -> bool {
    sys::set_cpu(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_SCHED_SETAFFINITY: u64 = 203;
    const SYS_SCHED_GETAFFINITY: u64 = 204;
    /// 16 × u64 = 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` cap.
    const SET_WORDS: usize = 16;

    /// Raw 3-argument syscall.
    ///
    /// # Safety
    /// `nr` and its arguments must form a valid syscall; pointer
    /// arguments must be live for the kernel's access.
    unsafe fn syscall3(nr: u64, a: u64, b: u64, c: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// The calling thread's affinity mask as a sorted CPU list.
    pub(super) fn current_mask() -> Option<Vec<usize>> {
        let mut set = [0u64; SET_WORDS];
        // SAFETY: `set` outlives the call and is sized per `rsi`;
        // pid 0 means "calling thread".
        let r = unsafe {
            syscall3(
                SYS_SCHED_GETAFFINITY,
                0,
                core::mem::size_of_val(&set) as u64,
                set.as_mut_ptr() as u64,
            )
        };
        // sched_getaffinity returns the number of bytes copied on
        // success (> 0), a negated errno on failure.
        if r <= 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..SET_WORDS * 64)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            None
        } else {
            Some(cpus)
        }
    }

    /// Pin the calling thread to exactly `cpu`.
    pub(super) fn set_cpu(cpu: usize) -> bool {
        if cpu >= SET_WORDS * 64 {
            return false;
        }
        let mut set = [0u64; SET_WORDS];
        set[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `set` outlives the call and is sized per `rsi`;
        // pid 0 means "calling thread".
        let r = unsafe {
            syscall3(
                SYS_SCHED_SETAFFINITY,
                0,
                core::mem::size_of_val(&set) as u64,
                set.as_ptr() as u64,
            )
        };
        r == 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub(super) fn current_mask() -> Option<Vec<usize>> {
        None
    }
    pub(super) fn set_cpu(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for p in [
            PlacementPolicy::Unpinned,
            PlacementPolicy::Compact,
            PlacementPolicy::Scatter,
        ] {
            assert_eq!(PlacementPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(PlacementPolicy::parse("numa"), None);
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::Unpinned);
    }

    #[test]
    fn unpinned_never_places() {
        for w in 0..8 {
            assert_eq!(PlacementPolicy::Unpinned.cpu_for(w, 4), None);
        }
    }

    #[test]
    fn placements_are_within_the_allowed_set() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        for policy in [PlacementPolicy::Compact, PlacementPolicy::Scatter] {
            for workers in 1..9usize {
                for w in 0..workers {
                    let cpu = policy.cpu_for(w, workers).expect("pinned policy places");
                    assert!(
                        allowed.contains(&cpu),
                        "{policy:?} w={w}/{workers} -> {cpu}"
                    );
                }
            }
        }
    }

    #[test]
    fn compact_packs_and_scatter_spreads() {
        let n = allowed_cpus().len();
        // Compact walks the allowed list in order.
        for w in 0..n {
            assert_eq!(
                PlacementPolicy::Compact.cpu_for(w, n),
                Some(allowed_cpus()[w % n])
            );
        }
        // Scatter with workers == allowed covers every CPU exactly once.
        let mut seen: Vec<usize> = (0..n)
            .map(|w| PlacementPolicy::Scatter.cpu_for(w, n).unwrap())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_really_pins() {
        // Pin a scratch thread (not the test thread) so the test
        // harness scheduling is unaffected.
        let cpu = allowed_cpus()[0];
        let ok = std::thread::spawn(move || pin_thread(cpu)).join().unwrap();
        assert!(ok, "sched_setaffinity to an allowed CPU should succeed");
        // An absurd CPU index must be rejected, not wrap.
        assert!(!pin_thread(usize::MAX));
    }
}
