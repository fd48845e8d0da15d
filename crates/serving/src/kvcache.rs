//! PagedAttention-style KV cache allocator (paper, Section 6; vLLM's
//! memory manager).
//!
//! KV memory is carved into fixed-size pages of `page_tokens` tokens
//! each; a sequence owns a page table of physical page ids and grows it
//! one page at a time as tokens append. Pages return to the free list
//! when a sequence finishes. The allocator is the mechanism that lets
//! 4-bit-weight systems trade weight memory for batch size in Table 1.

use std::collections::HashMap;
use std::sync::Arc;

use lq_chaos::FaultInjector;

use crate::telemetry::kv as kv_metrics;

/// Errors from the paged allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheError {
    /// No free pages remain.
    OutOfMemory,
    /// The sequence id is not registered.
    UnknownSequence,
    /// The sequence id is already registered.
    DuplicateSequence,
}

/// Sequence identifier.
pub type SeqId = u64;

/// A paged KV cache over a fixed physical page pool.
#[derive(Debug)]
pub struct PagedKvCache {
    page_tokens: usize,
    bytes_per_token: usize,
    free: Vec<u32>,
    total_pages: usize,
    tables: HashMap<SeqId, SeqState>,
    /// Chaos hook: scheduled allocation denials (`None` in production
    /// — one branch per allocation).
    fault: Option<Arc<FaultInjector>>,
}

#[derive(Debug)]
struct SeqState {
    pages: Vec<u32>,
    tokens: usize,
}

impl PagedKvCache {
    /// Build a cache over `budget_bytes` of KV memory with pages of
    /// `page_tokens` tokens, each token costing `bytes_per_token`.
    #[must_use]
    pub fn new(budget_bytes: u64, page_tokens: usize, bytes_per_token: usize) -> Self {
        assert!(page_tokens > 0 && bytes_per_token > 0);
        let page_bytes = (page_tokens * bytes_per_token) as u64;
        let total_pages = usize::try_from(budget_bytes / page_bytes).expect("page count fits");
        Self {
            page_tokens,
            bytes_per_token,
            free: (0..total_pages as u32).rev().collect(),
            total_pages,
            tables: HashMap::new(),
            fault: None,
        }
    }

    /// Install a [`FaultInjector`] whose KV-alloc site can deny page
    /// allocations (reported as [`KvCacheError::OutOfMemory`], exactly
    /// like real exhaustion — callers must already handle it).
    pub fn set_fault_injector(&mut self, inj: Arc<FaultInjector>) {
        self.fault = Some(inj);
    }

    /// Consult the chaos hook for one allocation attempt.
    fn alloc_denied(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.on_kv_alloc())
    }

    /// Total physical pages.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Currently free pages.
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Live sequences.
    #[must_use]
    pub fn live_sequences(&self) -> usize {
        self.tables.len()
    }

    /// Pages needed for `tokens` tokens.
    #[must_use]
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    /// Would a reservation of `tokens` tokens succeed right now? The
    /// admission-control predicate of the serving loop.
    #[must_use]
    pub fn can_reserve(&self, tokens: usize) -> bool {
        self.pages_for(tokens.max(1)) <= self.free.len()
    }

    /// Register a new sequence with `prompt_tokens` already present
    /// (prefill). Allocates all pages up front; on OOM nothing is
    /// allocated.
    pub fn add_sequence(&mut self, id: SeqId, prompt_tokens: usize) -> Result<(), KvCacheError> {
        if self.tables.contains_key(&id) {
            return Err(KvCacheError::DuplicateSequence);
        }
        let need = self.pages_for(prompt_tokens.max(1));
        if need > self.free.len() || self.alloc_denied() {
            if let Some(m) = kv_metrics() {
                m.oom.inc();
            }
            return Err(KvCacheError::OutOfMemory);
        }
        let pages = self.free.split_off(self.free.len() - need);
        self.tables.insert(
            id,
            SeqState {
                pages,
                tokens: prompt_tokens,
            },
        );
        if let Some(m) = kv_metrics() {
            m.alloc.add(need as u64);
        }
        self.publish_gauges();
        Ok(())
    }

    /// Append one generated token to a sequence, allocating a page at
    /// boundaries. On OOM the sequence is left unchanged.
    pub fn append_token(&mut self, id: SeqId) -> Result<(), KvCacheError> {
        let needs_page = {
            let st = self.tables.get(&id).ok_or(KvCacheError::UnknownSequence)?;
            st.tokens + 1 > st.pages.len() * self.page_tokens
        };
        if needs_page {
            if self.alloc_denied() {
                if let Some(m) = kv_metrics() {
                    m.oom.inc();
                }
                return Err(KvCacheError::OutOfMemory);
            }
            let Some(page) = self.free.pop() else {
                if let Some(m) = kv_metrics() {
                    m.oom.inc();
                }
                return Err(KvCacheError::OutOfMemory);
            };
            self.tables
                .get_mut(&id)
                .expect("checked above")
                .pages
                .push(page);
            if let Some(m) = kv_metrics() {
                m.alloc.inc();
            }
            self.publish_gauges();
        }
        self.tables.get_mut(&id).expect("checked above").tokens += 1;
        Ok(())
    }

    /// Finish a sequence and reclaim its pages.
    pub fn free_sequence(&mut self, id: SeqId) -> Result<(), KvCacheError> {
        let st = self
            .tables
            .remove(&id)
            .ok_or(KvCacheError::UnknownSequence)?;
        if let Some(m) = kv_metrics() {
            m.freed.add(st.pages.len() as u64);
        }
        self.free.extend(st.pages);
        self.publish_gauges();
        Ok(())
    }

    /// Token count of a sequence.
    pub fn tokens_of(&self, id: SeqId) -> Result<usize, KvCacheError> {
        Ok(self
            .tables
            .get(&id)
            .ok_or(KvCacheError::UnknownSequence)?
            .tokens)
    }

    /// Physical page table of a sequence (for attention gather).
    pub fn page_table(&self, id: SeqId) -> Result<&[u32], KvCacheError> {
        Ok(&self
            .tables
            .get(&id)
            .ok_or(KvCacheError::UnknownSequence)?
            .pages)
    }

    /// Bytes currently pinned by live sequences (page-granular).
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        let used_pages = self.total_pages - self.free.len();
        (used_pages * self.page_tokens * self.bytes_per_token) as u64
    }

    /// Internal-fragmentation ratio: allocated-but-unused token slots
    /// over allocated slots.
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        let allocated: usize = self
            .tables
            .values()
            .map(|s| s.pages.len() * self.page_tokens)
            .sum();
        if allocated == 0 {
            return 0.0;
        }
        let used: usize = self.tables.values().map(|s| s.tokens).sum();
        1.0 - used as f64 / allocated as f64
    }

    /// Push occupancy gauges after any allocation-state change (no-op
    /// when telemetry is disabled).
    fn publish_gauges(&self) {
        if let Some(m) = kv_metrics() {
            m.used_pages
                .set((self.total_pages - self.free.len()) as f64);
            m.live_sequences.set(self.tables.len() as f64);
        }
    }

    /// Check the conservation invariant (free + owned == total, no page
    /// owned twice). Used by tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.total_pages];
        for &p in &self.free {
            if seen[p as usize] {
                return false;
            }
            seen[p as usize] = true;
        }
        for st in self.tables.values() {
            for &p in &st.pages {
                if seen[p as usize] {
                    return false;
                }
                seen[p as usize] = true;
            }
            if st.tokens > st.pages.len() * self.page_tokens {
                return false;
            }
        }
        seen.iter().all(|&b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: usize) -> PagedKvCache {
        // 16 tokens/page, 4 bytes/token → 64-byte pages.
        PagedKvCache::new((pages * 64) as u64, 16, 4)
    }

    #[test]
    fn construction_sizes_pool() {
        let c = cache(10);
        assert_eq!(c.total_pages(), 10);
        assert_eq!(c.free_pages(), 10);
        assert!(c.check_invariants());
    }

    #[test]
    fn prefill_allocates_ceiling_pages() {
        let mut c = cache(10);
        c.add_sequence(1, 17).unwrap();
        assert_eq!(c.page_table(1).unwrap().len(), 2);
        assert_eq!(c.free_pages(), 8);
        assert!(c.check_invariants());
    }

    #[test]
    fn append_allocates_only_at_boundaries() {
        let mut c = cache(10);
        c.add_sequence(1, 16).unwrap();
        assert_eq!(c.page_table(1).unwrap().len(), 1);
        c.append_token(1).unwrap(); // token 17 → new page
        assert_eq!(c.page_table(1).unwrap().len(), 2);
        for _ in 0..15 {
            c.append_token(1).unwrap(); // fills page 2, no allocation
        }
        assert_eq!(c.page_table(1).unwrap().len(), 2);
        c.append_token(1).unwrap(); // token 33 → page 3
        assert_eq!(c.page_table(1).unwrap().len(), 3);
        assert!(c.check_invariants());
    }

    #[test]
    fn oom_is_clean() {
        let mut c = cache(2);
        c.add_sequence(1, 32).unwrap(); // both pages
        assert_eq!(c.add_sequence(2, 1), Err(KvCacheError::OutOfMemory));
        assert_eq!(c.append_token(1), Err(KvCacheError::OutOfMemory));
        // Sequence 1 unchanged after the failed append.
        assert_eq!(c.tokens_of(1).unwrap(), 32);
        assert!(c.check_invariants());
    }

    #[test]
    fn free_recycles_pages() {
        let mut c = cache(4);
        c.add_sequence(1, 32).unwrap();
        c.add_sequence(2, 32).unwrap();
        assert_eq!(c.free_pages(), 0);
        c.free_sequence(1).unwrap();
        assert_eq!(c.free_pages(), 2);
        // Needs 3 pages with only 2 free → clean OOM ...
        assert_eq!(c.add_sequence(3, 48), Err(KvCacheError::OutOfMemory));
        // ... while a 2-page request succeeds with the recycled pages.
        c.add_sequence(4, 32).unwrap();
        assert_eq!(c.free_pages(), 0);
        assert!(c.check_invariants());
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut c = cache(4);
        c.add_sequence(1, 1).unwrap();
        assert_eq!(c.add_sequence(1, 1), Err(KvCacheError::DuplicateSequence));
        assert_eq!(c.append_token(9), Err(KvCacheError::UnknownSequence));
        assert_eq!(c.free_sequence(9), Err(KvCacheError::UnknownSequence));
    }

    #[test]
    fn fragmentation_reflects_partial_pages() {
        let mut c = cache(10);
        c.add_sequence(1, 8).unwrap(); // half a page used
        assert!((c.fragmentation() - 0.5).abs() < 1e-12);
        for _ in 0..8 {
            c.append_token(1).unwrap();
        }
        assert_eq!(c.fragmentation(), 0.0);
    }

    #[test]
    fn used_bytes_tracks_pages() {
        let mut c = cache(10);
        assert_eq!(c.used_bytes(), 0);
        c.add_sequence(1, 20).unwrap(); // 2 pages
        assert_eq!(c.used_bytes(), 128);
    }

    #[test]
    fn churn_preserves_invariants() {
        let mut c = cache(32);
        for round in 0..50u64 {
            let id = round;
            if c.add_sequence(id, (round as usize * 7) % 60 + 1).is_ok() {
                for _ in 0..(round % 20) {
                    let _ = c.append_token(id);
                }
            }
            if round >= 3 {
                let _ = c.free_sequence(round - 3);
            }
            assert!(c.check_invariants(), "round {round}");
        }
    }
}
