//! Memoization of label comparisons between immutable labels.
//!
//! The HiStar kernel "caches the result of comparisons between immutable
//! labels" (§4).  Because object labels are fixed at creation, a comparison
//! between two immutable labels can be keyed by their identities and reused
//! on every subsequent access check.  This matters because label checks are
//! on the critical path of every system call and page fault.
//!
//! The cache is keyed by *label identity tokens* handed out by
//! [`LabelCache::intern`]; interning also deduplicates structurally equal
//! labels so that a system with thousands of objects sharing a handful of
//! distinct labels performs each comparison only once.

use crate::label::Label;
use std::collections::HashMap;
use std::sync::Arc;

/// An opaque token identifying an interned, immutable label.
///
/// Tokens are numbered per cache, in interning order, and mean something
/// only to the cache that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LabelId(u64);

impl LabelId {
    /// Returns the raw token value (useful for diagnostics only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Which comparison is being memoized.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CmpKind {
    /// `a ⊑ b` with ownership low on both sides.
    Leq,
    /// `a ⊑ b^J` (ownership in `b` high) — the observation check.
    LeqHighRhs,
    /// `a^J ⊑ b^J`.
    LeqHighBoth,
}

/// Statistics for cache effectiveness, used by the ablation benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of comparisons answered from the cache.
    pub hits: u64,
    /// Number of comparisons computed and inserted.
    pub misses: u64,
    /// Number of distinct labels interned.
    pub interned: u64,
}

impl histar_obs::MetricSource for CacheStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("label_cache.hits", self.hits);
        set.counter("label_cache.misses", self.misses);
        set.gauge("label_cache.interned", self.interned);
    }
}

/// A comparison cache over interned immutable labels.
///
/// The cache is not itself thread-safe; the kernel wraps it in its own lock
/// (label checks already execute under the kernel lock in this
/// reproduction).
#[derive(Debug, Default)]
pub struct LabelCache {
    by_structure: HashMap<Arc<Label>, LabelId>,
    /// The interned labels, indexed by token; each shares its allocation
    /// with its `by_structure` key.
    by_id: Vec<Arc<Label>>,
    cmp: HashMap<(LabelId, LabelId, CmpKind), bool>,
    hits: u64,
    misses: u64,
}

impl LabelCache {
    /// Creates an empty cache.
    pub fn new() -> LabelCache {
        LabelCache::default()
    }

    /// Interns a label, returning a stable identity token.
    ///
    /// Structurally equal labels intern to the same token.
    pub fn intern(&mut self, label: &Label) -> LabelId {
        if let Some(&id) = self.by_structure.get(label) {
            return id;
        }
        let id = LabelId(self.by_id.len() as u64);
        let shared = Arc::new(label.clone());
        self.by_structure.insert(Arc::clone(&shared), id);
        self.by_id.push(shared);
        id
    }

    /// Returns the label for a token this cache issued.
    pub fn get(&self, id: LabelId) -> Option<Arc<Label>> {
        self.by_id.get(id.0 as usize).cloned()
    }

    fn lookup_or(
        &mut self,
        a: LabelId,
        b: LabelId,
        kind: CmpKind,
        compute: impl FnOnce(&Label, &Label) -> bool,
    ) -> bool {
        if let Some(&v) = self.cmp.get(&(a, b, kind)) {
            self.hits += 1;
            return v;
        }
        let label = |id: LabelId| {
            self.by_id
                .get(id.0 as usize)
                .expect("label id not interned")
        };
        let v = compute(label(a), label(b));
        self.cmp.insert((a, b, kind), v);
        self.misses += 1;
        v
    }

    /// Memoized `a ⊑ b`.
    pub fn leq(&mut self, a: LabelId, b: LabelId) -> bool {
        self.lookup_or(a, b, CmpKind::Leq, |x, y| x.leq(y))
    }

    /// Memoized `a ⊑ b^J` (the "can `b` observe `a`" check).
    pub fn leq_high_rhs(&mut self, a: LabelId, b: LabelId) -> bool {
        self.lookup_or(a, b, CmpKind::LeqHighRhs, |x, y| x.leq_high_rhs(y))
    }

    /// Memoized `a^J ⊑ b^J`.
    pub fn leq_high_both(&mut self, a: LabelId, b: LabelId) -> bool {
        self.lookup_or(a, b, CmpKind::LeqHighBoth, |x, y| x.leq_high_both(y))
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            interned: self.by_id.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Level};

    fn c(n: u64) -> Category {
        Category::from_raw(n)
    }

    #[test]
    fn interning_deduplicates() {
        let mut cache = LabelCache::new();
        let a = Label::builder().set(c(1), Level::L3).build();
        let b = Label::builder().set(c(1), Level::L3).build();
        assert_eq!(cache.intern(&a), cache.intern(&b));
        assert_eq!(cache.stats().interned, 1);
    }

    #[test]
    fn memoized_results_match_direct_computation() {
        let mut cache = LabelCache::new();
        let thread = Label::unrestricted();
        let obj = Label::builder().set(c(1), Level::L3).build();
        let t = cache.intern(&thread);
        let o = cache.intern(&obj);
        assert_eq!(cache.leq_high_rhs(o, t), obj.leq_high_rhs(&thread));
        assert_eq!(cache.leq(t, o), thread.leq(&obj));
        assert_eq!(cache.leq_high_both(o, t), obj.leq_high_both(&thread));
    }

    #[test]
    fn hits_accumulate() {
        let mut cache = LabelCache::new();
        let a = cache.intern(&Label::unrestricted());
        let b = cache.intern(&Label::default_clearance());
        assert!(cache.leq(a, b));
        assert!(cache.leq(a, b));
        assert!(cache.leq(a, b));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn tokens_are_numbered_per_cache() {
        // Two caches in one process (two kernels) issue the same tokens for
        // the same interning order, whatever the other has interned.
        let mut first = LabelCache::new();
        let mut second = LabelCache::new();
        let labels = [
            Label::unrestricted(),
            Label::default_clearance(),
            Label::builder().set(c(1), Level::L3).build(),
        ];
        let a: Vec<LabelId> = labels.iter().map(|l| first.intern(l)).collect();
        let b: Vec<LabelId> = labels.iter().rev().map(|l| second.intern(l)).collect();
        assert_eq!(a.iter().map(|id| id.raw()).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(b.iter().map(|id| id.raw()).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(*first.get(a[2]).unwrap(), labels[2]);
        assert_eq!(*second.get(b[0]).unwrap(), labels[2]);
    }

    #[test]
    fn an_interned_label_is_stored_once() {
        let mut cache = LabelCache::new();
        let label = Label::builder().set(c(7), Level::L0).build();
        let id = cache.intern(&label);
        // One reference from the structure index, one from the token
        // index, one held here: both indexes share a single copy.
        assert_eq!(Arc::strong_count(&cache.get(id).unwrap()), 3);
        // The copy shares its entries with the label that was interned.
        assert!(cache.get(id).unwrap().shares_entries(&label));
    }

    #[test]
    fn direction_matters() {
        let mut cache = LabelCache::new();
        let lo = cache.intern(&Label::unrestricted());
        let hi = cache.intern(&Label::default_clearance());
        assert!(cache.leq(lo, hi));
        assert!(!cache.leq(hi, lo));
    }
}
