//! Property-based tests for the label lattice.
//!
//! These check the algebraic laws the kernel's security argument relies on:
//! `⊑` is a partial order, `⊔` is the least upper bound, the observation /
//! modification checks are monotone, and `raise_for_observe` returns the
//! least label that permits observation.
//!
//! The generator is a tiny self-contained xorshift64* harness rather than an
//! external property-testing crate, so the suite runs in an offline build.
//! Each property is exercised on a few thousand pseudo-random labels drawn
//! from a small category universe (collisions are likely, which is where the
//! interesting lattice behaviour lives).
//!
//! The last group runs large labels (up to 600 entries, the size the web
//! server's daemons reach under a burst) through every lattice operation
//! and compares each with a reference that looks up every category's level
//! one at a time, so the single-pass merges inside `Label` are checked
//! against the definition rather than against themselves.

use histar_label::{Category, CheckLevel, Label, LabelError, Level};
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::hash::BuildHasher;

const CASES: usize = 2000;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    fn category(&mut self) -> Category {
        // A small universe of categories keeps shared categories likely.
        Category::from_raw(self.below(8))
    }

    fn level(&mut self) -> Level {
        match self.below(5) {
            0 => Level::Star,
            1 => Level::L0,
            2 => Level::L1,
            3 => Level::L2,
            _ => Level::L3,
        }
    }

    fn numeric_level(&mut self) -> Level {
        match self.below(4) {
            0 => Level::L0,
            1 => Level::L1,
            2 => Level::L2,
            _ => Level::L3,
        }
    }

    fn label(&mut self) -> Label {
        let mut b = Label::builder().default_level(self.numeric_level());
        for _ in 0..self.below(6) {
            let c = self.category();
            let l = self.level();
            b = b.set(c, l);
        }
        b.build()
    }

    /// Labels without ownership, where `⊑` restricted to them is a lattice.
    fn taint_label(&mut self) -> Label {
        let mut b = Label::builder().default_level(self.numeric_level());
        for _ in 0..self.below(6) {
            let c = self.category();
            let l = self.numeric_level();
            b = b.set(c, l);
        }
        b.build()
    }
}

#[test]
fn leq_is_reflexive() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let l = rng.label();
        assert!(l.leq(&l), "{l} ⋢ itself");
    }
}

#[test]
fn leq_is_transitive() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let (a, b, c) = (rng.label(), rng.label(), rng.label());
        if a.leq(&b) && b.leq(&c) {
            assert!(a.leq(&c), "{a} ⊑ {b} ⊑ {c} but {a} ⋢ {c}");
        }
    }
}

#[test]
fn leq_is_antisymmetric() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let (a, b) = (rng.label(), rng.label());
        if a.leq(&b) && b.leq(&a) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn lub_is_an_upper_bound() {
    let mut rng = Rng::new(4);
    for _ in 0..CASES {
        let (a, b) = (rng.taint_label(), rng.taint_label());
        let j = a.lub(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
    }
}

#[test]
fn lub_is_least() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let (a, b, c) = (rng.taint_label(), rng.taint_label(), rng.taint_label());
        // Any common upper bound is above the lub.
        if a.leq(&c) && b.leq(&c) {
            assert!(a.lub(&b).leq(&c));
        }
    }
}

#[test]
fn glb_is_a_lower_bound() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let (a, b) = (rng.taint_label(), rng.taint_label());
        let m = a.glb(&b);
        assert!(m.leq(&a));
        assert!(m.leq(&b));
    }
}

#[test]
fn glb_is_greatest() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let (a, b, c) = (rng.taint_label(), rng.taint_label(), rng.taint_label());
        if c.leq(&a) && c.leq(&b) {
            assert!(c.leq(&a.glb(&b)));
        }
    }
}

#[test]
fn lub_commutative_and_idempotent() {
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        let (a, b) = (rng.taint_label(), rng.taint_label());
        assert_eq!(a.lub(&b), b.lub(&a));
        assert_eq!(a.lub(&a), a);
    }
}

#[test]
fn ownership_always_permits_observation() {
    let mut rng = Rng::new(9);
    for _ in 0..CASES {
        // A thread owning every category mentioned by the object (and whose
        // default matches) can always observe it.
        let obj = rng.taint_label();
        let mut b = Label::builder().default_level(Level::L3);
        for (c, _) in obj.entries() {
            b = b.set(c, Level::Star);
        }
        let owner = b.build();
        assert!(owner.can_observe(&obj));
    }
}

#[test]
fn modification_implies_observation() {
    let mut rng = Rng::new(10);
    for _ in 0..CASES {
        let (thread, obj) = (rng.label(), rng.taint_label());
        if thread.can_modify(&obj) {
            assert!(thread.can_observe(&obj));
        }
    }
}

#[test]
fn raise_for_observe_is_sound() {
    let mut rng = Rng::new(11);
    for _ in 0..CASES {
        let (thread, obj) = (rng.label(), rng.taint_label());
        let raised = thread.raise_for_observe(&obj);
        // The raised label permits the observation...
        assert!(raised.can_observe(&obj));
        // ...and is a label the thread could legally move to if its
        // clearance allowed it (monotonic in unowned categories).
        assert!(thread.leq(&raised));
    }
}

#[test]
fn raise_for_observe_is_least() {
    let mut rng = Rng::new(12);
    for _ in 0..CASES {
        let (thread, obj, other) = (rng.label(), rng.taint_label(), rng.label());
        // Any label above the thread that can observe the object is above
        // the computed raise target.
        if thread.leq(&other) && other.can_observe(&obj) {
            assert!(thread.raise_for_observe(&obj).leq(&other));
        }
    }
}

#[test]
fn observation_is_monotone_in_thread_label() {
    let mut rng = Rng::new(13);
    for _ in 0..CASES {
        let (a, b, obj) = (rng.taint_label(), rng.taint_label(), rng.taint_label());
        // If a ⊑ b then anything a can observe, b can observe.
        if a.leq(&b) && a.can_observe(&obj) {
            assert!(b.can_observe(&obj));
        }
    }
}

#[test]
fn flow_composition_is_safe() {
    let mut rng = Rng::new(14);
    for _ in 0..CASES {
        let (a, b, c) = (rng.taint_label(), rng.taint_label(), rng.taint_label());
        // If information can flow a -> b and b -> c (pure taint labels,
        // no ownership anywhere), then it can flow a -> c.  This is the
        // end-to-end guarantee of §3.
        if a.leq(&b) && b.leq(&c) {
            assert!(a.leq(&c));
        }
    }
}

#[test]
fn drop_ownership_removes_all_stars() {
    let mut rng = Rng::new(15);
    for _ in 0..CASES {
        let l = rng.label();
        assert!(!l.drop_ownership(Level::L1).contains_star());
    }
}

#[test]
fn display_parse_round_trip() {
    let mut rng = Rng::new(16);
    for _ in 0..CASES {
        // Numeric-only labels round-trip through the text notation when the
        // resolver maps the printed names back to categories.
        let l = rng.taint_label();
        let text = l.to_string();
        let parsed = Label::parse(&text, |name| {
            name.strip_prefix('c')
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(Category::from_raw)
        })
        .unwrap();
        assert_eq!(parsed, l);
    }
}

#[test]
fn pack_unpack_round_trip() {
    let mut rng = Rng::new(17);
    for _ in 0..CASES {
        let raw = rng.below(1 << 61);
        let lvl = rng.level();
        let c = Category::from_raw(raw);
        let word = c.pack_with_level(lvl.encode());
        let (c2, bits) = Category::unpack_with_level(word);
        assert_eq!(c2, c);
        assert_eq!(Level::decode(bits), Some(lvl));
    }
}

// ----- Single-pass operations against a per-category reference ----------

/// Cases for the large-label properties: each case walks labels of up to
/// 600 entries several times over.
const BIG_CASES: usize = 300;

impl Rng {
    /// A category universe that makes overlap between two large labels
    /// sparse, moderate or dense.
    fn universe(&mut self) -> u64 {
        [16, 512, 1 << 20][self.below(3) as usize]
    }

    /// A label with 0–600 entries drawn from `universe`, with a random
    /// default that is `⋆` one time in ten; `⋆` appears in entries only when
    /// `stars` is set (object labels may not contain it).
    fn big_label(&mut self, universe: u64, stars: bool) -> Label {
        let default = if stars && self.below(10) == 0 {
            Level::Star
        } else {
            self.numeric_level()
        };
        let mut b = Label::builder().default_level(default);
        for _ in 0..self.below(601) {
            let c = Category::from_raw(self.below(universe));
            let l = if stars {
                self.level()
            } else {
                self.numeric_level()
            };
            b = b.set(c, l);
        }
        b.build()
    }
}

/// Every category with a non-default entry in any of `labels`.
fn categories(labels: &[&Label]) -> BTreeSet<Category> {
    labels
        .iter()
        .flat_map(|l| l.entries().map(|(c, _)| c))
        .collect()
}

fn ref_leq(a: &Label, b: &Label, ml: fn(Level) -> CheckLevel, mr: fn(Level) -> CheckLevel) -> bool {
    ml(a.default_level()) <= mr(b.default_level())
        && categories(&[a, b])
            .into_iter()
            .all(|c| ml(a.level(c)) <= mr(b.level(c)))
}

fn ref_combine(a: &Label, b: &Label, pick: impl Fn(Level, Level) -> Level) -> Label {
    let mut out = Label::builder().default_level(pick(a.default_level(), b.default_level()));
    for c in categories(&[a, b]) {
        out = out.set(c, pick(a.level(c), b.level(c)));
    }
    out.build()
}

fn ref_check_set_clearance(t: &Label, clearance: &Label, new: &Label) -> Result<(), LabelError> {
    if !ref_leq(t, new, Level::as_low, Level::as_low) {
        return Err(LabelError::ClearanceBelowLabel);
    }
    let bound_ok = |c: Option<Category>| {
        let at = |l: &Label| c.map_or(l.default_level(), |c| l.level(c));
        at(new).as_low() <= at(clearance).as_low().max(at(t).as_high())
    };
    let cats = categories(&[t, clearance, new]);
    if bound_ok(None) && cats.into_iter().all(|c| bound_ok(Some(c))) {
        Ok(())
    } else {
        Err(LabelError::ClearanceExceedsBound)
    }
}

fn ref_drop_ownership(l: &Label, replacement: Level) -> Label {
    let swap = |x: Level| if x.is_star() { replacement } else { x };
    let mut out = Label::builder().default_level(swap(l.default_level()));
    for (c, x) in l.entries() {
        out = out.set(c, swap(x));
    }
    out.build()
}

fn max_low(a: Level, b: Level) -> Level {
    if a.as_low() >= b.as_low() {
        a
    } else {
        b
    }
}

fn min_low(a: Level, b: Level) -> Level {
    if a.as_low() <= b.as_low() {
        a
    } else {
        b
    }
}

#[test]
fn comparisons_match_the_per_category_reference() {
    let mut rng = Rng::new(18);
    for _ in 0..BIG_CASES {
        let u = rng.universe();
        let (a, b) = (rng.big_label(u, true), rng.big_label(u, true));
        // Pairs of near-equal labels are where a merge that skips an entry
        // would go wrong, so compare each label with a small edit too.
        let c = a.with(Category::from_raw(rng.below(u)), rng.level());
        for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&c, &a), (&a, &a)] {
            assert_eq!(x.leq(y), ref_leq(x, y, Level::as_low, Level::as_low));
            assert_eq!(
                x.leq_high_rhs(y),
                ref_leq(x, y, Level::as_low, Level::as_high)
            );
            assert_eq!(
                x.leq_high_both(y),
                ref_leq(x, y, Level::as_high, Level::as_high)
            );
        }
    }
}

#[test]
fn combinations_match_the_per_category_reference() {
    let mut rng = Rng::new(19);
    for _ in 0..BIG_CASES {
        let u = rng.universe();
        let (a, b) = (rng.big_label(u, true), rng.big_label(u, true));
        let obj = rng.big_label(u, false);
        assert_eq!(a.lub(&b), ref_combine(&a, &b, max_low));
        assert_eq!(a.glb(&b), ref_combine(&a, &b, min_low));
        assert_eq!(
            a.raise_for_observe(&obj),
            ref_combine(&a, &obj, |x, y| x
                .as_high()
                .max(y.as_low())
                .lower_ownership()
                .to_level())
        );
        assert_eq!(
            a.ownership_union(&b),
            ref_combine(&a, &b, |x, y| x
                .as_high()
                .max(y.as_high())
                .lower_ownership()
                .to_level())
        );
        for replacement in [Level::L1, Level::L3] {
            assert_eq!(
                a.drop_ownership(replacement),
                ref_drop_ownership(&a, replacement)
            );
        }
    }
}

#[test]
fn set_clearance_matches_the_per_category_reference() {
    let mut rng = Rng::new(20);
    for _ in 0..BIG_CASES {
        let u = rng.universe();
        let t = rng.big_label(u, true);
        let clearance = t.lub(&rng.big_label(u, false));
        // A candidate drawn at random is almost never admissible, so also
        // try ones built to sit between the label and the bound.
        let candidates = [
            rng.big_label(u, false),
            clearance.clone(),
            t.lub(&rng.big_label(u, false)),
            clearance.with(Category::from_raw(rng.below(u)), Level::L3),
        ];
        for new in &candidates {
            assert_eq!(
                t.check_set_clearance(&clearance, new),
                ref_check_set_clearance(&t, &clearance, new)
            );
        }
    }
}

#[test]
fn equality_and_hash_are_structural() {
    let mut rng = Rng::new(21);
    let hasher = RandomState::new();
    let structural = |x: &Label, y: &Label| {
        x.default_level() == y.default_level() && x.entries().eq(y.entries())
    };
    for _ in 0..BIG_CASES {
        // A small universe makes structurally equal pairs common.
        let u = [4, rng.universe()][rng.below(2) as usize];
        let a = rng.big_label(u, true);
        let b = if rng.below(2) == 0 {
            rng.big_label(u, true)
        } else {
            rng.label()
        };
        assert_eq!(a == b, structural(&a, &b), "{a} vs {b}");
        assert_eq!(hasher.hash_one(&a) == hasher.hash_one(&b), a == b);

        // The same entries set in reverse order, one by one through `with`,
        // and through a no-op `lub` all give a label equal to `a`.
        let entries: Vec<(Category, Level)> = a.entries().collect();
        let mut reversed = Label::builder().default_level(a.default_level());
        let mut stepwise = Label::new(a.default_level());
        for &(c, l) in entries.iter().rev() {
            reversed = reversed.set(c, l);
            stepwise = stepwise.with(c, l);
        }
        let fresh = Category::from_raw(u);
        let detour = a.with(fresh, Level::L3).without(fresh);
        let bottom = Label::new(a.default_level()).glb(&a);
        for equal in [reversed.build(), stepwise, detour, a.lub(&bottom)] {
            assert_eq!(equal, a);
            assert_eq!(hasher.hash_one(&equal), hasher.hash_one(&a));
        }

        // A clone shares its entries with the original.
        let copy = a.clone();
        assert!(copy.shares_entries(&a));
        assert_eq!(copy, a);
    }
}
