//! The per-category definition of every two-label operation, kept as the
//! reference the linear-merge implementations in [`crate::label`] are tested
//! against: collect the categories either label mentions, then probe both
//! labels with [`Label::level`] at each one.  Test-only.
//!
//! The generator is the same self-contained xorshift64* harness as
//! `tests/label_properties.rs`, so the suite runs in an offline build.

use crate::{Category, CheckLevel, Label, LabelError, Level};
use core::cmp::max;
use std::collections::BTreeSet;

pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    fn level(&mut self) -> Level {
        Level::ALL[self.below(5) as usize]
    }

    /// Up to `max_entries` random entries over categories `0..universe`,
    /// with any default level.
    pub(crate) fn label(&mut self, max_entries: u64, universe: u64) -> Label {
        let mut b = Label::builder().default_level(self.level());
        for _ in 0..self.below(max_entries + 1) {
            b = b.set(Category::from_raw(self.below(universe)), self.level());
        }
        b.build()
    }

    /// A label over exactly the given categories (less those that draw the
    /// default level).
    fn label_over(&mut self, categories: impl Iterator<Item = u64>) -> Label {
        let mut b = Label::builder().default_level(self.level());
        for c in categories {
            b = b.set(Category::from_raw(c), self.level());
        }
        b.build()
    }

    /// A pair of labels of 0–1,024 entries each whose category sets are
    /// disjoint (one below the other, or alternating), identical, or
    /// partly shared.
    fn pair(&mut self) -> (Label, Label) {
        // Mostly small, so the suite stays fast; the long tail reaches 1,024.
        let size = |rng: &mut Rng| match rng.below(4) {
            0 => rng.below(4),
            1 | 2 => rng.below(48),
            _ => rng.below(1025),
        };
        let (n, m) = (size(self), size(self));
        match self.below(5) {
            0 => (self.label_over(0..n), self.label_over(n..n + m)),
            1 => (
                self.label_over((0..n).map(|c| 2 * c)),
                self.label_over((0..m).map(|c| 2 * c + 1)),
            ),
            2 => (self.label_over(0..n), self.label_over(0..n)),
            3 => (self.label_over(0..n), self.label_over(n / 2..n / 2 + m)),
            _ => (self.label(n, n + m + 1), self.label(m, n + m + 1)),
        }
    }
}

fn categories(a: &Label, b: &Label) -> BTreeSet<Category> {
    a.entries().chain(b.entries()).map(|e| e.0).collect()
}

fn leq_mapped(
    a: &Label,
    b: &Label,
    map_l: impl Fn(Level) -> CheckLevel,
    map_r: impl Fn(Level) -> CheckLevel,
) -> bool {
    map_l(a.default_level()) <= map_r(b.default_level())
        && categories(a, b)
            .into_iter()
            .all(|c| map_l(a.level(c)) <= map_r(b.level(c)))
}

fn combine(a: &Label, b: &Label, pick: impl Fn(Level, Level) -> Level) -> Label {
    let mut out = Label::builder().default_level(pick(a.default_level(), b.default_level()));
    for c in categories(a, b) {
        out = out.set(c, pick(a.level(c), b.level(c)));
    }
    out.build()
}

fn check_set_clearance(this: &Label, clearance: &Label, new: &Label) -> Result<(), LabelError> {
    if !leq_mapped(this, new, Level::as_low, Level::as_low) {
        return Err(LabelError::ClearanceBelowLabel);
    }
    let within = |n: Level, cl: Level, own: Level| n.as_low() <= max(cl.as_low(), own.as_high());
    let mut all = categories(new, clearance);
    all.extend(this.entries().map(|e| e.0));
    let ok = within(
        new.default_level(),
        clearance.default_level(),
        this.default_level(),
    ) && all
        .into_iter()
        .all(|c| within(new.level(c), clearance.level(c), this.level(c)));
    if ok {
        Ok(())
    } else {
        Err(LabelError::ClearanceExceedsBound)
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "hundreds of 1,024-entry labels; the small tests cover the representation"
)]
fn lattice_operations_match_the_per_category_definition() {
    let mut rng = Rng::new(0x1abe1);
    let (low, high) = (Level::as_low, Level::as_high);
    let raise = |a: CheckLevel, b: CheckLevel| max(a, b).lower_ownership().to_level();
    let (mut held, mut refused) = (0, 0);
    for _ in 0..600 {
        let (a, b) = rng.pair();
        let flows = leq_mapped(&a, &b, low, low);
        assert_eq!(a.leq(&b), flows, "{a} ⊑ {b}");
        assert_eq!(a.leq_high_rhs(&b), leq_mapped(&a, &b, low, high));
        assert_eq!(a.leq_high_both(&b), leq_mapped(&a, &b, high, high));
        if flows {
            held += 1;
        } else {
            refused += 1;
        }

        let pick_max = |x: Level, y: Level| if x.as_low() >= y.as_low() { x } else { y };
        let pick_min = |x: Level, y: Level| if x.as_low() <= y.as_low() { x } else { y };
        assert_eq!(a.lub(&b), combine(&a, &b, pick_max));
        assert_eq!(a.glb(&b), combine(&a, &b, pick_min));
        assert_eq!(
            a.raise_for_observe(&b),
            combine(&a, &b, |x, y| raise(x.as_high(), y.as_low()))
        );
        assert_eq!(
            a.ownership_union(&b),
            combine(&a, &b, |x, y| raise(x.as_high(), y.as_high()))
        );
        // The constructed bounds are where `⊑` holds on large labels.
        assert!(a.leq(&a.lub(&b)) && a.glb(&b).leq(&b));
    }
    assert!(held > 20 && refused > 20, "{held} held, {refused} refused");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "hundreds of 1,024-entry labels; the small tests cover the representation"
)]
fn check_set_clearance_matches_the_per_category_definition() {
    let mut rng = Rng::new(0xc1ea2);
    let mut seen = BTreeSet::new();
    for round in 0..600 {
        let (this, clearance) = rng.pair();
        // Candidates from "certainly allowed" to "anything at all".
        let new = match round % 4 {
            0 => this.lub(&clearance),
            1 => this.drop_ownership(Level::L3).lub(&clearance),
            2 => this.lub(&rng.pair().0),
            _ => rng.pair().1,
        };
        let expected = check_set_clearance(&this, &clearance, &new);
        assert_eq!(this.check_set_clearance(&clearance, &new), expected);
        seen.insert(format!("{expected:?}"));
    }
    assert_eq!(seen.len(), 3, "outcomes exercised: {seen:?}");
}

/// The same function reached by different routes is one label: equal, and
/// equal under `Hash`.
#[test]
fn structural_eq_and_hash_agree_across_construction_routes() {
    use histar_sim::SimHasher;
    use std::hash::{Hash, Hasher};
    let hash_of = |l: &Label| {
        let mut h = SimHasher::default();
        l.hash(&mut h);
        h.finish()
    };
    let mut rng = Rng::new(0xe9a1);
    for _ in 0..300 {
        let built = rng.label(40, 64);
        let default = built.default_level();
        let spare = Category::from_raw(1 << 20);

        let mut reversed = Label::builder().default_level(default);
        for (c, l) in built.entries().collect::<Vec<_>>().into_iter().rev() {
            reversed = reversed.set(c, l);
        }
        let stepwise = built
            .entries()
            .fold(Label::new(default), |l, (c, lv)| l.with(c, lv));
        let decoded = built
            .entries()
            .map(|(c, l)| Category::unpack_with_level(c.pack_with_level(l.encode())))
            .fold(Label::builder().default_level(default), |b, (c, bits)| {
                b.set(c, Level::decode(bits).expect("level bits round-trip"))
            });
        let routes = [
            reversed.build(),
            stepwise,
            decoded.build(),
            built.with(spare, Level::L3).without(spare),
            built.lub(&built),
            built.glb(&built.clone()),
        ];
        for (i, other) in routes.iter().enumerate() {
            assert_eq!(other, &built, "route {i}");
            assert_eq!(hash_of(other), hash_of(&built), "route {i}");
        }

        // And a different function is a different label, whichever way it
        // differs: one more entry, one changed level, another default.
        let next =
            |l: Level| Level::ALL[(Level::ALL.iter().position(|&x| x == l).unwrap() + 1) % 5];
        let mut different = vec![built.with(spare, next(default))];
        if let Some((c, l)) = built.entries().next() {
            different.push(built.with(c, next(l)));
        }
        different.push(
            built
                .entries()
                .fold(
                    Label::builder().default_level(next(default)),
                    |b, (c, l)| b.set(c, l),
                )
                .build(),
        );
        for other in &different {
            assert_ne!(other, &built);
        }
    }
}
