//! Labels: total functions from categories to taint levels.
//!
//! A label maps every category to a level; all but a small number of
//! categories map to a *default* level (usually `1`).  We therefore store a
//! default level plus a sorted slice of `(category, level)` exceptions.
//! The paper's notation `{w0, r3, 1}` corresponds to
//! `Label::builder().set(w, L0).set(r, L3).default_level(L1).build()`.
//!
//! A `Label` is a handle: the exceptions live in one shared, immutable
//! allocation, so `clone()` is a reference-count bump (an `Rc`'s, not an
//! `Arc`'s: the simulator is single-threaded, and the kernel clones the
//! caller's label and clearance on every trap), and the structural
//! hash is computed once, when the label is built, so `Hash` is O(1) and
//! `Eq` rejects almost every unequal pair without reading the entries.
//! Every two-label operation is one linear merge of the two sorted slices.

use crate::category::Category;
use crate::error::LabelError;
use crate::level::{CheckLevel, Level};
use core::cmp::{max, Ordering};
use core::fmt;
use core::hash::{Hash, Hasher};
use histar_sim::SimHasher;
use std::rc::Rc;

type Entry = (Category, Level);

/// A label: a total function from [`Category`] to [`Level`].
///
/// Labels are immutable once built (matching the kernel, where object labels
/// are fixed at creation; only thread labels change, and they change by
/// replacement).  All lattice operations return new labels.
#[derive(Clone)]
pub struct Label {
    /// Default level for categories not listed in `entries`.
    default: Level,
    /// Hash of `default` and `entries`, fixed at construction.
    hash: u64,
    /// Non-default entries, sorted by category, with no entry equal to the
    /// default level (a normal form that makes `Eq`/`Hash` structural).
    /// `None` when there are none, so `{1}` costs no allocation.
    entries: Option<Rc<[Entry]>>,
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        let (a, b) = (self.slice(), other.slice());
        self.hash == other.hash && self.default == other.default && (core::ptr::eq(a, b) || a == b)
    }
}

impl Eq for Label {}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Label {
    /// The one constructor: `entries` must be sorted by category, without
    /// duplicates and without entries at the default level.
    fn from_sorted(default: Level, entries: Vec<Entry>) -> Label {
        Label::from_shared(default, (!entries.is_empty()).then(|| Rc::from(entries)))
    }

    /// [`Label::from_sorted`] for entries already shared (`None`, never an
    /// empty slice, when there are none).
    fn from_shared(default: Level, entries: Option<Rc<[Entry]>>) -> Label {
        let mut hash = SimHasher::default();
        hash.write_u64(default.encode().into());
        for &(c, l) in entries.as_deref().unwrap_or(&[]) {
            hash.write_u64(c.pack_with_level(l.encode()));
        }
        Label {
            default,
            hash: hash.finish(),
            entries,
        }
    }

    fn slice(&self) -> &[Entry] {
        match &self.entries {
            Some(entries) => entries,
            None => &[],
        }
    }

    /// Creates a label with the given default level and no exceptions.
    pub fn new(default: Level) -> Label {
        Label::from_sorted(default, Vec::new())
    }

    /// The conventional unrestricted label `{1}`.
    pub fn unrestricted() -> Label {
        Label::new(Level::L1)
    }

    /// The conventional default thread clearance `{2}`.
    pub fn default_clearance() -> Label {
        Label::new(Level::L2)
    }

    /// Starts building a label.
    pub fn builder() -> LabelBuilder {
        LabelBuilder {
            default: Level::L1,
            entries: Vec::new(),
        }
    }

    /// Returns the default level.
    pub fn default_level(&self) -> Level {
        self.default
    }

    /// Returns the level of `category` under this label.
    pub fn level(&self, category: Category) -> Level {
        let entries = self.slice();
        match entries.binary_search_by_key(&category, |e| e.0) {
            Ok(idx) => entries[idx].1,
            Err(_) => self.default,
        }
    }

    /// Returns the non-default `(category, level)` pairs in category order.
    pub fn entries(&self) -> impl Iterator<Item = (Category, Level)> + '_ {
        self.slice().iter().copied()
    }

    /// Number of non-default entries (the "size" of the label, which drives
    /// the cost of label operations in the kernel).
    pub fn len(&self) -> usize {
        self.slice().len()
    }

    /// Returns true if the label has no non-default entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_none()
    }

    /// Returns a copy of this label with `category` set to `level`: the
    /// same handle when that changes nothing, else one allocation, the
    /// entries before `category`, its new entry (none at the default
    /// level) and the entries after it copied straight into place.
    pub fn with(&self, category: Category, level: Level) -> Label {
        if self.level(category) == level {
            return self.clone();
        }
        let entries = self.slice();
        let (before, after) = match entries.binary_search_by_key(&category, |e| e.0) {
            Ok(idx) => (&entries[..idx], &entries[idx + 1..]),
            Err(idx) => entries.split_at(idx),
        };
        let set = (level != self.default).then_some((category, level));
        let len = before.len() + usize::from(set.is_some()) + after.len();
        // A chain of slices and an `Option` has a trusted length, so the
        // `Rc<[Entry]>` is allocated once at its final size.
        let shared = (len > 0).then(|| {
            before
                .iter()
                .copied()
                .chain(set)
                .chain(after.iter().copied())
                .collect()
        });
        Label::from_shared(self.default, shared)
    }

    /// Returns a copy of this label with `category` restored to the default.
    pub fn without(&self, category: Category) -> Label {
        self.with(category, self.default)
    }

    /// The categories this label owns (maps to `⋆`).
    pub fn owned_categories(&self) -> impl Iterator<Item = Category> + '_ {
        self.entries().filter(|(_, l)| l.is_star()).map(|(c, _)| c)
    }

    /// Returns true if this label owns (`⋆`) the given category.
    pub fn owns(&self, category: Category) -> bool {
        self.level(category).is_star()
    }

    /// Returns true if the label contains `⋆` anywhere.
    ///
    /// Only thread and gate labels may contain `⋆`; the kernel uses this to
    /// validate labels supplied for segments, containers, address spaces and
    /// devices.
    pub fn contains_star(&self) -> bool {
        self.default.is_star() || self.entries().any(|(_, l)| l.is_star())
    }

    // ----- Lattice operations (paper §2.2) -----------------------------

    /// Every category either label lists, in order, with both labels'
    /// levels there.
    fn merge<'a>(&'a self, other: &'a Label) -> Merge<'a> {
        Merge {
            l: self.slice(),
            r: other.slice(),
            default_l: self.default,
            default_r: other.default,
        }
    }

    /// The `⊑` ("can flow to") relation: `self ⊑ other` iff for every
    /// category `c`, `self(c) ≤ other(c)` under the order
    /// `⋆ < 0 < 1 < 2 < 3 < J`, with `⋆` in *both* labels treated low.
    pub fn leq(&self, other: &Label) -> bool {
        self.leq_mapped(other, Level::as_low, Level::as_low)
    }

    /// `self ⊑ other^J`, i.e. `⋆` in `other` treated as `J` (high).
    ///
    /// This is the form used by the kernel's observation check
    /// (`L_O ⊑ L_T^J`) and by most clearance rules.
    pub fn leq_high_rhs(&self, other: &Label) -> bool {
        self.leq_mapped(other, Level::as_low, Level::as_high)
    }

    /// `self^J ⊑ other^J` — both sides with ownership treated high.
    ///
    /// Used, for example, to decide whether one thread may read another
    /// thread's (mutable) label: `L_{T'}^J ⊑ L_T^J`.
    pub fn leq_high_both(&self, other: &Label) -> bool {
        self.leq_mapped(other, Level::as_high, Level::as_high)
    }

    fn leq_mapped(
        &self,
        other: &Label,
        map_l: impl Fn(Level) -> CheckLevel,
        map_r: impl Fn(Level) -> CheckLevel,
    ) -> bool {
        // Default-vs-default must also satisfy the order because the set of
        // categories is effectively unbounded.
        map_l(self.default) <= map_r(other.default)
            && self.merge(other).all(|(_, l, r)| map_l(l) <= map_r(r))
    }

    /// Least upper bound `self ⊔ other`: pointwise maximum level, with `⋆`
    /// treated low in both operands.
    pub fn lub(&self, other: &Label) -> Label {
        self.combine(other, |a, b| if a.as_low() >= b.as_low() { a } else { b })
    }

    /// Greatest lower bound `self ⊓ other`: pointwise minimum level, with
    /// `⋆` treated low in both operands.
    pub fn glb(&self, other: &Label) -> Label {
        self.combine(other, |a, b| if a.as_low() <= b.as_low() { a } else { b })
    }

    /// The label mapping every category `c` to `pick(self(c), other(c))`.
    fn combine(&self, other: &Label, pick: impl Fn(Level, Level) -> Level) -> Label {
        let default = pick(self.default, other.default);
        let mut entries = Vec::with_capacity(self.len() + other.len());
        entries.extend(
            self.merge(other)
                .map(|(c, a, b)| (c, pick(a, b)))
                .filter(|e| e.1 != default),
        );
        Label::from_sorted(default, entries)
    }

    /// The lowest label a thread labelled `self` must raise itself to in
    /// order to observe an object labelled `observed`:
    /// `(self^J ⊔ observed)^⋆` (paper §2.2).
    ///
    /// Ownership (`⋆`) in `self` is preserved in the result.
    pub fn raise_for_observe(&self, observed: &Label) -> Label {
        // Pointwise max where self's ⋆ counts as J (high), then J maps back
        // down to ⋆.
        self.combine(observed, |a, b| {
            max(a.as_high(), b.as_low()).lower_ownership().to_level()
        })
    }

    /// The ownership-preserving union `(self^J ⊔ other^J)^⋆`: pointwise
    /// maximum with ownership treated high in both operands, then mapped
    /// back to `⋆`.
    ///
    /// This is the *lowest* label a thread labelled `self` may request when
    /// entering a gate labelled `other` (§3.5): the thread keeps its own
    /// taint, gains the gate's taint, and the union of their ownership.
    pub fn ownership_union(&self, other: &Label) -> Label {
        self.combine(other, |a, b| {
            max(a.as_high(), b.as_high()).lower_ownership().to_level()
        })
    }

    // ----- Kernel access checks (paper §2.2) ----------------------------

    /// "No read up": a thread labelled `self` can observe an object labelled
    /// `object` iff `object ⊑ self^J`.
    pub fn can_observe(&self, object: &Label) -> bool {
        object.leq_high_rhs(self)
    }

    /// "No write down": a thread labelled `self` can modify an object
    /// labelled `object` (which in HiStar implies observing it) iff
    /// `self ⊑ object ⊑ self^J`.
    pub fn can_modify(&self, object: &Label) -> bool {
        self.leq(object) && object.leq_high_rhs(self)
    }

    /// Whether a thread labelled `self` with clearance `clearance` may
    /// allocate an object with label `object`: `self ⊑ object ⊑ clearance`.
    pub fn can_allocate(&self, clearance: &Label, object: &Label) -> Result<(), LabelError> {
        if !self.leq(object) {
            return Err(LabelError::AllocationBelowLabel);
        }
        if !object.leq(clearance) {
            return Err(LabelError::AllocationAboveClearance);
        }
        Ok(())
    }

    /// Validates a `self_set_label` transition from `self` (current thread
    /// label) to `new`, bounded by `clearance`: `self ⊑ new ⊑ clearance`.
    pub fn check_set_label(&self, clearance: &Label, new: &Label) -> Result<(), LabelError> {
        if !self.leq(new) {
            return Err(LabelError::LabelNotMonotonic);
        }
        if !new.leq(clearance) {
            return Err(LabelError::LabelExceedsClearance);
        }
        Ok(())
    }

    /// Validates a `self_set_clearance` transition: the new clearance `new`
    /// must satisfy `self ⊑ new ⊑ (clearance ⊔ self^J)`.
    ///
    /// A thread may lower its clearance in any category (not below its
    /// label) and may raise its clearance in categories it owns.
    pub fn check_set_clearance(&self, clearance: &Label, new: &Label) -> Result<(), LabelError> {
        if !self.leq(new) {
            return Err(LabelError::ClearanceBelowLabel);
        }
        // Where `self` owns a category any level is within bounds; write `⋆`
        // there, and what is left must fit under the ordinary join.
        let unowned = self.combine(new, |own, n| if own.is_star() { own } else { n });
        let ok = unowned.leq(&clearance.lub(self));
        if ok {
            Ok(())
        } else {
            Err(LabelError::ClearanceExceedsBound)
        }
    }

    /// Validates spawning a thread with label `child_label` and clearance
    /// `child_clearance` from a parent with `self` / `clearance`:
    /// `self ⊑ child_label ⊑ child_clearance ⊑ clearance`.
    pub fn check_spawn(
        &self,
        clearance: &Label,
        child_label: &Label,
        child_clearance: &Label,
    ) -> Result<(), LabelError> {
        if !self.leq(child_label) {
            return Err(LabelError::LabelNotMonotonic);
        }
        if !child_label.leq(child_clearance) {
            return Err(LabelError::ClearanceBelowLabel);
        }
        if !child_clearance.leq(clearance) {
            return Err(LabelError::LabelExceedsClearance);
        }
        Ok(())
    }

    /// Maps `⋆` entries (and a `⋆` default) to the given level, leaving
    /// numeric levels unchanged.  `label.drop_ownership(Level::L1)` is what
    /// a gate grants to a caller that only *verifies* categories.
    pub fn drop_ownership(&self, replacement: Level) -> Label {
        let lower = |l: Level| if l.is_star() { replacement } else { l };
        let default = lower(self.default);
        let entries = self
            .entries()
            .map(|(c, l)| (c, lower(l)))
            .filter(|e| e.1 != default)
            .collect();
        Label::from_sorted(default, entries)
    }

    /// Parses the paper's brace notation, e.g. `"{br *, v3, 1}"` given a
    /// resolver from names to categories.
    ///
    /// The final bare level is the default level.  Levels are `*`, `0`,
    /// `1`, `2`, `3`.  Whitespace is insignificant.
    pub fn parse<F>(text: &str, mut resolve: F) -> Result<Label, LabelError>
    where
        F: FnMut(&str) -> Option<Category>,
    {
        let t = text.trim();
        let inner = t
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| LabelError::Parse(format!("label must be braced: {text:?}")))?;
        let mut builder = Label::builder();
        let mut default: Option<Level> = None;
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // A bare level is the default.
            if let Some(level) = parse_level(part) {
                default = Some(level);
                continue;
            }
            // Otherwise it is "<name> <level>" or "<name><level>".
            let split_at = part
                .char_indices()
                .rev()
                .find(|(_, ch)| !ch.is_whitespace())
                .map(|(i, _)| i)
                .ok_or_else(|| LabelError::Parse(format!("bad label entry: {part:?}")))?;
            let (name_part, level_part) = part.split_at(split_at);
            let level = parse_level(level_part.trim())
                .ok_or_else(|| LabelError::Parse(format!("bad level in entry: {part:?}")))?;
            let name = name_part.trim();
            if name.is_empty() {
                return Err(LabelError::Parse(format!("missing category in: {part:?}")));
            }
            let cat = resolve(name)
                .ok_or_else(|| LabelError::Parse(format!("unknown category name: {name:?}")))?;
            builder = builder.set(cat, level);
        }
        let default = default
            .ok_or_else(|| LabelError::Parse(format!("label {text:?} has no default level")))?;
        Ok(builder.default_level(default).build())
    }

    /// Formats the label in the paper's notation using a naming function for
    /// categories (falling back to hex if it returns `None`).
    pub fn display_with<'a, F>(&'a self, name: F) -> LabelDisplay<'a, F>
    where
        F: Fn(Category) -> Option<String>,
    {
        LabelDisplay { label: self, name }
    }
}

fn parse_level(s: &str) -> Option<Level> {
    match s {
        "*" | "⋆" => Some(Level::Star),
        "0" => Some(Level::L0),
        "1" => Some(Level::L1),
        "2" => Some(Level::L2),
        "3" => Some(Level::L3),
        _ => None,
    }
}

/// Walks two category-sorted entry slices in step: yields every category
/// either one lists, once, in order, with the level each side gives it (its
/// default where it lists nothing).
struct Merge<'a> {
    l: &'a [Entry],
    r: &'a [Entry],
    default_l: Level,
    default_r: Level,
}

impl Iterator for Merge<'_> {
    type Item = (Category, Level, Level);

    fn next(&mut self) -> Option<(Category, Level, Level)> {
        let order = match (self.l.first(), self.r.first()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(l), Some(r)) => l.0.cmp(&r.0),
        };
        // Advance whichever side holds the smaller category (both on a tie).
        let take = |side: &mut &[Entry]| {
            let (&first, rest) = side.split_first()?;
            *side = rest;
            Some(first)
        };
        let l = if order.is_le() {
            take(&mut self.l)
        } else {
            None
        };
        let r = if order.is_ge() {
            take(&mut self.r)
        } else {
            None
        };
        let category = l.or(r)?.0;
        Some((
            category,
            l.map_or(self.default_l, |e| e.1),
            r.map_or(self.default_r, |e| e.1),
        ))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (c, l) in self.entries() {
            write!(f, "{c} {l}, ")?;
        }
        write!(f, "{}}}", self.default)
    }
}

/// Helper returned by [`Label::display_with`] for pretty-printing labels
/// with human-readable category names.
pub struct LabelDisplay<'a, F> {
    label: &'a Label,
    name: F,
}

impl<F> fmt::Display for LabelDisplay<'_, F>
where
    F: Fn(Category) -> Option<String>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (c, l) in self.label.entries() {
            match (self.name)(c) {
                Some(n) => write!(f, "{n} {l}, ")?,
                None => write!(f, "{c} {l}, ")?,
            }
        }
        write!(f, "{}}}", self.label.default_level())
    }
}

/// Builder for [`Label`]s.
#[derive(Clone, Debug)]
pub struct LabelBuilder {
    default: Level,
    entries: Vec<Entry>,
}

impl LabelBuilder {
    /// Sets the default level (initially `1`).
    pub fn default_level(mut self, level: Level) -> LabelBuilder {
        self.default = level;
        self
    }

    /// Sets the level of a category (overwriting any previous setting).
    pub fn set(mut self, category: Category, level: Level) -> LabelBuilder {
        match self.entries.binary_search_by_key(&category, |e| e.0) {
            Ok(idx) => self.entries[idx].1 = level,
            Err(idx) => self.entries.insert(idx, (category, level)),
        }
        self
    }

    /// Grants ownership (`⋆`) of a category.
    pub fn own(self, category: Category) -> LabelBuilder {
        self.set(category, Level::Star)
    }

    /// Finishes building, normalizing away entries equal to the default.
    pub fn build(mut self) -> Label {
        let default = self.default;
        self.entries.retain(|e| e.1 != default);
        Label::from_sorted(default, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> Category {
        Category::from_raw(n)
    }

    fn lbl(entries: &[(u64, Level)], default: Level) -> Label {
        let mut b = Label::builder().default_level(default);
        for &(cat, lvl) in entries {
            b = b.set(c(cat), lvl);
        }
        b.build()
    }

    #[test]
    fn level_lookup_uses_default() {
        let l = lbl(&[(1, Level::L0), (2, Level::L3)], Level::L1);
        assert_eq!(l.level(c(1)), Level::L0);
        assert_eq!(l.level(c(2)), Level::L3);
        assert_eq!(l.level(c(99)), Level::L1);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn normalization_drops_default_entries() {
        let l = lbl(&[(1, Level::L1), (2, Level::L3)], Level::L1);
        assert_eq!(l.len(), 1);
        assert_eq!(l, lbl(&[(2, Level::L3)], Level::L1));
    }

    #[test]
    fn paper_example_label_function() {
        // L = {w0, r3, 1}
        let w = c(10);
        let r = c(20);
        let l = lbl(&[(10, Level::L0), (20, Level::L3)], Level::L1);
        assert_eq!(l.level(w), Level::L0);
        assert_eq!(l.level(r), Level::L3);
        assert_eq!(l.level(c(30)), Level::L1);
    }

    #[test]
    fn paper_read_restriction() {
        // Thread {1} cannot read object {c3, 1}.
        let thread = Label::unrestricted();
        let object = lbl(&[(1, Level::L3)], Level::L1);
        assert!(!thread.can_observe(&object));
        // An object at {c2, 1} is also above the thread, so it cannot be
        // observed without the thread first tainting itself.
        let object2 = lbl(&[(1, Level::L2)], Level::L1);
        assert!(!thread.can_observe(&object2));
    }

    #[test]
    fn paper_write_restriction() {
        // Thread {1} cannot write object {c0, 1}.
        let thread = Label::unrestricted();
        let object = lbl(&[(1, Level::L0)], Level::L1);
        assert!(!thread.can_modify(&object));
        // But it can observe it: {c0,1} ⊑ {1}^J holds since 0 ≤ 1.
        assert!(thread.can_observe(&object));
    }

    #[test]
    fn ownership_bypasses_restrictions() {
        let br = c(1);
        let bw = c(2);
        // Bob's data: {br3, bw0, 1}
        let data = lbl(&[(1, Level::L3), (2, Level::L0)], Level::L1);
        // Bob's shell owns br and bw.
        let shell = lbl(&[(1, Level::Star), (2, Level::Star)], Level::L1);
        assert!(shell.can_observe(&data));
        assert!(shell.can_modify(&data));
        assert!(shell.owns(br));
        assert!(shell.owns(bw));
        // The update daemon, {1}, can do neither.
        let daemon = Label::unrestricted();
        assert!(!daemon.can_observe(&data));
        assert!(!daemon.can_modify(&data));
    }

    #[test]
    fn leq_is_reflexive_and_antisymmetric_on_samples() {
        let a = lbl(&[(1, Level::L3)], Level::L1);
        let b = lbl(&[(1, Level::L3), (2, Level::L2)], Level::L1);
        assert!(a.leq(&a));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn leq_considers_defaults() {
        let low = Label::new(Level::L0);
        let high = Label::new(Level::L3);
        assert!(low.leq(&high));
        assert!(!high.leq(&low));
        // A label with default 2 is not ⊑ a label with default 1 even if no
        // entries are present.
        assert!(!Label::new(Level::L2).leq(&Label::unrestricted()));
    }

    #[test]
    fn lub_is_pointwise_max() {
        let a = lbl(&[(1, Level::L3), (2, Level::L0)], Level::L1);
        let b = lbl(&[(1, Level::L0), (3, Level::L2)], Level::L1);
        let j = a.lub(&b);
        assert_eq!(j.level(c(1)), Level::L3);
        assert_eq!(j.level(c(2)), Level::L1); // max(0, default 1) = 1
        assert_eq!(j.level(c(3)), Level::L2);
        assert_eq!(j.default_level(), Level::L1);
        // The lub is an upper bound of both operands.
        assert!(a.leq(&j));
        assert!(b.leq(&j));
    }

    #[test]
    fn glb_is_pointwise_min() {
        let a = lbl(&[(1, Level::L3)], Level::L1);
        let b = lbl(&[(1, Level::L0)], Level::L1);
        let m = a.glb(&b);
        assert_eq!(m.level(c(1)), Level::L0);
        assert!(m.leq(&a));
        assert!(m.leq(&b));
    }

    #[test]
    fn raise_for_observe_matches_formula() {
        // Thread {1} observing {c3, 1} must become {c3, 1}.
        let t = Label::unrestricted();
        let o = lbl(&[(1, Level::L3)], Level::L1);
        let raised = t.raise_for_observe(&o);
        assert_eq!(raised, o);
        assert!(raised.can_observe(&o));
        assert!(t.leq(&raised));
    }

    #[test]
    fn raise_for_observe_preserves_ownership() {
        // A thread owning c observing an object tainted c3 stays at ⋆.
        let t = lbl(&[(1, Level::Star)], Level::L1);
        let o = lbl(&[(1, Level::L3)], Level::L1);
        let raised = t.raise_for_observe(&o);
        assert_eq!(raised.level(c(1)), Level::Star);
        // And observing something tainted in another category adds taint.
        let o2 = lbl(&[(2, Level::L3)], Level::L1);
        let raised2 = t.raise_for_observe(&o2);
        assert_eq!(raised2.level(c(1)), Level::Star);
        assert_eq!(raised2.level(c(2)), Level::L3);
    }

    #[test]
    fn can_allocate_enforces_range() {
        let t = Label::unrestricted();
        let cl = Label::default_clearance();
        assert!(t.can_allocate(&cl, &Label::unrestricted()).is_ok());
        assert!(t
            .can_allocate(&cl, &lbl(&[(1, Level::L2)], Level::L1))
            .is_ok());
        // Above clearance: level 3 > clearance 2.
        assert_eq!(
            t.can_allocate(&cl, &lbl(&[(1, Level::L3)], Level::L1)),
            Err(LabelError::AllocationAboveClearance)
        );
        // Below own label: level 0 < 1 requires ownership.
        assert_eq!(
            t.can_allocate(&cl, &lbl(&[(1, Level::L0)], Level::L1)),
            Err(LabelError::AllocationBelowLabel)
        );
        // ...but an owner can allocate below the default.
        let owner = lbl(&[(1, Level::Star)], Level::L1);
        assert!(owner
            .can_allocate(&cl, &lbl(&[(1, Level::L0)], Level::L1))
            .is_ok());
    }

    #[test]
    fn clearance_update_rules() {
        let t = Label::unrestricted();
        let cl = Label::default_clearance();
        // Can lower clearance to {1} (not below label).
        assert!(t.check_set_clearance(&cl, &Label::unrestricted()).is_ok());
        // Cannot lower below label.
        assert!(t.check_set_clearance(&cl, &Label::new(Level::L0)).is_err());
        // Cannot raise clearance in a category it does not own.
        assert!(t
            .check_set_clearance(&cl, &lbl(&[(1, Level::L3)], Level::L2))
            .is_err());
        // Can raise clearance in an owned category (create_category sets
        // clearance to 3 in the new category).
        let owner = lbl(&[(1, Level::Star)], Level::L1);
        assert!(owner
            .check_set_clearance(&cl, &lbl(&[(1, Level::L3)], Level::L2))
            .is_ok());
    }

    #[test]
    fn set_label_rules() {
        let t = Label::unrestricted();
        let cl = Label::default_clearance();
        // Raising taint within clearance is allowed.
        assert!(t
            .check_set_label(&cl, &lbl(&[(1, Level::L2)], Level::L1))
            .is_ok());
        // Raising above clearance is not.
        assert!(t
            .check_set_label(&cl, &lbl(&[(1, Level::L3)], Level::L1))
            .is_err());
        // Lowering (untainting) without ownership is not.
        assert!(t
            .check_set_label(&cl, &lbl(&[(1, Level::L0)], Level::L1))
            .is_err());
        // An owner may drop its own ⋆ (e.g. to become tainted): ⋆ ⊑ 3.
        let owner = lbl(&[(1, Level::Star)], Level::L1);
        assert!(owner
            .check_set_label(&Label::new(Level::L3), &lbl(&[(1, Level::L3)], Level::L1))
            .is_ok());
    }

    #[test]
    fn spawn_rules() {
        let t = lbl(&[(1, Level::Star)], Level::L1);
        let cl = lbl(&[(1, Level::L3)], Level::L2);
        // Child inherits label/clearance within range.
        assert!(t.check_spawn(&cl, &t, &cl).is_ok());
        // Child clearance above parent clearance is rejected.
        assert!(t
            .check_spawn(&cl, &t, &lbl(&[(2, Level::L3)], Level::L2))
            .is_err());
        // Child label below parent label is rejected.
        let below = lbl(&[(2, Level::L0)], Level::L1);
        assert!(Label::unrestricted()
            .check_spawn(
                &Label::default_clearance(),
                &below,
                &Label::default_clearance()
            )
            .is_err());
    }

    #[test]
    fn ownership_union_for_gate_entry() {
        // Thread {pr⋆, pw⋆, 1} entering a gate {dr⋆, dw⋆, 1}: the floor is
        // {pr⋆, pw⋆, dr⋆, dw⋆, 1} — ownership from both sides survives.
        let t = lbl(&[(1, Level::Star), (2, Level::Star)], Level::L1);
        let g = lbl(&[(3, Level::Star), (4, Level::Star)], Level::L1);
        let floor = t.ownership_union(&g);
        for cat in 1..=4 {
            assert_eq!(floor.level(c(cat)), Level::Star);
        }
        // Taint from either side also survives (max of numeric levels).
        let tainted_gate = lbl(&[(5, Level::L3)], Level::L1);
        let floor2 = t.ownership_union(&tainted_gate);
        assert_eq!(floor2.level(c(5)), Level::L3);
        assert_eq!(floor2.level(c(1)), Level::Star);
    }

    #[test]
    fn drop_ownership_replaces_star() {
        let l = lbl(&[(1, Level::Star), (2, Level::L3)], Level::L1);
        let d = l.drop_ownership(Level::L1);
        assert_eq!(d.level(c(1)), Level::L1);
        assert_eq!(d.level(c(2)), Level::L3);
        assert!(!d.contains_star());
    }

    #[test]
    fn parse_and_display_round_trip() {
        let resolve = |name: &str| match name {
            "br" => Some(c(1)),
            "bw" => Some(c(2)),
            "v" => Some(c(3)),
            _ => None,
        };
        let l = Label::parse("{br *, bw 0, v3, 1}", resolve).unwrap();
        assert_eq!(l.level(c(1)), Level::Star);
        assert_eq!(l.level(c(2)), Level::L0);
        assert_eq!(l.level(c(3)), Level::L3);
        assert_eq!(l.default_level(), Level::L1);

        let named = l
            .display_with(|cat| match cat.raw() {
                1 => Some("br".to_string()),
                2 => Some("bw".to_string()),
                3 => Some("v".to_string()),
                _ => None,
            })
            .to_string();
        assert_eq!(named, "{br *, bw 0, v 3, 1}");

        assert!(Label::parse("{nodefault}", resolve).is_err());
        assert!(Label::parse("br 3, 1", resolve).is_err());
        assert!(Label::parse("{zz 3, 1}", resolve).is_err());
    }

    #[test]
    fn with_and_without() {
        let l = Label::unrestricted().with(c(5), Level::L3);
        assert_eq!(l.level(c(5)), Level::L3);
        let l2 = l.without(c(5));
        assert_eq!(l2, Label::unrestricted());
    }

    /// `with` builds what the builder builds, for the category present or
    /// absent and the new level the default, the one it has, or another;
    /// a `with` that changes nothing hands back the same entries.
    #[test]
    fn with_agrees_with_the_builder() {
        let base = [(2, Level::L0), (5, Level::Star), (9, Level::L3)];
        for default in [Level::L1, Level::L2] {
            let l = lbl(&base, default);
            for cat in [1, 2, 5, 7, 9, 12] {
                for level in [default, l.level(c(cat)), Level::L0, Level::L3, Level::Star] {
                    let mut b = Label::builder().default_level(default);
                    for &(k, v) in &base {
                        b = b.set(c(k), v);
                    }
                    let want = b.set(c(cat), level).build();
                    let got = l.with(c(cat), level);
                    assert_eq!(got, want, "{l} with c{cat} at {level:?}");
                    assert_eq!(
                        got.entries().collect::<Vec<_>>(),
                        want.entries().collect::<Vec<_>>()
                    );
                    if level == l.level(c(cat)) {
                        assert!(core::ptr::eq(got.slice(), l.slice()));
                    }
                }
            }
        }
        let one = lbl(&[(4, Level::L3)], Level::L1);
        assert!(one.without(c(4)).is_empty(), "the last entry removed");
        assert_eq!(one.without(c(4)), Label::unrestricted());
    }

    #[test]
    fn owned_categories_iterator() {
        let l = lbl(
            &[(1, Level::Star), (2, Level::L3), (3, Level::Star)],
            Level::L1,
        );
        let owned: Vec<u64> = l.owned_categories().map(|c| c.raw()).collect();
        assert_eq!(owned, vec![1, 3]);
    }

    #[test]
    fn clamav_figure4_scenario() {
        // Categories: br (Bob read), bw (Bob write), v (scanner isolation).
        let br = 1;
        let bw = 2;
        let v = 3;
        let user_data = lbl(&[(bw, Level::L0), (br, Level::L3)], Level::L1);
        let wrap = lbl(&[(br, Level::Star), (v, Level::Star)], Level::L1);
        let scanner = lbl(&[(br, Level::L3), (v, Level::L3)], Level::L1);
        let private_tmp = lbl(&[(br, Level::Star), (v, Level::L3)], Level::L1);
        let update_daemon = Label::unrestricted();
        let network = Label::unrestricted();

        // wrap can read user data and relay results to the TTY.
        assert!(wrap.can_observe(&user_data));
        // The tainted scanner can read user data (it is tainted br3)...
        assert!(scanner.can_observe(&user_data));
        // ...and can observe its private /tmp...
        assert!(scanner.can_observe(&private_tmp));
        // ...but cannot convey information to the network or update daemon:
        // scanner ⊑ network fails because v3 > v1.
        assert!(!scanner.leq(&network));
        assert!(!scanner.leq(&update_daemon));
        // The update daemon cannot read user data.
        assert!(!update_daemon.can_observe(&user_data));
        // wrap, owning v, may receive (observe) the scanner's output.
        let scanner_output = lbl(&[(v, Level::L3)], Level::L1);
        assert!(wrap.can_observe(&scanner_output));
        // The network cannot.
        assert!(!network.can_observe(&scanner_output));
    }
}
