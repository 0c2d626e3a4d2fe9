//! Per-node local histories.
//!
//! A [`History`] is the vector `H_v[0 .. i-1]` of the paper: entry `r` is
//! what node `v` perceived in its local round `r` (entry 0 describes the
//! wake-up). The DRIP of a node at local round `i` is a function of exactly
//! this vector, so histories are the *only* information the engine ever
//! exposes to an algorithm.
//!
//! Two forms exist:
//!
//! * [`History`] — owned, growable; what executions return and tests
//!   construct.
//! * [`HistoryView`] — a borrowed, `Copy` read-only view. The engine's hot
//!   loop keeps one [`History`] per node and hands DRIPs views of it, so
//!   deciding a round allocates nothing; nodes that keep no history get
//!   an all-silence view of the right length. Every read accessor exists
//!   on both forms (the owned form delegates to its view).

use std::fmt;
use std::ops::Index;

use crate::msg::{Msg, Obs};

/// A node's local history: `self[r]` is the observation of local round `r`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct History {
    entries: Vec<Obs>,
}

impl History {
    /// Empty history (before wake-up).
    pub fn new() -> History {
        History {
            entries: Vec::new(),
        }
    }

    /// History from explicit entries (tests, decision functions).
    pub fn from_entries(entries: Vec<Obs>) -> History {
        History { entries }
    }

    /// Borrowed read-only view of the whole history.
    #[inline]
    pub fn view(&self) -> HistoryView<'_> {
        HistoryView::new(&self.entries)
    }

    /// Number of recorded rounds. When the engine asks a DRIP for the action
    /// of local round `i`, `len() == i` (entries `0..=i-1` are present).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before wake-up.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an observation. Used by the engine while recording, and by
    /// tools that synthesize histories round-by-round (e.g. the
    /// silence-probing adversary of Proposition 4.4).
    #[inline]
    pub fn push(&mut self, obs: Obs) {
        self.entries.push(obs);
    }

    /// Pads with `(∅)` entries up to length `len` (a no-op when the
    /// history is already that long): how the engine records, in one go,
    /// the silent rounds a node spent unvisited.
    #[inline]
    pub(crate) fn pad_to(&mut self, len: usize) {
        if len > self.entries.len() {
            self.entries.resize(len, Obs::Silence);
        }
    }

    /// All entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Obs] {
        &self.entries
    }

    /// Entry accessor returning `None` out of range.
    #[inline]
    pub fn get(&self, r: usize) -> Option<Obs> {
        self.entries.get(r).copied()
    }

    /// Iterator over `(local_round, Obs)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Obs)> + '_ {
        self.entries.iter().copied().enumerate()
    }

    /// The local round of the first non-silent entry, if any.
    pub fn first_nonsilent(&self) -> Option<usize> {
        self.view().first_nonsilent()
    }

    /// The local round of the first received message, if any (the paper's
    /// `rcv_w`). Collisions do not count.
    pub fn first_message(&self) -> Option<usize> {
        self.view().first_message()
    }

    /// The message received in local round `r`, if entry `r` is `Heard`.
    pub fn message_at(&self, r: usize) -> Option<Msg> {
        self.view().message_at(r)
    }

    /// True when every entry is silence — the "no information ever" state
    /// the impossibility proofs revolve around.
    pub fn all_silent(&self) -> bool {
        self.view().all_silent()
    }

    /// Sub-history `H[from .. from+len]` as a fresh `History` (used by the
    /// patient transform, which replays a suffix into an inner DRIP).
    pub fn window(&self, from: usize, len: usize) -> History {
        History {
            entries: self.entries[from..from + len].to_vec(),
        }
    }

    /// Compact single-line rendering, e.g. `[∅ ∅ '1' ∗ ∅]`.
    pub fn render(&self) -> String {
        self.view().render()
    }
}

impl Index<usize> for History {
    type Output = Obs;

    fn index(&self, r: usize) -> &Obs {
        &self.entries[r]
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a Obs;
    type IntoIter = std::slice::Iter<'a, Obs>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// A borrowed read-only history — what the engine hands a DRIP each round.
///
/// `Copy`-cheap. Mirrors every read accessor of [`History`];
/// [`HistoryView::to_history`] materializes an owned copy when one is
/// needed.
///
/// Two backing representations exist, indistinguishable through the
/// accessors:
///
/// * **dense** — a fat pointer into a contiguous `[Obs]` run (an owned
///   [`History`], such as the one the engine keeps per node);
/// * **silent** — a length and nothing else: every entry reads as `(∅)`.
///   The engine stores no history for nodes whose
///   [`DripNodes::READS_HISTORY`](crate::drip::DripNodes::READS_HISTORY)
///   is `false`, so their views are this form.
///
/// The one dense-only accessor is [`HistoryView::as_slice`], which
/// panics on a silent view — code meant to run without stored histories
/// must read through `get`/`iter`/the query methods.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    repr: Repr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Dense(&'a [Obs]),
    /// `len` rounds, every one of them `(∅)`.
    Silent(usize),
}

/// The `&Obs` the silent `Index` impl returns.
static SILENCE: Obs = Obs::Silence;

impl<'a> HistoryView<'a> {
    /// Dense view over raw entries.
    #[inline]
    pub fn new(entries: &'a [Obs]) -> HistoryView<'a> {
        HistoryView {
            repr: Repr::Dense(entries),
        }
    }

    /// All-silence view of `len` rounds. Only the engine constructs these,
    /// for nodes that keep no stored history: in global round `r` a
    /// node's history has `r − wake` rounds, so `len` needs no per-node
    /// counter.
    #[inline]
    pub(crate) fn silent(len: usize) -> HistoryView<'a> {
        HistoryView {
            repr: Repr::Silent(len),
        }
    }

    /// Number of recorded rounds (see [`History::len`]).
    #[inline]
    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Dense(entries) => entries.len(),
            Repr::Silent(len) => len,
        }
    }

    /// True before wake-up.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries as a contiguous slice.
    ///
    /// # Panics
    /// Panics on a silent view (no entries are stored — no contiguous
    /// run exists). Use `get`/`iter` or [`HistoryView::to_history`].
    #[inline]
    pub fn as_slice(&self) -> &'a [Obs] {
        match self.repr {
            Repr::Dense(entries) => entries,
            Repr::Silent(_) => {
                panic!("HistoryView::as_slice on a silent view; use get()/iter()/to_history()")
            }
        }
    }

    /// Entry accessor returning `None` out of range.
    #[inline]
    pub fn get(&self, r: usize) -> Option<Obs> {
        match self.repr {
            Repr::Dense(entries) => entries.get(r).copied(),
            Repr::Silent(len) => (r < len).then_some(Obs::Silence),
        }
    }

    /// Iterator over `(local_round, Obs)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Obs)> + 'a {
        let me = *self;
        (0..me.len()).map(move |r| (r, me.get(r).expect("r < len")))
    }

    /// The local round of the first non-silent entry, if any.
    pub fn first_nonsilent(&self) -> Option<usize> {
        match self.repr {
            Repr::Dense(entries) => entries.iter().position(|o| !o.is_silence()),
            Repr::Silent(_) => None,
        }
    }

    /// The local round of the first received message, if any (the paper's
    /// `rcv_w`). Collisions do not count.
    pub fn first_message(&self) -> Option<usize> {
        match self.repr {
            Repr::Dense(entries) => entries.iter().position(|o| o.is_message()),
            Repr::Silent(_) => None,
        }
    }

    /// The message received in local round `r`, if entry `r` is `Heard`.
    pub fn message_at(&self, r: usize) -> Option<Msg> {
        match self.get(r) {
            Some(Obs::Heard(m)) => Some(m),
            _ => None,
        }
    }

    /// True when every entry is silence.
    pub fn all_silent(&self) -> bool {
        match self.repr {
            Repr::Dense(entries) => entries.iter().all(|o| o.is_silence()),
            Repr::Silent(_) => true,
        }
    }

    /// Sub-view `H[from .. from+len]` — no allocation.
    pub fn window(&self, from: usize, len: usize) -> HistoryView<'a> {
        match self.repr {
            Repr::Dense(entries) => HistoryView::new(&entries[from..from + len]),
            Repr::Silent(total) => {
                assert!(from + len <= total, "window out of range");
                HistoryView::silent(len)
            }
        }
    }

    /// Materializes an owned [`History`].
    pub fn to_history(&self) -> History {
        let entries = match self.repr {
            Repr::Dense(entries) => entries.to_vec(),
            Repr::Silent(len) => vec![Obs::Silence; len],
        };
        History { entries }
    }

    /// Compact single-line rendering, e.g. `[∅ ∅ '1' ∗ ∅]`.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self
            .iter()
            .map(|(_, o)| match o {
                Obs::Silence => "∅".to_string(),
                Obs::Heard(m) => format!("'{}'", m.0),
                Obs::Collision => "∗".to_string(),
                Obs::Noise => "~".to_string(),
            })
            .collect();
        format!("[{}]", cells.join(" "))
    }
}

/// Equality is semantic — a dense view and a silent view of the same
/// history compare equal regardless of representation.
impl PartialEq for HistoryView<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            _ => {
                self.len() == other.len()
                    && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
            }
        }
    }
}

impl Eq for HistoryView<'_> {}

/// Hashes the full logical entry sequence (length-prefixed), so equal
/// views hash equally across representations.
impl std::hash::Hash for HistoryView<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for (_, o) in self.iter() {
            o.hash(state);
        }
    }
}

impl Index<usize> for HistoryView<'_> {
    type Output = Obs;

    fn index(&self, r: usize) -> &Obs {
        match self.repr {
            Repr::Dense(entries) => &entries[r],
            Repr::Silent(len) => {
                assert!(r < len, "index {r} out of range (len {len})");
                &SILENCE
            }
        }
    }
}

impl fmt::Display for HistoryView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl<'a> From<&'a History> for HistoryView<'a> {
    fn from(h: &'a History) -> HistoryView<'a> {
        h.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> History {
        History::from_entries(vec![
            Obs::Silence,
            Obs::Silence,
            Obs::Heard(Msg(9)),
            Obs::Collision,
            Obs::Silence,
        ])
    }

    #[test]
    fn len_and_index() {
        let h = sample();
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h[2], Obs::Heard(Msg(9)));
        assert_eq!(h.get(4), Some(Obs::Silence));
        assert_eq!(h.get(5), None);
    }

    #[test]
    fn first_positions() {
        let h = sample();
        assert_eq!(h.first_nonsilent(), Some(2));
        assert_eq!(h.first_message(), Some(2));
        assert_eq!(h.message_at(2), Some(Msg(9)));
        assert_eq!(h.message_at(3), None);
        let all = History::from_entries(vec![Obs::Silence; 3]);
        assert!(all.all_silent());
        assert_eq!(all.first_message(), None);
        // collision before any message: first_nonsilent differs from
        // first_message
        let h2 = History::from_entries(vec![Obs::Silence, Obs::Collision, Obs::Heard(Msg(1))]);
        assert_eq!(h2.first_nonsilent(), Some(1));
        assert_eq!(h2.first_message(), Some(2));
    }

    #[test]
    fn pad_to_appends_silence_up_to_the_length() {
        let mut h = History::from_entries(vec![Obs::Heard(Msg(4))]);
        h.pad_to(4);
        assert_eq!(
            h.as_slice(),
            &[Obs::Heard(Msg(4)), Obs::Silence, Obs::Silence, Obs::Silence]
        );
        // Already that long, or longer: nothing changes.
        h.push(Obs::Collision);
        let before = h.clone();
        h.pad_to(5);
        assert_eq!(h, before);
        h.pad_to(2);
        assert_eq!(h, before);
        let mut empty = History::new();
        empty.pad_to(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn window_extracts_suffix() {
        let h = sample();
        let w = h.window(2, 3);
        assert_eq!(
            w.as_slice(),
            &[Obs::Heard(Msg(9)), Obs::Collision, Obs::Silence]
        );
    }

    #[test]
    fn render_is_compact() {
        assert_eq!(sample().render(), "[∅ ∅ '9' ∗ ∅]");
        assert_eq!(History::new().render(), "[]");
        let noisy = History::from_entries(vec![Obs::Noise]);
        assert_eq!(noisy.render(), "[~]");
    }

    #[test]
    fn equality_and_hash_are_structural() {
        let mut set = radio_util::FxHashSet::default();
        set.insert(sample());
        assert!(set.contains(&sample()));
        assert!(!set.contains(&History::new()));
    }

    #[test]
    fn view_mirrors_owned_accessors() {
        let h = sample();
        let v = h.view();
        assert_eq!(v.len(), h.len());
        assert_eq!(v.get(2), h.get(2));
        assert_eq!(v[3], h[3]);
        assert_eq!(v.first_message(), h.first_message());
        assert_eq!(v.first_nonsilent(), h.first_nonsilent());
        assert_eq!(v.message_at(2), h.message_at(2));
        assert_eq!(v.all_silent(), h.all_silent());
        assert_eq!(v.render(), h.render());
        assert_eq!(v.window(1, 3).as_slice(), h.window(1, 3).as_slice());
        assert_eq!(v.to_history(), h);
        let collected: Vec<(usize, Obs)> = v.iter().collect();
        assert_eq!(collected.len(), 5);
    }

    #[test]
    fn view_window_is_zero_copy_subslice() {
        let h = sample();
        let v = h.view().window(2, 2);
        assert_eq!(v.as_slice(), &[Obs::Heard(Msg(9)), Obs::Collision]);
        assert_eq!(HistoryView::from(&h).len(), 5);
    }
}
