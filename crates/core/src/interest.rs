//! User interests — the raw material of dynamic group discovery.
//!
//! "The major factors involving in the formation of the social networks are
//! interest ..." (thesis §3.1). An [`Interest`] is a user-entered label; the
//! type normalizes it (trimming, lowercasing, whitespace collapsing) so that
//! `"England Football"` and `" england  football "` name the same interest,
//! while preserving the text the user typed for display.
//!
//! Whether *differently named* interests (e.g. `biking` / `cycling`) count
//! as the same is the business of [`crate::semantics`].

use codec::{decode_seq, DecodeError, Wire};
use std::collections::BTreeMap;
use std::fmt;

/// One user interest, normalized for matching but remembering its display
/// form.
///
/// # Example
///
/// ```rust
/// use ph_community::interest::Interest;
///
/// let a = Interest::new(" England  Football ");
/// let b = Interest::new("england football");
/// assert_eq!(a, b);                     // identity is the normalized key
/// assert_eq!(a.key(), "england football");
/// assert_eq!(a.display(), "England Football");
/// ```
#[derive(Clone, Debug)]
pub struct Interest {
    display: String,
    key: String,
}

impl Interest {
    /// Creates an interest from user input.
    pub fn new(text: impl AsRef<str>) -> Self {
        let display = text
            .as_ref()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        let key = display.to_lowercase();
        Interest { display, key }
    }

    /// The normalized matching key (lowercase, single-spaced).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The human-readable form (first writer's capitalization).
    pub fn display(&self) -> &str {
        &self.display
    }

    /// Whether the user typed only whitespace.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }
}

impl PartialEq for Interest {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Interest {}

impl PartialOrd for Interest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Interest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl std::hash::Hash for Interest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl fmt::Display for Interest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display)
    }
}

impl From<&str> for Interest {
    fn from(s: &str) -> Self {
        Interest::new(s)
    }
}

impl From<String> for Interest {
    fn from(s: String) -> Self {
        Interest::new(s)
    }
}

/// An ordered, duplicate-free set of interests belonging to one profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InterestSet {
    // Keyed by normalized key; value is the full Interest (with display).
    items: BTreeMap<String, Interest>,
}

impl InterestSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        InterestSet::default()
    }

    /// Adds an interest; returns `false` if it was already present (by
    /// normalized key) or empty.
    pub fn add(&mut self, interest: impl Into<Interest>) -> bool {
        let interest = interest.into();
        if interest.is_empty() {
            return false;
        }
        match self.items.entry(interest.key().to_owned()) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(interest);
                true
            }
        }
    }

    /// Removes an interest by any spelling; returns whether it was present.
    pub fn remove(&mut self, interest: impl Into<Interest>) -> bool {
        self.items.remove(interest.into().key()).is_some()
    }

    /// Whether an interest (by normalized key) is present.
    pub fn contains(&self, interest: &Interest) -> bool {
        self.items.contains_key(interest.key())
    }

    /// Iterates interests in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Interest> + Clone {
        self.items.values()
    }

    /// Number of interests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Snapshot as a vector.
    pub fn to_vec(&self) -> Vec<Interest> {
        self.items.values().cloned().collect()
    }
}

impl FromIterator<Interest> for InterestSet {
    fn from_iter<T: IntoIterator<Item = Interest>>(iter: T) -> Self {
        let mut set = InterestSet::new();
        for i in iter {
            set.add(i);
        }
        set
    }
}

impl<'a> FromIterator<&'a str> for InterestSet {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        iter.into_iter().map(Interest::new).collect()
    }
}

impl Extend<Interest> for InterestSet {
    fn extend<T: IntoIterator<Item = Interest>>(&mut self, iter: T) {
        for i in iter {
            self.add(i);
        }
    }
}

impl Wire for Interest {
    // Only the display form travels; the matching key is derived on decode,
    // which keeps the display/key invariant true by construction.
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.display.encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Interest::new(String::decode(input)?))
    }
}

impl Wire for InterestSet {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.items.len() as u32).encode_to(out);
        for i in self.items.values() {
            i.encode_to(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(decode_seq::<Interest>(input)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_and_case() {
        let i = Interest::new("  ICE   Hockey ");
        assert_eq!(i.key(), "ice hockey");
        assert_eq!(i.display(), "ICE Hockey");
        assert_eq!(i.to_string(), "ICE Hockey");
    }

    #[test]
    fn equality_ignores_display_form() {
        assert_eq!(Interest::new("Biking"), Interest::new("bIKING"));
        assert_ne!(Interest::new("biking"), Interest::new("cycling"));
    }

    #[test]
    fn empty_input_detected() {
        assert!(Interest::new("   ").is_empty());
        assert!(!Interest::new("x").is_empty());
    }

    #[test]
    fn set_dedups_by_key() {
        let mut s = InterestSet::new();
        assert!(s.add("Football"));
        assert!(!s.add("FOOTBALL"));
        assert!(!s.add("   "));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Interest::new("football")));
    }

    #[test]
    fn set_remove() {
        let mut s: InterestSet = ["a", "b"].into_iter().collect();
        assert!(s.remove("A"));
        assert!(!s.remove("A"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let s: InterestSet = ["zebra", "Alpha", "maple"].into_iter().collect();
        let keys: Vec<&str> = s.iter().map(Interest::key).collect();
        assert_eq!(keys, vec!["alpha", "maple", "zebra"]);
    }

    #[test]
    fn wire_round_trip_preserves_display_forms() {
        let s: InterestSet = ["Football", "Ice Hockey"].into_iter().collect();
        let back = InterestSet::decode_exact(&s.encode()).unwrap();
        assert_eq!(s, back);
        let displays: Vec<&str> = back.iter().map(Interest::display).collect();
        assert_eq!(displays, vec!["Football", "Ice Hockey"]);
        let i = Interest::new(" ICE  Hockey ");
        assert_eq!(
            Interest::decode_exact(&i.encode()).unwrap().display(),
            "ICE Hockey"
        );
    }

    #[test]
    fn extend_and_collect() {
        let mut s = InterestSet::new();
        s.extend(vec![Interest::new("a"), Interest::new("A")]);
        assert_eq!(s.len(), 1);
        let v: Vec<Interest> = s.to_vec();
        assert_eq!(v[0].key(), "a");
    }
}
