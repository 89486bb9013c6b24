//! Dynamic group discovery — the thesis's core algorithm (Figure 6).
//!
//! > "Initially when the user starts the social networking application, the
//! > application collects the list of active user's personal interests and
//! > gets the list of all the nearby devices. A personal interest of the
//! > active user is compared to personal interests of other nearby users. If
//! > the interest between active user and remote user matches than both ...
//! > are listed in same interest group. Similarly, each interest is compared
//! > with the personal interests of all the found nearby members ..."
//!
//! [`Discovery`] is that algorithm as an entry point bound to the local
//! member and matching policy. [`Discovery::groups`] is the pure Figure 6
//! computation; [`Discovery::update`] runs it *through* a
//! [`GroupRegistry`] and returns the resulting [`GroupEvent`]s — the same event vocabulary
//! multi-hop gossip deliveries use, so local-encounter and epidemic
//! discovery share one API and one trace vocabulary. The
//! [`crate::node::CommunityApp`] re-runs it whenever the neighborhood, an
//! interest list, or the gossip-learned membership changes, which is what
//! makes the groups *dynamic*.

use std::collections::BTreeMap;

use crate::groups::{GroupEvent, GroupRegistry};
use crate::interest::Interest;
use crate::semantics::MatchPolicy;

/// One dynamically formed interest group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The group key under the active matching policy (normalized interest
    /// or synonym-class representative).
    pub key: String,
    /// A human-readable label (the first display form seen).
    pub label: String,
    /// Member names, always including the local user, in name order.
    pub members: Vec<String>,
}

impl Group {
    /// Whether `member` is in the group.
    pub fn contains(&self, member: &str) -> bool {
        self.members.iter().any(|m| m == member)
    }
}

/// The result of one run of the Figure 6 algorithm: groups keyed by
/// canonical interest.
pub type GroupSet = BTreeMap<String, Group>;

/// The dynamic group discovery entry point: the Figure 6 algorithm bound to
/// the local member name and a [`MatchPolicy`].
///
/// Borrow-built per run (both fields are references), so recomputing after
/// every neighborhood change costs nothing beyond the algorithm itself:
///
/// ```
/// use ph_community::discovery::Discovery;
/// use ph_community::interest::Interest;
/// use ph_community::semantics::MatchPolicy;
///
/// let policy = MatchPolicy::Exact;
/// let own = [Interest::new("football")];
/// let neighbors = vec![("bob".to_owned(), vec![Interest::new("Football")])];
/// let groups = Discovery::new("me", &policy).groups(&own, &neighbors);
/// assert_eq!(groups["football"].members, vec!["bob", "me"]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Discovery<'a> {
    me: &'a str,
    policy: &'a MatchPolicy,
}

impl<'a> Discovery<'a> {
    /// Binds the algorithm to the local member `me` under `policy`.
    pub fn new(me: &'a str, policy: &'a MatchPolicy) -> Self {
        Discovery { me, policy }
    }

    /// Runs dynamic group discovery against the currently known `neighbors`
    /// (`(member name, their interests)` pairs — radio encounters and
    /// gossip-learned members alike).
    ///
    /// A group forms for each of the user's own interests that at least one
    /// neighbor shares (under the policy); the group contains the local
    /// user plus every matching neighbor. This is exactly the per-interest
    /// loop of Figure 6 — neighbors' interests the local user does *not*
    /// hold form no group (the user can still join such groups manually at
    /// the [`crate::groups::GroupRegistry`] level).
    pub fn groups(&self, own: &[Interest], neighbors: &[(String, Vec<Interest>)]) -> GroupSet {
        let mut groups = GroupSet::new();
        for interest in own {
            let key = self.policy.group_key(interest);
            for (name, their) in neighbors {
                let matches = their.iter().any(|t| self.policy.matches(interest, t));
                if matches {
                    let group = groups.entry(key.clone()).or_insert_with(|| Group {
                        key: key.clone(),
                        label: interest.display().to_owned(),
                        members: vec![self.me.to_owned()],
                    });
                    if !group.contains(name) {
                        group.members.push(name.clone());
                    }
                }
            }
        }
        for group in groups.values_mut() {
            group.members.sort();
            group.members.dedup();
        }
        groups
    }

    /// Runs [`Discovery::groups`] and feeds the fresh set through
    /// `registry`, returning the [`GroupEvent`]s the transition produced —
    /// the single path both local-encounter recomputes and gossip-delivered
    /// membership walk, so every caller sees the same event stream.
    pub fn update(
        &self,
        registry: &mut GroupRegistry,
        own: &[Interest],
        neighbors: &[(String, Vec<Interest>)],
    ) -> Vec<GroupEvent> {
        registry.update(self.groups(own, neighbors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interests(items: &[&str]) -> Vec<Interest> {
        items.iter().map(|s| Interest::new(*s)).collect()
    }

    fn neighbors(items: &[(&str, &[&str])]) -> Vec<(String, Vec<Interest>)> {
        items
            .iter()
            .map(|(n, is)| ((*n).to_owned(), interests(is)))
            .collect()
    }

    fn discover(
        me: &str,
        own: &[Interest],
        nbs: &[(String, Vec<Interest>)],
        policy: &MatchPolicy,
    ) -> GroupSet {
        Discovery::new(me, policy).groups(own, nbs)
    }

    #[test]
    fn no_neighbors_no_groups() {
        let g = discover("me", &interests(&["football"]), &[], &MatchPolicy::Exact);
        assert!(g.is_empty());
    }

    #[test]
    fn matching_interest_forms_group_with_both_members() {
        let g = discover(
            "me",
            &interests(&["Football"]),
            &neighbors(&[("bob", &["football", "chess"])]),
            &MatchPolicy::Exact,
        );
        assert_eq!(g.len(), 1);
        let group = &g["football"];
        assert_eq!(group.members, vec!["bob", "me"]);
        assert_eq!(group.label, "Football");
    }

    #[test]
    fn unshared_neighbor_interests_form_no_group() {
        // Bob's chess interest doesn't concern me: per Figure 6, groups are
        // driven by the *active user's* interests.
        let g = discover(
            "me",
            &interests(&["football"]),
            &neighbors(&[("bob", &["chess"])]),
            &MatchPolicy::Exact,
        );
        assert!(g.is_empty());
    }

    #[test]
    fn each_own_interest_gets_its_own_group() {
        let g = discover(
            "me",
            &interests(&["football", "chess", "sauna"]),
            &neighbors(&[
                ("bob", &["football", "sauna"]),
                ("carol", &["chess"]),
                ("dave", &["football"]),
            ]),
            &MatchPolicy::Exact,
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g["football"].members, vec!["bob", "dave", "me"]);
        assert_eq!(g["chess"].members, vec!["carol", "me"]);
        assert_eq!(g["sauna"].members, vec!["bob", "me"]);
    }

    #[test]
    fn exact_policy_fragments_synonyms_like_the_thesis_describes() {
        // The §5.2.6 limitation: biking and cycling end up apart.
        let g = discover(
            "me",
            &interests(&["biking"]),
            &neighbors(&[("bob", &["cycling"])]),
            &MatchPolicy::Exact,
        );
        assert!(g.is_empty(), "exact matching must not merge synonyms");
    }

    #[test]
    fn semantic_policy_merges_taught_synonyms() {
        let mut policy = MatchPolicy::Exact;
        policy.teach(&Interest::new("biking"), &Interest::new("cycling"));
        let g = discover(
            "me",
            &interests(&["biking"]),
            &neighbors(&[("bob", &["cycling"]), ("carol", &["Biking"])]),
            &policy,
        );
        assert_eq!(g.len(), 1);
        let group = &g["biking"];
        assert_eq!(group.members, vec!["bob", "carol", "me"]);
    }

    #[test]
    fn duplicate_neighbor_interests_do_not_duplicate_members() {
        let g = discover(
            "me",
            &interests(&["a"]),
            &neighbors(&[("bob", &["a", "A", " a "])]),
            &MatchPolicy::Exact,
        );
        assert_eq!(g["a"].members, vec!["bob", "me"]);
    }

    #[test]
    fn algorithm_is_deterministic_in_member_order() {
        let n = neighbors(&[("zed", &["x"]), ("ann", &["x"])]);
        let g = discover("me", &interests(&["x"]), &n, &MatchPolicy::Exact);
        assert_eq!(g["x"].members, vec!["ann", "me", "zed"]);
    }

    #[test]
    fn update_returns_events_through_the_registry() {
        let policy = MatchPolicy::Exact;
        let discovery = Discovery::new("me", &policy);
        let own = interests(&["football"]);
        let mut registry = GroupRegistry::new("me");
        let events = discovery.update(&mut registry, &own, &neighbors(&[("bob", &["football"])]));
        assert!(matches!(
            events.as_slice(),
            [GroupEvent::GroupFormed { key, .. }] if key == "football"
        ));
        let events = discovery.update(
            &mut registry,
            &own,
            &neighbors(&[("bob", &["football"]), ("carol", &["football"])]),
        );
        assert!(matches!(
            events.as_slice(),
            [GroupEvent::MemberJoined { member, .. }] if member == "carol"
        ));
        let events = discovery.update(&mut registry, &own, &[]);
        assert!(matches!(
            events.as_slice(),
            [GroupEvent::GroupDissolved { .. }]
        ));
    }
}
