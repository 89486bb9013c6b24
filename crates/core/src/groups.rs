//! The group registry: dynamic groups plus manual join/leave.
//!
//! [`GroupRegistry`] holds the current [`GroupSet`] produced by
//! [`crate::discovery::Discovery`] and layers the thesis's manual
//! controls on top (Table 7: *Join/Leave Manually*): the local user can
//! join a group their interests would not put them in, or leave one they
//! were auto-placed into. It also diffs consecutive group sets into
//! [`GroupEvent`]s so applications can show "you joined the Football group"
//! style notifications.

use std::collections::BTreeSet;

use crate::discovery::{Group, GroupSet};

/// A change between two consecutive group computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupEvent {
    /// A group exists that did not before.
    GroupFormed {
        /// The group key.
        key: String,
        /// Members at formation.
        members: Vec<String>,
    },
    /// A group dissolved (no shared members remain in range).
    GroupDissolved {
        /// The group key.
        key: String,
    },
    /// A member entered an existing group.
    MemberJoined {
        /// The group key.
        key: String,
        /// The member who joined.
        member: String,
    },
    /// A member left an existing group.
    MemberLeft {
        /// The group key.
        key: String,
        /// The member who left.
        member: String,
    },
}

impl GroupEvent {
    /// The trace label for this event.
    pub fn label(&self) -> &'static str {
        match self {
            GroupEvent::GroupFormed { .. } => "GROUP_FORMED",
            GroupEvent::GroupDissolved { .. } => "GROUP_DISSOLVED",
            GroupEvent::MemberJoined { .. } => "MEMBER_JOINED",
            GroupEvent::MemberLeft { .. } => "MEMBER_LEFT",
        }
    }
}

/// The local view of all interest groups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupRegistry {
    /// Latest auto-discovered groups.
    auto: GroupSet,
    /// Group keys the local user manually joined.
    manual_joins: BTreeSet<String>,
    /// Group keys the local user manually left (overrides auto-membership
    /// of the local user, but the group itself remains visible).
    manual_leaves: BTreeSet<String>,
    /// The local user's name (inserted into manually joined groups).
    me: String,
}

impl GroupRegistry {
    /// Creates a registry for the local user `me`.
    pub fn new(me: impl Into<String>) -> Self {
        GroupRegistry {
            me: me.into(),
            ..GroupRegistry::default()
        }
    }

    /// Replaces the auto-discovered groups with a fresh computation and
    /// returns the events describing what changed (based on the *effective*
    /// view).
    pub fn update(&mut self, fresh: GroupSet) -> Vec<GroupEvent> {
        // Most recomputes reproduce the current groups. An unchanged auto
        // set leaves the effective view unchanged too, because `join` and
        // the `retain` below keep `manual_joins` within `auto`'s keys; so
        // skip the two `effective` clones and the diff.
        if fresh == self.auto {
            return Vec::new();
        }
        let before = self.effective();
        self.auto = fresh;
        // Drop manual joins for groups that no longer exist at all.
        let auto = &self.auto;
        self.manual_joins.retain(|k| auto.contains_key(k));
        let after = self.effective();
        diff(&before, &after)
    }

    /// The effective groups: auto groups with manual join/leave applied to
    /// the local user's membership.
    pub fn effective(&self) -> GroupSet {
        let mut out = GroupSet::new();
        for (key, group) in &self.auto {
            let mut g = group.clone();
            if self.manual_leaves.contains(key) {
                g.members.retain(|m| *m != self.me);
            }
            if self.manual_joins.contains(key) && !g.contains(&self.me) {
                g.members.push(self.me.clone());
                g.members.sort();
            }
            // A group with fewer than two members is not a social group.
            if g.members.len() >= 2 {
                out.insert(key.clone(), g);
            }
        }
        out
    }

    /// All effective groups, in key order.
    pub fn groups(&self) -> Vec<Group> {
        self.effective().into_values().collect()
    }

    /// One effective group by key.
    pub fn group(&self, key: &str) -> Option<Group> {
        self.effective().remove(key)
    }

    /// Groups the local user is currently a member of.
    pub fn my_groups(&self) -> Vec<Group> {
        self.groups()
            .into_iter()
            .filter(|g| g.contains(&self.me))
            .collect()
    }

    /// Manually joins a visible group (Table 7). Returns whether the key
    /// names a known group.
    pub fn join(&mut self, key: &str) -> bool {
        if !self.auto.contains_key(key) {
            return false;
        }
        self.manual_leaves.remove(key);
        self.manual_joins.insert(key.to_owned());
        true
    }

    /// Manually leaves a group. Returns whether the key names a known
    /// group.
    pub fn leave(&mut self, key: &str) -> bool {
        if !self.auto.contains_key(key) {
            return false;
        }
        self.manual_joins.remove(key);
        self.manual_leaves.insert(key.to_owned());
        true
    }

    /// Number of effective groups.
    pub fn len(&self) -> usize {
        self.effective().len()
    }

    /// Whether no groups are visible.
    pub fn is_empty(&self) -> bool {
        self.effective().is_empty()
    }
}

fn diff(before: &GroupSet, after: &GroupSet) -> Vec<GroupEvent> {
    let mut events = Vec::new();
    for (key, group) in after {
        match before.get(key) {
            None => events.push(GroupEvent::GroupFormed {
                key: key.clone(),
                members: group.members.clone(),
            }),
            Some(old) => {
                let old_set: BTreeSet<&String> = old.members.iter().collect();
                let new_set: BTreeSet<&String> = group.members.iter().collect();
                for member in new_set.difference(&old_set) {
                    events.push(GroupEvent::MemberJoined {
                        key: key.clone(),
                        member: (*member).clone(),
                    });
                }
                for member in old_set.difference(&new_set) {
                    events.push(GroupEvent::MemberLeft {
                        key: key.clone(),
                        member: (*member).clone(),
                    });
                }
            }
        }
    }
    for key in before.keys() {
        if !after.contains_key(key) {
            events.push(GroupEvent::GroupDissolved { key: key.clone() });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(groups: &[(&str, &[&str])]) -> GroupSet {
        groups
            .iter()
            .map(|(key, members)| {
                (
                    (*key).to_owned(),
                    Group {
                        key: (*key).to_owned(),
                        label: (*key).to_owned(),
                        members: members.iter().map(|m| (*m).to_owned()).collect(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn update_reports_formation_and_dissolution() {
        let mut reg = GroupRegistry::new("me");
        let events = reg.update(set(&[("football", &["bob", "me"])]));
        assert_eq!(
            events,
            vec![GroupEvent::GroupFormed {
                key: "football".into(),
                members: vec!["bob".into(), "me".into()]
            }]
        );
        let events = reg.update(GroupSet::new());
        assert_eq!(
            events,
            vec![GroupEvent::GroupDissolved {
                key: "football".into()
            }]
        );
        assert!(reg.is_empty());
    }

    #[test]
    fn update_reports_member_churn() {
        let mut reg = GroupRegistry::new("me");
        reg.update(set(&[("chess", &["bob", "me"])]));
        let events = reg.update(set(&[("chess", &["carol", "me"])]));
        assert!(events.contains(&GroupEvent::MemberJoined {
            key: "chess".into(),
            member: "carol".into()
        }));
        assert!(events.contains(&GroupEvent::MemberLeft {
            key: "chess".into(),
            member: "bob".into()
        }));
    }

    #[test]
    fn manual_leave_removes_only_me() {
        let mut reg = GroupRegistry::new("me");
        reg.update(set(&[("sauna", &["bob", "carol", "me"])]));
        assert!(reg.leave("sauna"));
        let g = reg.group("sauna").expect("group still visible");
        assert!(!g.contains("me"));
        assert!(g.contains("bob"));
        assert!(reg.my_groups().is_empty());
    }

    #[test]
    fn manual_join_adds_me_to_foreign_group() {
        let mut reg = GroupRegistry::new("me");
        // A group formed around others' interests that I can still see —
        // model: auto set computed by a neighbor includes me-less group.
        reg.update(set(&[("poker", &["bob", "carol"])]));
        assert!(!reg.group("poker").unwrap().contains("me"));
        assert!(reg.join("poker"));
        assert!(reg.group("poker").unwrap().contains("me"));
        assert_eq!(reg.my_groups().len(), 1);
        // Unknown key cannot be joined.
        assert!(!reg.join("nonexistent"));
    }

    #[test]
    fn leaving_then_rejoining_round_trips() {
        let mut reg = GroupRegistry::new("me");
        reg.update(set(&[("x", &["bob", "me"])]));
        reg.leave("x");
        assert!(reg.my_groups().is_empty());
        reg.join("x");
        assert_eq!(reg.my_groups().len(), 1);
    }

    #[test]
    fn single_member_groups_are_hidden() {
        let mut reg = GroupRegistry::new("me");
        reg.update(set(&[("solo", &["me"])]));
        assert!(reg.is_empty(), "a one-person group is not a group");
    }

    #[test]
    fn an_unchanged_group_set_yields_no_events_and_keeps_manual_choices() {
        let mut reg = GroupRegistry::new("me");
        let groups = set(&[
            ("poker", &["bob", "carol"]),
            ("sauna", &["bob", "carol", "me"]),
        ]);
        reg.update(groups.clone());
        assert!(reg.join("poker"));
        assert!(reg.leave("sauna"));
        let (before, mine) = (reg.groups(), reg.my_groups());
        assert_eq!(mine.len(), 1);
        assert!(reg.update(groups).is_empty());
        assert_eq!(reg.groups(), before);
        assert_eq!(reg.my_groups(), mine);
        assert!(reg.group("poker").unwrap().contains("me"));
        assert!(!reg.group("sauna").unwrap().contains("me"));
    }

    #[test]
    fn manual_join_survives_update_while_group_exists() {
        let mut reg = GroupRegistry::new("me");
        reg.update(set(&[("poker", &["bob", "carol"])]));
        reg.join("poker");
        reg.update(set(&[("poker", &["bob", "carol", "dave"])]));
        assert!(reg.group("poker").unwrap().contains("me"));
        // When the group disappears entirely, the manual join is forgotten.
        reg.update(GroupSet::new());
        reg.update(set(&[("poker", &["bob", "carol"])]));
        assert!(!reg.group("poker").unwrap().contains("me"));
    }
}
