//! The centralized SNS backend.
//!
//! "SNS needs a centralized server and a centralized database system. Users'
//! registration and all other essential information are stored in the
//! centralized database and users access the centralized server through a
//! web page" (thesis §3.2). This is that server: a user directory and an
//! interest-group database with the operations the Table 8 tasks exercise —
//! search, join, member listing, profile view. Note what it demonstrates by
//! existing: without dynamic group discovery, groups must be created and
//! joined *explicitly*.

use std::collections::{BTreeMap, BTreeSet};

/// A user profile stored in the central database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnsProfile {
    /// Free-form profile fields.
    pub fields: BTreeMap<String, String>,
    /// Wall comments, oldest first, as `(author, text)`.
    pub comments: Vec<(String, String)>,
}

/// The centralized social-networking-site server.
#[derive(Clone, Debug, Default)]
pub struct CentralServer {
    users: BTreeMap<String, SnsProfile>,
    groups: BTreeMap<String, BTreeSet<String>>,
}

impl CentralServer {
    /// Creates an empty site.
    pub fn new() -> Self {
        CentralServer::default()
    }

    /// Registers a user; idempotent.
    pub fn register(&mut self, user: impl Into<String>) {
        self.users.entry(user.into()).or_default();
    }

    /// Creates an interest group; idempotent. (On an SNS somebody must do
    /// this by hand — there is no dynamic discovery.)
    pub fn create_group(&mut self, name: impl Into<String>) {
        self.groups.entry(name.into()).or_default();
    }

    /// Case-insensitive substring search over group names, returning
    /// matches in name order.
    pub fn search_groups(&self, query: &str) -> Vec<String> {
        let q = query.to_lowercase();
        self.groups
            .keys()
            .filter(|g| g.to_lowercase().contains(&q))
            .cloned()
            .collect()
    }

    /// Adds a registered user to a group; returns `false` for an unknown
    /// user or group.
    pub fn join_group(&mut self, user: &str, group: &str) -> bool {
        if !self.users.contains_key(user) {
            return false;
        }
        match self.groups.get_mut(group) {
            Some(members) => {
                members.insert(user.to_owned());
                true
            }
            None => false,
        }
    }

    /// The member list of a group.
    pub fn member_list(&self, group: &str) -> Option<Vec<String>> {
        self.groups.get(group).map(|m| m.iter().cloned().collect())
    }

    /// A user's profile.
    pub fn profile(&self, user: &str) -> Option<&SnsProfile> {
        self.users.get(user)
    }

    /// Posts a wall comment on a user's profile.
    pub fn post_comment(&mut self, user: &str, author: &str, text: &str) -> bool {
        match self.users.get_mut(user) {
            Some(p) => {
                p.comments.push((author.to_owned(), text.to_owned()));
                true
            }
            None => false,
        }
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_profile() {
        let mut s = CentralServer::new();
        s.register("alice");
        s.register("alice"); // idempotent
        assert_eq!(s.user_count(), 1);
        assert!(s.profile("alice").is_some());
        assert!(s.profile("ghost").is_none());
    }

    #[test]
    fn search_is_case_insensitive_substring() {
        let mut s = CentralServer::new();
        s.create_group("England Football");
        s.create_group("Finnish Football");
        s.create_group("Chess Club");
        assert_eq!(
            s.search_groups("football"),
            vec!["England Football", "Finnish Football"]
        );
        assert_eq!(s.search_groups("ENGLAND"), vec!["England Football"]);
        assert!(s.search_groups("sauna").is_empty());
    }

    #[test]
    fn join_requires_registration_and_existing_group() {
        let mut s = CentralServer::new();
        s.create_group("g");
        assert!(!s.join_group("alice", "g"), "unregistered user");
        s.register("alice");
        assert!(!s.join_group("alice", "nope"), "missing group");
        assert!(s.join_group("alice", "g"));
        assert_eq!(s.member_list("g").unwrap(), vec!["alice"]);
        assert!(s.member_list("nope").is_none());
    }

    #[test]
    fn comments_append_in_order() {
        let mut s = CentralServer::new();
        s.register("bob");
        assert!(s.post_comment("bob", "alice", "hi"));
        assert!(s.post_comment("bob", "carol", "yo"));
        assert!(!s.post_comment("ghost", "alice", "x"));
        let p = s.profile("bob").unwrap();
        assert_eq!(p.comments.len(), 2);
        assert_eq!(p.comments[0].0, "alice");
    }
}
