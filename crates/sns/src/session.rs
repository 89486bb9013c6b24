//! Scripted SNS user sessions: the Table 8 tasks, with a virtual stopwatch.
//!
//! Each method mirrors what the thesis's experimenters timed with a real
//! stopwatch: navigate, type, wait for pages, read, click. The session
//! interacts with a real [`CentralServer`] — searches actually search, joins
//! actually join — while accumulating page, render and input time.

use std::time::Duration;

use netsim::SimRng;

use crate::central::CentralServer;
use crate::device::AccessDevice;
use crate::site::{PageKind, SiteProfile};

/// One user's browsing session against one site from one device.
#[derive(Debug)]
pub struct SnsSession {
    site: SiteProfile,
    device: AccessDevice,
    rng: SimRng,
    elapsed: Duration,
}

impl SnsSession {
    /// Starts a session (the user is assumed already logged in, as in the
    /// thesis's measurements).
    pub fn new(site: SiteProfile, device: AccessDevice, rng: SimRng) -> Self {
        SnsSession {
            site,
            device,
            rng,
            elapsed: Duration::ZERO,
        }
    }

    /// Virtual time spent so far.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Resets the stopwatch (between separately timed tasks).
    pub fn reset_stopwatch(&mut self) {
        self.elapsed = Duration::ZERO;
    }

    /// The device name.
    pub fn device_name(&self) -> &str {
        &self.device.name
    }

    fn load_page(&mut self, kind: PageKind) {
        let w = self.site.weight(kind).clone();
        self.elapsed += self
            .device
            .link
            .fetch_time(w.requests, w.bytes, &mut self.rng);
        self.elapsed += self.device.render_time(w.complexity, &mut self.rng);
        // The user scans what loaded before acting on it — stopwatch
        // measurements of humans driving a browser include this.
        self.elapsed += self.device.scan_time(w.scan, &mut self.rng);
    }

    fn type_text(&mut self, text: &str) {
        self.elapsed += self.device.typing_time(text.chars().count(), &mut self.rng);
    }

    fn click(&mut self) {
        self.elapsed += self.device.click(&mut self.rng);
    }

    /// Table 8 task 1: search for an interest group. Opens the search form,
    /// types the query, loads the results, picks the first match and opens
    /// its group page. Returns the group found, if any.
    pub fn search_group(&mut self, server: &mut CentralServer, query: &str) -> Option<String> {
        self.load_page(PageKind::SearchForm);
        self.type_text(query);
        self.click(); // submit
        self.load_page(PageKind::SearchResults);
        let hits = server.search_groups(query);
        let found = hits.first().cloned()?;
        self.click(); // choose the first result
        self.load_page(PageKind::GroupPage);
        Some(found)
    }

    /// Table 8 task 2: join the group currently open. Returns whether the
    /// join succeeded.
    pub fn join_group(&mut self, server: &mut CentralServer, user: &str, group: &str) -> bool {
        self.click(); // the Join button
        if self.site.join_needs_confirmation {
            self.load_page(PageKind::JoinConfirmation);
            self.click(); // confirm
        }
        let ok = server.join_group(user, group);
        // The site lands back on the (now joined) group page.
        self.load_page(PageKind::GroupPage);
        ok
    }

    /// Table 8 task 3: view the member list of a group.
    pub fn view_member_list(
        &mut self,
        server: &mut CentralServer,
        group: &str,
    ) -> Option<Vec<String>> {
        self.click(); // the Members tab
        self.load_page(PageKind::MemberList);
        server.member_list(group)
    }

    /// Table 8 task 4: open one member's profile from the member list.
    pub fn view_member_profile(&mut self, server: &mut CentralServer, member: &str) -> bool {
        self.click(); // the member's name
        self.load_page(PageKind::ProfilePage);
        server.profile(member).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> CentralServer {
        let mut s = CentralServer::new();
        s.register("user1");
        s.register("member-a");
        s.create_group("England Football");
        s.join_group("member-a", "England Football");
        s
    }

    fn session(site: SiteProfile, device: AccessDevice, seed: u64) -> SnsSession {
        SnsSession::new(site, device, SimRng::from_seed(seed))
    }

    #[test]
    fn full_task_sequence_works_functionally() {
        let mut srv = server();
        let mut s = session(SiteProfile::facebook(), AccessDevice::nokia_n810(), 1);
        let group = s.search_group(&mut srv, "england football").expect("found");
        assert_eq!(group, "England Football");
        assert!(s.join_group(&mut srv, "user1", &group));
        let members = s.view_member_list(&mut srv, &group).expect("listed");
        assert!(members.contains(&"user1".to_owned()));
        assert!(s.view_member_profile(&mut srv, "member-a"));
        assert!(!s.view_member_profile(&mut srv, "ghost"));
    }

    #[test]
    fn searching_a_missing_group_returns_none_but_costs_time() {
        let mut srv = server();
        let mut s = session(SiteProfile::hi5(), AccessDevice::nokia_n95(), 2);
        assert!(s.search_group(&mut srv, "curling").is_none());
        assert!(s.elapsed() > Duration::from_secs(5));
    }

    #[test]
    fn n95_session_is_slower_than_n810() {
        let mut t810 = Duration::ZERO;
        let mut t95 = Duration::ZERO;
        for seed in 0..10 {
            let mut srv = server();
            let mut a = session(SiteProfile::facebook(), AccessDevice::nokia_n810(), seed);
            a.search_group(&mut srv, "football");
            t810 += a.elapsed();
            let mut srv = server();
            let mut b = session(SiteProfile::facebook(), AccessDevice::nokia_n95(), seed);
            b.search_group(&mut srv, "football");
            t95 += b.elapsed();
        }
        assert!(t95 > t810, "{t95:?} vs {t810:?}");
    }

    #[test]
    fn stopwatch_resets_between_tasks() {
        let mut srv = server();
        let mut s = session(SiteProfile::facebook(), AccessDevice::nokia_n810(), 3);
        s.search_group(&mut srv, "football");
        assert!(s.elapsed() > Duration::ZERO);
        s.reset_stopwatch();
        assert_eq!(s.elapsed(), Duration::ZERO);
    }

    #[test]
    fn join_on_hi5_costs_more_than_on_facebook() {
        let mut fb_total = Duration::ZERO;
        let mut hi5_total = Duration::ZERO;
        for seed in 0..10 {
            let mut srv = server();
            let mut fb = session(SiteProfile::facebook(), AccessDevice::nokia_n810(), seed);
            fb.join_group(&mut srv, "user1", "England Football");
            fb_total += fb.elapsed();
            let mut srv = server();
            let mut h5 = session(SiteProfile::hi5(), AccessDevice::nokia_n810(), seed);
            h5.join_group(&mut srv, "user1", "England Football");
            hi5_total += h5.elapsed();
        }
        assert!(hi5_total > fb_total);
    }
}
