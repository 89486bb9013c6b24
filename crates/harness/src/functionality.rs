//! Tables 3, 6 and 7: functionality and feature verification.
//!
//! These tables are checklists in the thesis; here every row is *executed*
//! against the real stack and reported with a pass/fail verdict:
//!
//! * Table 3 — the seven PeerHood middleware functionalities, each driven
//!   through the simulated radio environment;
//! * Table 6 — every client request opcode dispatched against a live
//!   member store, with the observed response;
//! * Table 7 — every feature of the reference application exercised
//!   end-to-end in a lab scenario.

use std::time::Duration;

use netsim::geometry::Point2;
use netsim::mobility::ScriptedPath;
use netsim::world::NodeBuilder;
use netsim::{SimTime, Technology};

use peerhood::api::AppEvent;
use peerhood::app::{AppCtx, Application};
use peerhood::service::ServiceInfo;
use peerhood::sim::Cluster;
use peerhood::types::{ConnId, DeviceId};

use community::node::OpMode;
use community::profile::Profile;
use community::protocol::{Request, Response};
use community::semantics::MatchPolicy;
use community::server::handle_request;
use community::store::MemberStore;
use community::{OpResult, SharedOutcome};

use crate::report::TextTable;
use crate::scenario::{lab, LabConfig};

/// One verified checklist row.
#[derive(Clone, Debug)]
pub struct Check {
    /// Row name as it appears in the thesis table.
    pub name: String,
    /// Whether the behaviour was observed.
    pub passed: bool,
    /// What was observed.
    pub note: String,
}

fn check(name: &str, passed: bool, note: impl Into<String>) -> Check {
    Check {
        name: name.to_owned(),
        passed,
        note: note.into(),
    }
}

/// Renders a checklist as a table.
pub fn render_checks(title: &str, checks: &[Check]) -> String {
    let mut t = TextTable::new(["Functionality", "Verified", "Observation"]);
    for c in checks {
        t.add_row([
            c.name.clone(),
            if c.passed { "yes".into() } else { "NO".into() },
            c.note.clone(),
        ]);
    }
    format!("{title}\n{}", t.render())
}

// ---------------------------------------------------------------------
// Table 3 — PeerHood functionality
// ---------------------------------------------------------------------

/// Minimal event recorder used to observe raw PeerHood behaviour.
#[derive(Default)]
struct Probe {
    serve: bool,
    appeared: Vec<DeviceId>,
    service_lists: Vec<(DeviceId, Vec<String>)>,
    connected: Vec<ConnId>,
    incoming: Vec<ConnId>,
    data: Vec<codec::Bytes>,
    monitor_alerts: Vec<(DeviceId, bool)>,
    handovers: Vec<(Technology, Technology)>,
    closed: usize,
}

impl Application for Probe {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        if self.serve {
            ctx.peerhood()
                .register_service(ServiceInfo::new("probe-svc"));
        }
    }

    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
        match event {
            AppEvent::DeviceAppeared(info) => {
                self.appeared.push(info.id);
                ctx.peerhood().monitor(info.id);
                ctx.peerhood().request_service_list(info.id);
            }
            AppEvent::ServiceList {
                device, services, ..
            } => self.service_lists.push((
                device,
                services.iter().map(|s| s.name().to_owned()).collect(),
            )),
            AppEvent::Connected { conn, .. } => self.connected.push(conn),
            AppEvent::Incoming { conn, .. } => self.incoming.push(conn),
            AppEvent::Data { payload, .. } => self.data.push(payload),
            AppEvent::MonitorAlert { device, appeared } => {
                self.monitor_alerts.push((device.id, appeared))
            }
            AppEvent::Handover { from, to, .. } => self.handovers.push((from, to)),
            AppEvent::Closed { .. } => self.closed += 1,
            _ => {}
        }
    }
}

/// Executes every row of Table 3 and reports the verdicts.
pub fn table3(seed: u64) -> Vec<Check> {
    let mut checks = Vec::new();

    // Rows 1–5 in one scenario: two stationary devices in Bluetooth range.
    let mut c: Cluster<Probe> = Cluster::new(seed);
    let a = c.add_node(NodeBuilder::new("a").at(Point2::ORIGIN), Probe::default());
    let b = c.add_node(
        NodeBuilder::new("b").at(Point2::new(4.0, 0.0)),
        Probe {
            serve: true,
            ..Probe::default()
        },
    );
    c.start();
    c.run_until(SimTime::from_secs(20));

    let b_dev = c.device_id(b);
    checks.push(check(
        "Device Discovery",
        c.app(a).appeared.contains(&b_dev),
        "device b discovered at node a within 20 s of startup".to_string(),
    ));
    let saw_service = c
        .app(a)
        .service_lists
        .iter()
        .any(|(d, svcs)| *d == b_dev && svcs.iter().any(|s| s == "probe-svc"));
    checks.push(check(
        "Service Discovery",
        saw_service,
        "remote service list contains the registered probe-svc",
    ));
    checks.push(check(
        "Service Sharing",
        c.daemon(b).services().contains("probe-svc"),
        "probe-svc registered in node b's daemon registry",
    ));

    c.with_app(a, |_, ctx| ctx.peerhood().connect(b_dev, "probe-svc"));
    c.run_until(SimTime::from_secs(25));
    let conn_ok = c.app(a).connected.len() == 1 && c.app(b).incoming.len() == 1;
    checks.push(check(
        "Connection Establishment",
        conn_ok,
        "client Connected and server Incoming events observed",
    ));

    if conn_ok {
        let conn = c.app(a).connected[0];
        c.with_app(a, |_, ctx| {
            ctx.peerhood()
                .send(conn, codec::Bytes::from_static(b"hello peerhood"))
        });
        c.run_until(SimTime::from_secs(26));
    }
    checks.push(check(
        "Data Transmission between Devices",
        c.app(b).data.first().map(|d| &d[..]) == Some(b"hello peerhood".as_ref()),
        "payload delivered intact over the simulated Bluetooth link",
    ));

    // Row 6 — active monitoring: departure raises an alert.
    let mut c: Cluster<Probe> = Cluster::new(seed ^ 0x11);
    let a = c.add_node(
        NodeBuilder::new("watcher").at(Point2::ORIGIN),
        Probe::default(),
    );
    let _walker = c.add_node(
        NodeBuilder::new("walker")
            .moving(ScriptedPath::new(vec![
                (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                (SimTime::from_secs(50), Point2::new(900.0, 0.0)),
            ]))
            .with_technologies([Technology::Bluetooth]),
        Probe::default(),
    );
    c.start();
    c.run_until(SimTime::from_secs(180));
    let alerts = &c.app(a).monitor_alerts;
    checks.push(check(
        "Active monitoring of a device",
        alerts.iter().any(|(_, appeared)| !appeared),
        format!("{} monitor alerts, including a disappearance", alerts.len()),
    ));

    // Row 7 — seamless connectivity: Bluetooth link breaks, connection
    // migrates to WLAN.
    let mut c: Cluster<Probe> = Cluster::new(seed ^ 0x22);
    let a = c.add_node(
        NodeBuilder::new("a")
            .at(Point2::ORIGIN)
            .with_technologies([Technology::Bluetooth, Technology::Wlan]),
        Probe::default(),
    );
    let b = c.add_node(
        NodeBuilder::new("b")
            .moving(ScriptedPath::new(vec![
                (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                (SimTime::from_secs(45), Point2::new(40.0, 0.0)),
            ]))
            .with_technologies([Technology::Bluetooth, Technology::Wlan]),
        Probe {
            serve: true,
            ..Probe::default()
        },
    );
    c.start();
    c.run_until(SimTime::from_secs(20));
    let b_dev = c.device_id(b);
    c.with_app(a, |_, ctx| ctx.peerhood().connect(b_dev, "probe-svc"));
    c.run_until(SimTime::from_secs(25));
    if let Some(&conn) = c.app(a).connected.first() {
        for t in (26..70).step_by(2) {
            c.run_until(SimTime::from_secs(t));
            c.with_app(a, |_, ctx| {
                ctx.peerhood()
                    .send(conn, codec::Bytes::from_static(b"chunk"))
            });
        }
    }
    c.run_until(SimTime::from_secs(80));
    let survived = c.app(a).closed == 0
        && c.app(a)
            .handovers
            .contains(&(Technology::Bluetooth, Technology::Wlan));
    checks.push(check(
        "Seamless Connectivity",
        survived,
        format!(
            "connection migrated {:?} without closing; {} frames delivered",
            c.app(a).handovers,
            c.app(b).data.len()
        ),
    ));

    checks
}

// ---------------------------------------------------------------------
// Table 6 — client requests and corresponding server functions
// ---------------------------------------------------------------------

/// Executes every Table 6 request against a prepared store and reports the
/// observed server function.
pub fn table6() -> Vec<Check> {
    let mut store = MemberStore::new();
    store
        .create_account(
            "bob",
            "pw",
            Profile::new("Bob").with_interests(["football"]),
        )
        .expect("fresh store");
    store.login("bob", "pw").expect("valid credentials");
    store
        .require_active()
        .expect("logged in")
        .trusted
        .insert("alice".to_owned());
    store
        .require_active()
        .expect("logged in")
        .shared
        .share("song.mp3", "music", vec![1, 2, 3]);
    let policy = MatchPolicy::Exact;
    let now = SimTime::from_secs(1);

    type Verify = fn(&Response) -> bool;
    let cases: Vec<(Request, &str, Verify)> = vec![
        (
            Request::GetOnlineMemberList,
            "identifies list of online members and transmits it",
            |r| matches!(r, Response::MemberList(v) if v == &["bob"]),
        ),
        (
            Request::GetInterestList,
            "identifies list of local interests and transmits it",
            |r| matches!(r, Response::InterestList(v) if !v.is_empty()),
        ),
        (
            Request::GetInterestedMemberList {
                interest: "football".into(),
            },
            "lists online members holding a common interest",
            |r| matches!(r, Response::InterestedMembers(v) if v == &["bob"]),
        ),
        (
            Request::GetProfile {
                member: "bob".into(),
                requester: "alice".into(),
            },
            "transmits the local user profile (and logs the visitor)",
            |r| matches!(r, Response::Profile(v) if v.member == "bob"),
        ),
        (
            Request::AddProfileComment {
                member: "bob".into(),
                author: "alice".into(),
                comment: "hi".into(),
            },
            "writes the received comment into the local profile",
            |r| matches!(r, Response::CommentWritten),
        ),
        (
            Request::CheckMemberId {
                member: "bob".into(),
            },
            "compares the member id with the local user's id",
            |r| matches!(r, Response::CheckMemberResult(true)),
        ),
        (
            Request::Message {
                to: "bob".into(),
                from: "alice".into(),
                subject: "s".into(),
                body: "b".into(),
            },
            "writes the message into the local inbox",
            |r| matches!(r, Response::MessageWritten),
        ),
        (
            Request::GetSharedContent {
                member: "bob".into(),
                requester: "alice".into(),
            },
            "transmits the shared-content list to trusted requesters",
            |r| matches!(r, Response::SharedContent(v) if v.len() == 1),
        ),
        (
            Request::GetTrustedFriends {
                member: "bob".into(),
            },
            "transmits the trusted-friends list",
            |r| matches!(r, Response::TrustedFriends(v) if v == &["alice"]),
        ),
        (
            Request::CheckTrusted {
                member: "bob".into(),
                requester: "alice".into(),
            },
            "answers whether the requester is trusted",
            |r| matches!(r, Response::Trusted),
        ),
        (
            Request::FetchContent {
                member: "bob".into(),
                requester: "alice".into(),
                name: "song.mp3".into(),
            },
            "transmits the bytes of one shared item to trusted requesters",
            |r| matches!(r, Response::Content { data, .. } if data.as_slice() == [1, 2, 3]),
        ),
    ];

    cases
        .into_iter()
        .map(|(req, function, verify)| {
            let label = req.label();
            let resp = handle_request(&mut store, &policy, &req, now);
            check(
                label,
                verify(&resp),
                format!("{function} -> {}", resp.label()),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 7 — features of the reference implementation
// ---------------------------------------------------------------------

/// Exercises every Table 7 feature end-to-end in one lab scenario.
pub fn table7(seed: u64) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut s = lab(&LabConfig {
        seed,
        peer_count: 2,
        op_mode: OpMode::Persistent,
        fresh_inquiry_per_op: false,
        ..LabConfig::default()
    });
    let observer = s.observer;
    s.cluster.run_until(SimTime::from_secs(40));

    // Profiles: Add/Edit Profile.
    s.cluster.with_app(observer, |app, _| {
        let account = app.store_mut().require_active().expect("logged in");
        account
            .profile_mut()
            .fields
            .insert("city".into(), "Lappeenranta".into());
    });
    let edited = s
        .cluster
        .app(observer)
        .store()
        .active_account()
        .is_some_and(|a| {
            a.profile().fields.get("city").map(String::as_str) == Some("Lappeenranta")
        });
    checks.push(check(
        "Add/Edit Profile",
        edited,
        "profile field edited locally",
    ));

    // Add/Edit Personal Interest.
    s.cluster.with_app(observer, |app, ctx| {
        app.add_interest("ice hockey", ctx).expect("logged in");
    });
    let has_interest = s
        .cluster
        .app(observer)
        .store()
        .active_account()
        .is_some_and(|a| {
            a.profile()
                .interests
                .contains(&community::Interest::new("Ice Hockey"))
        });
    checks.push(check(
        "Add/Edit Personal Interest",
        has_interest,
        "interest added and group discovery re-run",
    ));

    // View All Members (Figure 11).
    let op = s
        .cluster
        .with_app(observer, |app, ctx| app.get_member_list(ctx));
    s.cluster.run_for(Duration::from_secs(10));
    let members_ok = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::Members(v)) if v.len() == 2
    );
    checks.push(check("View All Members", members_ok, "both peers listed"));

    // View/Comment Other Members Profile.
    let op = s
        .cluster
        .with_app(observer, |app, ctx| app.view_profile("member1", ctx));
    s.cluster.run_for(Duration::from_secs(10));
    let viewed = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::Profile(Some(v))) if v.member == "member1"
    );
    let op = s.cluster.with_app(observer, |app, ctx| {
        app.put_comment("member1", "hello!", ctx)
    });
    s.cluster.run_for(Duration::from_secs(10));
    let commented = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::CommentResult { written: true })
    );
    checks.push(check(
        "View/Comment Other Members Profile",
        viewed && commented,
        "profile fetched and comment written",
    ));

    // View Own Viewers and Comments: member1 now has a visitor + comment.
    let peer1 = s.peers[0];
    let (visits, comments) = s.cluster.with_app(peer1, |app, _| {
        let account = app.store().active_account().expect("logged in");
        (
            account.profile().visitors.len(),
            account.profile().comments.len(),
        )
    });
    checks.push(check(
        "View Own Viewers and Comments",
        visits >= 1 && comments >= 1,
        format!("{visits} visitors, {comments} comments visible locally"),
    ));

    // Support for Multiple Profiles.
    let switched = s.cluster.with_app(observer, |app, _| {
        let account = app.store_mut().require_active().expect("logged in");
        let idx = account.add_profile(Profile::new("Work Me").with_interests(["databases"]));
        account.select_profile(idx).is_ok() && {
            let ok = account.profile().display_name == "Work Me";
            account.select_profile(0).expect("original profile");
            ok
        }
    });
    checks.push(check(
        "Support for Multiple Profiles",
        switched,
        "second profile created, selected and switched back",
    ));

    // Send/Receive Messages.
    let op = s.cluster.with_app(observer, |app, ctx| {
        app.send_message("member1", "hei", "kahville?", ctx)
    });
    s.cluster.run_for(Duration::from_secs(10));
    let sent = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::MessageResult { written: true })
    );
    let received = s
        .cluster
        .app(peer1)
        .store()
        .active_account()
        .is_some_and(|a| a.mailbox.inbox().iter().any(|m| m.subject == "hei"));
    checks.push(check(
        "Send/Receive Messages",
        sent && received,
        "message written into member1's inbox",
    ));

    // View all Registered Services (via the daemon's neighbor cache).
    let services_seen = s
        .cluster
        .daemon(observer)
        .neighbors()
        .iter()
        .filter(|e| {
            e.services
                .as_deref()
                .is_some_and(|(_, svcs)| svcs.iter().any(|x| x.name() == "PeerHoodCommunity"))
        })
        .count();
    checks.push(check(
        "View all Registered Services",
        services_seen == 2,
        format!("PeerHoodCommunity service visible on {services_seen} neighbors"),
    ));

    // Dynamic Groups.
    let groups = s.cluster.app(observer).groups();
    checks.push(check(
        "Dynamic Discovery with Common Interest",
        groups
            .iter()
            .any(|g| g.key == "football" && g.members.len() == 3),
        format!("{} groups discovered automatically", groups.len()),
    ));
    checks.push(check(
        "View All Groups",
        !s.cluster.app(observer).groups().is_empty(),
        "group listing available",
    ));
    checks.push(check(
        "View Members of Group",
        s.cluster
            .app(observer)
            .groups()
            .first()
            .is_some_and(|g| g.members.contains(&"member1".to_owned())),
        "member roster readable per group",
    ));
    let joined_left = s.cluster.with_app(observer, |app, _| {
        app.leave_group("football") && app.my_groups().is_empty() && app.join_group("football")
    });
    checks.push(check(
        "Join/Leave Manually",
        joined_left,
        "left and re-joined the football group by hand",
    ));

    // Trusted Friends: Add/View/Remove Trusted.
    let trust_cycle = s.cluster.with_app(observer, |app, _| {
        app.add_trusted("member1").expect("logged in");
        let added = app
            .store()
            .active_account()
            .is_some_and(|a| a.trusted.contains("member1"));
        app.remove_trusted("member1").expect("logged in");
        let removed = app
            .store()
            .active_account()
            .is_some_and(|a| !a.trusted.contains("member1"));
        added && removed
    });
    checks.push(check(
        "Add/View/Remove Trusted",
        trust_cycle,
        "trusted list mutated and read back",
    ));

    // File Sharing (trusted-only, Figure 16 flow + transfer).
    s.cluster.with_app(peer1, |app, _| {
        app.add_trusted("user1").expect("logged in");
        app.store_mut()
            .require_active()
            .expect("logged in")
            .shared
            .share("thesis.pdf", "document", vec![9; 1024]);
    });
    let op = s
        .cluster
        .with_app(observer, |app, ctx| app.view_shared_content("member1", ctx));
    s.cluster.run_for(Duration::from_secs(10));
    let listed = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::SharedContent(SharedOutcome::Listing(items))) if items.len() == 1
    );
    let op = s.cluster.with_app(observer, |app, ctx| {
        app.fetch_content("member1", "thesis.pdf", ctx)
    });
    s.cluster.run_for(Duration::from_secs(10));
    let fetched = matches!(
        s.cluster.app(observer).outcome(op).map(|o| &o.result),
        Some(OpResult::Content(Some((_, data)))) if data.len() == 1024
    );
    checks.push(check(
        "File Sharing",
        listed && fetched,
        "trusted listing and 1 kB transfer completed",
    ));

    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table3_row_passes() {
        for c in table3(2008) {
            assert!(c.passed, "{}: {}", c.name, c.note);
        }
    }

    #[test]
    fn every_table6_row_passes() {
        let checks = table6();
        assert_eq!(checks.len(), 11, "all opcodes covered");
        for c in &checks {
            assert!(c.passed, "{}: {}", c.name, c.note);
        }
    }

    #[test]
    fn every_table7_row_passes() {
        for c in table7(2008) {
            assert!(c.passed, "{}: {}", c.name, c.note);
        }
    }

    #[test]
    fn render_marks_failures() {
        let out = render_checks("t", &[check("row", false, "went wrong")]);
        assert!(out.contains("NO"));
        assert!(out.contains("went wrong"));
    }
}
