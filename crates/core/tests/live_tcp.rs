//! The community application over the live TCP driver: same state
//! machines, real sockets, wall-clock time.
//!
//! Covers the reactor (`LiveServer`) both as an in-process neighborhood of
//! full peers that dial each other (`LiveNet`, built via
//! `LiveConfig::network`) and serving thin clients on its own, including
//! its backpressure shedding, slow-client isolation and journal-based
//! restart resume.

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use codec::Wire;
use peerhood::error::ErrorKind;
use peerhood::gossip::GossipConfig;
use peerhood::live::wire::{frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT};
use peerhood::live::{LiveConfig, LiveNet, LiveServer};
use peerhood::types::DeviceId;
use ph_community::node::CommunityApp;
use ph_community::profile::Profile;
use ph_community::protocol::{Request, Response};
use ph_community::{Interest, JournalPersist, OpResult, SERVICE_NAME};

fn member(name: &str, interests: &[&str]) -> CommunityApp {
    CommunityApp::with_member(
        name,
        "pw",
        Profile::new(name).with_interests(interests.iter().copied()),
    )
    // Live runs in wall-clock time: refresh fast so the test finishes
    // quickly.
    .with_refresh_interval(Duration::from_millis(400))
}

#[test]
fn three_member_community_over_real_sockets() {
    let mut net = LiveConfig::default().network();
    let alice = net
        .spawn("alice-host", member("alice", &["rust", "sauna"]))
        .expect("bind");
    let _bob = net
        .spawn("bob-host", member("bob", &["Rust", "chess"]))
        .expect("bind");
    let _carol = net
        .spawn("carol-host", member("carol", &["rust", "sauna"]))
        .expect("bind");

    // Dynamic groups form across real TCP connections.
    assert!(
        net.run_until(Duration::from_secs(15), |n| {
            let groups = n.with_app(alice, |app, _| app.groups());
            groups
                .iter()
                .any(|g| g.key == "rust" && g.members.len() == 3)
                && groups
                    .iter()
                    .any(|g| g.key == "sauna" && g.members.len() == 2)
        }),
        "groups: {:?}",
        net.with_app(alice, |app, _| app.groups())
    );
    let outcome = move |n: &LiveNet<CommunityApp>, op| {
        n.with_app(alice, move |app, _| {
            app.outcome(op).map(|o| o.result.clone())
        })
    };

    // A fan-out operation over the sockets.
    let op = net.with_app(alice, |app, ctx| app.get_member_list(ctx));
    assert!(net.run_until(Duration::from_secs(10), |n| outcome(n, op).is_some()));
    match outcome(&net, op).expect("completed") {
        OpResult::Members(names) => assert_eq!(names, ["bob", "carol"]),
        other => panic!("unexpected {other:?}"),
    }

    // A direct message.
    let op = net.with_app(alice, |app, ctx| {
        app.send_message("carol", "hi", "tcp!", ctx)
    });
    assert!(net.run_until(Duration::from_secs(10), |n| outcome(n, op).is_some()));
    assert_eq!(
        outcome(&net, op).expect("completed"),
        OpResult::MessageResult { written: true }
    );
}

#[test]
fn gossip_binds_members_over_real_sockets() {
    // The app's own switch is the one way to turn gossip on, live too.
    let gossiping = |name, interests| {
        member(name, interests)
            .with_gossip(GossipConfig::default().tick_every(Duration::from_millis(100)))
    };
    let mut net = LiveConfig::default().network();
    let alice = net
        .spawn("alice-host", gossiping("alice", &["rust", "sauna"]))
        .expect("bind");
    let _bob = net
        .spawn("bob-host", gossiping("bob", &["Rust", "chess"]))
        .expect("bind");
    let bob_binding = move |n: &LiveNet<CommunityApp>| {
        n.with_app(alice, |app, _| {
            let rt = app.gossip().expect("gossip enabled");
            rt.bindings().get("bob-host").cloned()
        })
    };
    assert!(
        net.run_until(Duration::from_secs(15), |n| bob_binding(n)
            .is_some_and(|b| b.member.is_some())),
        "alice's bindings: {:?}",
        net.with_app(alice, |app, _| app.gossip().map(|rt| rt.bindings().clone()))
    );
    let binding = bob_binding(&net).expect("bound");
    assert_eq!(binding.member.as_deref(), Some("bob"));
    let mut keys: Vec<&str> = binding.interests.iter().map(Interest::key).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["chess", "rust"]);
}

// ---------------------------------------------------------------------
// LiveServer: a thin blocking test client speaking the live wire protocol.
// ---------------------------------------------------------------------

struct ThinClient {
    stream: TcpStream,
    frames: FrameBuf,
}

impl ThinClient {
    /// Connects, handshakes for the community service and asserts the
    /// accepting verdict.
    fn connect(addr: SocketAddr, id: u64) -> ThinClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let hs = Handshake {
            from: DeviceId::new(id),
            service: SERVICE_NAME.into(),
            resume: None,
        };
        let mut c = ThinClient {
            stream,
            frames: FrameBuf::new(),
        };
        c.stream.write_all(&frame(&hs.encode())).expect("handshake");
        let verdict = c.recv(Duration::from_secs(10)).expect("verdict frame");
        assert_eq!(
            verdict.first(),
            Some(&VERDICT_ACCEPT),
            "verdict {verdict:?}"
        );
        c
    }

    /// Pops the next frame, reading (with a short poll interval) until
    /// `timeout`.
    fn recv(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        self.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        loop {
            if let Ok(Some(f)) = self.frames.pop() {
                return Some(f);
            }
            if Instant::now() >= deadline {
                return None;
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return self.frames.pop().ok().flatten(),
                Ok(n) => self.frames.extend(&buf[..n]),
                Err(e)
                    if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                }
                Err(_) => return self.frames.pop().ok().flatten(),
            }
        }
    }

    /// One request/response round trip.
    fn round_trip(&mut self, req: &Request) -> Response {
        self.stream
            .write_all(&frame(&req.encode()))
            .expect("write request");
        let f = self.recv(Duration::from_secs(10)).expect("response frame");
        Response::decode_exact(&f).expect("decode response")
    }
}

/// A client that floods requests and never reads: the reactor's shedding
/// victim. Nonblocking so the flood can be pumped from the test thread.
struct StalledClient {
    stream: TcpStream,
    out: Vec<u8>,
    off: usize,
}

impl StalledClient {
    fn connect(addr: SocketAddr, id: u64) -> StalledClient {
        let c = ThinClient::connect(addr, id);
        c.stream.set_nonblocking(true).expect("nonblocking");
        let payload = Request::GetProfile {
            member: "bob".into(),
            requester: format!("gawker-{id}"),
        }
        .encode();
        // Enough pipelined requests that the responses overwhelm any queue
        // cap this test configures (each response carries the profile).
        let mut out = Vec::new();
        for _ in 0..4000 {
            out.extend_from_slice(&frame(&payload));
        }
        StalledClient {
            stream: c.stream,
            out,
            off: 0,
        }
    }

    /// Writes as much of the flood as the socket accepts right now.
    fn pump(&mut self) {
        while self.off < self.out.len() {
            match self.stream.write(&self.out[self.off..]) {
                Ok(0) => return,
                Ok(n) => self.off += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Switches to reading and hunts for the farewell control frame,
    /// draining any buffered responses in front of it.
    fn read_farewell(mut self, timeout: Duration) -> Option<ErrorKind> {
        let deadline = Instant::now() + timeout;
        let mut frames = FrameBuf::new();
        let mut eof = false;
        while Instant::now() < deadline {
            let mut buf = [0u8; 64 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => eof = true,
                Ok(n) => frames.extend(&buf[..n]),
                Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(_) => eof = true,
            }
            while let Ok(Some(f)) = frames.pop() {
                if let Some(kind) = parse_farewell(&f) {
                    return Some(kind);
                }
            }
            if eof {
                return None;
            }
        }
        None
    }
}

fn serving_bob(queue_cap: usize) -> LiveServer<CommunityApp> {
    LiveConfig::default()
        .with_listen_shards(1)
        .with_queue_cap(queue_cap)
        .with_auto_service_discovery(false)
        .serve("live-daemon", member("bob", &["rust", "sauna", "football"]))
        .expect("spawn server")
}

#[test]
fn shed_client_observes_overloaded_farewell() {
    let server = serving_bob(4 * 1024);
    let mut stalled = StalledClient::connect(server.addr(), 1);

    // Flood without reading until the reactor sheds the connection.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().shed == 0 {
        assert!(Instant::now() < deadline, "server never shed the stall");
        stalled.pump();
        std::thread::sleep(Duration::from_millis(2));
    }

    // The shed client learns *why* from the farewell control frame — the
    // documented, stable wire code for backpressure shedding.
    assert_eq!(
        stalled.read_farewell(Duration::from_secs(10)),
        Some(ErrorKind::Overloaded)
    );
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    server.shutdown();
}

#[test]
fn stalled_client_does_not_delay_responsive_peers() {
    let server = serving_bob(4 * 1024);
    let mut stalled = StalledClient::connect(server.addr(), 1);
    let mut peers: Vec<ThinClient> = (2..5)
        .map(|id| ThinClient::connect(server.addr(), id))
        .collect();

    // Interleave: pump the stall, then demand a round trip from every
    // responsive peer. A reactor that lets one dead socket back up the
    // daemon would blow the per-round-trip latency bound here.
    let mut slowest = Duration::ZERO;
    for _ in 0..25 {
        stalled.pump();
        for c in peers.iter_mut() {
            let t0 = Instant::now();
            let resp = c.round_trip(&Request::GetOnlineMemberList);
            slowest = slowest.max(t0.elapsed());
            assert_eq!(resp, Response::MemberList(vec!["bob".into()]));
        }
    }
    assert!(
        slowest < Duration::from_secs(2),
        "responsive peer stalled for {slowest:?} behind a dead socket"
    );
    // The stall really happened — isolation was exercised, not vacuous.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().shed == 0 {
        assert!(Instant::now() < deadline, "server never shed the stall");
        stalled.pump();
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
}

#[test]
fn journal_resumes_community_state_across_restart() {
    let mut path = std::env::temp_dir();
    path.push(format!("ph-live-restart-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // First life: boot around the journal, take a mutation over TCP.
    let (persist, _empty) = JournalPersist::open(&path).expect("open journal");
    let server = LiveConfig::default()
        .with_auto_service_discovery(false)
        .with_snapshot_path(&path);
    let server = LiveServer::spawn_with(
        server,
        "live-daemon",
        member("bob", &["rust"]),
        Some(Box::new(persist)),
    )
    .expect("spawn server");
    let mut client = ThinClient::connect(server.addr(), 1);
    assert_eq!(
        client.round_trip(&Request::AddProfileComment {
            member: "bob".into(),
            author: "alice".into(),
            comment: "survives the restart".into(),
        }),
        Response::CommentWritten
    );
    drop(client);
    // Orderly shutdown checkpoints the journal around the final store.
    server.shutdown();

    // Second life: replay the journal and serve the resumed store.
    let (persist, resumed) = JournalPersist::open(&path).expect("reopen journal");
    assert_eq!(
        resumed
            .account("bob")
            .expect("bob survives")
            .profile()
            .comments
            .len(),
        1
    );
    let server = LiveServer::spawn_with(
        LiveConfig::default()
            .with_auto_service_discovery(false)
            .with_snapshot_path(&path),
        "live-daemon",
        CommunityApp::new(resumed).with_refresh_interval(Duration::from_millis(400)),
        Some(Box::new(persist)),
    )
    .expect("respawn server");
    let mut client = ThinClient::connect(server.addr(), 2);
    match client.round_trip(&Request::GetProfile {
        member: "bob".into(),
        requester: "carol".into(),
    }) {
        Response::Profile(view) => {
            assert_eq!(
                view.comments,
                vec!["alice: survives the restart".to_string()]
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
