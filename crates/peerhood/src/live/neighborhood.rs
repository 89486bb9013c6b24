//! An in-process neighborhood of live servers that discover, query and
//! dial each other over loopback TCP.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::SimTime;

use crate::app::{AppCtx, Application};
use crate::types::DeviceId;

use super::config::LiveConfig;
use super::reactor::Directory;
use super::LiveServer;

/// How often [`LiveNet::run_until`] re-evaluates its predicate.
const POLL: Duration = Duration::from_millis(2);

/// An in-process neighborhood of PeerHood devices, each a full
/// [`LiveServer`] on an ephemeral loopback port.
///
/// The servers share a directory: discovery answers with the other
/// members, SDP queries travel from core to core, and connections are
/// dialed over real `TcpStream`s with the reactor's backpressure and
/// deadlines. Each server runs on its own threads from the moment it is
/// spawned; virtual time is wall time since construction. Dropping the
/// network shuts every server down.
///
/// Built through [`LiveConfig::network`].
///
/// # Example
///
/// See `examples/live_tcp_demo.rs`; the crate test
/// `live_round_trip_over_real_tcp` is a minimal end-to-end run.
pub struct LiveNet<A> {
    config: LiveConfig,
    dir: Directory<A>,
    servers: Vec<(String, LiveServer<A>)>,
    start: Instant,
}

impl<A> LiveNet<A> {
    /// Creates an empty live network with the given configuration
    /// (the entry point behind [`LiveConfig::network`]).
    pub fn with_config(config: LiveConfig) -> Self {
        LiveNet {
            config,
            dir: Directory::default(),
            servers: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Wall-clock virtual time since construction.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The device's human-readable name.
    pub fn name(&self, device: DeviceId) -> &str {
        &self.servers[device.raw() as usize].0
    }

    /// The server hosting `device`.
    pub fn server(&self, device: DeviceId) -> &LiveServer<A> {
        &self.servers[device.raw() as usize].1
    }
}

impl<A: Application + Send + 'static> LiveNet<A> {
    /// Starts a device named `name` on an ephemeral loopback port; its
    /// `on_start` runs at once on the server's core thread.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn spawn(&mut self, name: impl Into<String>, app: A) -> io::Result<DeviceId> {
        let name = name.into();
        let id = DeviceId::new(self.servers.len() as u64);
        let config = self
            .config
            .clone()
            .with_listen(SocketAddr::from(([127, 0, 0, 1], 0)));
        let member = (id, name.clone());
        let server = LiveServer::spawn_in(config, member, app, None, Arc::clone(&self.dir))?;
        self.servers.push((name, server));
        Ok(id)
    }

    /// Runs `f` against a node's application on its core thread
    /// (scripting a user action, or reading its state).
    pub fn with_app<R: Send + 'static>(
        &self,
        device: DeviceId,
        f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R + Send + 'static,
    ) -> R {
        self.server(device).with_app(f)
    }

    /// Evaluates `stop` until it holds or `wall` elapses; returns whether
    /// it held. The servers run on their own threads, so `stop` reads
    /// their state through [`Self::with_app`]; a predicate that holds at
    /// entry returns at once.
    pub fn run_until(&self, wall: Duration, mut stop: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + wall;
        loop {
            if stop(self) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            std::thread::sleep(left.min(POLL));
        }
    }
}

impl<A> Drop for LiveNet<A> {
    fn drop(&mut self) {
        for (_, server) in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    use codec::{Bytes, Wire};

    use super::super::reactor::{listed, Member};
    use super::super::wire::{frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT};
    use super::*;
    use crate::api::AppEvent;
    use crate::error::ErrorKind;
    use crate::service::ServiceInfo;
    use crate::types::ConnId;

    #[derive(Default)]
    struct Echo {
        serve: bool,
        peers: Vec<DeviceId>,
        conn: Option<ConnId>,
        links: Vec<(DeviceId, ConnId)>,
        received: Vec<Bytes>,
        closed: usize,
        failed: usize,
    }

    impl Echo {
        fn link(&self, device: DeviceId) -> Option<ConnId> {
            self.links.iter().find(|l| l.0 == device).map(|l| l.1)
        }
    }

    impl Application for Echo {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if self.serve {
                ctx.peerhood().register_service(ServiceInfo::new("echo"));
            }
        }

        fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
            match event {
                AppEvent::DeviceAppeared(info) => self.peers.push(info.id),
                AppEvent::Connected { conn, device, .. } => {
                    self.conn = Some(conn);
                    self.links.push((device, conn));
                }
                AppEvent::ConnectFailed { .. } => self.failed += 1,
                AppEvent::Data { conn, payload } => {
                    self.received.push(payload.clone());
                    if self.serve {
                        // Echo it back.
                        ctx.peerhood().send(conn, payload);
                    }
                }
                AppEvent::Closed { .. } => self.closed += 1,
                _ => {}
            }
        }
    }

    fn server() -> Echo {
        Echo {
            serve: true,
            ..Echo::default()
        }
    }

    /// Lists a bare listener in the network's directory as device `raw`:
    /// a neighbor the reactor dials but whose socket the test drives.
    fn list_fake(net: &LiveNet<Echo>, raw: u64) -> (DeviceId, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let id = DeviceId::new(raw);
        listed(&net.dir).push(Member {
            id,
            name: format!("fake-{raw}"),
            addr: listener.local_addr().unwrap(),
            core: mpsc::channel().0,
        });
        (id, listener)
    }

    /// Accepts one connection, failing the test if none arrives in time.
    fn accept_within(listener: &TcpListener, wall: Duration) -> TcpStream {
        listener.set_nonblocking(true).unwrap();
        let t0 = Instant::now();
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    sock.set_nonblocking(false).unwrap();
                    return sock;
                }
                Err(_) if t0.elapsed() < wall => std::thread::sleep(POLL),
                Err(e) => panic!("no dial arrived: {e}"),
            }
        }
    }

    fn sees(net: &LiveNet<Echo>, who: DeviceId, whom: DeviceId) -> bool {
        net.run_until(Duration::from_secs(5), |n| {
            n.with_app(who, move |app, _| app.peers.contains(&whom))
        })
    }

    #[test]
    fn live_round_trip_over_real_tcp() {
        let mut net = LiveConfig::default().network();
        let client = net.spawn("client", Echo::default()).unwrap();
        let server = net.spawn("server", server()).unwrap();

        // Discovery happens within the 200 ms inquiry cadence.
        assert!(sees(&net, client, server), "server never discovered");

        net.with_app(client, move |_, ctx| ctx.peerhood().connect(server, "echo"));
        assert!(
            net.run_until(Duration::from_secs(5), |n| n
                .with_app(client, |app, _| app.conn.is_some())),
            "connect never completed"
        );
        let conn = net.with_app(client, |app, _| app.conn.unwrap());
        net.with_app(client, move |_, ctx| {
            ctx.peerhood()
                .send(conn, Bytes::from_static(b"over real tcp"))
        });
        assert!(
            net.run_until(Duration::from_secs(5), |n| n
                .with_app(client, |app, _| !app.received.is_empty())),
            "echo never arrived"
        );
        assert_eq!(
            net.with_app(client, |app, _| app.received[0].clone()),
            Bytes::from_static(b"over real tcp")
        );
        // Orderly close propagates.
        net.with_app(client, move |_, ctx| ctx.peerhood().close(conn));
        assert!(
            net.run_until(Duration::from_secs(5), |n| n
                .with_app(server, |app, _| app.closed > 0)),
            "server never saw the close"
        );
    }

    #[test]
    fn connect_to_unknown_service_is_rejected_over_tcp() {
        let mut net = LiveConfig::default().network();
        let client = net.spawn("client", Echo::default()).unwrap();
        let server = net.spawn("server", Echo::default()).unwrap();
        assert!(sees(&net, client, server));
        net.with_app(client, move |_, ctx| ctx.peerhood().connect(server, "nope"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(net.with_app(client, |app, _| app.conn.is_none()));
    }

    #[test]
    fn run_until_satisfied_at_entry_returns_without_polling() {
        let net: LiveNet<Echo> = LiveConfig::default().network();
        let t0 = Instant::now();
        assert!(net.run_until(Duration::from_secs(5), |_| true));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "pre-satisfied predicate must not wait for a poll round"
        );
    }

    #[test]
    fn default_config_network_builds_and_spawns() {
        // The LiveConfig builder is the only construction path now that
        // the 0.6 deprecation shims are gone.
        let mut net: LiveNet<Echo> = LiveConfig::default().network();
        assert_eq!(net.config(), &LiveConfig::default());
        let id = net.spawn("modern", Echo::default()).unwrap();
        assert_eq!(net.name(id), "modern");
    }

    #[test]
    fn unanswered_dial_fails_after_the_handshake_deadline() {
        let timeout = Duration::from_millis(300);
        let mut net = LiveConfig::default()
            .with_handshake_timeout(timeout)
            .network();
        let dialer = net.spawn("dialer", Echo::default()).unwrap();
        let (mute, listener) = list_fake(&net, 7);
        assert!(sees(&net, dialer, mute));

        net.with_app(dialer, move |_, ctx| ctx.peerhood().connect(mute, "echo"));
        let t0 = Instant::now();
        // Accept the dial and never answer its handshake.
        let _held = accept_within(&listener, Duration::from_secs(5));
        assert!(
            net.run_until(Duration::from_secs(5), |n| n
                .with_app(dialer, |app, _| app.failed > 0)),
            "dial to a mute listener never failed"
        );
        assert!(t0.elapsed() >= timeout, "failed before the deadline");
        assert_eq!(net.server(dialer).stats().handshake_failures, 1);
        assert!(net.with_app(dialer, |app, _| app.conn.is_none()));
    }

    #[test]
    fn stalled_neighbor_is_shed_while_others_keep_serving() {
        let mut net = LiveConfig::default().with_queue_cap(64 * 1024).network();
        let flooder = net.spawn("flooder", Echo::default()).unwrap();
        let echo = net.spawn("echo", server()).unwrap();
        let (stalled, listener) = list_fake(&net, 9);
        assert!(sees(&net, flooder, echo) && sees(&net, flooder, stalled));

        // The stalled neighbor accepts the dial, then never reads again.
        net.with_app(flooder, move |_, ctx| {
            ctx.peerhood().connect(echo, "echo");
            ctx.peerhood().connect(stalled, "echo");
        });
        let mut sock = accept_within(&listener, Duration::from_secs(5));
        let mut frames = FrameBuf::new();
        let mut buf = [0u8; 16 * 1024];
        let hello = loop {
            if let Some(f) = frames.pop().unwrap() {
                break f;
            }
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "dialer hung up before its handshake");
            frames.extend(&buf[..n]);
        };
        let hs = Handshake::decode_exact(&hello).unwrap();
        assert_eq!((hs.from, hs.service.as_str()), (flooder, "echo"));
        sock.write_all(&frame(&[VERDICT_ACCEPT])).unwrap();
        let linked = |n: &LiveNet<Echo>| {
            n.with_app(flooder, move |app, _| app.link(echo).zip(app.link(stalled)))
        };
        assert!(net.run_until(Duration::from_secs(5), |n| linked(n).is_some()));
        let (to_echo, to_stalled) = linked(&net).unwrap();

        // Flood the stalled link; the echo link must keep answering.
        let blob = Bytes::from(vec![0x42u8; 64 * 1024]);
        let t0 = Instant::now();
        let mut echoes = 0;
        while net.server(flooder).stats().shed == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "never shed");
            let blob = blob.clone();
            net.with_app(flooder, move |_, ctx| {
                for _ in 0..16 {
                    ctx.peerhood().send(to_stalled, blob.clone());
                }
                ctx.peerhood().send(to_echo, Bytes::from_static(b"ping"));
            });
            echoes += 1;
            let served = net.run_until(Duration::from_secs(2), |n| {
                n.with_app(flooder, move |app, _| app.received.len() >= echoes)
            });
            assert!(served, "the echo neighbor stalled behind the flood");
        }
        assert_eq!(net.server(flooder).stats().shed, 1);

        // The stalled neighbor reads its backlog, then the farewell.
        let mut last = None;
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        while let Ok(n @ 1..) = sock.read(&mut buf) {
            frames.extend(&buf[..n]);
            while let Some(f) = frames.pop().unwrap() {
                last = Some(f);
            }
        }
        assert_eq!(
            last.as_deref().and_then(parse_farewell),
            Some(ErrorKind::Overloaded)
        );
    }
}
