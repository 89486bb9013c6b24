//! Property test: the daemon state machine survives arbitrary input
//! sequences without panicking, and its outputs stay causally sane.

use codec::prop::{check, Config, Gen};
use codec::Bytes;

use netsim::{SimTime, Technology};
use ph_peerhood::api::AppRequest;
use ph_peerhood::config::DaemonConfig;
use ph_peerhood::daemon::{Daemon, DaemonInput, DaemonOutput};
use ph_peerhood::plugin::PluginEvent;
use ph_peerhood::service::ServiceInfo;
use ph_peerhood::types::{AttemptId, ConnId, DeviceId, DeviceInfo, LinkId, ResumeToken};

fn gen_tech(g: &mut Gen) -> Technology {
    *g.pick(&Technology::ALL)
}

fn gen_device(g: &mut Gen) -> DeviceInfo {
    let id = g.u64(6);
    DeviceInfo::new(DeviceId::new(id), format!("d{id}"), Technology::ALL)
}

fn gen_name(g: &mut Gen) -> String {
    g.string_from("abc", 1, 4)
}

fn gen_input(g: &mut Gen) -> DaemonInput {
    // Small id spaces so generated ids sometimes collide with real state.
    match g.u64(17) {
        0 => DaemonInput::Tick,
        1 => DaemonInput::App(AppRequest::GetServiceList {
            device: DeviceId::new(g.u64(6)),
        }),
        2 => DaemonInput::App(AppRequest::GetDeviceList),
        3 => DaemonInput::App(AppRequest::Connect {
            device: DeviceId::new(g.u64(6)),
            service: gen_name(g),
        }),
        4 => DaemonInput::App(AppRequest::Send {
            conn: ConnId::new(g.u64(8)),
            payload: Bytes::from_static(b"x"),
        }),
        5 => DaemonInput::App(AppRequest::Close {
            conn: ConnId::new(g.u64(8)),
        }),
        6 => DaemonInput::App(AppRequest::Monitor {
            device: DeviceId::new(g.u64(6)),
        }),
        7 => DaemonInput::App(AppRequest::RegisterService(ServiceInfo::new(gen_name(g)))),
        8 => DaemonInput::App(AppRequest::UnregisterService(gen_name(g))),
        // Plugin events, including ones referencing unknown state.
        9 => DaemonInput::Plugin(PluginEvent::InquiryResponse {
            technology: gen_tech(g),
            device: gen_device(g),
        }),
        10 => DaemonInput::Plugin(PluginEvent::InquiryComplete {
            technology: gen_tech(g),
        }),
        11 => DaemonInput::Plugin(PluginEvent::ServiceQuery {
            device: DeviceId::new(g.u64(6)),
        }),
        12 => DaemonInput::Plugin(PluginEvent::ServiceReply {
            device: DeviceId::new(g.u64(6)),
            services: vec![ServiceInfo::new("a")],
        }),
        13 => DaemonInput::Plugin(PluginEvent::ConnectResult {
            attempt: AttemptId::new(g.u64(8)),
            result: if g.bool() {
                Ok(LinkId::new(g.u64(8)))
            } else {
                Err("no".into())
            },
        }),
        14 => DaemonInput::Plugin(PluginEvent::IncomingConnection {
            link: LinkId::new(g.u64(8)),
            device: gen_device(g),
            service: gen_name(g),
            technology: gen_tech(g),
            resume: if g.bool() {
                Some(ResumeToken {
                    initiator: DeviceId::new(g.u64(6)),
                    conn: ConnId::new(g.u64(8)),
                })
            } else {
                None
            },
        }),
        15 => DaemonInput::Plugin(PluginEvent::Frame {
            link: LinkId::new(g.u64(8)),
            payload: Bytes::from_static(b"y"),
        }),
        16 => DaemonInput::Plugin(PluginEvent::PeerClosed {
            link: LinkId::new(g.u64(8)),
        }),
        _ => DaemonInput::Plugin(PluginEvent::LinkDown {
            link: LinkId::new(g.u64(8)),
        }),
    }
}

#[test]
fn daemon_survives_arbitrary_input_sequences() {
    check(
        &Config::with_cases(256),
        "daemon survives arbitrary input sequences",
        |g| g.vec_of(80, |g| (gen_input(g), g.u64(5_000_000))),
        |inputs| {
            let me = DeviceInfo::new(DeviceId::new(0), "me", Technology::ALL);
            let mut daemon = Daemon::new(&me, DaemonConfig::default());
            let mut now = SimTime::ZERO;
            for (input, advance_micros) in inputs {
                now += std::time::Duration::from_micros(*advance_micros);
                let mut out = Vec::new();
                daemon.handle(now, input.clone(), &mut out);
                // Causal sanity: any requested wake-up is strictly in the
                // future.
                for o in &out {
                    if let DaemonOutput::WakeAt(t) = o {
                        assert!(*t > now, "wake at {t:?} not after {now:?}");
                    }
                }
            }
        },
    );
}
