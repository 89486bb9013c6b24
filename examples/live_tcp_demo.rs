//! Live demo: the very same daemon + community state machines running over
//! real loopback TCP sockets instead of the simulator.
//!
//! Run with `cargo run --example live_tcp_demo`. Finishes in a few seconds
//! of wall-clock time.

use std::time::Duration;

use community::node::CommunityApp;
use community::profile::Profile;
use community::OpResult;
use peerhood::live::{LiveConfig, LiveNet};

fn main() -> std::io::Result<()> {
    let mut net = LiveConfig::default().network();
    let alice = net.spawn(
        "alice-host",
        CommunityApp::with_member(
            "alice",
            "pw",
            Profile::new("Alice").with_interests(["rust", "networks"]),
        ),
    )?;
    let bob = net.spawn(
        "bob-host",
        CommunityApp::with_member(
            "bob",
            "pw",
            Profile::new("Bob").with_interests(["Rust", "sauna"]),
        ),
    )?;

    println!("waiting for discovery + dynamic group formation over loopback TCP...");
    let has_groups = |n: &LiveNet<CommunityApp>, who| {
        n.with_app(who, |app: &mut CommunityApp, _| !app.groups().is_empty())
    };
    let formed = net.run_until(Duration::from_secs(10), |n| {
        has_groups(n, alice) && has_groups(n, bob)
    });
    assert!(formed, "groups must form over live TCP");
    for g in net.with_app(alice, |app, _| app.groups()) {
        println!("alice sees group {:?}: {:?}", g.label, g.members);
    }

    // A real message over a real socket.
    let op = net.with_app(alice, |app, ctx| {
        app.send_message("bob", "live", "these bytes crossed a real TCP socket", ctx)
    });
    let outcome = move |n: &LiveNet<CommunityApp>| {
        n.with_app(alice, move |app, _| {
            app.outcome(op).map(|o| o.result.clone())
        })
    };
    let delivered = net.run_until(Duration::from_secs(10), |n| outcome(n).is_some());
    assert!(delivered, "message op must complete");
    match outcome(&net).expect("completed") {
        OpResult::MessageResult { written: true } => println!("alice -> bob: delivered"),
        other => println!("message failed: {other:?}"),
    }
    let inbox = net.with_app(bob, |app, _| {
        let account = app.store().active_account().expect("logged in");
        account.mailbox.inbox().to_vec()
    });
    for mail in inbox {
        println!("bob's inbox: {mail}");
    }
    println!("elapsed wall-clock: {}", net.now());
    Ok(())
}
