//! # ph-community — social networking on mobile environment, on top of PeerHood
//!
//! This crate is the primary contribution of the reproduced thesis
//! (*Social Networking on Mobile Environment on top of PeerHood*, LUT 2008):
//! a social-networking **middleware** for mobile ad-hoc environments. There
//! is no central server — each personal trusted device carries its user's
//! profile, and devices that come into radio range of each other form
//! interest groups **dynamically** (Figure 6 of the thesis).
//!
//! ## Layers
//!
//! * Domain model: [`profile`], [`interest`], [`message`], [`content`],
//!   [`store`] (accounts, login, trusted friends, shared content);
//! * Matching: [`semantics`] (synonym teaching — the thesis's named future
//!   work) and [`discovery`] (the dynamic group discovery algorithm);
//! * Wire protocol: [`protocol`] (the `PS_*` operations of Table 6) and
//!   [`server`] (request dispatch);
//! * The application: [`node::CommunityApp`], a PeerHood
//!   [`Application`](peerhood::Application) combining client and server,
//!   runnable under the deterministic simulator or the live TCP driver.
//!
//! ## Example: two users meet and a group forms
//!
//! ```rust
//! use ph_community::node::CommunityApp;
//! use ph_community::profile::Profile;
//! use peerhood::sim::Cluster;
//! use netsim::world::NodeBuilder;
//! use netsim::geometry::Point2;
//! use netsim::SimTime;
//!
//! let mut cluster = Cluster::new(7);
//! let a = cluster.add_node(
//!     NodeBuilder::new("alice-phone").at(Point2::new(0.0, 0.0)),
//!     CommunityApp::with_member("alice", "pw", Profile::new("Alice").with_interests(["football"])),
//! );
//! let _b = cluster.add_node(
//!     NodeBuilder::new("bob-phone").at(Point2::new(4.0, 0.0)),
//!     CommunityApp::with_member("bob", "pw", Profile::new("Bob").with_interests(["Football", "chess"])),
//! );
//! cluster.start();
//! cluster.run_until(SimTime::from_secs(30));
//! let groups = cluster.app(a).groups();
//! assert_eq!(groups.len(), 1);
//! assert_eq!(groups[0].members, vec!["alice".to_string(), "bob".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod discovery;
pub mod epidemic;
pub mod error;
pub mod groups;
pub mod interest;
pub mod intern;
pub mod journal;
pub mod message;
pub mod node;
pub mod profile;
pub mod protocol;
pub mod semantics;
pub mod server;
pub mod store;

pub use discovery::{Discovery, Group, GroupSet};
pub use epidemic::{Binding, BlobDelivery, GossipContent, GossipNews, GossipRuntime};
pub use error::CommunityError;
pub use groups::{GroupEvent, GroupRegistry};
pub use interest::{Interest, InterestSet};
pub use journal::{JournalPersist, StoreJournal};
pub use node::{CommunityApp, OpId, OpOutcome, OpResult, RetryPolicy, SharedOutcome, SERVICE_NAME};
pub use profile::{Profile, ProfileView};
pub use protocol::{Request, Response};
pub use semantics::{MatchPolicy, SynonymTable};
pub use server::{handle_request, handle_request_cached, ReplayCache};
pub use store::MemberStore;
