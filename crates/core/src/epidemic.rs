//! Epidemic payloads and the node-side gossip runtime.
//!
//! The peerhood [`Gossip`] state machine is payload-agnostic; this module
//! defines what the community application actually disseminates
//! ([`GossipContent`]) and wraps the state machine in a [`GossipRuntime`]
//! that owns the node-facing bookkeeping:
//!
//! * idempotent link-up/link-down tracking (radio events can repeat);
//! * per-origin sequence numbers feeding [`message_id`] and ordering each
//!   device's [`Binding`]s;
//! * the latest binding of every device heard from
//!   ([`GossipRuntime::binding`]), which lets the app fill a radio peer's
//!   member and interests without polling it;
//! * the gossip-learned membership table ([`GossipRuntime::remote_members`])
//!   that [`crate::discovery::Discovery`] merges with radio neighbors, so
//!   multi-hop members join groups through the very same path
//!   single-hop encounters use;
//! * a log of received shared-content blobs with hop counts and receipt
//!   times, which the harnesses turn into delivery-ratio and latency
//!   metrics.
//!
//! Nothing here performs IO either: [`crate::node::CommunityApp`] drains
//! [`GossipRuntime::take_outbox`] into `PS_GOSSIP` wire frames.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use codec::{decode_seq, encode_seq, Bytes, DecodeError, Wire};
use netsim::SimTime;
use peerhood::gossip::{message_id, Gossip, GossipConfig, GossipMsg, GossipStats};

use crate::interest::Interest;

/// What one gossip payload carries: only what a receiver acts on. Group
/// events are not gossiped — every node derives its own groups from the
/// members it knows (DESIGN §15).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipContent {
    /// A device's binding: who is logged in on it, if anyone, and their
    /// interests. Flooded so devices that never meet the member directly
    /// can still group with them, and so radio peers need not poll the
    /// device for the same facts (DESIGN §15).
    Member {
        /// The announcing device's name.
        device: String,
        /// The device's per-origin sequence number at publication; a
        /// higher one supersedes.
        seq: u64,
        /// The member logged in on the device, `None` when nobody is.
        member: Option<String>,
        /// Their interests at announcement time (empty without a member).
        interests: Vec<Interest>,
    },
    /// Shared content, disseminated whole.
    Blob {
        /// The publishing member's name.
        origin: String,
        /// A human-readable content name.
        name: String,
        /// The content bytes.
        data: Bytes,
    },
}

// Tags 1 and 2 are retired: they carried member announcements without a
// device and sequence number, and group news. Older peers may still send
// them, so they stay a `BadTag` and are not reused.
mod tag {
    pub const BLOB: u8 = 3;
    pub const MEMBER: u8 = 4;
}

impl Wire for GossipContent {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            GossipContent::Member {
                device,
                seq,
                member,
                interests,
            } => {
                out.push(tag::MEMBER);
                device.encode_to(out);
                seq.encode_to(out);
                member.encode_to(out);
                encode_seq(interests, out);
            }
            GossipContent::Blob { origin, name, data } => {
                out.push(tag::BLOB);
                origin.encode_to(out);
                name.encode_to(out);
                data.encode_to(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            tag::MEMBER => Ok(GossipContent::Member {
                device: String::decode(input)?,
                seq: u64::decode(input)?,
                member: Option::<String>::decode(input)?,
                interests: decode_seq::<Interest>(input)?,
            }),
            tag::BLOB => Ok(GossipContent::Blob {
                origin: String::decode(input)?,
                name: String::decode(input)?,
                data: Bytes::decode(input)?,
            }),
            t => Err(DecodeError::BadTag {
                what: "GossipContent",
                tag: t,
            }),
        }
    }
}

/// One shared-content blob that reached this node, with the metrics the
/// harnesses aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobDelivery {
    /// Receipt time (publication time at the origin itself).
    pub at: SimTime,
    /// The publishing member.
    pub origin: String,
    /// The content name.
    pub name: String,
    /// Radio hops from the origin (0 at the origin).
    pub hops: u8,
    /// Payload size in bytes.
    pub size: usize,
}

/// What a device last announced about itself: the newest
/// [`GossipContent::Member`] heard from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Binding {
    /// The announcement's per-origin sequence number.
    pub seq: u64,
    /// The member logged in on the device, `None` when nobody is.
    pub member: Option<String>,
    /// Their interests.
    pub interests: Vec<Interest>,
}

/// Decoded gossip news for the node to act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipNews {
    /// A (possibly multi-hop) device binding newer than any heard before
    /// arrived; [`GossipRuntime::binding`] holds it.
    Member {
        /// The announcing device's name.
        device: String,
        /// Hops from the announcing node.
        hops: u8,
    },
    /// A shared-content blob arrived (already logged in the runtime).
    Blob(BlobDelivery),
}

/// The node-side gossip runtime: the [`Gossip`] state machine plus the
/// community-specific bookkeeping listed in the module docs.
#[derive(Clone, Debug)]
pub struct GossipRuntime {
    gossip: Gossip,
    next_seq: u64,
    /// Interests of members learned through gossip, by member name.
    remote: BTreeMap<String, Vec<Interest>>,
    /// The newest binding heard from each other device, by device name.
    bindings: BTreeMap<String, Binding>,
    blob_log: Vec<BlobDelivery>,
    /// Peers with a live radio link (dedups repeated up/down events).
    links: BTreeSet<Arc<str>>,
    /// The last `(member, interests)` binding published, to re-announce
    /// only on change.
    announced: Option<(Option<String>, Vec<Interest>)>,
}

impl GossipRuntime {
    /// Creates the runtime for device `me` under `config`.
    pub fn new(me: impl Into<String>, config: GossipConfig) -> Self {
        GossipRuntime {
            gossip: Gossip::new(me, config),
            next_seq: 0,
            remote: BTreeMap::new(),
            bindings: BTreeMap::new(),
            blob_log: Vec::new(),
            links: BTreeSet::new(),
            announced: None,
        }
    }

    /// The underlying state machine (views, cache, stats).
    #[must_use]
    pub fn gossip(&self) -> &Gossip {
        &self.gossip
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &GossipConfig {
        self.gossip.config()
    }

    /// Broadcast-layer counters so far.
    #[must_use]
    pub fn stats(&self) -> GossipStats {
        self.gossip.stats()
    }

    /// A radio link to `peer` is usable. Returns whether this was a
    /// transition (repeat notifications are ignored).
    pub fn link_up(&mut self, peer: &Arc<str>, now: SimTime) -> bool {
        if self.links.contains(peer) {
            return false;
        }
        self.links.insert(Arc::clone(peer));
        self.gossip.neighbor_up(peer, now);
        true
    }

    /// The radio link to `peer` is gone. Returns whether this was a
    /// transition.
    pub fn link_down(&mut self, peer: &str, now: SimTime) -> bool {
        if !self.links.remove(peer) {
            return false;
        }
        self.gossip.neighbor_down(peer, now);
        true
    }

    /// Whether a live link to `peer` is currently tracked.
    #[must_use]
    pub fn is_linked(&self, peer: &str) -> bool {
        self.links.contains(peer)
    }

    /// Publishes this device's binding if `(member, interests)` differs
    /// from the last one published (the first call always publishes).
    /// The comparison runs in place, so an unchanged binding allocates
    /// nothing. Returns whether anything was published.
    pub fn announce_member<'a>(
        &mut self,
        member: Option<&str>,
        interests: impl Iterator<Item = &'a Interest> + Clone,
        now: SimTime,
    ) -> bool {
        let unchanged = self
            .announced
            .as_ref()
            .is_some_and(|(m, i)| m.as_deref() == member && i.iter().eq(interests.clone()));
        if unchanged {
            return false;
        }
        let member = member.map(str::to_owned);
        let interests: Vec<Interest> = interests.cloned().collect();
        self.publish(
            GossipContent::Member {
                device: self.gossip.me().to_owned(),
                seq: self.next_seq,
                member: member.clone(),
                interests: interests.clone(),
            },
            now,
        );
        self.announced = Some((member, interests));
        true
    }

    /// Publishes a shared-content blob and logs it locally (the origin
    /// counts as a delivery at hop 0). Returns the message id.
    pub fn publish_blob(&mut self, origin: &str, name: &str, data: Bytes, now: SimTime) -> u64 {
        self.blob_log.push(BlobDelivery {
            at: now,
            origin: origin.to_string(),
            name: name.to_string(),
            hops: 0,
            size: data.as_slice().len(),
        });
        self.publish(
            GossipContent::Blob {
                origin: origin.to_string(),
                name: name.to_string(),
                data,
            },
            now,
        )
    }

    fn publish(&mut self, content: GossipContent, now: SimTime) -> u64 {
        let id = message_id(self.gossip.me(), self.next_seq);
        self.next_seq += 1;
        self.gossip.publish(id, Bytes::from(content.encode()), now);
        id
    }

    /// Feeds one incoming `PS_GOSSIP` batch from `peer` through the state
    /// machine, decoding first-time deliveries into [`GossipNews`].
    /// Undecodable payloads are dropped (they still count as delivered for
    /// dedup purposes).
    pub fn handle_batch(
        &mut self,
        peer: &Arc<str>,
        msgs: Vec<GossipMsg>,
        now: SimTime,
    ) -> Vec<GossipNews> {
        // A batch proves the link is alive even if the connect event raced.
        self.link_up(peer, now);
        let mut news = Vec::new();
        for msg in msgs {
            for delivery in self.gossip.on_msg(peer, msg, now) {
                let Ok(content) = GossipContent::decode_exact(delivery.payload.as_slice()) else {
                    continue;
                };
                match content {
                    GossipContent::Member {
                        device,
                        seq,
                        member,
                        interests,
                    } => {
                        let stale = self.bindings.get(&device).is_some_and(|b| b.seq >= seq);
                        if stale || device == self.gossip.me() {
                            continue;
                        }
                        if let Some(member) = &member {
                            self.remote.insert(member.clone(), interests.clone());
                        }
                        let binding = Binding {
                            seq,
                            member,
                            interests,
                        };
                        self.bindings.insert(device.clone(), binding);
                        news.push(GossipNews::Member {
                            device,
                            hops: delivery.hops,
                        });
                    }
                    GossipContent::Blob { origin, name, data } => {
                        let record = BlobDelivery {
                            at: now,
                            origin,
                            name,
                            hops: delivery.hops,
                            size: data.as_slice().len(),
                        };
                        self.blob_log.push(record.clone());
                        news.push(GossipNews::Blob(record));
                    }
                }
            }
        }
        news
    }

    /// Periodic housekeeping; call once per
    /// [`GossipConfig::tick_interval`](peerhood::gossip::GossipConfig::tick_interval).
    pub fn on_tick(&mut self, now: SimTime) {
        self.gossip.on_tick(now);
    }

    /// Drains queued `(destination, message)` pairs for the transport.
    pub fn take_outbox(&mut self) -> Vec<(Arc<str>, GossipMsg)> {
        self.gossip.take_outbox()
    }

    /// Members learned through gossip, with their announced interests —
    /// merged into [`crate::discovery::Discovery`]'s neighbor list (direct
    /// radio knowledge wins on conflict).
    #[must_use]
    pub fn remote_members(&self) -> &BTreeMap<String, Vec<Interest>> {
        &self.remote
    }

    /// The newest binding heard from the device named `device` (never this
    /// node's own).
    #[must_use]
    pub fn binding(&self, device: &str) -> Option<&Binding> {
        self.bindings.get(device)
    }

    /// Every blob that reached this node (origin's own publishes included,
    /// at hop 0), in receipt order.
    #[must_use]
    pub fn blob_log(&self) -> &[BlobDelivery] {
        &self.blob_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GossipConfig {
        GossipConfig::default().rng_salt(11)
    }

    fn n(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    fn interests(items: &[&str]) -> Vec<Interest> {
        items.iter().map(Interest::new).collect()
    }

    /// Two runtimes with a live link both ways and empty outboxes.
    fn linked(a: &str, b: &str) -> (GossipRuntime, GossipRuntime) {
        let t = SimTime::ZERO;
        let (mut x, mut y) = (GossipRuntime::new(a, cfg()), GossipRuntime::new(b, cfg()));
        x.link_up(&n(b), t);
        y.link_up(&n(a), t);
        x.take_outbox();
        y.take_outbox();
        (x, y)
    }

    /// Everything `from` queued for `to`.
    fn batch_for(from: &mut GossipRuntime, to: &str) -> Vec<GossipMsg> {
        from.take_outbox()
            .into_iter()
            .filter(|(dest, _)| &**dest == to)
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn content_wire_round_trips_every_variant() {
        let contents = [
            GossipContent::Member {
                device: "alice-pc".into(),
                seq: 7,
                member: Some("alice".into()),
                interests: interests(&["Football", "Chess"]),
            },
            GossipContent::Member {
                device: "ferry-pc".into(),
                seq: 0,
                member: None,
                interests: Vec::new(),
            },
            GossipContent::Blob {
                origin: "alice".into(),
                name: "photo.jpg".into(),
                data: Bytes::from(vec![1, 2, 3]),
            },
        ];
        for content in &contents {
            let back = GossipContent::decode_exact(&content.encode()).expect("round trip");
            assert_eq!(&back, content);
        }
        for retired_or_unknown in [1, 2, 0x4f] {
            assert!(matches!(
                GossipContent::decode_exact(&[retired_or_unknown]),
                Err(DecodeError::BadTag {
                    what: "GossipContent",
                    ..
                })
            ));
        }
    }

    #[test]
    fn link_transitions_are_idempotent() {
        let t = SimTime::ZERO;
        let mut rt = GossipRuntime::new("a", cfg());
        assert!(rt.link_up(&n("b"), t));
        assert!(!rt.link_up(&n("b"), t));
        assert!(rt.is_linked("b"));
        assert!(rt.link_down("b", t));
        assert!(!rt.link_down("b", t));
        assert!(!rt.is_linked("b"));
    }

    #[test]
    fn bindings_flow_between_runtimes() {
        let t = SimTime::ZERO;
        let (mut a, mut b) = linked("a", "b");
        let football = interests(&["football"]);
        assert!(a.announce_member(Some("alice"), football.iter(), t));
        // Unchanged announcement is suppressed.
        assert!(!a.announce_member(Some("alice"), football.iter(), t));
        let batch = batch_for(&mut a, "b");
        assert!(!batch.is_empty());
        let news = b.handle_batch(&n("a"), batch, t);
        assert!(matches!(
            news.as_slice(),
            [GossipNews::Member { device, hops: 1 }] if device == "a"
        ));
        let binding = b.binding("a").expect("bound");
        assert_eq!((binding.seq, binding.member.as_deref()), (0, Some("alice")));
        assert_eq!(binding.interests, football);
        assert_eq!(b.remote_members()["alice"], football);
        // Changed interests re-announce; so does a logout, as `None`.
        let both = interests(&["football", "chess"]);
        assert!(a.announce_member(Some("alice"), both.iter(), t));
        assert!(a.announce_member(None, [].iter(), t));
        assert!(!a.announce_member(None, [].iter(), t));
        b.handle_batch(&n("a"), batch_for(&mut a, "b"), t);
        let binding = b.binding("a").expect("bound");
        assert_eq!((binding.seq, binding.member.as_deref()), (2, None));
        // The member table is not cleared by a logout (no expiry yet).
        assert_eq!(b.remote_members()["alice"], both);
    }

    #[test]
    fn an_older_binding_that_arrives_late_is_ignored() {
        let t = SimTime::ZERO;
        let (mut a, mut b) = linked("a", "b");
        a.announce_member(Some("alice"), interests(&["chess"]).iter(), t);
        let older = batch_for(&mut a, "b");
        a.announce_member(Some("robert"), interests(&["sauna"]).iter(), t);
        let newer = batch_for(&mut a, "b");
        assert_eq!(b.handle_batch(&n("a"), newer, t).len(), 1);
        // The older payload is a first delivery (a new message id), but
        // its sequence number is lower: no news, and the binding stays.
        assert!(b.handle_batch(&n("a"), older, t).is_empty());
        let binding = b.binding("a").expect("bound");
        assert_eq!(
            (binding.seq, binding.member.as_deref()),
            (1, Some("robert"))
        );
        assert_eq!(binding.interests, interests(&["sauna"]));
        assert!(!b.remote_members().contains_key("alice"));
    }

    #[test]
    fn blob_publish_logs_at_origin_and_at_receiver() {
        let t = SimTime::from_secs(30);
        let (mut a, mut b) = linked("a", "b");
        let id = a.publish_blob("alice", "song.mp3", Bytes::from(vec![9; 16]), t);
        assert!(a.gossip().has_seen(id));
        assert_eq!(a.blob_log().len(), 1);
        assert_eq!(a.blob_log()[0].hops, 0);
        let batch: Vec<GossipMsg> = a.take_outbox().into_iter().map(|(_, m)| m).collect();
        let news = b.handle_batch(&n("a"), batch, t + std::time::Duration::from_secs(2));
        assert!(matches!(news.as_slice(), [GossipNews::Blob(d)] if d.hops == 1 && d.size == 16));
        assert_eq!(b.blob_log().len(), 1);
        assert_eq!(b.blob_log()[0].origin, "alice");
    }

    #[test]
    fn own_binding_is_not_recorded() {
        let t = SimTime::ZERO;
        let (mut a, mut b) = linked("a", "b");
        // a relays a binding that names b's own device (a forged or
        // echoed announcement): b keeps no binding for itself and learns
        // no member from it.
        let content = GossipContent::Member {
            device: "b".into(),
            seq: 0,
            member: Some("bob".into()),
            interests: interests(&["x"]),
        };
        a.publish(content, t);
        let news = b.handle_batch(&n("a"), batch_for(&mut a, "b"), t);
        assert!(news.is_empty());
        assert!(b.binding("b").is_none());
        assert!(b.remote_members().is_empty());
    }
}
