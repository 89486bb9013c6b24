//! The application-facing PeerHood API surface.
//!
//! The thesis's PeerHood Library offers applications a local socket interface
//! to the daemon. In this reimplementation the same boundary is a pair of
//! message enums: applications issue [`AppRequest`]s and receive
//! [`AppEvent`]s. The typed [`crate::library::Library`] facade builds the
//! requests; drivers shuttle them to the daemon.

use codec::Bytes;

use crate::error::PeerHoodError;
use crate::service::ServiceInfo;
use crate::types::{CloseReason, ConnId, DeviceId, DeviceInfo};
use netsim::Technology;

/// A request from an application to its local PeerHood daemon.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AppRequest {
    /// Register a local service so remote peers can discover and connect to
    /// it (Table 3: *Service Sharing*).
    RegisterService(ServiceInfo),
    /// Remove a previously registered local service.
    UnregisterService(String),
    /// Ask for the current neighborhood device list (Table 3: *Device
    /// Discovery*). Answered with [`AppEvent::DeviceList`].
    GetDeviceList,
    /// Ask for the services registered on a remote device (Table 3:
    /// *Service Discovery*). Answered with [`AppEvent::ServiceList`], from
    /// cache when fresh or after an on-demand query otherwise.
    GetServiceList {
        /// The device whose services are wanted.
        device: DeviceId,
    },
    /// Connect to a named service on a remote device (Table 3: *Connection
    /// Establishment*). Answered with [`AppEvent::Connected`] or
    /// [`AppEvent::ConnectFailed`].
    Connect {
        /// Target device.
        device: DeviceId,
        /// Service name on the target device.
        service: String,
    },
    /// Send application data over an established connection (Table 3:
    /// *Data Transmission*).
    Send {
        /// The connection to send on.
        conn: ConnId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Close an established connection.
    Close {
        /// The connection to close.
        conn: ConnId,
    },
    /// Begin active monitoring of a device (Table 3: *Active Monitoring*):
    /// the application is alerted when it disappears or reappears.
    Monitor {
        /// The device to watch.
        device: DeviceId,
    },
    /// Stop monitoring a device.
    Unmonitor {
        /// The device to stop watching.
        device: DeviceId,
    },
}

/// An event delivered from the daemon to the application.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AppEvent {
    /// Response to [`AppRequest::GetDeviceList`].
    DeviceList(Vec<DeviceInfo>),
    /// Response to [`AppRequest::GetServiceList`].
    ServiceList {
        /// The device that was queried.
        device: DeviceId,
        /// Its registered services (empty if it offers none or vanished
        /// before answering).
        services: Vec<ServiceInfo>,
        /// `true` when the list was served from an *expired* cache entry
        /// because the refresh query timed out (recovery policy's
        /// `serve_stale`); fresh answers and cache hits within TTL are
        /// `false`.
        stale: bool,
    },
    /// A service registration or removal succeeded/failed.
    ServiceRegistration {
        /// The service name.
        name: String,
        /// `Ok` on success.
        result: Result<(), PeerHoodError>,
    },
    /// An outgoing [`AppRequest::Connect`] succeeded.
    Connected {
        /// The new connection.
        conn: ConnId,
        /// The remote device.
        device: DeviceId,
        /// The remote service name.
        service: String,
        /// The technology the connection runs over.
        technology: Technology,
    },
    /// An outgoing [`AppRequest::Connect`] failed on every candidate
    /// technology.
    ConnectFailed {
        /// The device we tried to reach.
        device: DeviceId,
        /// The service we tried to reach.
        service: String,
        /// The error.
        error: PeerHoodError,
    },
    /// A remote peer connected to one of our registered services.
    Incoming {
        /// The new connection.
        conn: ConnId,
        /// The connecting device.
        device: DeviceId,
        /// The local service it connected to.
        service: String,
        /// The technology the connection runs over.
        technology: Technology,
    },
    /// Data arrived on a connection.
    Data {
        /// The connection.
        conn: ConnId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// A connection ended.
    Closed {
        /// The connection.
        conn: ConnId,
        /// Why it ended.
        reason: CloseReason,
    },
    /// A connection survived a link loss by migrating to another technology
    /// (Table 3: *Seamless Connectivity*).
    Handover {
        /// The connection that migrated.
        conn: ConnId,
        /// The technology it was on.
        from: Technology,
        /// The technology it is on now.
        to: Technology,
    },
    /// A new device entered the neighborhood.
    DeviceAppeared(DeviceInfo),
    /// A known device left the neighborhood (all technologies stale).
    DeviceDisappeared(DeviceInfo),
    /// A monitored device changed visibility (Table 3: *Active
    /// Monitoring*). Raised in addition to the `DeviceAppeared` /
    /// `DeviceDisappeared` broadcasts.
    MonitorAlert {
        /// The monitored device.
        device: DeviceInfo,
        /// `true` when it (re)appeared, `false` when it vanished.
        appeared: bool,
    },
}

// Every `DaemonOutput` is as wide as its widest event: a fat variant
// belongs behind a `Box`.
const _: () = assert!(std::mem::size_of::<AppEvent>() <= 72);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_cloneable_and_comparable() {
        let r = AppRequest::Connect {
            device: DeviceId::new(1),
            service: "PeerHoodCommunity".into(),
        };
        assert_eq!(r.clone(), r);
    }

    #[test]
    fn events_carry_payloads() {
        let e = AppEvent::Data {
            conn: ConnId::new(1),
            payload: Bytes::from_static(b"hello"),
        };
        match e {
            AppEvent::Data { payload, .. } => assert_eq!(&payload[..], b"hello"),
            _ => unreachable!(),
        }
    }
}
