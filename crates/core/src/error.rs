//! Error types for the PeerHood Community middleware.

use codec::DecodeError;
use peerhood::ErrorKind;
use std::error::Error as StdError;
use std::fmt;

/// Errors reported by the PeerHood Community layer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommunityError {
    /// Login failed: unknown username or wrong password.
    InvalidCredentials,
    /// The operation requires a logged-in user.
    NotLoggedIn,
    /// An account with this username already exists.
    AccountExists(String),
    /// No account with this username exists.
    NoSuchAccount(String),
    /// The referenced profile index does not exist.
    NoSuchProfile(usize),
    /// A wire message could not be decoded.
    Decode(DecodeError),
    /// A persisted member store could not be read or written.
    Persistence(String),
    /// The operation requires an active (logged-in) account, but none was
    /// found in the store — the session state is inconsistent.
    NoActiveAccount,
    /// The referenced member is not currently reachable in the
    /// neighborhood.
    MemberNotConnected(String),
    /// An operation was attempted with no connected members at all.
    NoConnectedMembers,
    /// The operation needs the gossip layer, which is not enabled on this
    /// node (see
    /// [`CommunityApp::with_gossip`](crate::node::CommunityApp::with_gossip)).
    GossipDisabled,
}

impl CommunityError {
    /// The coarse [`ErrorKind`] of this error — the same classification
    /// (and stable wire codes) the middleware uses for
    /// [`peerhood::PeerHoodError`], so tools can log and transmit failures
    /// from both layers through one vocabulary.
    pub fn kind(&self) -> ErrorKind {
        match self {
            CommunityError::InvalidCredentials | CommunityError::NotLoggedIn => {
                ErrorKind::Unauthorized
            }
            CommunityError::AccountExists(_) => ErrorKind::Conflict,
            CommunityError::NoSuchAccount(_) | CommunityError::NoSuchProfile(_) => {
                ErrorKind::NotFound
            }
            CommunityError::Decode(_) => ErrorKind::InvalidRequest,
            CommunityError::Persistence(_) | CommunityError::NoActiveAccount => ErrorKind::Internal,
            CommunityError::MemberNotConnected(_) => ErrorKind::Unreachable,
            CommunityError::NoConnectedMembers | CommunityError::GossipDisabled => {
                ErrorKind::Unavailable
            }
        }
    }
}

impl fmt::Display for CommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommunityError::InvalidCredentials => write!(f, "invalid username or password"),
            CommunityError::NotLoggedIn => write!(f, "no user is logged in"),
            CommunityError::AccountExists(u) => write!(f, "account {u:?} already exists"),
            CommunityError::NoSuchAccount(u) => write!(f, "no account named {u:?}"),
            CommunityError::NoSuchProfile(i) => write!(f, "no profile at index {i}"),
            CommunityError::Decode(e) => write!(f, "malformed wire message: {e}"),
            CommunityError::Persistence(m) => write!(f, "store persistence failed: {m}"),
            CommunityError::NoActiveAccount => {
                write!(f, "no active account despite a live session")
            }
            CommunityError::MemberNotConnected(m) => {
                write!(f, "member {m:?} is not connected")
            }
            CommunityError::NoConnectedMembers => write!(f, "no members are connected"),
            CommunityError::GossipDisabled => {
                write!(f, "the gossip layer is not enabled on this node")
            }
        }
    }
}

impl StdError for CommunityError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CommunityError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for CommunityError {
    fn from(e: DecodeError) -> Self {
        CommunityError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CommunityError::AccountExists("bob".into())
            .to_string()
            .contains("bob"));
        assert!(CommunityError::Decode(DecodeError::Truncated)
            .to_string()
            .contains("truncated"));
        assert!(CommunityError::Persistence("disk on fire".into())
            .to_string()
            .contains("disk on fire"));
    }

    #[test]
    fn kinds_match_the_shared_vocabulary() {
        assert_eq!(
            CommunityError::InvalidCredentials.kind(),
            ErrorKind::Unauthorized
        );
        assert_eq!(
            CommunityError::AccountExists("bob".into()).kind(),
            ErrorKind::Conflict
        );
        assert_eq!(
            CommunityError::NoSuchAccount("bob".into()).kind(),
            ErrorKind::NotFound
        );
        assert_eq!(
            CommunityError::Decode(DecodeError::Truncated).kind(),
            ErrorKind::InvalidRequest
        );
        assert_eq!(
            CommunityError::MemberNotConnected("bob".into()).kind(),
            ErrorKind::Unreachable
        );
        assert_eq!(
            CommunityError::NoConnectedMembers.kind(),
            ErrorKind::Unavailable
        );
        // Both layers agree on the wire code for, say, unreachability.
        assert_eq!(CommunityError::NoConnectedMembers.kind().code(), 9);
    }

    #[test]
    fn implements_std_error() {
        fn takes(_: &dyn StdError) {}
        takes(&CommunityError::NotLoggedIn);
        // Decode errors expose the underlying codec error as their source.
        let err = CommunityError::from(DecodeError::Truncated);
        assert!(err.source().is_some());
    }
}
