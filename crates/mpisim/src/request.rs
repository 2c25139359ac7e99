//! Requests, ranks and tags — the MPI-flavoured vocabulary of the
//! simulator.

use std::fmt;

/// A process rank. The paper's benchmark uses two machines (one receiver,
/// one sender); the simulator supports any number ≥ 2.
pub type Rank = usize;

/// A message tag. Matching follows MPI semantics: a receive matches a send
/// with the same `(source, tag)`, where the receive's tag may be
/// [`Tag::ANY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// Wildcard tag for receives (MPI_ANY_TAG).
    pub const ANY: Tag = Tag(u32::MAX);

    /// Does a posted receive tag accept an incoming tag?
    pub fn matches(self, incoming: Tag) -> bool {
        self == Tag::ANY || self == incoming
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Tag::ANY {
            write!(f, "ANY")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Handle to a communication request posted with
/// [`crate::world::World::isend`] or [`crate::world::World::irecv`].
///
/// Opaque: the value names a slot in the world's request table and is
/// only meaningful to the world that issued it. The slot is reused once
/// the request is forgotten, and the old handle then answers
/// [`crate::MpiError::UnknownRequest`]. Its order and magnitude carry no
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Handle to a compute job started with
/// [`crate::world::World::start_compute`].
///
/// Opaque, like [`RequestId`]: a forgotten job's handle answers
/// [`crate::MpiError::UnknownJob`], even once its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Completion status of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestStatus {
    /// Posted, not yet matched with its peer operation.
    Pending,
    /// Matched; the transfer is in flight.
    InFlight,
    /// Completed at the stored simulation time.
    Complete(f64),
    /// Failed: the matched send was larger than the receive buffer
    /// (MPI_ERR_TRUNCATE).
    Truncated,
}

impl RequestStatus {
    /// Is the request finished (successfully or not)?
    pub fn is_done(self) -> bool {
        matches!(self, RequestStatus::Complete(_) | RequestStatus::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_tag_matches_everything() {
        assert!(Tag::ANY.matches(Tag(0)));
        assert!(Tag::ANY.matches(Tag(12345)));
    }

    #[test]
    fn concrete_tag_matches_only_itself() {
        assert!(Tag(3).matches(Tag(3)));
        assert!(!Tag(3).matches(Tag(4)));
    }

    #[test]
    fn status_done() {
        assert!(!RequestStatus::Pending.is_done());
        assert!(!RequestStatus::InFlight.is_done());
        assert!(RequestStatus::Complete(1.0).is_done());
        assert!(RequestStatus::Truncated.is_done());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Tag::ANY.to_string(), "ANY");
        assert_eq!(Tag(7).to_string(), "7");
        assert_eq!(RequestId(3).to_string(), "req3");
        assert_eq!(JobId(9).to_string(), "job9");
    }
}
