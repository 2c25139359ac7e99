//! Strongly-typed identifiers for topology objects.
//!
//! All identifiers are small integer newtypes. Using distinct types (instead
//! of bare `usize`) prevents mixing up, say, a NUMA node index with a core
//! index — a mistake that is otherwise easy to make in placement code where
//! both are small integers.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u16);

        impl $name {
            /// Create an identifier from a raw index.
            pub const fn new(index: u16) -> Self {
                Self(index)
            }

            /// The raw index, usable to index into the owning collection.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u16> for $name {
            fn from(index: u16) -> Self {
                Self(index)
            }
        }
    };
}

id_type!(
    /// A physical processor package (socket). Sockets are numbered from 0.
    SocketId,
    "socket"
);

id_type!(
    /// A NUMA node: one memory bank with its memory controller.
    ///
    /// NUMA nodes are numbered machine-wide in socket order: on a machine
    /// with `#m` NUMA nodes per socket, nodes `0..#m` belong to socket 0,
    /// nodes `#m..2*#m` to socket 1, and so on. This matches the paper's
    /// convention where the test `m >= #m` decides whether data is remote
    /// with respect to the computing cores on socket 0.
    NumaId,
    "numa"
);

id_type!(
    /// A physical core (the paper binds one thread per physical core and
    /// never uses hyperthreads). Cores are numbered machine-wide in socket
    /// order.
    CoreId,
    "core"
);

id_type!(
    /// An inter-component link (inter-socket bus or PCIe attachment).
    LinkId,
    "link"
);

id_type!(
    /// A CXL.mem pool: one fabric-attached memory device shared by the
    /// node. Pools are numbered from 0 in
    /// [`crate::machine::MachineTopology::cxl_pools`] order.
    PoolId,
    "pool"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SocketId::new(1).to_string(), "socket1");
        assert_eq!(NumaId::new(3).to_string(), "numa3");
        assert_eq!(CoreId::new(17).to_string(), "core17");
        assert_eq!(LinkId::new(0).to_string(), "link0");
        assert_eq!(PoolId::new(2).to_string(), "pool2");
    }

    #[test]
    fn index_round_trips() {
        let id = NumaId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(NumaId::from(7u16), id);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(CoreId::new(2) < CoreId::new(10));
    }
}
