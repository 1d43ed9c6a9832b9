//! The RMI registry analogue.
//!
//! The paper's Figure 14 registers each remote `PrimeFilter` under an
//! automatically generated name (`PS1`, `PS2`, ...) and clients look the
//! names up to obtain remote references. [`NameServer`] provides exactly
//! that: a process-wide name → [`RemoteRef`] map plus the `PS<n>` name
//! generator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use weavepar_weave::{WeaveError, WeaveResult};

use crate::fabric::RemoteRef;

/// A shared name → remote-reference registry.
#[derive(Clone, Default)]
pub struct NameServer {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: RwLock<HashMap<String, RemoteRef>>,
    /// Names whose binding was swept because its hosting node died, keyed to
    /// the dead node: a later [`NameServer::lookup`] fails fast with a typed
    /// [`WeaveError::NodeDown`] instead of an opaque "not bound", so callers
    /// (and supervisor aspects) can tell node loss from a never-bound name.
    tombstones: RwLock<HashMap<String, usize>>,
    counter: AtomicU64,
}

impl NameServer {
    /// An empty name server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `name` to `reference` (rebinding replaces, like RMI `rebind`).
    /// Rebinding a tombstoned name clears the tombstone — the name now
    /// points at a live replacement.
    pub fn rebind(&self, name: impl Into<String>, reference: RemoteRef) {
        let name = name.into();
        self.inner.tombstones.write().remove(&name);
        self.inner.entries.write().insert(name, reference);
    }

    /// Look up a name.
    pub fn lookup(&self, name: &str) -> WeaveResult<RemoteRef> {
        if let Some(reference) = self.inner.entries.read().get(name).copied() {
            return Ok(reference);
        }
        if let Some(node) = self.inner.tombstones.read().get(name).copied() {
            return Err(WeaveError::NodeDown { node });
        }
        Err(WeaveError::remote(format!("name server: `{name}` not bound")))
    }

    /// Sweep every binding hosted on `node` (the node died), leaving
    /// tombstones so lookups fail fast with [`WeaveError::NodeDown`] rather
    /// than pretending the name was never bound. Returns the number of
    /// bindings swept.
    pub fn unbind_node(&self, node: usize) -> usize {
        let mut entries = self.inner.entries.write();
        let mut tombstones = self.inner.tombstones.write();
        let dead: Vec<String> =
            entries.iter().filter(|(_, r)| r.node == node).map(|(name, _)| name.clone()).collect();
        for name in &dead {
            entries.remove(name);
            tombstones.insert(name.clone(), node);
        }
        dead.len()
    }

    /// Generate the next automatic name with the given prefix —
    /// the paper's `new String("PS" + (++count))`.
    pub fn next_name(&self, prefix: &str) -> String {
        let n = self.inner.counter.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{prefix}{n}")
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.inner.entries.read().len()
    }

    /// True when no name is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.entries.read().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for NameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameServer").field("bindings", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_weave::ObjId;

    fn rref(node: usize, obj: u64) -> RemoteRef {
        RemoteRef { node, obj: ObjId::from_raw(obj), class: crate::wire::ClassId::from_raw(0) }
    }

    #[test]
    fn bind_then_lookup() {
        let ns = NameServer::new();
        assert!(ns.is_empty());
        ns.rebind("PS1", rref(2, 40));
        assert_eq!(ns.lookup("PS1").unwrap(), rref(2, 40));
        assert!(matches!(ns.lookup("PS2"), Err(WeaveError::Remote(_))));
    }

    #[test]
    fn rebind_replaces() {
        let ns = NameServer::new();
        ns.rebind("PS1", rref(0, 1));
        ns.rebind("PS1", rref(1, 2));
        assert_eq!(ns.lookup("PS1").unwrap(), rref(1, 2));
        assert_eq!(ns.len(), 1);
    }

    #[test]
    fn automatic_names_are_sequential() {
        let ns = NameServer::new();
        assert_eq!(ns.next_name("PS"), "PS1");
        assert_eq!(ns.next_name("PS"), "PS2");
        assert_eq!(ns.next_name("W"), "W3");
    }

    #[test]
    fn names_are_sorted() {
        let ns = NameServer::new();
        ns.rebind("b", rref(0, 1));
        ns.rebind("a", rref(0, 2));
        assert_eq!(ns.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn unbind_node_sweeps_and_tombstones() {
        let ns = NameServer::new();
        ns.rebind("PS1", rref(0, 1));
        ns.rebind("PS2", rref(1, 2));
        ns.rebind("PS3", rref(1, 3));
        // Sweeping node 1 removes its two bindings, leaves node 0's.
        assert_eq!(ns.unbind_node(1), 2);
        assert_eq!(ns.len(), 1);
        assert_eq!(ns.lookup("PS1").unwrap(), rref(0, 1));
        // Swept names fail fast with the dead node's id, not "not bound".
        assert!(matches!(ns.lookup("PS2"), Err(WeaveError::NodeDown { node: 1 })));
        assert!(matches!(ns.lookup("PS3"), Err(WeaveError::NodeDown { node: 1 })));
        // A never-bound name is still the opaque error.
        assert!(matches!(ns.lookup("PS9"), Err(WeaveError::Remote(_))));
        // Rebinding a swept name to a survivor clears the tombstone.
        ns.rebind("PS2", rref(0, 9));
        assert_eq!(ns.lookup("PS2").unwrap(), rref(0, 9));
        // Sweeping an unknown node is a no-op.
        assert_eq!(ns.unbind_node(7), 0);
    }

    #[test]
    fn clones_share_state() {
        let ns = NameServer::new();
        let ns2 = ns.clone();
        ns.rebind("PS1", rref(3, 9));
        assert_eq!(ns2.lookup("PS1").unwrap(), rref(3, 9));
    }
}
