//! Inter-type declarations: the static-crosscutting half of AspectJ.
//!
//! The paper's Figure 2 introduces a `migrate` method and a `Serializable`
//! parent into class `Point` without touching its source. The runtime
//! equivalents here are:
//!
//! * **extension methods** — `(class, method) → closure` entries consulted by
//!   base dispatch when the class's own table misses;
//! * **class tags** — the `declare parents` analogue: named capabilities
//!   attached to a class (e.g. the distribution aspect tagging `PrimeFilter`
//!   as `Remote`);
//! * **per-object fields** — mixin state attached to individual objects
//!   (e.g. the Partition aspect's `next` pipeline pointer from Figure 8).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{WeaveError, WeaveResult};
use crate::object::ObjId;
use crate::registry::Weaver;
use crate::value::{AnyValue, Args};

/// The class tag of the paper's RMI modification 1 (`declare parents: C
/// implements Remote`): the distribution aspects declare it on the class they
/// distribute.
pub const REMOTE_TAG: &str = "Remote";

/// The per-object field under which a distribution aspect stores a stub's
/// remote reference (RMI modification 3). An object that carries it is a
/// stub: while a distribution advice is plugged, its calls are redirected,
/// and the synchronisation advice leaves its monitor alone.
pub const REMOTE_FIELD: &str = "remote";

/// Body of an extension method.
pub type ExtensionFn = Arc<dyn Fn(&Weaver, ObjId, Args) -> WeaveResult<AnyValue> + Send + Sync>;

/// Hasher for [`ObjId`] keys: dense counters minted by the runtime, mixed
/// with one multiply the way `snapshot.rs` mixes its chain-key words — a
/// field is looked up once per redirected remote call, pipeline hop and farm
/// call, where SipHash's per-key setup cost is measurable and its
/// DoS-resistance buys nothing.
#[derive(Default)]
struct ObjIdHasher(u64);

impl Hasher for ObjIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// One object's mixin fields: a handful, scanned by name.
type ObjectFields = Vec<(&'static str, AnyValue)>;

/// Store of inter-type declarations, shared by all aspects on a weaver.
#[derive(Default)]
pub struct IntertypeStore {
    extensions: RwLock<HashMap<(&'static str, &'static str), ExtensionFn>>,
    class_tags: RwLock<HashSet<(&'static str, &'static str)>>,
    // Keyed by object: one probe, then that object's few entries. `Mutex`,
    // not `RwLock`: the boxed values are `Send` but not `Sync`.
    fields: Mutex<HashMap<ObjId, ObjectFields, BuildHasherDefault<ObjIdHasher>>>,
}

impl IntertypeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- extension methods -------------------------------------------------

    /// Introduce `class.method`, dispatched when the class's own table misses.
    /// Replaces any previous extension with the same name.
    pub fn add_method(&self, class: &'static str, method: &'static str, f: ExtensionFn) {
        self.extensions.write().insert((class, method), f);
    }

    /// Remove an extension method. Returns true when present.
    pub fn remove_method(&self, class: &str, method: &str) -> bool {
        let mut extensions = self.extensions.write();
        let key = extensions.keys().copied().find(|(c, m)| *c == class && *m == method);
        key.is_some_and(|k| extensions.remove(&k).is_some())
    }

    /// Resolve a (possibly dynamic) class/method pair to the `'static` key it
    /// was registered under.
    pub fn resolve_method(
        &self,
        class: &str,
        method: &str,
    ) -> Option<(&'static str, &'static str)> {
        self.extensions.read().keys().copied().find(|(c, m)| *c == class && *m == method)
    }

    /// Invoke an extension method.
    pub fn call_method(
        &self,
        weaver: &Weaver,
        class: &str,
        method: &str,
        target: ObjId,
        args: Args,
    ) -> WeaveResult<AnyValue> {
        let f = {
            let key = self.resolve_method(class, method).ok_or_else(|| {
                WeaveError::NoSuchMethod { class: class.into(), method: method.into() }
            })?;
            self.extensions.read().get(&key).cloned()
        };
        match f {
            Some(f) => f(weaver, target, args),
            None => Err(WeaveError::NoSuchMethod { class: class.into(), method: method.into() }),
        }
    }

    // ---- class tags (declare parents) --------------------------------------

    /// Declare that `class` carries `tag` (e.g. [`REMOTE_TAG`]).
    pub fn declare_tag(&self, class: &'static str, tag: &'static str) {
        self.class_tags.write().insert((class, tag));
    }

    /// Remove a declared tag. Returns true when present.
    pub fn remove_tag(&self, class: &str, tag: &str) -> bool {
        let mut tags = self.class_tags.write();
        let key = tags.iter().copied().find(|(c, t)| *c == class && *t == tag);
        key.is_some_and(|k| tags.remove(&k))
    }

    /// Does `class` carry `tag`? One hash probe, however many tags are
    /// declared.
    pub fn has_tag(&self, class: &str, tag: &str) -> bool {
        let tags = self.class_tags.read();
        // The set is covariant in its key, so `'static` keys are probed with
        // borrowed strings.
        let tags: &HashSet<(&str, &str)> = &tags;
        tags.contains(&(class, tag))
    }

    // ---- per-object mixin fields -------------------------------------------

    /// Attach (or overwrite) a named field on an object.
    pub fn set_field<T: Send + 'static>(&self, obj: ObjId, key: &'static str, value: T) {
        let value = crate::value::Value::new(value);
        let mut fields = self.fields.lock();
        let of_obj = fields.entry(obj).or_default();
        match of_obj.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => of_obj.push((key, value)),
        }
    }

    /// Read a copy of a field.
    pub fn get_field<T: Clone + Send + 'static>(&self, obj: ObjId, key: &str) -> Option<T> {
        let fields = self.fields.lock();
        let (_, v) = fields.get(&obj)?.iter().find(|(k, _)| *k == key)?;
        v.downcast_ref::<T>().cloned()
    }

    /// Does the object carry the field?
    pub fn has_field(&self, obj: ObjId, key: &str) -> bool {
        self.fields.lock().get(&obj).is_some_and(|of_obj| of_obj.iter().any(|(k, _)| *k == key))
    }
}

impl std::fmt::Debug for IntertypeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntertypeStore")
            .field("extensions", &self.extensions.read().len())
            .field("class_tags", &self.class_tags.read().len())
            .field("fields", &self.fields.lock().values().map(Vec::len).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjId {
        ObjId::from_raw(n)
    }

    #[test]
    fn tags_declare_and_remove() {
        let store = IntertypeStore::new();
        assert!(!store.has_tag("Point", "Serializable"));
        store.declare_tag("Point", "Serializable");
        assert!(store.has_tag("Point", "Serializable"));
        assert!(!store.has_tag("Point", "Remote"));
        assert!(store.remove_tag("Point", "Serializable"));
        assert!(!store.remove_tag("Point", "Serializable"));
        assert!(!store.has_tag("Point", "Serializable"));
    }

    #[test]
    fn a_tag_is_found_among_many_and_never_by_a_prefix() {
        let store = IntertypeStore::new();
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        for i in 0..500 {
            let tag = if i % 2 == 0 { REMOTE_TAG } else { "Serializable" };
            store.declare_tag(leak(format!("Class{i}")), tag);
        }
        // Two classes whose names share a prefix, tagged differently.
        store.declare_tag("Filter", REMOTE_TAG);
        store.declare_tag("FilterStage", "Migratable");
        for i in 0..500 {
            let class = format!("Class{i}");
            assert_eq!(store.has_tag(&class, REMOTE_TAG), i % 2 == 0, "{class}");
            assert_eq!(store.has_tag(&class, "Serializable"), i % 2 == 1, "{class}");
        }
        assert!(store.has_tag("Filter", REMOTE_TAG));
        assert!(!store.has_tag("FilterStage", REMOTE_TAG));
        assert!(store.has_tag("FilterStage", "Migratable"));
        assert!(!store.has_tag("Filter", "Migratable"));
        // Neither half of a pair runs into the other.
        for (class, tag) in [("Filte", REMOTE_TAG), ("FilterR", "emote"), ("Filter", "Remot")] {
            assert!(!store.has_tag(class, tag), "{class}/{tag}");
        }
        assert!(!store.has_tag("Class500", REMOTE_TAG));
        assert!(store.remove_tag("Filter", REMOTE_TAG));
        assert!(!store.has_tag("Filter", REMOTE_TAG));
        assert!(store.has_tag("FilterStage", "Migratable"));
    }

    #[test]
    fn fields_set_get_mutate() {
        let store = IntertypeStore::new();
        store.set_field(obj(1), "next", Some(obj(2)));
        assert_eq!(store.get_field::<Option<ObjId>>(obj(1), "next"), Some(Some(obj(2))));
        assert_eq!(store.get_field::<Option<ObjId>>(obj(9), "next"), None);
        store.set_field(obj(1), "next", None::<ObjId>);
        assert_eq!(store.get_field::<Option<ObjId>>(obj(1), "next"), Some(None));
        // Setting again overwrites in place: one entry, whatever its type.
        store.set_field(obj(1), "next", 7u8);
        assert_eq!(store.get_field::<u8>(obj(1), "next"), Some(7));
        assert!(store.has_field(obj(1), "next"));
        assert!(!store.has_field(obj(2), "next"));
    }

    #[test]
    fn field_type_mismatch_is_reported() {
        let store = IntertypeStore::new();
        store.set_field(obj(1), "count", 3u32);
        // get_field with the wrong type yields None rather than panicking.
        assert_eq!(store.get_field::<String>(obj(1), "count"), None);
    }

    #[test]
    fn extension_methods_register_and_resolve() {
        let store = IntertypeStore::new();
        store.add_method(
            "Point",
            "migrate",
            Arc::new(|_w, _o, _a| Ok(crate::ret!("migrated".to_string()))),
        );
        assert!(store.resolve_method("Point", "migrate").is_some());
        assert!(store.resolve_method("Point", "fly").is_none());
        assert!(store.remove_method("Point", "migrate"));
        assert!(!store.remove_method("Point", "migrate"));
    }

    #[test]
    fn call_unknown_extension_is_no_such_method() {
        let store = IntertypeStore::new();
        let weaver = Weaver::new();
        let err =
            store.call_method(&weaver, "Point", "migrate", obj(1), Args::empty()).unwrap_err();
        assert!(matches!(err, WeaveError::NoSuchMethod { .. }));
    }
}
