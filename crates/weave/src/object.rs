//! Aspect-managed objects: the [`ObjectSpace`] and typed [`Handle`]s.
//!
//! In the paper, the partition aspect replaces one core object with a *set* of
//! aspect-managed objects whose lifetime the aspect controls (Figure 4). Here
//! those objects live in an [`ObjectSpace`]: one map from [`ObjId`] to a boxed
//! instance behind a **re-entrant per-object monitor**.
//!
//! The monitor plays the role of Java's `synchronized(target)` in the paper's
//! concurrency aspect (Figure 12): the synchronisation advice can hold an
//! object's monitor across `proceed`, and the base dispatch re-acquires it
//! re-entrantly for the actual `&mut` access.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{ReentrantMutex, RwLock};

use crate::dispatch::{ClassInfo, Weaveable};
use crate::error::{WeaveError, WeaveResult};
use crate::registry::Weaver;
use crate::value::{AnyValue, Args};

/// Identity of an object in an [`ObjectSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(u64);

impl ObjId {
    /// Build from a raw id (tests, simulators, wire transfer).
    pub fn from_raw(raw: u64) -> Self {
        ObjId(raw)
    }

    /// Raw id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

pub(crate) type Instance = Arc<ReentrantMutex<RefCell<Box<dyn Any + Send>>>>;

thread_local! {
    /// Object monitors this thread holds, re-entrant acquisitions included.
    /// Not in the weaving context: setting that aside releases no monitor.
    static MONITORS_HELD: Cell<usize> = const { Cell::new(0) };
}

/// Number of object monitors the current thread holds (a [`MonitorGuard`], or
/// a method body executing under its object's monitor).
///
/// Monitors are re-entrant, so a thread holding one must not start unrelated
/// work that may call the same object: it would walk into its own critical
/// section. A pool worker's join reads this before helping.
pub fn monitors_held() -> usize {
    MONITORS_HELD.with(|m| m.get())
}

/// Counts one held monitor in [`monitors_held`] for its lifetime. Public for
/// locks outside this crate that exclude like a monitor (a fabric node's
/// serve token in the hands of a caller, a dynamic farm's worker a pack took).
#[doc(hidden)]
pub struct Held;

impl Held {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Held {
        MONITORS_HELD.with(|m| m.set(m.get() + 1));
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        MONITORS_HELD.with(|m| m.set(m.get() - 1));
    }
}

/// Guard holding an object's monitor (the paper's `synchronized(target)`).
///
/// Re-entrant: the thread holding it can still dispatch methods on the same
/// object through the weaver.
pub struct MonitorGuard {
    _guard: parking_lot::ArcReentrantMutexGuard<RefCell<Box<dyn Any + Send>>>,
    _held: Held,
}

struct Entry {
    info: ClassInfo,
    instance: Instance,
}

/// Fibonacci-multiplicative hasher for the id map. Object ids are
/// sequentially assigned `u64`s generated by the runtime itself, so SipHash's
/// hash-flooding resistance buys nothing here and its per-lookup cost sits on
/// every dispatch; a single multiply spreads consecutive ids across buckets.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

/// Shared store of aspect-managed objects.
///
/// All access to an object goes through its monitor; the id→instance map is
/// one read-write lock, held only for the look-up, insert or remove itself,
/// so dispatch to different objects shares nothing but a read lock.
pub struct ObjectSpace {
    objects: RwLock<HashMap<u64, Entry, IdBuildHasher>>,
    next_id: AtomicU64,
    /// Objects removed so far: the stamp under which a bound weaver view
    /// ([`Weaver::bind`]) trusts the instances it resolved ahead of time.
    removals: AtomicU64,
}

impl ObjectSpace {
    /// An empty space.
    pub fn new() -> Self {
        ObjectSpace {
            objects: RwLock::new(HashMap::default()),
            next_id: AtomicU64::new(1),
            removals: AtomicU64::new(0),
        }
    }

    /// Insert a typed instance, returning its id.
    pub fn insert<T: Weaveable>(&self, value: T) -> ObjId {
        self.insert_erased(ClassInfo::of::<T>(), Box::new(value))
    }

    /// Insert a type-erased instance with its class record.
    pub fn insert_erased(&self, info: ClassInfo, value: Box<dyn Any + Send>) -> ObjId {
        let id = ObjId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = Entry { info, instance: Arc::new(ReentrantMutex::new(RefCell::new(value))) };
        self.objects.write().insert(id.raw(), entry);
        id
    }

    /// Resolve an object to its class record and instance in one map read.
    pub(crate) fn lookup(&self, id: ObjId) -> WeaveResult<(ClassInfo, Instance)> {
        self.objects
            .read()
            .get(&id.raw())
            .map(|e| (e.info, e.instance.clone()))
            .ok_or(WeaveError::NoSuchObject(id))
    }

    /// Dispatch `method` on an already-resolved instance, holding its monitor
    /// for the duration of the call.
    pub(crate) fn dispatch_on(
        info: &ClassInfo,
        instance: &Instance,
        id: ObjId,
        method: &'static str,
        args: Args,
    ) -> WeaveResult<AnyValue> {
        let guard = instance.lock();
        let _held = Held::new();
        let mut borrowed = guard.try_borrow_mut().map_err(|_| {
            WeaveError::app(format!("re-entrant mutable dispatch on {id} ({})", info.class))
        })?;
        (info.dispatch)(&mut **borrowed, method, args)
    }

    /// Class name of a live object.
    pub fn class_of(&self, id: ObjId) -> WeaveResult<&'static str> {
        self.lookup(id).map(|(info, _)| info.class)
    }

    /// Class record of a live object.
    pub fn class_info(&self, id: ObjId) -> WeaveResult<ClassInfo> {
        self.lookup(id).map(|(info, _)| info)
    }

    /// Acquire the object's monitor. The returned guard can be held across
    /// further dispatches to the same object from the same thread.
    pub fn monitor(&self, id: ObjId) -> WeaveResult<MonitorGuard> {
        let (_, instance) = self.lookup(id)?;
        Ok(MonitorGuard { _guard: ReentrantMutex::lock_arc(&instance), _held: Held::new() })
    }

    /// [`monitor`](Self::monitor) without waiting: `Ok(None)` while another
    /// thread holds it.
    pub fn try_monitor(&self, id: ObjId) -> WeaveResult<Option<MonitorGuard>> {
        let (_, instance) = self.lookup(id)?;
        Ok(ReentrantMutex::try_lock_arc(&instance)
            .map(|guard| MonitorGuard { _guard: guard, _held: Held::new() }))
    }

    /// Run a closure with typed mutable access to the object.
    pub fn with_object<T: Weaveable, R>(
        &self,
        id: ObjId,
        f: impl FnOnce(&mut T) -> R,
    ) -> WeaveResult<R> {
        let (_, instance) = self.lookup(id)?;
        let guard = instance.lock();
        let _held = Held::new();
        let mut borrowed = guard
            .try_borrow_mut()
            .map_err(|_| WeaveError::app(format!("re-entrant mutable access to {id}")))?;
        let typed = borrowed.downcast_mut::<T>().ok_or_else(|| WeaveError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            context: format!("with_object on {id}"),
        })?;
        Ok(f(typed))
    }

    /// Remove an object; returns true when it was present.
    pub fn remove(&self, id: ObjId) -> bool {
        let removed = self.objects.write().remove(&id.raw()).is_some();
        if removed {
            // After the map, so that whoever reads the new epoch finds the
            // object gone; `Release` pairs with `removal_epoch`'s `Acquire`.
            self.removals.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// The removal epoch: it moves whenever an object leaves the space. An
    /// instance resolved under an epoch read *before* its look-up is live for
    /// as long as the epoch reads the same (ids are never reused).
    pub(crate) fn removal_epoch(&self) -> u64 {
        self.removals.load(Ordering::Acquire)
    }

    /// True when the object is live.
    pub fn contains(&self, id: ObjId) -> bool {
        self.objects.read().contains_key(&id.raw())
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True when no object is live.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Ids of all live objects of a class, in id order (used by aspects that
    /// iterate their managed set).
    pub fn ids_of_class(&self, class: &str) -> Vec<ObjId> {
        let mut ids: Vec<ObjId> = self
            .objects
            .read()
            .iter()
            .filter(|(_, e)| e.info.class == class)
            .map(|(id, _)| ObjId(*id))
            .collect();
        ids.sort();
        ids
    }
}

impl Default for ObjectSpace {
    fn default() -> Self {
        ObjectSpace::new()
    }
}

impl std::fmt::Debug for ObjectSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectSpace").field("len", &self.len()).finish()
    }
}

/// A typed reference to a woven object: the client-side stand-in the paper's
/// core functionality holds after a (possibly intercepted) construction.
///
/// All calls made through a handle are join points.
pub struct Handle<T: Weaveable> {
    weaver: Weaver,
    id: ObjId,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Weaveable> Handle<T> {
    /// Wrap an existing object id. The id is trusted to refer to a `T`; a
    /// mismatch surfaces as a dispatch-time error, not undefined behaviour.
    pub fn from_id(weaver: &Weaver, id: ObjId) -> Self {
        Handle { weaver: weaver.clone(), id, _marker: PhantomData }
    }

    /// The object id this handle refers to.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// The weaver the handle dispatches through.
    pub fn weaver(&self) -> &Weaver {
        &self.weaver
    }

    /// Make a woven call: full join-point pipeline (matched advice, then base
    /// dispatch).
    pub fn call(&self, method: &'static str, args: Args) -> WeaveResult<AnyValue> {
        self.weaver.invoke_call(self.id, T::CLASS, method, args)
    }
}

impl<T: Weaveable> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Handle { weaver: self.weaver.clone(), id: self.id, _marker: PhantomData }
    }
}

impl<T: Weaveable> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle<{}>({})", T::CLASS, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    /// Dispatch `method` on `id` under its monitor, as base dispatch does.
    fn invoke(
        space: &ObjectSpace,
        id: ObjId,
        method: &'static str,
        args: Args,
    ) -> WeaveResult<AnyValue> {
        let (info, instance) = space.lookup(id)?;
        ObjectSpace::dispatch_on(&info, &instance, id, method, args)
    }

    struct Cell {
        v: u64,
    }

    impl Weaveable for Cell {
        const CLASS: &'static str = "Cell";

        fn construct(mut args: Args) -> WeaveResult<Self> {
            Ok(Cell { v: args.take(0)? })
        }

        fn dispatch(&mut self, method: &'static str, mut args: Args) -> WeaveResult<AnyValue> {
            match method {
                "set" => {
                    self.v = args.take(0)?;
                    Ok(crate::ret!())
                }
                "get" => Ok(crate::ret!(self.v)),
                _ => Err(WeaveError::NoSuchMethod { class: "Cell".into(), method: method.into() }),
            }
        }

        fn methods() -> &'static [&'static str] {
            &["set", "get"]
        }
    }

    #[test]
    fn insert_invoke_roundtrip() {
        let space = ObjectSpace::new();
        let id = space.insert(Cell { v: 1 });
        assert!(space.contains(id));
        assert_eq!(space.class_of(id).unwrap(), "Cell");
        invoke(&space, id, "set", args![9u64]).unwrap();
        let got = invoke(&space, id, "get", args![]).unwrap();
        assert_eq!(crate::value::downcast_ret::<u64>(got).unwrap(), 9);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let space = ObjectSpace::new();
        let a = space.insert(Cell { v: 0 });
        let b = space.insert(Cell { v: 0 });
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn missing_object_errors() {
        let space = ObjectSpace::new();
        let ghost = ObjId::from_raw(999);
        assert!(matches!(invoke(&space, ghost, "get", args![]), Err(WeaveError::NoSuchObject(_))));
        assert!(matches!(space.class_of(ghost), Err(WeaveError::NoSuchObject(_))));
        assert!(matches!(space.monitor(ghost), Err(WeaveError::NoSuchObject(_))));
        assert!(!space.remove(ghost));
        assert_eq!(space.removal_epoch(), 0, "nothing left the space");
    }

    #[test]
    fn remove_frees_object() {
        let space = ObjectSpace::new();
        let id = space.insert(Cell { v: 1 });
        assert_eq!(space.removal_epoch(), 0);
        assert!(space.remove(id));
        assert!(!space.contains(id));
        assert!(space.is_empty());
        assert_eq!(space.removal_epoch(), 1);
    }

    #[test]
    fn with_object_typed_access() {
        let space = ObjectSpace::new();
        let id = space.insert(Cell { v: 5 });
        let doubled = space
            .with_object::<Cell, _>(id, |c| {
                c.v *= 2;
                c.v
            })
            .unwrap();
        assert_eq!(doubled, 10);
        let err = space.with_object::<WrongType, _>(id, |_| ()).unwrap_err();
        assert!(matches!(err, WeaveError::TypeMismatch { .. }));
    }

    struct WrongType;
    impl Weaveable for WrongType {
        const CLASS: &'static str = "WrongType";
        fn construct(_: Args) -> WeaveResult<Self> {
            Ok(WrongType)
        }
        fn dispatch(&mut self, m: &'static str, _: Args) -> WeaveResult<AnyValue> {
            Err(WeaveError::NoSuchMethod { class: "WrongType".into(), method: m.into() })
        }
        fn methods() -> &'static [&'static str] {
            &[]
        }
    }

    #[test]
    fn ids_of_class_filters_and_sorts() {
        let space = ObjectSpace::new();
        let a = space.insert(Cell { v: 0 });
        let _w = space.insert(WrongType);
        let b = space.insert(Cell { v: 0 });
        assert_eq!(space.ids_of_class("Cell"), vec![a, b]);
        assert_eq!(space.ids_of_class("Nope"), Vec::<ObjId>::new());
    }

    #[test]
    fn monitor_is_reentrant_for_same_thread() {
        let space = ObjectSpace::new();
        let id = space.insert(Cell { v: 0 });
        let _m1 = space.monitor(id).unwrap();
        // Same thread can re-acquire and still dispatch.
        let _m2 = space.monitor(id).unwrap();
        invoke(&space, id, "set", args![3u64]).unwrap();
        let got = invoke(&space, id, "get", args![]).unwrap();
        assert_eq!(crate::value::downcast_ret::<u64>(got).unwrap(), 3);
    }

    #[test]
    fn monitors_held_counts_guards_and_executing_bodies() {
        let space = ObjectSpace::new();
        let id = space.insert(Cell { v: 0 });
        assert_eq!(monitors_held(), 0);
        {
            let _m1 = space.monitor(id).unwrap();
            let _m2 = space.monitor(id).unwrap();
            assert_eq!(monitors_held(), 2);
            assert_eq!(std::thread::spawn(monitors_held).join().unwrap(), 0, "per thread");
        }
        assert_eq!(space.with_object::<Cell, _>(id, |_| monitors_held()).unwrap(), 1);
        assert_eq!(monitors_held(), 0);
    }

    #[test]
    fn try_monitor_fails_only_while_another_thread_holds_it() {
        let space = Arc::new(ObjectSpace::new());
        let id = space.insert(Cell { v: 0 });
        let ghost = ObjId::from_raw(999);
        assert!(matches!(space.try_monitor(ghost), Err(WeaveError::NoSuchObject(_))));
        let held = space.try_monitor(id).unwrap().expect("free");
        let reentered = space.try_monitor(id).unwrap().expect("re-entrant for its holder");
        assert_eq!(monitors_held(), 2, "a taken try counts as a held monitor");
        let space2 = space.clone();
        let elsewhere = move || space2.try_monitor(id).unwrap().is_some();
        assert!(!std::thread::spawn(elsewhere.clone()).join().unwrap(), "held here");
        drop((held, reentered));
        assert_eq!(monitors_held(), 0);
        assert!(std::thread::spawn(elsewhere).join().unwrap(), "free again");
    }

    #[test]
    fn monitor_excludes_other_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let space = Arc::new(ObjectSpace::new());
        let id = space.insert(Cell { v: 0 });
        let guard = space.monitor(id).unwrap();
        let entered = Arc::new(AtomicBool::new(false));
        let (space2, entered2) = (space.clone(), entered.clone());
        let t = std::thread::spawn(move || {
            let _m = space2.monitor(id).unwrap();
            entered2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!entered.load(Ordering::SeqCst), "other thread entered while monitor held");
        drop(guard);
        t.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_dispatch_to_distinct_objects() {
        let space = Arc::new(ObjectSpace::new());
        let ids: Vec<ObjId> = (0..8).map(|_| space.insert(Cell { v: 0 })).collect();
        let mut handles = Vec::new();
        for &id in &ids {
            let space = space.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    invoke(&space, id, "set", args![i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for &id in &ids {
            let got = invoke(&space, id, "get", args![]).unwrap();
            assert_eq!(crate::value::downcast_ret::<u64>(got).unwrap(), 99);
        }
    }
}
