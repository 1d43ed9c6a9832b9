//! The [`Weaver`]: aspect registry, join-point dispatcher and composition
//! root of the runtime.
//!
//! A weaver owns the object space, the inter-type store, the plugged aspects
//! and (optionally) a trace recorder. All join points — constructions and
//! calls made through [`Handle`](crate::object::Handle)s or the dynamic
//! `invoke_*` entry points — flow through [`Weaver::invoke_call`] /
//! [`Weaver::construct`], which match the plugged advice and walk the chain.
//!
//! Matching results are cached per `(signature, kind, provenance)` by each
//! dispatching thread, next to its copy of the published
//! [`snapshot`](crate::snapshot) of the aspect set; every mutation of that set
//! (plug, unplug, enable, disable) publishes a new generation-stamped
//! snapshot, which retires those caches, so plugging and unplugging at run
//! time is always honoured without any clear-the-world invalidation.
//!
//! A skeleton whose worker set is fixed for a whole run can have both
//! look-ups done once, ahead of its loop: [`Weaver::bind`] returns a view of
//! the weaver that carries the resolved objects and their pre-matched chains,
//! and falls back to the look-ups above whenever one of its two stamps (aspect
//! generation, removal epoch) has moved.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::advice::AdviceEntry;
use crate::aspect::{Aspect, AspectId, PluggedAspect};
use crate::context::{self, Provenance};
use crate::dispatch::{ClassInfo, Weaveable};
use crate::error::{WeaveError, WeaveResult};
use crate::intertype::IntertypeStore;
use crate::invocation::{BaseAction, Invocation, JoinPointKind};
use crate::object::{Handle, Instance, ObjId, ObjectSpace};
use crate::signature::Signature;
use crate::snapshot::{AspectCell, Chain, RecorderCell};
use crate::trace::{self, Recorder, TaskId};
use crate::value::{AnyValue, Args};

struct Slot {
    id: AspectId,
    name: String,
    enabled: bool,
    advice: Vec<Arc<AdviceEntry>>,
}

struct WeaverInner {
    space: ObjectSpace,
    intertype: IntertypeStore,
    /// Master aspect list (administrative operations). The dispatch hot path
    /// never touches this lock: it reads the published snapshot instead.
    aspects: RwLock<Vec<Slot>>,
    snapshot: AspectCell,
    next_aspect: AtomicU64,
    recorder: RecorderCell,
    classes: RwLock<HashMap<&'static str, ClassInfo>>,
}

/// What [`Weaver::bind`] resolved ahead of a run — the paper's AspectJ fixes
/// a call site's target and advice when it weaves, at compile time; this is
/// that, for as long as the two stamps hold. Immutable, so it travels with
/// every clone of the view (a [`Detached`](crate::invocation::Detached) chain
/// on a pool thread included).
struct Bound {
    /// The aspect generation, read before the chains were matched.
    generation: u64,
    /// Whose calls the chains were matched for.
    provenance: Provenance,
    /// The `Call` chain of every method in the bound objects' class tables:
    /// a handful of entries, compared by content (a call site's `"step"` and
    /// the class table's `stringify!(step)` are different statics).
    chains: Vec<(Signature, Option<Chain>)>,
    /// The object space's removal epoch, read before the objects were
    /// resolved.
    epoch: u64,
    /// The bound objects that were in the local space, sorted by id.
    objects: Vec<(ObjId, ClassInfo, Instance)>,
}

/// The weaving runtime. Cheap to clone (shared internally).
#[derive(Clone)]
pub struct Weaver {
    inner: Arc<WeaverInner>,
    bound: Option<Arc<Bound>>,
}

impl Weaver {
    /// A fresh weaver with no aspects, no objects and no recorder.
    pub fn new() -> Self {
        Weaver {
            inner: Arc::new(WeaverInner {
                space: ObjectSpace::new(),
                intertype: IntertypeStore::new(),
                aspects: RwLock::new(Vec::new()),
                snapshot: AspectCell::new(),
                next_aspect: AtomicU64::new(1),
                recorder: RecorderCell::new(),
                classes: RwLock::new(HashMap::new()),
            }),
            bound: None,
        }
    }

    /// A view of this weaver with `ids` woven ahead of time: the objects among
    /// them that live in the local space are resolved now, and so is the
    /// advice chain of every method of their classes, for calls made under
    /// the provenance current *here*. A skeleton binds its workers once per
    /// run and makes its calls through the view.
    ///
    /// The view is the same weaver — same objects, same aspects — and every
    /// rule of [`Weaver::invoke_call`] holds at the next join point after the
    /// event that changes it: a plug, unplug or enable retires the pre-matched
    /// chains (generation stamp), an [`ObjectSpace::remove`] retires the
    /// resolved objects (removal epoch), and a call under another provenance,
    /// to an inter-type method or on an object that was not local when the
    /// view was made takes the ordinary look-ups, as every call on an unbound
    /// weaver does. With nothing to resolve the view is an unbound handle.
    pub fn bind(&self, ids: &[ObjId]) -> Weaver {
        let space = &self.inner.space;
        // Stamps first: a plug or a removal that lands while the tables are
        // being filled leaves a stamp that no longer matches, never a stale
        // entry under a current one.
        let generation = self.inner.snapshot.generation();
        let epoch = space.removal_epoch();
        let provenance = context::current();
        let mut objects: Vec<(ObjId, ClassInfo, Instance)> = ids
            .iter()
            .filter_map(|&id| space.lookup(id).ok().map(|(info, instance)| (id, info, instance)))
            .collect();
        objects.sort_by_key(|&(id, ..)| id);
        let mut chains: Vec<(Signature, Option<Chain>)> = Vec::new();
        for (_, info, _) in &objects {
            if chains.iter().any(|(bound, _)| bound.class == info.class) {
                continue;
            }
            chains.extend(info.methods.iter().map(|&method| {
                let signature = Signature::new(info.class, method);
                let chain = self.inner.snapshot.matched(signature, JoinPointKind::Call, provenance);
                (signature, chain)
            }));
        }
        let bound = (!objects.is_empty())
            .then(|| Arc::new(Bound { generation, provenance, chains, epoch, objects }));
        Weaver { inner: self.inner.clone(), bound }
    }

    /// The object space holding aspect-managed objects.
    pub fn space(&self) -> &ObjectSpace {
        &self.inner.space
    }

    /// The inter-type declaration store.
    pub fn intertype(&self) -> &IntertypeStore {
        &self.inner.intertype
    }

    // ---- class registry -----------------------------------------------------

    /// Register a weaveable class so it can be resolved by name (required by
    /// distribution middleware on the receiving node). Idempotent.
    pub fn register_class<T: Weaveable>(&self) {
        self.inner.classes.write().entry(T::CLASS).or_insert_with(ClassInfo::of::<T>);
    }

    /// Look up a registered class by name.
    pub fn class_by_name(&self, class: &str) -> Option<ClassInfo> {
        self.inner.classes.read().get(class).copied()
    }

    // ---- aspect lifecycle ----------------------------------------------------

    /// Plug an aspect. Its advice participates in matching immediately.
    pub fn plug(&self, aspect: Aspect) -> PluggedAspect {
        let id = AspectId::from_raw(self.inner.next_aspect.fetch_add(1, Ordering::Relaxed));
        let advice = aspect
            .advice
            .into_iter()
            .enumerate()
            .map(|(index, (pointcut, advice))| {
                Arc::new(AdviceEntry {
                    pointcut,
                    advice,
                    aspect: id,
                    precedence: aspect.precedence,
                    index,
                    fired: std::sync::atomic::AtomicU64::new(0),
                })
            })
            .collect();
        let slot = Slot { id, name: aspect.name.clone(), enabled: true, advice };
        let mut aspects = self.inner.aspects.write();
        aspects.push(slot);
        self.republish(&aspects);
        drop(aspects);
        PluggedAspect { id, name: aspect.name }
    }

    /// Unplug an aspect entirely. Returns true when it was plugged.
    pub fn unplug(&self, plugged: &PluggedAspect) -> bool {
        let mut aspects = self.inner.aspects.write();
        let before = aspects.len();
        aspects.retain(|s| s.id != plugged.id);
        let removed = aspects.len() != before;
        if removed {
            self.republish(&aspects);
        }
        removed
    }

    /// Enable or disable an aspect without unplugging it (the paper's
    /// "(un)plugged on the fly" debugging workflow). Returns true when the
    /// aspect exists.
    pub fn set_enabled(&self, plugged: &PluggedAspect, enabled: bool) -> bool {
        let mut aspects = self.inner.aspects.write();
        match aspects.iter_mut().find(|s| s.id == plugged.id) {
            Some(slot) => slot.enabled = enabled,
            None => return false,
        }
        self.republish(&aspects);
        true
    }

    /// Is the aspect currently plugged (regardless of enablement)?
    pub fn is_plugged(&self, plugged: &PluggedAspect) -> bool {
        self.inner.aspects.read().iter().any(|s| s.id == plugged.id)
    }

    /// Names of all plugged aspects, in plug order.
    pub fn aspect_names(&self) -> Vec<String> {
        self.inner.aspects.read().iter().map(|s| s.name.clone()).collect()
    }

    /// How many times each plugged aspect's advice has fired, by name —
    /// the paper's "understand the overall parallelism structure" debugging
    /// story, quantified: after a run, `FarmThreads` shows e.g.
    /// `Partition.farm: 2, Concurrency.async: 50, ...`.
    pub fn advice_fire_counts(&self) -> Vec<(String, u64)> {
        self.inner
            .aspects
            .read()
            .iter()
            .map(|s| (s.name.clone(), s.advice.iter().map(|a| a.fired()).sum()))
            .collect()
    }

    /// Total advice declarations across enabled aspects.
    pub fn active_advice_count(&self) -> usize {
        self.inner.aspects.read().iter().filter(|s| s.enabled).map(|s| s.advice.len()).sum()
    }

    // ---- recorder ------------------------------------------------------------

    /// Install (or remove) a trace recorder. Publishes a new recorder
    /// snapshot; the advice match cache is untouched.
    pub fn set_recorder(&self, recorder: Option<Recorder>) {
        self.inner.recorder.set(recorder);
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<Recorder> {
        self.inner.recorder.get()
    }

    // ---- join points ----------------------------------------------------------

    /// Woven construction of `T`: runs construction advice, then the base
    /// constructor, returning a handle to whatever object the advice chain
    /// decided the client should see.
    pub fn construct<T: Weaveable>(&self, args: Args) -> WeaveResult<Handle<T>> {
        self.register_class::<T>();
        let id = self.construct_info(ClassInfo::of::<T>(), args)?;
        Ok(Handle::from_id(self, id))
    }

    /// Woven construction by class name (middleware receiving side).
    pub fn construct_dyn(&self, class: &str, args: Args) -> WeaveResult<ObjId> {
        let info = self
            .class_by_name(class)
            .ok_or_else(|| WeaveError::Construction(format!("class `{class}` not registered")))?;
        self.construct_info(info, args)
    }

    /// Unwoven construction by class name (what a distribution server does
    /// with a construct request it received off the wire — the weaving
    /// already happened on the client side).
    pub fn construct_dyn_unwoven(&self, class: &str, args: Args) -> WeaveResult<ObjId> {
        let info = self
            .class_by_name(class)
            .ok_or_else(|| WeaveError::Construction(format!("class `{class}` not registered")))?;
        self.base_construct(info, args, false, trace::thread_tag())
    }

    fn construct_info(&self, info: ClassInfo, args: Args) -> WeaveResult<ObjId> {
        let signature = Signature::construction(info.class);
        let provenance = context::current();
        let Some(chain) =
            self.inner.snapshot.matched(signature, JoinPointKind::Construct, provenance)
        else {
            return self.base_construct(info, args, false, trace::thread_tag());
        };
        let ret = Invocation::new(
            self,
            signature,
            JoinPointKind::Construct,
            None,
            provenance,
            args,
            &chain,
            BaseAction::Construct(info),
            false,
        )
        .proceed()?;
        crate::value::downcast_ret::<ObjId>(ret)
    }

    /// Woven method call: full join-point pipeline.
    pub fn invoke_call(
        &self,
        target: ObjId,
        class: &'static str,
        method: &'static str,
        mut args: Args,
    ) -> WeaveResult<AnyValue> {
        if let Some(bound) = &self.bound {
            match self.invoke_bound(bound, target, Signature::new(class, method), args) {
                Ok(result) => return result,
                Err(unserved) => args = unserved,
            }
        }
        let signature = Signature::new(class, method);
        let provenance = context::current();
        let Some(chain) = self.inner.snapshot.matched(signature, JoinPointKind::Call, provenance)
        else {
            return self.base_call(signature, target, args, false, trace::thread_tag());
        };
        Invocation::new(
            self,
            signature,
            JoinPointKind::Call,
            Some(target),
            provenance,
            args,
            &chain,
            BaseAction::Call,
            false,
        )
        .proceed()
    }

    /// [`Weaver::invoke_call`] through a bound view, when the chain matched at
    /// [`Weaver::bind`] is still the chain: same provenance, same aspect
    /// generation, a method of a bound class. `Err` hands the arguments back
    /// for the ordinary path (the frame is large, the miss is rare). Kept out
    /// of line so that `invoke_call` on an unbound weaver stays the code it was.
    #[inline(never)]
    #[allow(clippy::result_large_err)]
    fn invoke_bound(
        &self,
        bound: &Bound,
        target: ObjId,
        signature: Signature,
        args: Args,
    ) -> Result<WeaveResult<AnyValue>, Args> {
        let provenance = context::current();
        if provenance != bound.provenance || self.inner.snapshot.generation() != bound.generation {
            return Err(args);
        }
        let Some((_, chain)) = bound.chains.iter().find(|(known, _)| *known == signature) else {
            return Err(args);
        };
        let Some(chain) = chain else {
            return Ok(self.base_call(signature, target, args, false, trace::thread_tag()));
        };
        Ok(Invocation::new(
            self,
            signature,
            JoinPointKind::Call,
            Some(target),
            provenance,
            args,
            chain,
            BaseAction::Call,
            false,
        )
        .proceed())
    }

    /// The instance a bound view resolved for `target`, while no object has
    /// left the space since.
    fn bound_object(&self, target: ObjId) -> Option<(&ClassInfo, &Instance)> {
        let bound = self.bound.as_deref()?;
        if self.inner.space.removal_epoch() != bound.epoch {
            return None;
        }
        let at = bound.objects.binary_search_by_key(&target, |&(id, ..)| id).ok()?;
        let (_, info, instance) = &bound.objects[at];
        Some((info, instance))
    }

    /// Woven method call with a dynamic method name: the class is resolved
    /// from the live object, the method name from its dispatch table or the
    /// inter-type extensions.
    pub fn invoke_call_dyn(
        &self,
        target: ObjId,
        method: &str,
        args: Args,
    ) -> WeaveResult<AnyValue> {
        let info = self.inner.space.class_info(target)?;
        let method = self.resolve_method_name(&info, method)?;
        self.invoke_call(target, info.class, method, args)
    }

    /// Unwoven method call: no advice, straight to base dispatch (still
    /// traced). This is what a distribution server uses to execute a call it
    /// received off the wire, and what aspect internals use to sidestep
    /// their own pointcuts.
    pub fn invoke_unwoven(&self, target: ObjId, method: &str, args: Args) -> WeaveResult<AnyValue> {
        let (info, instance) = self.inner.space.lookup(target)?;
        let signature = Signature::new(info.class, self.resolve_method_name(&info, method)?);
        self.base_call_on(signature, target, &info, &instance, args, false, trace::thread_tag())
    }

    fn resolve_method_name(&self, info: &ClassInfo, method: &str) -> WeaveResult<&'static str> {
        if let Some(m) = info.resolve_method(method) {
            return Ok(m);
        }
        if let Some((_, m)) = self.inner.intertype.resolve_method(info.class, method) {
            return Ok(m);
        }
        Err(WeaveError::NoSuchMethod { class: info.class.into(), method: method.into() })
    }

    // ---- base actions (innermost proceed) --------------------------------------

    pub(crate) fn base_call(
        &self,
        signature: Signature,
        target: ObjId,
        args: Args,
        async_boundary: bool,
        issuer: u64,
    ) -> WeaveResult<AnyValue> {
        // One map read resolves both the class record and the instance; the
        // monitor is then taken without revisiting the map. A bound view has
        // done that read already.
        let resolved;
        let (info, instance) = match self.bound_object(target) {
            Some(bound) => bound,
            None => {
                resolved = self.inner.space.lookup(target)?;
                (&resolved.0, &resolved.1)
            }
        };
        self.base_call_on(signature, target, info, instance, args, async_boundary, issuer)
    }

    /// [`Weaver::base_call`] on an object the caller has already resolved.
    #[allow(clippy::too_many_arguments)]
    fn base_call_on(
        &self,
        signature: Signature,
        target: ObjId,
        info: &ClassInfo,
        instance: &Instance,
        args: Args,
        async_boundary: bool,
        issuer: u64,
    ) -> WeaveResult<AnyValue> {
        let in_table = info.methods.contains(&signature.method);
        let recording =
            self.recording(info, signature, &args, Some(target), async_boundary, issuer);
        let result = {
            let _prov = context::push(Provenance::Core);
            let _task = trace::push_task(recording.as_ref().and_then(|r| r.task));
            if in_table {
                ObjectSpace::dispatch_on(info, instance, target, signature.method, args)
            } else {
                self.inner.intertype.call_method(
                    self,
                    signature.class,
                    signature.method,
                    target,
                    args,
                )
            }
        };
        if let Some(recording) = recording {
            let ret_bytes =
                result.as_ref().map(|r| (info.ret_bytes)(signature.method, r)).unwrap_or(0);
            recording.close(target, ret_bytes);
        }
        result
    }

    pub(crate) fn base_construct(
        &self,
        info: ClassInfo,
        args: Args,
        async_boundary: bool,
        issuer: u64,
    ) -> WeaveResult<ObjId> {
        let signature = Signature::construction(info.class);
        let recording = self.recording(&info, signature, &args, None, async_boundary, issuer);
        let boxed = {
            let _prov = context::push(Provenance::Core);
            (info.construct)(args)
        }?;
        let id = self.inner.space.insert_erased(info, boxed);
        if let Some(recording) = recording {
            recording.close(id, 0);
        }
        Ok(id)
    }

    /// The recorder's bracket around one base event, if a recorder is
    /// installed; one relaxed load when none is — the steady-state path.
    fn recording(
        &self,
        info: &ClassInfo,
        signature: Signature,
        args: &Args,
        target: Option<ObjId>,
        async_boundary: bool,
        issuer: u64,
    ) -> Option<Recording> {
        let recorder = self.inner.recorder.get()?;
        let issued = Issued {
            signature,
            args_bytes: (info.arg_bytes)(signature.method, args),
            async_boundary,
            issuer,
        };
        let model_cost = recorder.model_cost(&signature, args);
        // A call's task opens now, so that what its body issues names it as
        // parent; a construction's opens once the new object has an id.
        let task = target.map(|target| issued.begin(&recorder, target));
        Some(Recording { recorder, issued, task, model_cost, started: Instant::now() })
    }

    // ---- advice matching ---------------------------------------------------------

    /// Publish the enabled advice set as a new immutable snapshot. Must be
    /// called with the aspect write lock held, which serialises publications.
    fn republish(&self, aspects: &[Slot]) {
        let advice: Vec<Arc<AdviceEntry>> =
            aspects.iter().filter(|s| s.enabled).flat_map(|s| s.advice.iter().cloned()).collect();
        self.inner.snapshot.publish(advice);
    }

    /// The published aspect snapshot (tests and diagnostics).
    #[cfg(test)]
    pub(crate) fn debug_snapshot(&self) -> Arc<crate::snapshot::AspectsSnapshot> {
        self.inner.snapshot.snapshot()
    }

    /// This thread's cached chain for a core-made call (tests).
    #[cfg(test)]
    pub(crate) fn debug_chain(&self, signature: Signature) -> Option<crate::snapshot::Chain> {
        self.inner.snapshot.matched(signature, JoinPointKind::Call, Provenance::Core)
    }

    /// Handles on this weaver's shared state (tests).
    #[cfg(test)]
    pub(crate) fn debug_strong_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

/// What the recorder is told when a base event's task opens, but for its
/// target.
#[derive(Clone, Copy)]
struct Issued {
    signature: Signature,
    args_bytes: usize,
    async_boundary: bool,
    issuer: u64,
}

impl Issued {
    fn begin(self, recorder: &Recorder, target: ObjId) -> TaskId {
        let Issued { signature, args_bytes, async_boundary, issuer } = self;
        recorder.begin_task(signature, Some(target), args_bytes, async_boundary, issuer)
    }
}

/// One base event as the installed recorder sees it: opened by
/// [`Weaver::recording`] before the event runs, closed with what it produced.
/// The clock is read here and nowhere else in the dispatcher, and only when a
/// recorder needs wall-time costs.
struct Recording {
    recorder: Recorder,
    issued: Issued,
    task: Option<TaskId>,
    model_cost: Option<Duration>,
    started: Instant,
}

impl Recording {
    fn close(self, target: ObjId, ret_bytes: usize) {
        let cost = self.model_cost.unwrap_or_else(|| self.started.elapsed());
        let task = self.task.unwrap_or_else(|| self.issued.begin(&self.recorder, target));
        self.recorder.end_task(task, cost, ret_bytes);
        // Whatever this thread's advice does next (e.g. forward the result
        // down the pipeline) happens after this task.
        trace::note_completion(self.recorder.id(), task);
    }
}

impl Default for Weaver {
    fn default() -> Self {
        Weaver::new()
    }
}

impl std::fmt::Debug for Weaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Weaver")
            .field("objects", &self.inner.space.len())
            .field("aspects", &self.inner.aspects.read().len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pointcut::Pointcut;
    use crate::value::downcast_ret;
    use crate::{args, ret};
    use parking_lot::Mutex;

    /// Minimal weaveable class used across the registry tests.
    pub(crate) struct Acc {
        pub(crate) total: i64,
    }

    impl Weaveable for Acc {
        const CLASS: &'static str = "Acc";

        fn construct(mut args: Args) -> WeaveResult<Self> {
            Ok(Acc { total: args.take(0)? })
        }

        fn dispatch(&mut self, method: &'static str, mut args: Args) -> WeaveResult<AnyValue> {
            match method {
                "add" => {
                    self.total += args.take::<i64>(0)?;
                    Ok(ret!())
                }
                "total" => Ok(ret!(self.total)),
                _ => Err(WeaveError::NoSuchMethod { class: "Acc".into(), method: method.into() }),
            }
        }

        fn methods() -> &'static [&'static str] {
            &["add", "total"]
        }

        fn arg_bytes(method: &'static str, args: &Args) -> usize {
            match method {
                "add" | Signature::NEW => args.get::<i64>(0).map(|_| 8).unwrap_or(0),
                _ => 0,
            }
        }
    }

    fn total(weaver: &Weaver, h: &Handle<Acc>) -> i64 {
        downcast_ret::<i64>(weaver.invoke_call(h.id(), "Acc", "total", args![]).unwrap()).unwrap()
    }

    #[test]
    fn unwoven_construct_and_call() {
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![10i64]).unwrap();
        h.call("add", args![5i64]).unwrap();
        assert_eq!(total(&weaver, &h), 15);
    }

    #[test]
    fn around_advice_wraps_calls() {
        let weaver = Weaver::new();
        // Doubling aspect: rewrite the argument before proceeding.
        let doubling = Aspect::named("Doubling")
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let v = *inv.arg::<i64>(0)?;
                inv.args_mut()?.set(0, v * 2)?;
                inv.proceed()
            })
            .build();
        let plugged = weaver.plug(doubling);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![3i64]).unwrap();
        assert_eq!(total(&weaver, &h), 6);
        weaver.unplug(&plugged);
        h.call("add", args![3i64]).unwrap();
        assert_eq!(total(&weaver, &h), 9);
    }

    #[test]
    fn advice_can_replace_the_event() {
        let weaver = Weaver::new();
        let suppress = Aspect::named("Suppress")
            .around(Pointcut::call("Acc.add"), |_inv: &mut Invocation| Ok(ret!()))
            .build();
        weaver.plug(suppress);
        let h = weaver.construct::<Acc>(args![7i64]).unwrap();
        h.call("add", args![100i64]).unwrap();
        assert_eq!(total(&weaver, &h), 7);
    }

    #[test]
    fn construction_advice_object_duplication() {
        // The paper's Figure 8 block 1: one `new` becomes a pipeline of
        // objects; the client receives the first element.
        let weaver = Weaver::new();
        let duplication = Aspect::named("Duplication")
            .around(Pointcut::construct("Acc"), |inv: &mut Invocation| {
                let mut first = None;
                for i in 0..3i64 {
                    let id = inv.construct_sibling(args![i * 100])?;
                    if first.is_none() {
                        first = Some(id);
                    }
                }
                Ok(ret!(first.unwrap()))
            })
            .build();
        weaver.plug(duplication);
        let h = weaver.construct::<Acc>(args![999i64]).unwrap();
        // Three aspect-managed objects exist; the original args were never used.
        assert_eq!(weaver.space().ids_of_class("Acc").len(), 3);
        assert_eq!(total(&weaver, &h), 0);
    }

    #[test]
    fn precedence_orders_the_chain() {
        let weaver = Weaver::new();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let outer = Aspect::named("Outer")
            .precedence(10)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                l1.lock().push("outer");
                inv.proceed()
            })
            .build();
        let inner = Aspect::named("Inner")
            .precedence(20)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                l2.lock().push("inner");
                inv.proceed()
            })
            .build();
        // Plug in reverse order to prove precedence (not plug order) wins.
        weaver.plug(inner);
        weaver.plug(outer);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert_eq!(*log.lock(), vec!["outer", "inner"]);
    }

    #[test]
    fn within_core_excludes_aspect_calls() {
        let weaver = Weaver::new();
        let count = Arc::new(AtomicU64::new(0));
        let count2 = count.clone();
        // Advice that counts core-made add calls and re-issues one aspect-made
        // call; the aspect-made call must not be counted again.
        let counting = Aspect::named("Counting")
            .around(
                Pointcut::call("Acc.add").and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    count2.fetch_add(1, Ordering::Relaxed);
                    let target = inv.target_required()?;
                    let v = *inv.arg::<i64>(0)?;
                    // Aspect-made call: provenance is Aspect, so the pointcut
                    // does not match and this does not recurse.
                    inv.weaver().invoke_call(target, "Acc", "add", args![v])?;
                    inv.proceed()
                },
            )
            .build();
        weaver.plug(counting);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![5i64]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(total(&weaver, &h), 10); // both calls executed
    }

    #[test]
    fn disable_and_reenable() {
        let weaver = Weaver::new();
        let count = Arc::new(AtomicU64::new(0));
        let count2 = count.clone();
        let counting = Aspect::named("Counting")
            .before(Pointcut::call("Acc.add"), move |_| {
                count2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .build();
        let plugged = weaver.plug(counting);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert!(weaver.set_enabled(&plugged, false));
        h.call("add", args![1i64]).unwrap();
        assert!(weaver.set_enabled(&plugged, true));
        h.call("add", args![1i64]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert!(weaver.is_plugged(&plugged));
        assert_eq!(weaver.aspect_names(), vec!["Counting".to_string()]);
        assert_eq!(weaver.active_advice_count(), 1);
    }

    #[test]
    fn unplug_unknown_aspect_is_false() {
        let weaver = Weaver::new();
        let a = Aspect::named("A").build();
        let plugged = weaver.plug(a);
        assert!(weaver.unplug(&plugged));
        assert!(!weaver.unplug(&plugged));
        assert!(!weaver.set_enabled(&plugged, true));
        assert!(!weaver.is_plugged(&plugged));
    }

    #[test]
    fn call_unwoven_bypasses_advice() {
        let weaver = Weaver::new();
        let boom = Aspect::named("Boom")
            .around(Pointcut::call("Acc.*"), |_inv: &mut Invocation| {
                Err(WeaveError::app("advice must not run"))
            })
            .build();
        weaver.plug(boom);
        weaver.register_class::<Acc>();
        let id = weaver.construct_dyn_unwoven("Acc", args![1i64]).unwrap();
        weaver.invoke_unwoven(id, "add", args![2i64]).unwrap();
        let got = weaver.invoke_unwoven(id, "total", args![]).unwrap();
        assert_eq!(downcast_ret::<i64>(got).unwrap(), 3);
        // The woven path does hit the advice.
        assert!(weaver.invoke_call(id, "Acc", "total", args![]).is_err());
    }

    #[test]
    fn dyn_invocation_resolves_names() {
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![4i64]).unwrap();
        let method = String::from("total");
        let got = weaver.invoke_call_dyn(h.id(), &method, args![]).unwrap();
        assert_eq!(downcast_ret::<i64>(got).unwrap(), 4);
        let err = weaver.invoke_call_dyn(h.id(), "nope", args![]).unwrap_err();
        assert!(matches!(err, WeaveError::NoSuchMethod { .. }));
        let id = weaver.construct_dyn("Acc", args![5i64]).unwrap();
        let got = weaver.invoke_unwoven(id, "total", args![]).unwrap();
        assert_eq!(downcast_ret::<i64>(got).unwrap(), 5);
        assert!(weaver.construct_dyn("Ghost", args![]).is_err());
    }

    #[test]
    fn extension_methods_dispatch_on_table_miss() {
        let weaver = Weaver::new();
        weaver.intertype().add_method(
            "Acc",
            "migrate",
            Arc::new(|_w, obj, mut args: Args| {
                let node: String = args.take(0)?;
                Ok(ret!(format!("{obj} -> {node}")))
            }),
        );
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let got = weaver.invoke_call_dyn(h.id(), "migrate", args!["n1".to_string()]).unwrap();
        let s = downcast_ret::<String>(got).unwrap();
        assert!(s.ends_with("-> n1"));
    }

    #[test]
    fn recorder_captures_tasks_and_bytes() {
        let weaver = Weaver::new();
        let rec = Recorder::measuring();
        weaver.set_recorder(Some(rec.clone()));
        let h = weaver.construct::<Acc>(args![1i64]).unwrap();
        h.call("add", args![2i64]).unwrap();
        weaver.set_recorder(None);
        h.call("add", args![2i64]).unwrap(); // not recorded
        let g = rec.finish();
        assert_eq!(g.len(), 2); // construction + one add
        let ctor = &g.tasks[0];
        assert!(ctor.signature.is_construction());
        assert_eq!(ctor.args_bytes, 8);
        let call = &g.tasks[1];
        assert_eq!(call.signature, Signature::new("Acc", "add"));
        assert_eq!(call.args_bytes, 8);
        assert!(!call.async_spawn);
    }

    #[test]
    fn plugging_invalidates_cached_matches() {
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        // Prime the cache with an empty chain.
        h.call("add", args![1i64]).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let count2 = count.clone();
        let a = Aspect::named("A")
            .before(Pointcut::call("Acc.add"), move |_| {
                count2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .build();
        let plugged = weaver.plug(a);
        h.call("add", args![1i64]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1, "cache not invalidated on plug");
        weaver.unplug(&plugged);
        h.call("add", args![1i64]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1, "cache not invalidated on unplug");
    }

    #[test]
    fn late_insert_from_unplugged_aspect_set_is_invisible() {
        // Regression for the stale-chain race: a dispatch matches its advice
        // against the pre-unplug aspect set, the unplug lands (old code:
        // cache cleared), then the dispatch inserts its stale chain into the
        // shared cache — which would serve the unplugged advice forever.
        // Per-thread caches that live and die with the thread's snapshot make
        // that interleaving structurally inert.
        let weaver = Weaver::new();
        let count = Arc::new(AtomicU64::new(0));
        let count2 = count.clone();
        let a = Aspect::named("A")
            .before(Pointcut::call("Acc.add"), move |_| {
                count2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .build();
        let plugged = weaver.plug(a);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();

        // An in-flight dispatch pins the pre-unplug snapshot...
        let old_snapshot = weaver.debug_snapshot();

        weaver.unplug(&plugged);

        // ...and completes its lookup+insert only now, after the unplug.
        let sig = Signature::new("Acc", "add");
        let stale = old_snapshot.matched(sig, JoinPointKind::Call, Provenance::Core);
        assert_eq!(stale.map_or(0, |c| c.len()), 1, "the old view legitimately sees the aspect");

        // Fresh calls must dispatch unwoven: a chain matched against the
        // retired snapshot is memoised nowhere a new lookup consults.
        h.call("add", args![1i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0, "unplugged advice fired from stale cache");
    }

    #[test]
    fn a_plug_is_honoured_on_the_very_next_call_on_every_thread() {
        // Eight threads with warm chain caches; between two barrier steps the
        // aspect set changes, and the call right after must see the change.
        const THREADS: usize = 8;
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let step = std::sync::Barrier::new(THREADS + 1);
        let rounds = 20;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..rounds {
                        step.wait(); // the aspect set for this round is published
                        h.call("add", args![1i64]).unwrap();
                        step.wait(); // every thread has called once
                    }
                });
            }
            let mut plugged = None;
            for round in 0..rounds {
                match plugged.take() {
                    Some(token) => assert!(weaver.unplug(&token)),
                    None => {
                        let count = count.clone();
                        let counting = Aspect::named("Counting")
                            .before(Pointcut::call("Acc.add"), move |_| {
                                count.fetch_add(1, Ordering::Relaxed);
                                Ok(())
                            })
                            .build();
                        plugged = Some(weaver.plug(counting));
                    }
                }
                let before = count.load(Ordering::Relaxed);
                step.wait();
                step.wait();
                let fired = count.load(Ordering::Relaxed) - before;
                let expected = if plugged.is_some() { THREADS as u64 } else { 0 };
                assert_eq!(fired, expected, "round {round}");
            }
        });
        assert_eq!(total(&weaver, &h), (THREADS * rounds) as i64);
    }

    #[test]
    fn a_dropped_weaver_releases_its_aspects() {
        // What an advice closure captured (an executor, a fabric) must not
        // outlive the weaver in the thread-local caches of the threads that
        // dispatched through it.
        let token = Arc::new(());
        {
            let weaver = Weaver::new();
            weaver.set_recorder(Some(Recorder::measuring()));
            let captured = token.clone();
            let holding = Aspect::named("Holding")
                .before(Pointcut::call("Acc.add"), move |_| {
                    let _keep = &captured;
                    Ok(())
                })
                .build();
            weaver.plug(holding);
            let h = weaver.construct::<Acc>(args![0i64]).unwrap();
            h.call("add", args![1i64]).unwrap();
            assert_eq!(Arc::strong_count(&token), 2);
        }
        assert_eq!(Arc::strong_count(&token), 2, "this thread's cache entry is all that is left");
        let second = Weaver::new();
        let h = second.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn detached_chain_runs_elsewhere() {
        let weaver = Weaver::new();
        let asynchronise = Aspect::named("Async")
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let detached = inv.detach()?;
                std::thread::spawn(move || detached.run().unwrap()).join().unwrap();
                Ok(ret!())
            })
            .build();
        weaver.plug(asynchronise);
        let rec = Recorder::measuring();
        weaver.set_recorder(Some(rec.clone()));
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![5i64]).unwrap();
        assert_eq!(total(&weaver, &h), 5);
        let g = rec.finish();
        let add = g.tasks.iter().find(|t| t.signature.method == "add").unwrap();
        assert!(add.async_spawn, "detached execution must be recorded as async");
    }

    #[test]
    fn advice_fire_counts_expose_weaving_structure() {
        let weaver = Weaver::new();
        let logging =
            Aspect::named("Logging").before(Pointcut::call("Acc.add"), |_| Ok(())).build();
        let silent = Aspect::named("NeverMatches")
            .before(Pointcut::call("Acc.nonexistent"), |_| Ok(()))
            .build();
        weaver.plug(logging);
        weaver.plug(silent);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        for _ in 0..5 {
            h.call("add", args![1i64]).unwrap();
        }
        let counts = weaver.advice_fire_counts();
        assert_eq!(counts, vec![("Logging".to_string(), 5), ("NeverMatches".to_string(), 0)]);
    }

    #[test]
    fn guarded_advice_applies_conditionally() {
        // AspectJ's `if()` residue: the guard inspects live arguments.
        let weaver = Weaver::new();
        let guarded = Aspect::named("BigOnly")
            .around_if(
                Pointcut::call("Acc.add"),
                |inv: &Invocation| Ok(*inv.arg::<i64>(0)? >= 10),
                |_inv: &mut Invocation| Ok(ret!()), // suppress big additions
            )
            .build();
        weaver.plug(guarded);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![5i64]).unwrap(); // small: passes through
        h.call("add", args![50i64]).unwrap(); // big: suppressed
        assert_eq!(total(&weaver, &h), 5);
    }

    #[test]
    fn guard_errors_propagate() {
        let weaver = Weaver::new();
        let guarded = Aspect::named("BadGuard")
            .around_if(
                Pointcut::call("Acc.add"),
                |_inv: &Invocation| Err(WeaveError::app("guard exploded")),
                |inv: &mut Invocation| inv.proceed(),
            )
            .build();
        weaver.plug(guarded);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        assert!(matches!(h.call("add", args![1i64]), Err(WeaveError::App(_))));
    }

    #[test]
    fn proceed_twice_without_args_errors() {
        let weaver = Weaver::new();
        let double_proceed = Aspect::named("DoubleProceed")
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let first = inv.proceed()?;
                match inv.proceed() {
                    Err(WeaveError::AlreadyProceeded) => Ok(first),
                    other => panic!("expected AlreadyProceeded, got {other:?}"),
                }
            })
            .build();
        weaver.plug(double_proceed);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert_eq!(total(&weaver, &h), 1);
    }

    #[test]
    fn proceed_with_replays_the_chain() {
        let weaver = Weaver::new();
        let twice = Aspect::named("Twice")
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let v = *inv.arg::<i64>(0)?;
                inv.proceed_with(args![v])?;
                inv.proceed_with(args![v])
            })
            .build();
        weaver.plug(twice);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![3i64]).unwrap();
        assert_eq!(total(&weaver, &h), 6);
    }

    #[test]
    fn construct_sibling_rejected_on_calls() {
        let weaver = Weaver::new();
        let bad = Aspect::named("Bad")
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                match inv.construct_sibling(args![]) {
                    Err(WeaveError::App(_)) => inv.proceed(),
                    other => panic!("expected App error, got {other:?}"),
                }
            })
            .build();
        weaver.plug(bad);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        h.call("add", args![1i64]).unwrap();
        assert_eq!(total(&weaver, &h), 1);
    }

    // ---- bound views ---------------------------------------------------------

    /// Run `add(v)` on `id` through `view`'s bound table alone: `false` when
    /// the table hands the call back to the ordinary path (not run then).
    fn served_bound(view: &Weaver, id: ObjId, signature: Signature, v: i64) -> bool {
        let bound = view.bound.as_ref().expect("a bound view");
        view.invoke_bound(bound, id, signature, args![v]).map(|r| r.unwrap()).is_ok()
    }

    const ADD: Signature = Signature::new("Acc", "add");

    fn counting_adds(count: &Arc<AtomicU64>, pointcut: Pointcut) -> Aspect {
        let count = count.clone();
        Aspect::named("Counting")
            .before(pointcut, move |_| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .build()
    }

    #[test]
    fn bound_view_honours_plug_unplug_and_enable_at_the_next_join_point() {
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let view = weaver.bind(&[h.id()]);
        assert!(served_bound(&view, h.id(), ADD, 1), "unadvised, from the table");
        let count = Arc::new(AtomicU64::new(0));
        let fired = || count.load(Ordering::Relaxed);
        let add = |v: i64| view.invoke_call(h.id(), "Acc", "add", args![v]).map(drop);

        let plugged = weaver.plug(counting_adds(&count, Pointcut::call("Acc.add")));
        assert!(!served_bound(&view, h.id(), ADD, 0), "the generation moved");
        add(1).unwrap();
        assert_eq!(fired(), 1, "plugged after the bind, seen by the very next call");
        weaver.set_enabled(&plugged, false);
        add(1).unwrap();
        assert_eq!(fired(), 1);
        weaver.set_enabled(&plugged, true);
        add(1).unwrap();
        assert_eq!(fired(), 2);

        // Bound with the aspect plugged, the table holds the advised chain...
        let advised = weaver.bind(&[h.id()]);
        assert!(served_bound(&advised, h.id(), ADD, 1));
        assert_eq!(fired(), 3);
        // ...and gives it up at the unplug.
        weaver.unplug(&plugged);
        advised.invoke_call(h.id(), "Acc", "add", args![1i64]).unwrap();
        assert_eq!(fired(), 3, "unplugged advice served from a bound chain");
        assert_eq!(total(&weaver, &h), 6);
        // The instance is still the bound one: no removal since.
        assert!(advised.bound_object(h.id()).is_some());
    }

    #[test]
    fn bound_view_gives_up_a_removed_object_and_keeps_serving_the_others() {
        let weaver = Weaver::new();
        let ids: Vec<ObjId> =
            (0..3).map(|i| weaver.construct::<Acc>(args![i as i64]).unwrap().id()).collect();
        let view = weaver.bind(&ids);
        for &id in &ids {
            assert!(view.bound_object(id).is_some());
            view.invoke_call(id, "Acc", "add", args![10i64]).unwrap();
        }
        assert!(weaver.space().remove(ids[1]));
        let gone = view.invoke_call(ids[1], "Acc", "add", args![1i64]).unwrap_err();
        assert!(matches!(gone, WeaveError::NoSuchObject(id) if id == ids[1]), "got {gone:?}");
        // The chains are still the bound ones (no aspect moved); the objects
        // are looked up again, and the two that are left are found.
        assert!(served_bound(&view, ids[0], ADD, 1));
        assert!(view.bound_object(ids[0]).is_none(), "the epoch moved");
        let left = view.invoke_call(ids[2], "Acc", "total", args![]).unwrap();
        assert_eq!(downcast_ret::<i64>(left).unwrap(), 12);
        let first = view.invoke_call(ids[0], "Acc", "total", args![]).unwrap();
        assert_eq!(downcast_ret::<i64>(first).unwrap(), 11);
    }

    #[test]
    fn bound_view_matches_again_for_another_provenance() {
        // The heartbeat's situation: bound inside advice, so the table holds
        // the chains of aspect-made calls. A call the view receives from a
        // core method body must get the chain an unbound weaver gives it —
        // here, one more advice (`within_core`).
        let run = |bind: bool| {
            let weaver = Weaver::new();
            let count = Arc::new(AtomicU64::new(0));
            weaver.plug(counting_adds(
                &count,
                Pointcut::call("Acc.add").and(Pointcut::within_core()),
            ));
            // A core method body that calls `add` through the weaver it is
            // handed — the view, when the call came through one.
            weaver.intertype().add_method(
                "Acc",
                "relay",
                Arc::new(|w: &Weaver, obj, args: Args| w.invoke_call(obj, "Acc", "add", args)),
            );
            let driver = Aspect::named("Driver")
                .around(Pointcut::call("Acc.total"), move |inv: &mut Invocation| {
                    let target = inv.target_required()?;
                    let weaver =
                        if bind { inv.weaver().bind(&[target]) } else { inv.weaver().clone() };
                    assert_eq!(weaver.bound.is_some(), bind);
                    weaver.invoke_call(target, "Acc", "add", args![1i64])?; // aspect-made
                    weaver.invoke_call(target, "Acc", "relay", args![10i64])?; // core-made inside
                    inv.proceed()
                })
                .build();
            weaver.plug(driver);
            let h = weaver.construct::<Acc>(args![0i64]).unwrap();
            (total(&weaver, &h), count.load(Ordering::Relaxed))
        };
        assert_eq!(run(false), (11, 1), "only the relayed add is core-made");
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn bound_chains_are_found_by_what_a_name_spells() {
        // The call site's "add" and the class table's are different statics
        // in different crates; so are these.
        let leaked = |s: &str| -> &'static str { Box::leak(s.to_owned().into_boxed_str()) };
        let weaver = Weaver::new();
        let count = Arc::new(AtomicU64::new(0));
        weaver.plug(counting_adds(&count, Pointcut::call("Acc.add")));
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let view = weaver.bind(&[h.id()]);
        let respelled = Signature::new(leaked("Acc"), leaked("add"));
        assert_ne!(respelled.method.as_ptr(), ADD.method.as_ptr());
        assert!(served_bound(&view, h.id(), ADD, 1));
        assert!(served_bound(&view, h.id(), respelled, 1));
        assert_eq!(count.load(Ordering::Relaxed), 2, "one entry, the advised one, both times");
        // Not a method of the class table: the ordinary path's business.
        assert!(!served_bound(&view, h.id(), Signature::new("Acc", "migrate"), 0));
        assert_eq!(total(&weaver, &h), 2);
    }

    #[test]
    fn detached_call_through_a_bound_view_runs_elsewhere_with_the_view_intact() {
        let weaver = Weaver::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = seen.clone();
        let asynchronise = Aspect::named("Async")
            .precedence(1)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let detached = inv.detach()?;
                std::thread::spawn(move || detached.run()).join().expect("remainder panicked")
            })
            .build();
        let probe = Aspect::named("Probe")
            .precedence(2)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                let target = inv.target_required()?;
                let resolved = inv.weaver().bound_object(target).is_some();
                *seen2.lock() = Some((std::thread::current().id(), resolved));
                inv.proceed()
            })
            .build();
        weaver.plug(asynchronise);
        weaver.plug(probe);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let view = weaver.bind(&[h.id()]);
        assert!(served_bound(&view, h.id(), ADD, 5));
        let (thread, resolved) = seen.lock().expect("the inner advice ran");
        assert_ne!(thread, std::thread::current().id());
        assert!(resolved, "the detached chain's base call finds the bound instance");
        assert_eq!(total(&weaver, &h), 5);
    }

    #[test]
    fn bound_view_keeps_the_recorder_rule() {
        let weaver = Weaver::new();
        let nested = Aspect::named("Nested")
            .before(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let target = inv.target_required()?;
                inv.weaver().invoke_call(target, "Acc", "total", args![]).map(drop)
            })
            .build();
        weaver.plug(nested);
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        let view = weaver.bind(&[h.id()]);
        assert!(served_bound(&view, h.id(), ADD, 1));

        // A recorder installed after the bind sees the very next base event.
        let rec = Recorder::measuring();
        weaver.set_recorder(Some(rec.clone()));
        assert!(served_bound(&view, h.id(), ADD, 1));
        weaver.set_recorder(None);
        assert!(served_bound(&view, h.id(), ADD, 1));
        let adds = rec.finish().tasks.iter().filter(|t| t.signature == ADD).count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn binding_nothing_is_the_plain_weaver() {
        let weaver = Weaver::new();
        let h = weaver.construct::<Acc>(args![4i64]).unwrap();
        let ghost = ObjId::from_raw(999);
        for view in [weaver.bind(&[]), weaver.bind(&[ghost])] {
            assert!(view.bound.is_none());
            assert_eq!(total(&view, &h), 4);
            let err = view.invoke_call(ghost, "Acc", "total", args![]).unwrap_err();
            assert!(matches!(err, WeaveError::NoSuchObject(_)));
        }
        // An id that was not local at the bind is looked up, next to one
        // that was.
        let view = weaver.bind(&[ghost, h.id()]);
        assert!(view.bound_object(h.id()).is_some());
        assert!(view.bound_object(ghost).is_none());
        let late = weaver.construct::<Acc>(args![7i64]).unwrap();
        assert_eq!(total(&view, &late), 7);
        // Re-binding a view replaces what it carried.
        assert!(view.bind(&[]).bound.is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Acc;
    use super::*;
    use crate::pointcut::Pointcut;
    use crate::value::downcast_ret;
    use crate::{args, ret};
    use proptest::prelude::*;

    /// The kinds of semantically-neutral advice a random stack may contain.
    #[derive(Debug, Clone, Copy)]
    enum Neutral {
        Proceed,
        ReadArgThenProceed,
        ProceedWithSameArgs,
        GuardAlwaysFalse,
    }

    fn neutral_aspect(kind: Neutral, index: usize) -> Aspect {
        let name = format!("N{index}");
        match kind {
            Neutral::Proceed => Aspect::named(name)
                .around(Pointcut::call("Acc.*"), |inv: &mut Invocation| inv.proceed())
                .build(),
            Neutral::ReadArgThenProceed => Aspect::named(name)
                .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                    let _peek = *inv.arg::<i64>(0)?;
                    inv.proceed()
                })
                .build(),
            Neutral::ProceedWithSameArgs => Aspect::named(name)
                .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                    let v = *inv.arg::<i64>(0)?;
                    inv.proceed_with(args![v])
                })
                .build(),
            Neutral::GuardAlwaysFalse => Aspect::named(name)
                .around_if(
                    Pointcut::call("Acc.*"),
                    |_inv: &Invocation| Ok(false),
                    |_inv: &mut Invocation| Ok(ret!()),
                )
                .build(),
        }
    }

    fn arb_neutral() -> impl Strategy<Value = Neutral> {
        prop_oneof![
            Just(Neutral::Proceed),
            Just(Neutral::ReadArgThenProceed),
            Just(Neutral::ProceedWithSameArgs),
            Just(Neutral::GuardAlwaysFalse),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any stack of semantically-neutral aspects, at any precedences, is
        /// invisible: the woven program computes exactly what the unwoven
        /// one does.
        #[test]
        fn neutral_stacks_are_invisible(
            kinds in proptest::collection::vec(arb_neutral(), 0..6),
            precedences in proptest::collection::vec(-100i32..400, 0..6),
            adds in proptest::collection::vec(-1000i64..1000, 0..20),
        ) {
            let weaver = Weaver::new();
            for (i, kind) in kinds.iter().enumerate() {
                let mut aspect = neutral_aspect(*kind, i);
                if let Some(p) = precedences.get(i) {
                    aspect.precedence = *p;
                }
                weaver.plug(aspect);
            }
            let h = weaver.construct::<Acc>(args![0i64]).unwrap();
            for v in &adds {
                h.call("add", args![*v]).unwrap();
            }
            let got = downcast_ret::<i64>(h.call("total", args![]).unwrap()).unwrap();
            prop_assert_eq!(got, adds.iter().sum::<i64>());
        }

        /// Plugging then unplugging any neutral stack leaves no residue.
        #[test]
        fn unplug_leaves_no_residue(kinds in proptest::collection::vec(arb_neutral(), 1..5)) {
            let weaver = Weaver::new();
            let tokens: Vec<_> = kinds
                .iter()
                .enumerate()
                .map(|(i, k)| weaver.plug(neutral_aspect(*k, i)))
                .collect();
            let h = weaver.construct::<Acc>(args![0i64]).unwrap();
            h.call("add", args![7i64]).unwrap();
            for t in &tokens {
                prop_assert!(weaver.unplug(t));
            }
            prop_assert_eq!(weaver.aspect_names().len(), 0);
            h.call("add", args![5i64]).unwrap();
            let got = downcast_ret::<i64>(h.call("total", args![]).unwrap()).unwrap();
            prop_assert_eq!(got, 12);
        }
    }
}
