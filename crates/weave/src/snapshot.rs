//! Generation-stamped snapshot publication for the dispatch hot path.
//!
//! Aspect mutations (plug/unplug/enable/disable) are rare; join points are
//! constant. This module makes the read side lock-free and, for a join point
//! no advice matches, free of shared reference counts:
//!
//! * The enabled advice set is published as an immutable [`AspectsSnapshot`]
//!   behind a monotonically increasing generation counter. Each dispatching
//!   thread keeps the current snapshot and its own chain cache in thread-local
//!   storage, revalidated with a single atomic load per join point.
//! * That thread-private map is the **only** chain cache. A cold key is
//!   matched on the spot against the thread's snapshot and memoised next to
//!   it, under one TLS borrow; the map is dropped with the snapshot when the
//!   generation moves. A chain matched at generation G can therefore never be
//!   served at G+1: there is no shared cache for a stale computation to
//!   poison.
//! * The trace recorder ([`RecorderCell`]) costs a join point one relaxed load
//!   while none is installed.
//! * A cell that is dropped clears the `alive` flag it shares with its
//!   per-thread entries; every thread releases dead entries (and whatever
//!   their advice closures captured) on its next cold path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::advice::AdviceEntry;
use crate::context::Provenance;
use crate::invocation::JoinPointKind;
use crate::pointcut::JoinPointQuery;
use crate::signature::Signature;
use crate::trace::Recorder;

pub(crate) type Chain = Arc<[Arc<AdviceEntry>]>;

/// Where a `&'static str` lives (address, length) rather than what it spells:
/// a static is never freed, so the pair identifies it for good. Two statics
/// spelling one name are two keys with equal chains.
type Name = (usize, usize);

type CacheKey = (Name, Name, JoinPointKind, Provenance);

fn cache_key(signature: Signature, kind: JoinPointKind, provenance: Provenance) -> CacheKey {
    let name = |s: &'static str| (s.as_ptr() as usize, s.len());
    (name(signature.class), name(signature.method), kind, provenance)
}

/// Per-thread cap on cached cells, which bounds the linear scan
/// on a thread that keeps more weavers than this alive at once.
const TLS_CAPACITY: usize = 32;

/// Multiply-rotate hasher for the chain cache (fxhash-style). A key is six
/// machine words generated by the runtime itself and looked up once per join
/// point, where SipHash's per-key setup cost is measurable and its
/// DoS-resistance buys nothing.
#[derive(Default)]
struct ChainKeyHasher {
    hash: u64,
}

impl ChainKeyHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for ChainKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(b as u64));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `None` is the empty chain: an unadvised join point clones nothing.
type ChainMap = HashMap<CacheKey, Option<Chain>, BuildHasherDefault<ChainKeyHasher>>;

// ---- aspect snapshots -------------------------------------------------------

/// An immutable view of the enabled advice set.
pub(crate) struct AspectsSnapshot {
    generation: u64,
    /// Enabled advice in plug order (declaration order within an aspect).
    advice: Vec<Arc<AdviceEntry>>,
}

impl AspectsSnapshot {
    /// Match and order the advice chain for a join point **as seen by this
    /// snapshot's aspect set**; `None` when nothing matches. One allocation:
    /// matches are gathered in a per-thread scratch vector that keeps its
    /// capacity, and the `Arc<[..]>` is built from its exact length.
    pub(crate) fn matched(
        &self,
        signature: Signature,
        kind: JoinPointKind,
        provenance: Provenance,
    ) -> Option<Chain> {
        SCRATCH.with(|scratch| {
            let mut matched = scratch.borrow_mut();
            matched.extend(
                self.advice
                    .iter()
                    .filter(|entry| {
                        let owner = entry.aspect;
                        entry.pointcut.matches(&JoinPointQuery {
                            signature,
                            kind,
                            provenance,
                            owner,
                        })
                    })
                    .cloned(),
            );
            if matched.is_empty() {
                return None;
            }
            // Lower precedence runs outermost; plug order and declaration
            // order break ties deterministically.
            matched.sort_by_key(|e| (e.precedence, e.aspect, e.index));
            Some(matched.drain(..).collect())
        })
    }
}

struct AspectTlsEntry {
    alive: Arc<AtomicBool>,
    snap: Arc<AspectsSnapshot>,
    /// Thread-private chain cache, valid for `snap.generation` only.
    chains: ChainMap,
}

/// Forget the entries of cells that no longer exist, so what their snapshots
/// hold (advice closures and whatever those captured) is released. `Relaxed`:
/// the flag publishes no data, it only says the entry is garbage.
fn sweep(entries: &mut Vec<AspectTlsEntry>) {
    entries.retain(|e| e.alive.load(Ordering::Relaxed));
}

/// Register `entry` for a cell this thread has not cached yet (oldest out at
/// capacity); returns its position.
fn register(entries: &mut Vec<AspectTlsEntry>, entry: AspectTlsEntry) -> usize {
    sweep(entries);
    if entries.len() >= TLS_CAPACITY {
        entries.remove(0);
    }
    entries.push(entry);
    entries.len() - 1
}

thread_local! {
    // Not in the weaving context: this caches what weavers published, keyed by
    // cell, and says nothing about the join point in flight — a task that
    // runs while the context is set aside is served by the same cache.
    static ASPECT_TLS: RefCell<Vec<AspectTlsEntry>> = const { RefCell::new(Vec::new()) };
    /// Where [`AspectsSnapshot::matched`] gathers its matches.
    static SCRATCH: RefCell<Vec<Arc<AdviceEntry>>> = const { RefCell::new(Vec::new()) };
}

/// Publication point for [`AspectsSnapshot`]s: one per weaver.
pub(crate) struct AspectCell {
    /// Shared with this cell's per-thread entries, which also tell cells
    /// apart by its address: an entry keeps the flag allocated, so the
    /// address cannot be reused while a stale entry could still match it.
    alive: Arc<AtomicBool>,
    current: RwLock<Arc<AspectsSnapshot>>,
    generation: AtomicU64,
}

impl AspectCell {
    pub(crate) fn new() -> Self {
        let first = AspectsSnapshot { generation: 1, advice: Vec::new() };
        AspectCell {
            alive: Arc::new(AtomicBool::new(true)),
            current: RwLock::new(Arc::new(first)),
            generation: AtomicU64::new(1),
        }
    }

    /// Publish a new snapshot. The caller must hold the registry's aspect
    /// write lock, which serialises publications and keeps the generation
    /// counter in step with the aspect set's actual history.
    pub(crate) fn publish(&self, advice: Vec<Arc<AdviceEntry>>) {
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        *self.current.write() = Arc::new(AspectsSnapshot { generation, advice });
        // Publish the snapshot before the generation: a reader that observes
        // the new generation is then guaranteed to fetch a snapshot at least
        // that new.
        self.generation.store(generation, Ordering::Release);
    }

    /// The generation of the published aspect set: what `matched` revalidates
    /// a thread's cache against, and what a bound weaver view stamps its
    /// pre-matched chains with.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The currently published snapshot (tests).
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Arc<AspectsSnapshot> {
        self.current.read().clone()
    }

    /// The advice chain for a join point under the *current* aspect set;
    /// `None` when no advice applies.
    ///
    /// Hot path: one atomic load, one TLS scan, one thread-private hash
    /// lookup and, for an advised join point, one `Arc` clone — no locks. A
    /// cold key is matched here and now (pointcuts are pure data, so nothing
    /// can re-enter the TLS borrow).
    pub(crate) fn matched(
        &self,
        signature: Signature,
        kind: JoinPointKind,
        provenance: Provenance,
    ) -> Option<Chain> {
        let generation = self.generation();
        ASPECT_TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let at = match tls.iter().position(|e| Arc::ptr_eq(&e.alive, &self.alive)) {
                Some(at) => at,
                None => {
                    let entry = AspectTlsEntry {
                        alive: self.alive.clone(),
                        snap: self.current.read().clone(),
                        chains: ChainMap::default(),
                    };
                    register(&mut tls, entry)
                }
            };
            let entry = &mut tls[at];
            if entry.snap.generation != generation {
                entry.snap = self.current.read().clone();
                entry.chains.clear();
            }
            let key = cache_key(signature, kind, provenance);
            if let Some(chain) = entry.chains.get(&key) {
                return chain.clone();
            }
            let chain = entry.snap.matched(signature, kind, provenance);
            entry.chains.insert(key, chain.clone());
            sweep(&mut tls);
            chain
        })
    }
}

impl Drop for AspectCell {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Relaxed);
    }
}

// ---- the recorder -------------------------------------------------------------

/// Where a weaver keeps its optional trace recorder. Installing one does
/// *not* touch the advice cache.
pub(crate) struct RecorderCell {
    installed: AtomicBool,
    current: RwLock<Option<Recorder>>,
}

impl RecorderCell {
    pub(crate) fn new() -> Self {
        RecorderCell { installed: AtomicBool::new(false), current: RwLock::new(None) }
    }

    /// Install (or remove) the recorder.
    pub(crate) fn set(&self, value: Option<Recorder>) {
        self.installed.store(value.is_some(), Ordering::Relaxed);
        *self.current.write() = value;
    }

    /// The installed recorder. With none — the steady state — this is one
    /// relaxed load: no lock, no `Arc` traffic. A call racing with
    /// installation on another thread may miss the first few join points;
    /// recording is inherently racy with in-flight calls. An installed one
    /// is fetched under the read lock, which is noise next to the recorder's
    /// own task list, locked twice per base event.
    pub(crate) fn get(&self) -> Option<Recorder> {
        if self.installed.load(Ordering::Relaxed) {
            self.current.read().clone()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::AspectId;
    use crate::pointcut::Pointcut;

    fn entry(aspect: u64, pattern: &str) -> Arc<AdviceEntry> {
        Arc::new(AdviceEntry {
            pointcut: Pointcut::call(pattern),
            advice: Arc::new(|inv: &mut crate::invocation::Invocation| inv.proceed()),
            aspect: AspectId::from_raw(aspect),
            precedence: 0,
            index: 0,
        })
    }

    const KEY: (JoinPointKind, Provenance) = (JoinPointKind::Call, Provenance::Core);

    fn len(chain: Option<Chain>) -> usize {
        chain.map_or(0, |c| c.len())
    }

    #[test]
    fn publish_bumps_generation_and_resets_cache() {
        let cell = AspectCell::new();
        let sig = Signature::new("Acc", "add");
        assert!(cell.matched(sig, KEY.0, KEY.1).is_none());

        cell.publish(vec![entry(1, "Acc.add")]);
        assert_eq!(cell.snapshot().generation, 2);
        assert_eq!(len(cell.matched(sig, KEY.0, KEY.1)), 1);

        cell.publish(Vec::new());
        assert!(cell.matched(sig, KEY.0, KEY.1).is_none());
    }

    #[test]
    fn stale_snapshot_insert_cannot_poison_fresh_lookups() {
        // The TOCTOU a shared chain cache would have: a dispatch matches its
        // chain against the old aspect set, the aspect is unplugged, and only
        // then does the dispatch memoise the stale chain, to be served
        // forever. Here a chain is only ever memoised next to the snapshot it
        // was matched against, in the thread's own entry.
        let cell = AspectCell::new();
        cell.publish(vec![entry(1, "Acc.add")]);
        let sig = Signature::new("Acc", "add");
        // Warm this thread's cache at the pre-unplug generation.
        assert_eq!(len(cell.matched(sig, KEY.0, KEY.1)), 1);

        // An in-flight dispatch pins the pre-unplug snapshot...
        let old = cell.snapshot();

        // ...the aspect is unplugged and the new (empty) set published...
        cell.publish(Vec::new());

        // ...and the in-flight dispatch completes its match late, against the
        // snapshot it pinned. It legitimately sees the old set:
        assert_eq!(len(old.matched(sig, KEY.0, KEY.1)), 1);

        // but fresh dispatches can never observe it, on this thread or another.
        assert!(cell.matched(sig, KEY.0, KEY.1).is_none());
        assert!(cell.snapshot().matched(sig, KEY.0, KEY.1).is_none());
        std::thread::scope(|s| {
            s.spawn(|| assert!(cell.matched(sig, KEY.0, KEY.1).is_none()));
        });
    }

    #[test]
    fn tls_does_not_leak_across_cells() {
        // Two weavers on the same thread with different aspect sets must not
        // see each other's cached chains.
        let a = AspectCell::new();
        let b = AspectCell::new();
        a.publish(vec![entry(1, "Acc.*")]);
        b.publish(Vec::new());
        let sig = Signature::new("Acc", "add");
        assert_eq!(len(a.matched(sig, KEY.0, KEY.1)), 1);
        assert!(b.matched(sig, KEY.0, KEY.1).is_none());
        assert_eq!(len(a.matched(sig, KEY.0, KEY.1)), 1);
    }

    #[test]
    fn one_name_spelled_from_two_statics_yields_equal_chains() {
        let cell = AspectCell::new();
        cell.publish(vec![entry(1, "Acc.add"), entry(2, "Acc.*")]);
        let leaked = |s: &str| -> &'static str { Box::leak(s.to_owned().into_boxed_str()) };
        let (a, b) = (Signature::new("Acc", "add"), Signature::new(leaked("Acc"), leaked("add")));
        assert_eq!(a, b);
        assert_ne!(cache_key(a, KEY.0, KEY.1), cache_key(b, KEY.0, KEY.1));
        let (ca, cb) =
            (cell.matched(a, KEY.0, KEY.1).unwrap(), cell.matched(b, KEY.0, KEY.1).unwrap());
        assert_eq!(ca.len(), 2);
        assert!(ca.iter().zip(cb.iter()).all(|(x, y)| Arc::ptr_eq(x, y)));
        // Each spelling hits its own entry from now on.
        assert!(Arc::ptr_eq(&ca, &cell.matched(a, KEY.0, KEY.1).unwrap()));
        assert!(Arc::ptr_eq(&cb, &cell.matched(b, KEY.0, KEY.1).unwrap()));
        // A prefix of a static shares its address but not its length.
        let prefix = Signature::new("Acc", &"address"[..3]);
        assert!(cell.matched(Signature::new("Acc", "address"), KEY.0, KEY.1).is_some());
        assert_eq!(len(cell.matched(prefix, KEY.0, KEY.1)), 2);
    }

    #[test]
    fn dead_cells_are_swept_on_the_next_registration_or_miss() {
        let probe = entry(1, "Acc.add");
        let sig = Signature::new("Acc", "add");
        let dead = AspectCell::new();
        dead.publish(vec![probe.clone()]);
        assert_eq!(len(dead.matched(sig, KEY.0, KEY.1)), 1);
        let live = AspectCell::new();
        assert!(live.matched(sig, KEY.0, KEY.1).is_none());
        drop(dead);
        // A hit does not sweep (it stays free of bookkeeping)...
        assert!(live.matched(sig, KEY.0, KEY.1).is_none());
        assert_eq!(Arc::strong_count(&probe), 3, "this thread's entry: snapshot and cached chain");
        // ...the next miss does.
        assert!(live.matched(Signature::new("Acc", "total"), KEY.0, KEY.1).is_none());
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn recorder_cell_roundtrip() {
        let cell = RecorderCell::new();
        assert!(cell.get().is_none());
        let rec = Recorder::measuring();
        cell.set(Some(rec.clone()));
        assert!(cell.get().is_some());
        cell.set(None);
        assert!(cell.get().is_none());
    }
}
