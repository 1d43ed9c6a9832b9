//! Aspects: named, precedence-ordered bundles of advice that can be plugged
//! into and unplugged from a [`Weaver`](crate::registry::Weaver) at run time.
//!
//! This is the unit of modularity the paper's methodology revolves around:
//! one aspect per parallelisation concern (partition, concurrency,
//! distribution, optimisation), each independently (un)pluggable.

use std::sync::Arc;

use crate::advice::Advice;
use crate::error::WeaveResult;
use crate::invocation::Invocation;
use crate::pointcut::Pointcut;
use crate::value::AnyValue;

/// Identifier assigned to an aspect when it is plugged into a weaver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AspectId(u64);

impl AspectId {
    /// Build from a raw id (tests, diagnostics).
    pub fn from_raw(raw: u64) -> Self {
        AspectId(raw)
    }

    /// Raw id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for AspectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "aspect#{}", self.0)
    }
}

/// Default precedences for the paper's concern categories (lower = outermost).
///
/// A full stack weaves each call as:
///
/// ```text
/// async spawn → partition (split / forward) → synchronisation →
///     optimisation → distribution → base
/// ```
///
/// The asynchronous-invocation advice must be *outside* partition forwarding:
/// in the paper's Figure 11 every filter call — including the ones the
/// Partition aspect forwards down the pipeline — is its own asynchronous
/// invocation, and the forward of a pack happens only after the previous
/// filter finished it; a forwarded call continues on the thread that finished
/// the previous stage. Synchronisation and distribution run inside the
/// asynchronous invocation (Figure 12: the monitor is held by the worker;
/// Figure 14: each worker performs its own remote call).
pub mod precedence {
    /// Asynchronous method invocation (thread spawn / future).
    pub const ASYNC_INVOCATION: i32 = 50;
    /// Partition aspects (object duplication, call split, forwarding).
    pub const PARTITION: i32 = 100;
    /// Synchronisation advice (per-object monitors).
    pub const SYNCHRONISATION: i32 = 200;
    /// Optimisation aspects (caching, message packing); they sit just outside
    /// distribution so they can elide or batch remote calls.
    pub const OPTIMISATION: i32 = 250;
    /// Supervision aspects (fault detection, worker recovery, task
    /// re-dispatch): outside distribution so a `NodeDown` surfacing from a
    /// remote call is caught and repaired before the partition layer sees it.
    pub const SUPERVISION: i32 = 275;
    /// Distribution aspects (remote redirection), innermost.
    pub const DISTRIBUTION: i32 = 300;
}

/// A declared aspect: advice plus metadata. Build with [`Aspect::named`],
/// then pass to [`Weaver::plug`](crate::registry::Weaver::plug).
pub struct Aspect {
    pub(crate) name: String,
    pub(crate) precedence: i32,
    pub(crate) advice: Vec<(Pointcut, Arc<dyn Advice>)>,
}

impl Aspect {
    /// Start building an aspect.
    pub fn named(name: impl Into<String>) -> AspectBuilder {
        AspectBuilder { name: name.into(), precedence: 0, advice: Vec::new() }
    }

    /// The aspect's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The aspect's precedence (lower = outermost).
    pub fn precedence(&self) -> i32 {
        self.precedence
    }

    /// Number of advice declarations.
    pub fn advice_count(&self) -> usize {
        self.advice.len()
    }
}

impl std::fmt::Debug for Aspect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aspect")
            .field("name", &self.name)
            .field("precedence", &self.precedence)
            .field("advice", &self.advice.len())
            .finish()
    }
}

/// Builder for [`Aspect`].
pub struct AspectBuilder {
    name: String,
    precedence: i32,
    advice: Vec<(Pointcut, Arc<dyn Advice>)>,
}

impl AspectBuilder {
    /// Set the precedence (lower runs outermost). See [`precedence`] for the
    /// conventional values of the four concern categories.
    pub fn precedence(mut self, precedence: i32) -> Self {
        self.precedence = precedence;
        self
    }

    /// Add around advice.
    pub fn around<A: Advice>(mut self, pointcut: Pointcut, advice: A) -> Self {
        self.advice.push((pointcut, Arc::new(advice)));
        self
    }

    /// Add guarded around advice — AspectJ's `if()` pointcut residue: the
    /// pointcut selects statically (cacheable), and `guard` decides per join
    /// point, with access to the live arguments, whether the advice applies
    /// (on `false` the event proceeds untouched).
    pub fn around_if<G, A>(self, pointcut: Pointcut, guard: G, advice: A) -> Self
    where
        G: Fn(&Invocation<'_>) -> WeaveResult<bool> + Send + Sync + 'static,
        A: Advice,
    {
        self.around(
            pointcut,
            move |inv: &mut Invocation| {
                if guard(inv)? {
                    advice.around(inv)
                } else {
                    inv.proceed()
                }
            },
        )
    }

    /// Add before advice: runs `f`, then proceeds with the original event.
    pub fn before<F>(self, pointcut: Pointcut, f: F) -> Self
    where
        F: Fn(&mut Invocation<'_>) -> WeaveResult<()> + Send + Sync + 'static,
    {
        self.around(pointcut, move |inv: &mut Invocation| {
            f(inv)?;
            inv.proceed()
        })
    }

    /// Add after advice: proceeds with the original event, then runs `f` with
    /// the invocation and the (type-erased) return value.
    pub fn after<F>(self, pointcut: Pointcut, f: F) -> Self
    where
        F: Fn(&mut Invocation<'_>, &AnyValue) -> WeaveResult<()> + Send + Sync + 'static,
    {
        self.around(pointcut, move |inv: &mut Invocation| {
            let ret = inv.proceed()?;
            f(inv, &ret)?;
            Ok(ret)
        })
    }

    /// Finish building.
    pub fn build(self) -> Aspect {
        Aspect { name: self.name, precedence: self.precedence, advice: self.advice }
    }
}

/// Token returned by [`Weaver::plug`](crate::registry::Weaver::plug);
/// identifies the plugged aspect for unplug/enable/disable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PluggedAspect {
    pub(crate) id: AspectId,
    pub(crate) name: String,
}

impl PluggedAspect {
    /// The runtime id the weaver assigned.
    pub fn id(&self) -> AspectId {
        self.id
    }

    /// The aspect's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_advice() {
        let a = Aspect::named("Partition")
            .precedence(precedence::PARTITION)
            .around(Pointcut::call("A.m"), |inv: &mut Invocation| inv.proceed())
            .before(Pointcut::call("A.n"), |_inv| Ok(()))
            .after(Pointcut::call("A.o"), |_inv, _ret| Ok(()))
            .build();
        assert_eq!(a.name(), "Partition");
        assert_eq!(a.precedence(), precedence::PARTITION);
        assert_eq!(a.advice_count(), 3);
    }

    #[test]
    fn category_precedences_are_ordered() {
        const { assert!(precedence::ASYNC_INVOCATION < precedence::PARTITION) };
        const { assert!(precedence::PARTITION < precedence::SYNCHRONISATION) };
        const { assert!(precedence::SYNCHRONISATION < precedence::OPTIMISATION) };
        const { assert!(precedence::OPTIMISATION < precedence::DISTRIBUTION) };
    }

    #[test]
    fn aspect_id_display() {
        assert_eq!(AspectId::from_raw(4).to_string(), "aspect#4");
        assert_eq!(AspectId::from_raw(4).raw(), 4);
    }
}
