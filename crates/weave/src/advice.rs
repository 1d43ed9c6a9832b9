//! Advice: behaviour executed at matched join points.
//!
//! Everything is normalised to *around* advice — the only kind the paper's
//! parallelisation aspects actually need (they replace, duplicate, forward or
//! asynchronise events). `before`/`after` sugar is provided by
//! [`AspectBuilder`](crate::aspect::AspectBuilder).

use std::sync::Arc;

use crate::aspect::AspectId;
use crate::error::WeaveResult;
use crate::invocation::Invocation;
use crate::pointcut::Pointcut;
use crate::value::AnyValue;

/// Around advice: runs *instead of* the join point and decides if/when the
/// original event executes by calling [`Invocation::proceed`].
pub trait Advice: Send + Sync + 'static {
    /// Execute the advice body.
    fn around(&self, inv: &mut Invocation<'_>) -> WeaveResult<AnyValue>;
}

impl<F> Advice for F
where
    F: Fn(&mut Invocation<'_>) -> WeaveResult<AnyValue> + Send + Sync + 'static,
{
    fn around(&self, inv: &mut Invocation<'_>) -> WeaveResult<AnyValue> {
        self(inv)
    }
}

/// One registered piece of advice, bound to its pointcut and owning aspect.
pub struct AdviceEntry {
    /// Predicate selecting the join points this advice applies to.
    pub pointcut: Pointcut,
    /// The advice body.
    pub advice: Arc<dyn Advice>,
    /// Owning aspect.
    pub aspect: AspectId,
    /// Aspect precedence (lower runs outermost).
    pub precedence: i32,
    /// Declaration order within the aspect (stable tie-break).
    pub index: usize,
}

impl std::fmt::Debug for AdviceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdviceEntry")
            .field("pointcut", &self.pointcut)
            .field("aspect", &self.aspect)
            .field("precedence", &self.precedence)
            .field("index", &self.index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_advice() {
        // Compile-time check that plain closures satisfy the Advice trait.
        fn assert_advice<A: Advice>(_: &A) {}
        let adv = |inv: &mut Invocation| inv.proceed();
        assert_advice(&adv);
    }

    #[test]
    fn advice_entry_debug_is_informative() {
        let entry = AdviceEntry {
            pointcut: Pointcut::call("A.m"),
            advice: Arc::new(|inv: &mut Invocation| inv.proceed()),
            aspect: AspectId::from_raw(3),
            precedence: -1,
            index: 2,
        };
        let s = format!("{entry:?}");
        assert!(s.contains("precedence: -1"));
        assert!(s.contains("index: 2"));
    }
}
