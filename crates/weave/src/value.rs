//! Type-erased values and argument packs flowing through join points.
//!
//! Join points carry heterogeneous arguments. The runtime moves them as
//! [`Value`]s: small `Copy` payloads (unit, bool, the primitive integers and
//! floats, [`ObjId`], [`ClassId`]/[`MethodId`], a few
//! small tuples, and the copy-on-write [`Pack`]) are stored *inline* — a tag
//! plus at most three words, no heap allocation — while everything else
//! falls back to the classic `Box<dyn Any + Send>` representation. Typed
//! access is recovered at the edges exactly as before: the macro-generated
//! dispatch tables *take* arguments by concrete type, and advice code
//! *borrows* them by concrete type before deciding how to proceed.
//!
//! [`Args`] keeps its first four slots in a fixed inline array before
//! spilling to a `Vec`, so a steady-state call with ≤4 scalar arguments and
//! a scalar return touches the allocator zero times end to end.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{WeaveError, WeaveResult};
use crate::object::ObjId;

/// A type-erased, thread-mobile value (argument or return value).
///
/// Historically `Box<dyn Any + Send>`; now an alias for [`Value`], which
/// keeps small payloads inline. The API surface (`downcast`,
/// `downcast_ref`, `downcast_mut`) mirrors the boxed one so existing advice
/// and dispatch code compiles unchanged.
pub type AnyValue = Value;

/// Build an [`Args`] pack from a list of expressions.
///
/// ```
/// use weavepar_weave::args;
/// let a = args![1u32, "hello".to_string(), vec![1u64, 2]];
/// assert_eq!(a.len(), 3);
/// ```
#[macro_export]
macro_rules! args {
    () => { $crate::value::Args::empty() };
    ($($v:expr),+ $(,)?) => {{
        let mut __args = $crate::value::Args::empty();
        $( __args.push($v); )+
        __args
    }};
}

/// Wrap a value as a type-erased return value (inline when small).
///
/// ```
/// use weavepar_weave::ret;
/// let r = ret!(42u32);
/// assert_eq!(*r.downcast::<u32>().unwrap(), 42);
/// ```
#[macro_export]
macro_rules! ret {
    () => {
        $crate::value::Value::unit()
    };
    ($v:expr) => {
        $crate::value::Value::new($v)
    };
}

/// Dense handle for a registered class (interned by the distribution
/// middleware's marshal registry). Indexes an append-only table; `Copy` and
/// 4 bytes on the wire. Defined here so it can ride inline in a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// The raw table index (wire representation).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw index (wire decode; validated at use).
    pub fn from_raw(raw: u32) -> Self {
        ClassId(raw)
    }
}

/// Dense handle for a registered `(class, method)` pair. The hot-path key:
/// an array index instead of a string-hashed map lookup under a lock.
/// Defined here so it can ride inline in a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// The raw table index (wire representation — `CallPack` entries carry
    /// this).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw index (wire decode; validated at use).
    pub fn from_raw(raw: u32) -> Self {
        MethodId(raw)
    }
}

/// A copy-on-write pack of `u64` work items: an `Arc<[u64]>` plus a
/// subrange. Splitting a pack into chunks shares the backing allocation, so
/// a pack moves PARTITION → CONCURRENCY → worker by reference instead of
/// being re-cloned at each advice layer; [`Pack::make_mut`] mutates in place
/// when the worker holds the only reference and copies just its subrange
/// otherwise.
#[derive(Clone)]
pub struct Pack {
    data: Arc<[u64]>,
    start: u32,
    len: u32,
}

impl Pack {
    /// Move a vector's items into a pack: one allocation and one copy of
    /// every item. To build a pack from an iterator, collect into the pack
    /// instead (no `Vec` first).
    pub fn from_vec(items: Vec<u64>) -> Self {
        Pack::from_arc(Arc::from(items))
    }

    /// Wrap a whole shared allocation.
    pub fn from_arc(data: Arc<[u64]>) -> Self {
        let len = u32::try_from(data.len()).expect("pack longer than u32::MAX items");
        Pack { data, start: 0, len }
    }

    /// Copy a slice into a fresh pack.
    pub fn from_slice(items: &[u64]) -> Self {
        Pack::from_arc(Arc::from(items))
    }

    /// Allocate a pack of `len` items once and let `fill` write them in
    /// place: a result is built in the allocation it is returned in, not in
    /// a `Vec` that is then copied into one. `fill` must write every item: a
    /// pack of 2^14 items or more views the front of a power-of-two buffer,
    /// a spare of that size when a dropped pack left one (not cleared: it
    /// holds that pack's items), a fresh one of zeros if not.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u64])) -> Self {
        // Checked before the allocation, not after it as in `from_arc`.
        let len = u32::try_from(len).expect("pack longer than u32::MAX items");
        let n = len as usize;
        let class = if n >= SPARE_FLOOR { n.next_power_of_two() } else { n };
        // An iterator of trusted length is collected straight into the `Arc`.
        let mut data = take_spare(class).unwrap_or_else(|| std::iter::repeat_n(0, class).collect());
        fill(&mut Arc::get_mut(&mut data).expect("a fresh allocation has one owner")[..n]);
        Pack { data, start: 0, len }
    }

    /// The items in this pack's range.
    pub fn as_slice(&self) -> &[u64] {
        let start = self.start as usize;
        &self.data[start..start + self.len as usize]
    }

    /// Number of items in this pack's range.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Split into packs of at most `chunk` items, **sharing** the backing
    /// allocation (no item is copied).
    pub fn split_chunks(&self, chunk: usize) -> Vec<Pack> {
        let chunk = chunk.max(1);
        let mut out = Vec::with_capacity(self.len().div_ceil(chunk));
        let mut start = self.start as usize;
        let end = self.start as usize + self.len as usize;
        while start < end {
            let n = chunk.min(end - start);
            out.push(Pack { data: self.data.clone(), start: start as u32, len: n as u32 });
            start += n;
        }
        out
    }

    /// Split into (at most) `n` near-equal packs, sharing the allocation.
    pub fn split_packs(&self, n: usize) -> Vec<Pack> {
        self.split_chunks(self.len().div_ceil(n.max(1)))
    }

    /// Split into `[..mid]` and `[mid..]` views sharing the allocation
    /// (the divide-and-conquer divide step; `mid` is clamped to the length).
    pub fn split_at(&self, mid: usize) -> (Pack, Pack) {
        let mid = mid.min(self.len()) as u32;
        (
            Pack { data: self.data.clone(), start: self.start, len: mid },
            Pack { data: self.data.clone(), start: self.start + mid, len: self.len - mid },
        )
    }

    /// Mutable access to this pack's items. In place when this pack holds
    /// the only reference to the allocation; otherwise the subrange (only)
    /// is copied out first, detaching from the shared buffer.
    pub fn make_mut(&mut self) -> &mut [u64] {
        if Arc::get_mut(&mut self.data).is_none() {
            let copied: Arc<[u64]> = Arc::from(self.as_slice());
            self.data = copied;
            self.start = 0;
        }
        let start = self.start as usize;
        let len = self.len as usize;
        &mut Arc::get_mut(&mut self.data).expect("unique after copy")[start..start + len]
    }

    /// Copy the range out as a vector.
    pub fn to_vec(&self) -> Vec<u64> {
        self.as_slice().to_vec()
    }

    /// Concatenate packs into one freshly allocated pack, copying each item
    /// once (used by combine closures gathering worker results).
    pub fn concat(packs: &[Pack]) -> Pack {
        Pack::build(packs.iter().map(Pack::len).sum(), |items| {
            let mut at = 0;
            for p in packs {
                items[at..at + p.len()].copy_from_slice(p.as_slice());
                at += p.len();
            }
        })
    }

    /// True when this pack shares its backing allocation with others.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }
}

impl PartialEq for Pack {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Pack {}

impl std::fmt::Debug for Pack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pack[{} items @ {}..]", self.len, self.start)
    }
}

impl From<Vec<u64>> for Pack {
    fn from(items: Vec<u64>) -> Self {
        Pack::from_vec(items)
    }
}

impl FromIterator<u64> for Pack {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        // One allocation and one write per item when the iterator's length
        // is trusted (a range, a slice, a `map` over one); a `Vec` first and
        // a copy of it otherwise.
        Pack::from_arc(iter.into_iter().collect())
    }
}

/// The smallest buffer [`Pack::build`] recycles: 2^14 items (128 KiB),
/// glibc's default mmap threshold. A larger buffer goes back to the kernel
/// when it is freed, and the next one of its size faults every page in
/// again (each merge level of a sort builds one).
const SPARE_FLOOR: usize = 1 << 14;

/// Most items of spare buffers held at once (32 MiB).
const SPARE_BOUND: usize = 4 << 20;

/// Spare buffers of [`Pack::build`], each a power-of-two number of items
/// at or above [`SPARE_FLOOR`], and the items they hold in all.
static SPARES: Mutex<(Vec<Arc<[u64]>>, usize)> = Mutex::new((Vec::new(), 0));

fn is_spare_class(len: usize) -> bool {
    len >= SPARE_FLOOR && len.is_power_of_two()
}

/// A spare buffer of exactly `class` items, if one is held.
fn take_spare(class: usize) -> Option<Arc<[u64]>> {
    if !is_spare_class(class) {
        return None;
    }
    let (spares, items) = &mut *SPARES.lock();
    let at = spares.iter().position(|spare| spare.len() == class)?;
    *items -= class;
    Some(spares.swap_remove(at))
}

impl Drop for Pack {
    /// The last view of a buffer of a recycled size gives it to the
    /// spares while they stay under `SPARE_BOUND`; any other buffer is
    /// freed (a refused one after the lock is released: it was taken
    /// first, so it is dropped last).
    fn drop(&mut self) {
        if !is_spare_class(self.data.len()) || Arc::get_mut(&mut self.data).is_none() {
            return;
        }
        // The empty `Arc<[u64]>` is a static: the swap allocates nothing.
        let buffer = std::mem::take(&mut self.data);
        let (spares, items) = &mut *SPARES.lock();
        if *items + buffer.len() <= SPARE_BOUND {
            *items += buffer.len();
            spares.push(buffer);
        }
    }
}

/// Move a value from one statically known type to another *when they are
/// the same type*, without boxing. `TypeId::of::<Option<S>>() ==
/// TypeId::of::<Option<T>>()` iff `S == T`, and after monomorphization the
/// comparison is a constant, so the misses compile away.
fn steal<T: Any, S: Any>(v: T) -> Result<S, T> {
    let mut slot = Some(v);
    match (&mut slot as &mut dyn Any).downcast_mut::<Option<S>>() {
        Some(s) => Ok(s.take().expect("slot filled above")),
        None => Err(slot.expect("slot untouched on miss")),
    }
}

macro_rules! value_repr {
    ($(($Variant:ident, $ty:ty, $label:literal)),+ $(,)?) => {
        enum Repr {
            $( $Variant($ty), )+
            Boxed(Box<dyn Any + Send>),
        }

        impl Value {
            /// Wrap a value, storing it inline when its type is one of the
            /// small `Copy` payloads (plus [`Pack`]) and boxing otherwise.
            pub fn new<T: Any + Send>(v: T) -> Value {
                $(
                    let v = match steal::<T, $ty>(v) {
                        Ok(x) => return Value(Repr::$Variant(x)),
                        Err(v) => v,
                    };
                )+
                Value(Repr::Boxed(Box::new(v)))
            }

            fn as_any(&self) -> &dyn Any {
                match &self.0 {
                    $( Repr::$Variant(x) => x, )+
                    Repr::Boxed(b) => &**b,
                }
            }

            fn as_any_mut(&mut self) -> &mut dyn Any {
                match &mut self.0 {
                    $( Repr::$Variant(x) => x, )+
                    Repr::Boxed(b) => &mut **b,
                }
            }

            /// Move the value out with its concrete type, returning `self`
            /// unchanged (inline values stay inline) on a type mismatch.
            pub fn into_typed<T: Any>(self) -> Result<T, Value> {
                match self.0 {
                    $(
                        Repr::$Variant(x) => {
                            steal::<$ty, T>(x).map_err(|x| Value(Repr::$Variant(x)))
                        }
                    )+
                    Repr::Boxed(b) => {
                        b.downcast::<T>().map(|b| *b).map_err(|b| Value(Repr::Boxed(b)))
                    }
                }
            }

            /// Short tag name for diagnostics.
            pub fn kind(&self) -> &'static str {
                match &self.0 {
                    $( Repr::$Variant(_) => $label, )+
                    Repr::Boxed(_) => "boxed",
                }
            }
        }
    };
}

value_repr! {
    (Unit, (), "unit"),
    (Bool, bool, "bool"),
    (Char, char, "char"),
    (U8, u8, "u8"),
    (U16, u16, "u16"),
    (U32, u32, "u32"),
    (U64, u64, "u64"),
    (Usize, usize, "usize"),
    (I8, i8, "i8"),
    (I16, i16, "i16"),
    (I32, i32, "i32"),
    (I64, i64, "i64"),
    (Isize, isize, "isize"),
    (F32, f32, "f32"),
    (F64, f64, "f64"),
    (Obj, ObjId, "objid"),
    (Class, ClassId, "classid"),
    (Method, MethodId, "methodid"),
    (PairF64, (f64, f64), "pair_f64"),
    (PairU64, (u64, u64), "pair_u64"),
    (PairU32, (u32, u32), "pair_u32"),
    (PackV, Pack, "pack"),
}

/// A type-erased, thread-mobile value: a tag plus at most three words
/// inline, spilling to `Box<dyn Any + Send>` for anything not in the small
/// set. See the module docs and DESIGN.md §7 for the tag layout and spill
/// rules.
pub struct Value(Repr);

impl Value {
    /// The unit return value (inline, no allocation).
    pub fn unit() -> Value {
        Value(Repr::Unit(()))
    }

    /// Wrap an already-boxed value without re-examining it: the boxed
    /// reference representation the tests hold the inline fast path to.
    #[cfg(test)]
    fn from_box(b: Box<dyn Any + Send>) -> Value {
        Value(Repr::Boxed(b))
    }

    /// True when the payload is stored inline (no heap involvement besides
    /// whatever the payload itself shares, e.g. a [`Pack`]'s `Arc`).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        !matches!(self.0, Repr::Boxed(_))
    }

    /// True when the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.as_any().is::<T>()
    }

    /// Borrow the payload with its concrete type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }

    /// Mutably borrow the payload with its concrete type.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.as_any_mut().downcast_mut::<T>()
    }

    /// Move the payload out boxed — the `Box<dyn Any>`-compatible shape, so
    /// existing `value.downcast::<T>()` call sites compile unchanged. The
    /// boxed representation hands back its existing box; inline payloads
    /// allocate one (prefer [`Value::into_typed`] on hot paths).
    pub fn downcast<T: Any>(self) -> Result<Box<T>, Value> {
        match self.0 {
            Repr::Boxed(b) => b.downcast::<T>().map_err(|b| Value(Repr::Boxed(b))),
            other => Value(other).into_typed::<T>().map(Box::new),
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Value({})", self.kind())
    }
}

const INLINE_SLOTS: usize = 4;

/// An ordered pack of type-erased arguments.
///
/// Slots are `Option`al so that dispatch code can *move* each argument out
/// exactly once while advice that ran earlier may have *borrowed* them. The
/// first four slots live in a fixed inline array; longer packs spill the
/// tail to a `Vec`, so the common ≤4-argument call never allocates.
pub struct Args {
    inline: [Option<Value>; INLINE_SLOTS],
    inline_len: u8,
    spill: Vec<Option<Value>>,
}

impl Args {
    /// An empty argument pack.
    pub fn empty() -> Self {
        Args { inline: [None, None, None, None], inline_len: 0, spill: Vec::new() }
    }

    /// Build a pack from already-wrapped values.
    pub fn from_values(values: Vec<AnyValue>) -> Self {
        let mut args = Args::empty();
        for v in values {
            args.push_value(v);
        }
        args
    }

    /// Build a single-slot pack without an intermediate `Vec` (the
    /// reforward fast path).
    pub fn from_value(value: AnyValue) -> Self {
        let mut args = Args::empty();
        args.push_value(value);
        args
    }

    /// Number of slots (including ones already moved out).
    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// True when the pack has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, index: usize) -> Option<&Option<Value>> {
        let il = self.inline_len as usize;
        if index < il {
            Some(&self.inline[index])
        } else {
            self.spill.get(index - il)
        }
    }

    fn slot_mut(&mut self, index: usize) -> Option<&mut Option<Value>> {
        let il = self.inline_len as usize;
        if index < il {
            Some(&mut self.inline[index])
        } else {
            self.spill.get_mut(index - il)
        }
    }

    /// Borrow the argument at `index` with its concrete type.
    pub fn get<T: 'static>(&self, index: usize) -> WeaveResult<&T> {
        let slot = self
            .slot(index)
            .and_then(|s| s.as_ref())
            .ok_or(WeaveError::MissingArg { index, len: self.len() })?;
        slot.downcast_ref::<T>().ok_or_else(|| WeaveError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            context: format!("argument {index}"),
        })
    }

    /// Mutably borrow the argument at `index` with its concrete type.
    pub fn get_mut<T: 'static>(&mut self, index: usize) -> WeaveResult<&mut T> {
        let len = self.len();
        let slot = self
            .slot_mut(index)
            .and_then(|s| s.as_mut())
            .ok_or(WeaveError::MissingArg { index, len })?;
        slot.downcast_mut::<T>().ok_or_else(|| WeaveError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            context: format!("argument {index}"),
        })
    }

    /// Move the argument at `index` out of the pack with its concrete type.
    ///
    /// Subsequent `take`/`get` calls on the same slot fail with
    /// [`WeaveError::MissingArg`].
    pub fn take<T: 'static>(&mut self, index: usize) -> WeaveResult<T> {
        let len = self.len();
        let slot = self.slot_mut(index).ok_or(WeaveError::MissingArg { index, len })?;
        let value = slot.take().ok_or(WeaveError::MissingArg { index, len })?;
        match value.into_typed::<T>() {
            Ok(v) => Ok(v),
            Err(original) => {
                // Put the value back so a retry with the right type still works.
                *slot = Some(original);
                Err(WeaveError::TypeMismatch {
                    expected: std::any::type_name::<T>(),
                    context: format!("argument {index}"),
                })
            }
        }
    }

    /// Replace the argument at `index` with a new value (e.g. advice rewriting
    /// a method-call parameter before proceeding).
    pub fn set<T: Any + Send>(&mut self, index: usize, value: T) -> WeaveResult<()> {
        let len = self.len();
        let slot = self.slot_mut(index).ok_or(WeaveError::MissingArg { index, len })?;
        *slot = Some(Value::new(value));
        Ok(())
    }

    /// Append a new argument slot.
    pub fn push<T: Any + Send>(&mut self, value: T) {
        self.push_value(Value::new(value));
    }

    /// Append an already-wrapped value.
    pub fn push_value(&mut self, value: AnyValue) {
        let il = self.inline_len as usize;
        if il < INLINE_SLOTS && self.spill.is_empty() {
            self.inline[il] = Some(value);
            self.inline_len += 1;
        } else {
            self.spill.push(Some(value));
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Args::empty()
    }
}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Args[{} slots", self.len())?;
        let taken = (0..self.len()).filter(|&i| matches!(self.slot(i), Some(None))).count();
        if taken > 0 {
            write!(f, ", {taken} taken")?;
        }
        write!(f, "]")
    }
}

/// Downcast a type-erased return value to a concrete type.
pub fn downcast_ret<T: 'static>(value: AnyValue) -> WeaveResult<T> {
    value.into_typed::<T>().map_err(|_| WeaveError::TypeMismatch {
        expected: std::any::type_name::<T>(),
        context: "return value".into(),
    })
}

/// Approximate serialized size of a value, used by the trace recorder to model
/// message sizes without a full marshalling pass.
///
/// The distribution middleware has its own exact codec; `ByteSize` only needs
/// to be proportional to it, which is what the network model consumes.
pub trait ByteSize {
    /// Approximate number of bytes this value would occupy on the wire.
    fn byte_size(&self) -> usize;
}

macro_rules! impl_bytesize_prim {
    ($($t:ty),*) => {
        $(impl ByteSize for $t {
            fn byte_size(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}

impl_bytesize_prim!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
);

impl ByteSize for () {
    fn byte_size(&self) -> usize {
        0
    }
}

impl ByteSize for String {
    fn byte_size(&self) -> usize {
        4 + self.len()
    }
}

impl ByteSize for &str {
    fn byte_size(&self) -> usize {
        4 + self.len()
    }
}

impl<T: ByteSize> ByteSize for Vec<T> {
    fn byte_size(&self) -> usize {
        4 + self.iter().map(ByteSize::byte_size).sum::<usize>()
    }
}

impl<T: ByteSize> ByteSize for Option<T> {
    fn byte_size(&self) -> usize {
        1 + self.as_ref().map_or(0, ByteSize::byte_size)
    }
}

impl<T: ByteSize> ByteSize for Box<T> {
    fn byte_size(&self) -> usize {
        self.as_ref().byte_size()
    }
}

impl<T: ByteSize> ByteSize for Arc<[T]> {
    fn byte_size(&self) -> usize {
        4 + self.iter().map(ByteSize::byte_size).sum::<usize>()
    }
}

impl ByteSize for Pack {
    fn byte_size(&self) -> usize {
        4 + 8 * self.len()
    }
}

impl<A: ByteSize, B: ByteSize> ByteSize for (A, B) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: ByteSize, B: ByteSize, C: ByteSize> ByteSize for (A, B, C) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

impl<A: ByteSize, B: ByteSize, C: ByteSize, D: ByteSize> ByteSize for (A, B, C, D) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size() + self.3.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_macro_and_len() {
        let a = args![1u32, 2u64];
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(args![].is_empty());
    }

    #[test]
    fn get_typed_borrow() {
        let a = args![7u32, "hi".to_string()];
        assert_eq!(*a.get::<u32>(0).unwrap(), 7);
        assert_eq!(a.get::<String>(1).unwrap(), "hi");
    }

    #[test]
    fn get_wrong_type_reports_mismatch() {
        let a = args![7u32];
        let err = a.get::<u64>(0).unwrap_err();
        assert!(matches!(err, WeaveError::TypeMismatch { .. }));
    }

    #[test]
    fn get_out_of_range_reports_missing() {
        let a = args![7u32];
        assert!(matches!(a.get::<u32>(5), Err(WeaveError::MissingArg { index: 5, len: 1 })));
    }

    #[test]
    fn take_moves_once() {
        let mut a = args![vec![1u64, 2, 3]];
        let v: Vec<u64> = a.take(0).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(matches!(a.take::<Vec<u64>>(0), Err(WeaveError::MissingArg { .. })));
    }

    #[test]
    fn take_wrong_type_keeps_value() {
        let mut a = args![42u32];
        assert!(a.take::<u64>(0).is_err());
        // A wrong-typed take must not destroy the argument.
        assert_eq!(a.take::<u32>(0).unwrap(), 42);
    }

    #[test]
    fn set_replaces_and_push_appends() {
        let mut a = args![1u32];
        a.set(0, 9u32).unwrap();
        assert_eq!(*a.get::<u32>(0).unwrap(), 9);
        a.push("x".to_string());
        assert_eq!(a.len(), 2);
        assert_eq!(a.get::<String>(1).unwrap(), "x");
    }

    #[test]
    fn get_mut_allows_in_place_edit() {
        let mut a = args![vec![1u64]];
        a.get_mut::<Vec<u64>>(0).unwrap().push(2);
        assert_eq!(a.get::<Vec<u64>>(0).unwrap().len(), 2);
    }

    #[test]
    fn downcast_ret_roundtrip() {
        let r = ret!(3.5f64);
        assert_eq!(downcast_ret::<f64>(r).unwrap(), 3.5);
        let r = ret!();
        downcast_ret::<()>(r).unwrap();
        let r = ret!(1u8);
        assert!(downcast_ret::<u16>(r).is_err());
    }

    #[test]
    fn scalars_are_inline_and_large_types_box() {
        assert!(Value::new(7u64).is_inline());
        assert!(Value::new(()).is_inline());
        assert!(Value::new(true).is_inline());
        assert!(Value::new(3.5f64).is_inline());
        assert!(Value::new((1.0f64, 2.0f64)).is_inline());
        assert!(Value::new(ObjId::from_raw(4)).is_inline());
        assert!(Value::new(ClassId::from_raw(1)).is_inline());
        assert!(Value::new(MethodId::from_raw(2)).is_inline());
        assert!(Value::new(Pack::from_vec(vec![1, 2])).is_inline());
        assert!(!Value::new("big".to_string()).is_inline());
        assert!(!Value::new(vec![1u64, 2]).is_inline());
        // The whole Value stays small: a tag plus at most three words.
        assert!(std::mem::size_of::<Value>() <= 4 * std::mem::size_of::<usize>());
    }

    #[test]
    fn value_downcast_box_compat() {
        // Inline value through the Box-shaped API.
        let v = Value::new(9u32);
        assert_eq!(*v.downcast::<u32>().unwrap(), 9);
        // Wrong type hands the value back intact (still inline).
        let v = Value::new(9u32);
        let v = v.downcast::<u64>().unwrap_err();
        assert!(v.is_inline());
        assert_eq!(v.into_typed::<u32>().unwrap(), 9);
        // Boxed value reuses its box.
        let v = Value::from_box(Box::new("s".to_string()));
        assert_eq!(*v.downcast::<String>().unwrap(), "s");
    }

    #[test]
    fn value_downcast_ref_and_mut() {
        let mut v = Value::new(5i64);
        assert!(v.is::<i64>());
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), 5);
        *v.downcast_mut::<i64>().unwrap() = 6;
        assert_eq!(v.into_typed::<i64>().unwrap(), 6);
        assert!(Value::new(5i64).downcast_ref::<u64>().is_none());
    }

    #[test]
    fn pack_split_shares_allocation() {
        let p = Pack::from_vec((0..10).collect());
        let parts = p.split_chunks(4);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].as_slice(), &[0, 1, 2, 3]);
        assert_eq!(parts[2].as_slice(), &[8, 9]);
        assert!(parts.iter().all(Pack::is_shared));
        assert_eq!(Pack::concat(&parts), p);
    }

    #[test]
    fn pack_make_mut_in_place_when_unique() {
        let mut p = Pack::from_vec(vec![1, 2, 3]);
        assert!(!p.is_shared());
        p.make_mut()[0] = 9;
        assert_eq!(p.as_slice(), &[9, 2, 3]);
    }

    #[test]
    fn pack_make_mut_copies_subrange_when_shared() {
        let p = Pack::from_vec((0..8).collect());
        let mut parts = p.split_chunks(4);
        let second = &mut parts[1];
        second.make_mut().iter_mut().for_each(|v| *v += 100);
        assert_eq!(second.as_slice(), &[104, 105, 106, 107]);
        // The original and the sibling are untouched.
        assert_eq!(p.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(parts[0].as_slice(), &[0, 1, 2, 3]);
        // The mutated pack detached: only its own subrange was copied.
        assert!(!parts[1].is_shared());
    }

    #[test]
    fn pack_split_packs_and_empty() {
        let p = Pack::from_vec((0..9).collect());
        let parts = p.split_packs(4);
        assert!(parts.len() <= 4);
        assert_eq!(parts.iter().map(Pack::len).sum::<usize>(), 9);
        let empty = Pack::from_vec(vec![]);
        assert!(empty.is_empty());
        assert!(empty.split_chunks(3).is_empty());
        assert_eq!(format!("{:?}", Pack::from_vec(vec![1])), "Pack[1 items @ 0..]");
    }

    #[test]
    fn pack_make_mut_on_a_unique_subrange_stays_inside_it() {
        let whole = Pack::from_vec((0..8).collect());
        let (left, mut right) = whole.split_at(5);
        drop((whole, left));
        assert!(!right.is_shared(), "the only view left owns the allocation");
        let before = right.as_slice().as_ptr();
        right.make_mut().iter_mut().for_each(|v| *v += 100);
        assert_eq!(right.as_slice().as_ptr(), before, "mutated in place, not copied");
        assert_eq!(right.as_slice(), &[105, 106, 107]);
        assert_eq!(&right.data[..], &[0, 1, 2, 3, 4, 105, 106, 107], "nothing outside the range");
    }

    #[test]
    fn pack_build_fills_one_fresh_allocation() {
        let built = Pack::build(5, |items| {
            assert_eq!(items, &[0; 5], "the slice starts as zeros and is exactly `len` long");
            items.iter_mut().zip(10..).for_each(|(slot, v)| *slot = v);
        });
        assert_eq!(built, Pack::from_vec(vec![10, 11, 12, 13, 14]));
        assert!(!built.is_shared());
        let empty = Pack::build(0, |items| assert!(items.is_empty()));
        assert!(empty.is_empty());
        assert_eq!(empty, Pack::from_vec(vec![]));
    }

    #[test]
    fn pack_concat_of_empty_one_and_many() {
        assert!(Pack::concat(&[]).is_empty());
        let one = Pack::from_vec(vec![7, 8]);
        let copy = Pack::concat(std::slice::from_ref(&one));
        assert_eq!(copy, one);
        assert!(!copy.is_shared() && !one.is_shared(), "a concat never aliases its inputs");
        // Sub-range views, an empty pack in the middle, uneven lengths.
        let (head, tail) = Pack::from_vec((0..7).collect()).split_at(3);
        let many = [tail, Pack::from_vec(vec![]), head, one];
        assert_eq!(Pack::concat(&many).as_slice(), &[3, 4, 5, 6, 0, 1, 2, 7, 8]);
        assert_eq!((1..4).collect::<Pack>().as_slice(), &[1, 2, 3]);
        let untrusted_len = (1..9).filter(|v| v % 2 == 0);
        assert_eq!(untrusted_len.collect::<Pack>().as_slice(), &[2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "pack longer than u32::MAX items")]
    fn pack_build_refuses_an_overlong_pack_before_allocating() {
        // 32 GiB if it were allocated: the guard comes first.
        Pack::build(u32::MAX as usize + 1, |_| unreachable!("nothing to fill"));
    }

    #[test]
    fn args_spill_beyond_inline_slots() {
        let mut a = args![0u8, 1u8, 2u8, 3u8, 4u8, 5u8];
        assert_eq!(a.len(), 6);
        for i in 0..6u8 {
            assert_eq!(*a.get::<u8>(i as usize).unwrap(), i);
        }
        assert_eq!(a.take::<u8>(5).unwrap(), 5);
        assert_eq!(a.take::<u8>(1).unwrap(), 1);
        a.push(9u8);
        assert_eq!(a.len(), 7);
        assert_eq!(*a.get::<u8>(6).unwrap(), 9);
        assert!(matches!(a.get::<u8>(1), Err(WeaveError::MissingArg { .. })));
    }

    #[test]
    fn byte_sizes_are_proportional() {
        assert_eq!(5u64.byte_size(), 8);
        assert_eq!("abc".to_string().byte_size(), 7);
        assert_eq!(vec![1u32, 2, 3].byte_size(), 4 + 12);
        assert_eq!(Some(1u16).byte_size(), 3);
        assert_eq!(None::<u16>.byte_size(), 1);
        assert_eq!((1u8, 2u8, 3u8).byte_size(), 3);
        assert_eq!((1u8, 2u8, 3u8, 4u64).byte_size(), 11);
        assert_eq!(().byte_size(), 0);
        assert_eq!(Box::new(9u32).byte_size(), 4);
        assert_eq!("ab".byte_size(), 6);
        assert_eq!(Pack::from_vec(vec![1, 2]).byte_size(), 4 + 16);
        let halo: Arc<[f64]> = Arc::from(vec![1.0, 2.0]);
        assert_eq!(halo.byte_size(), 4 + 16);
    }

    #[test]
    fn args_debug_shows_taken_slots() {
        let mut a = args![1u8, 2u8];
        let _ = a.take::<u8>(0).unwrap();
        let d = format!("{a:?}");
        assert!(d.contains("2 slots"));
        assert!(d.contains("1 taken"));
    }

    mod recycler {
        //! The spares are process-wide and these tests are the only code in
        //! this crate that builds a pack of a recycled size: they run one at
        //! a time, so each reads exactly the spares it left.
        use super::*;

        static SERIAL: Mutex<()> = Mutex::new(());

        /// A value no test item holds. A recycled buffer keeps the items of
        /// the pack that left it, so a fill that misses an item shows it.
        const SENTINEL: u64 = 0x5EED_DEAD_BEEF_5EED;

        #[test]
        fn a_dropped_build_buffer_is_the_next_builds_and_is_not_cleared() {
            let _serial = SERIAL.lock();
            let first = Pack::build(20_000, |items| items.fill(SENTINEL));
            assert_eq!(first.data.len(), 1 << 15, "the pack views the front of its class");
            let at = first.as_slice().as_ptr();
            drop(first);
            let second = Pack::build(30_000, |items| {
                assert_eq!(items[..20_000], [SENTINEL; 20_000], "the last pack's items");
                items.fill(1);
            });
            assert_eq!(second.as_slice().as_ptr(), at, "the same allocation");
            assert_eq!(second.len(), 30_000);
        }

        #[test]
        fn a_concat_over_a_spare_full_of_sentinels_writes_every_item() {
            let _serial = SERIAL.lock();
            let len = 40_000;
            let spare = Pack::build(len, |items| items.fill(SENTINEL));
            let at = spare.as_slice().as_ptr();
            drop(spare);
            // Sub-range views, an empty pack and uneven lengths, as a farm's
            // combine gathers them.
            let (head, tail) = (0..len as u64 / 2).collect::<Pack>().split_at(7);
            let rest = (len as u64 / 2..len as u64).collect::<Pack>();
            let parts = [tail, Pack::from_vec(vec![]), rest, head];
            let whole = Pack::concat(&parts);
            assert_eq!(whole.as_slice().as_ptr(), at, "built in the spare");
            assert!(!whole.as_slice().contains(&SENTINEL), "an item the concat did not write");
            assert_eq!(whole.len(), len);
        }

        #[test]
        fn nothing_is_recycled_while_a_view_holds_the_buffer() {
            let _serial = SERIAL.lock();
            let pack = Pack::build(40_000, |_| {});
            let at = pack.as_slice().as_ptr();
            let (left, right) = pack.split_at(10_000);
            let views =
                [Value::new(left), Value::new(right), Value::new(pack.clone()), Value::new(pack)];
            let mut fresh = Vec::new();
            for view in views {
                let other = Pack::build(40_000, |_| {});
                assert_ne!(other.as_slice().as_ptr(), at, "recycled while {view:?} holds it");
                fresh.push(other);
                drop(view);
            }
            let reused = Pack::build(40_000, |_| {});
            assert_eq!(reused.as_slice().as_ptr(), at, "the last view gave it back");
        }

        #[test]
        fn packs_not_built_or_below_the_floor_are_never_retained() {
            let _serial = SERIAL.lock();
            let before = SPARES.lock().1;
            // A buffer is recycled by its size: these allocate exactly their
            // items, at or above the floor but between two classes.
            let len = 3 << 14;
            let made = [
                Pack::from_vec(vec![1; len]),
                (0..len as u64).collect(),
                Pack::from_slice(&vec![2; len]),
                Pack::build(SPARE_FLOOR - 1, |_| {}),
            ];
            drop(made);
            assert_eq!(SPARES.lock().1, before);
        }

        #[test]
        fn the_spares_never_exceed_their_bound() {
            let _serial = SERIAL.lock();
            let class = 1 << 19;
            let packs: Vec<Pack> =
                (0..SPARE_BOUND / class + 1).map(|_| Pack::build(class, |_| {})).collect();
            drop(packs);
            let (spares, items) = &*SPARES.lock();
            assert_eq!(*items, spares.iter().map(|spare| spare.len()).sum::<usize>());
            assert!(*items <= SPARE_BOUND, "{items} items held");
            assert!(*items + class > SPARE_BOUND, "held up to the bound: {items} items");
        }
    }

    mod representation_equivalence {
        //! Property tests: inline and boxed `Value` representations are
        //! observationally identical through `get`/`get_mut`/`take`/
        //! `downcast_ret` round trips, including cross-thread moves (the
        //! `Send` bound is exercised, not just asserted).
        use super::*;
        use proptest::prelude::*;

        fn assert_send<T: Send>() {}

        #[test]
        fn value_and_args_are_send() {
            assert_send::<Value>();
            assert_send::<Args>();
            assert_send::<Pack>();
        }

        /// Both representations of the same payload, built explicitly.
        fn both<T: Any + Send + Clone>(v: T) -> (Value, Value) {
            (Value::new(v.clone()), Value::from_box(Box::new(v)))
        }

        fn roundtrip_eq<T>(v: T)
        where
            T: Any + Send + Clone + PartialEq + std::fmt::Debug,
        {
            let (inline, boxed) = both(v.clone());
            // get (borrow)
            assert_eq!(inline.downcast_ref::<T>(), boxed.downcast_ref::<T>());
            assert_eq!(inline.downcast_ref::<T>(), Some(&v));
            // wrong-type borrow misses on both
            assert!(inline.downcast_ref::<String>().is_none());
            assert!(boxed.downcast_ref::<String>().is_none());
            // take via Args (wrong type first: the slot must survive)
            for val in [inline, boxed] {
                let mut a = Args::from_value(val);
                assert!(a.take::<String>(0).is_err());
                assert_eq!(a.take::<T>(0).unwrap(), v);
            }
            // get_mut via Args writes through both representations
            let (inline, boxed) = both(v.clone());
            for val in [inline, boxed] {
                let mut a = Args::from_value(val);
                let m = a.get_mut::<T>(0).unwrap();
                *m = v.clone();
                assert_eq!(*a.get::<T>(0).unwrap(), v);
            }
            // downcast_ret
            let (inline, boxed) = both(v.clone());
            assert_eq!(downcast_ret::<T>(inline).unwrap(), v);
            assert_eq!(downcast_ret::<T>(boxed).unwrap(), v);
            // cross-thread move (Send): extract on another thread
            let (inline, boxed) = both(v.clone());
            let got = std::thread::spawn(move || {
                (downcast_ret::<T>(inline).unwrap(), downcast_ret::<T>(boxed).unwrap())
            })
            .join()
            .unwrap();
            assert_eq!(got.0, v);
            assert_eq!(got.1, v);
        }

        proptest! {
            #[test]
            fn u64_roundtrips(v in any::<u64>()) { roundtrip_eq(v); }

            #[test]
            fn i64_roundtrips(v in any::<i64>()) { roundtrip_eq(v); }

            #[test]
            fn u32_roundtrips(v in any::<u32>()) { roundtrip_eq(v); }

            #[test]
            fn f64_roundtrips(v in any::<i64>()) { roundtrip_eq(v as f64); }

            #[test]
            fn bool_roundtrips(v in any::<bool>()) { roundtrip_eq(v); }

            #[test]
            fn pair_roundtrips(a in any::<u64>(), b in any::<u64>()) {
                roundtrip_eq((a, b));
            }

            #[test]
            fn objid_roundtrips(raw in any::<u64>()) {
                roundtrip_eq(ObjId::from_raw(raw));
            }

            #[test]
            fn pack_roundtrips(items in proptest::collection::vec(any::<u64>(), 0..32)) {
                roundtrip_eq(Pack::from_vec(items));
            }

            #[test]
            fn boxed_fallback_roundtrips(items in proptest::collection::vec(any::<u64>(), 0..16)) {
                // Vec<u64> is not in the inline set: Value::new boxes it, and
                // both construction routes must still agree.
                let (a, b) = both(items.clone());
                prop_assert!(!a.is_inline() && !b.is_inline());
                roundtrip_eq(items);
            }

            #[test]
            fn pack_split_concat_identity(
                items in proptest::collection::vec(any::<u64>(), 1..64),
                chunk in 1usize..16,
            ) {
                let p = Pack::from_vec(items.clone());
                let parts = p.split_chunks(chunk);
                prop_assert_eq!(parts.iter().map(Pack::len).sum::<usize>(), items.len());
                prop_assert_eq!(Pack::concat(&parts).to_vec(), items);
            }
        }
    }
}
