//! Binary marshalling: the Java-serialisation stand-in.
//!
//! [`Wire`] is a minimal, explicit binary codec (little-endian, length-
//! prefixed containers). A [`Pack`](weavepar_weave::Pack) crosses in one
//! bulk write, one pass to read, with the bytes of a `Vec<u64>`.
//! [`WireArgs`] lifts it to whole argument packs, and a
//! [`MarshalRegistry`] records, per `(class, method)`, how to convert between
//! [`Args`] and bytes — the knowledge the distribution
//! aspect needs to put a call on the wire and a node runtime needs to take it
//! off again.
//!
//! ## Interned identifiers
//!
//! Registration hands out dense [`ClassId`]/[`MethodId`] handles. The
//! per-call fast path ([`MarshalRegistry::encode_args_id`] and friends)
//! indexes an append-only slot table — no lock, no string hashing, no
//! allocation. The string-keyed methods remain as conveniences that resolve
//! the id once (two `RwLock` reads + hash lookups) and then take the same
//! indexed path; `Arc<str>` names are kept only at the boundary for error
//! messages and name-based dispatch on the serving node.
//!
//! ## Pack frames
//!
//! [`PackFrame`]/[`PackReader`] define the `CallPack` wire format — many
//! oneway calls to one node in a single frame:
//!
//! ```text
//! count: u32 | count × ( obj: u64 | method: u32 | args_len: u32 | args )
//! ```
//!
//! The reader yields zero-copy sub-views of the frame, so serving a pack
//! never re-allocates the payload.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::{Mutex, RwLock};

use weavepar_weave::{AnyValue, Args, ObjId, WeaveError, WeaveResult};

/// A value with an explicit binary encoding.
pub trait Wire: Sized + Send + 'static {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode a value from the front of `buf`.
    fn decode(buf: &mut Bytes) -> WeaveResult<Self>;
}

fn short(context: &str) -> WeaveError {
    WeaveError::remote(format!("wire: truncated input while decoding {context}"))
}

macro_rules! impl_wire_int {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {
        $(
            impl Wire for $t {
                fn encode(&self, buf: &mut BytesMut) {
                    buf.$put(*self);
                }
                fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
                    if buf.remaining() < std::mem::size_of::<$t>() {
                        return Err(short(stringify!($t)));
                    }
                    Ok(buf.$get())
                }
            }
        )*
    };
}

impl_wire_int! {
    u8 => put_u8 / get_u8,
    u16 => put_u16_le / get_u16_le,
    u32 => put_u32_le / get_u32_le,
    u64 => put_u64_le / get_u64_le,
    i8 => put_i8 / get_i8,
    i16 => put_i16_le / get_i16_le,
    i32 => put_i32_le / get_i32_le,
    i64 => put_i64_le / get_i64_le,
    f32 => put_f32_le / get_f32_le,
    f64 => put_f64_le / get_f64_le,
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        if buf.remaining() < 1 {
            return Err(short("bool"));
        }
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WeaveError::remote(format!("wire: invalid bool byte {other}"))),
        }
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        if buf.remaining() < 8 {
            return Err(short("usize"));
        }
        Ok(buf.get_u64_le() as usize)
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> WeaveResult<Self> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        let len = u32::decode(buf)? as usize;
        if buf.remaining() < len {
            return Err(short("String"));
        }
        let raw = buf.split_to(len);
        // Validate in place on the split view, then copy once into the
        // `String` — the old `raw.to_vec()` + `String::from_utf8` round-trip
        // copied first and validated after (wasting the copy on bad input).
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|e| WeaveError::remote(format!("wire: invalid utf8: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        let len = u32::decode(buf)? as usize;
        // Conservative cap: each element takes at least one byte on the wire
        // for all current `Wire` impls except `()`.
        let mut out = Vec::with_capacity(len.min(buf.remaining().max(16)));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// Same wire format as `Vec<u64>`, so a `Pack`-taking method is wire-
/// compatible with its `Vec<u64>` predecessor. One bulk write, one pass to
/// read: encoding appends the whole range at once and fills it with the
/// little-endian words straight from the pack's shared range; decoding
/// reads each word from the frame straight into a fresh pack's one
/// allocation.
impl Wire for weavepar_weave::Pack {
    fn encode(&self, buf: &mut BytesMut) {
        let items = self.as_slice();
        buf.put_u32_le(items.len() as u32);
        let (words, _) = buf.put_zeroed(items.len() * 8).as_chunks_mut::<8>();
        for (word, item) in words.iter_mut().zip(items) {
            *word = item.to_le_bytes();
        }
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        let len = u32::decode(buf)? as usize;
        if buf.remaining() < len * 8 {
            return Err(short("Pack"));
        }
        // Checked above, before the allocation: a forged length cannot make
        // this allocate more than the frame holds. The iterator's length is
        // trusted, so the pack's `Arc` is allocated once and written once.
        let (words, _) = buf.take_front(len * 8).as_chunks::<8>();
        Ok(words.iter().map(|word| u64::from_le_bytes(*word)).collect())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        match bool::decode(buf)? {
            false => Ok(None),
            true => Ok(Some(T::decode(buf)?)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl Wire for ObjId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.raw());
    }
    fn decode(buf: &mut Bytes) -> WeaveResult<Self> {
        Ok(ObjId::from_raw(u64::decode(buf)?))
    }
}

/// Encode a single value to a standalone buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Bytes {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze()
}

/// Decode a single value from a standalone buffer.
pub fn from_bytes<T: Wire>(bytes: &Bytes) -> WeaveResult<T> {
    let mut buf = bytes.clone();
    T::decode(&mut buf)
}

/// A *typed view* of an argument pack: encodes `Args` whose slots hold the
/// tuple's element types, and rebuilds such `Args` from bytes.
pub trait WireArgs: Send + 'static {
    /// Number of argument slots.
    fn arity() -> usize;
    /// Encode the pack (by reference — the live call still needs its args).
    fn encode_args(args: &Args, buf: &mut BytesMut) -> WeaveResult<()>;
    /// Decode a fresh pack.
    fn decode_args(buf: &mut Bytes) -> WeaveResult<Args>;
}

macro_rules! impl_wire_args {
    ($( ($($T:ident @ $idx:tt),*) );* $(;)?) => {
        $(
            impl<$($T: Wire + Clone),*> WireArgs for ($($T,)*) {
                fn arity() -> usize {
                    <[&str]>::len(&[$(stringify!($T)),*])
                }
                #[allow(unused_variables)]
                fn encode_args(args: &Args, buf: &mut BytesMut) -> WeaveResult<()> {
                    $(
                        args.get::<$T>($idx)?.encode(buf);
                    )*
                    Ok(())
                }
                #[allow(unused_mut, unused_variables)]
                fn decode_args(buf: &mut Bytes) -> WeaveResult<Args> {
                    let mut args = Args::empty();
                    $(
                        args.push($T::decode(buf)?);
                    )*
                    Ok(args)
                }
            }
        )*
    };
}

impl_wire_args! {
    ();
    (A @ 0);
    (A @ 0, B @ 1);
    (A @ 0, B @ 1, C @ 2);
    (A @ 0, B @ 1, C @ 2, D @ 3);
}

// `ClassId`/`MethodId` are defined in the weave value layer so they can ride
// inline in a `Value` (no box per id); re-exported here at their historical
// home. `intern_class`/`register` hand them out exactly as before.
pub use weavepar_weave::{ClassId, MethodId};

/// Lock-free-on-read, append-only slot table: readers index published slots
/// with two atomic loads; writers serialise on a mutex and publish via a
/// release store of `len`. Storage grows in doubling chunks so published
/// references never move.
struct SlotTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; SlotTable::<()>::CHUNKS],
    len: AtomicU32,
    append: Mutex<()>,
}

impl<T> SlotTable<T> {
    const CHUNKS: usize = 16;
    const CHUNK0: usize = 64;

    fn new() -> Self {
        SlotTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU32::new(0),
            append: Mutex::new(()),
        }
    }

    /// Chunk index and offset for slot `i` (chunk `c` holds `64 << c` slots).
    fn locate(i: usize) -> (usize, usize) {
        let chunk = ((i / Self::CHUNK0) + 1).ilog2() as usize;
        let start = Self::CHUNK0 * ((1usize << chunk) - 1);
        (chunk, i - start)
    }

    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    fn get(&self, i: u32) -> Option<&T> {
        if i >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (chunk, offset) = Self::locate(i as usize);
        self.chunks[chunk].get()?[offset].get()
    }

    fn push(&self, value: T) -> u32 {
        let _guard = self.append.lock();
        let i = self.len.load(Ordering::Relaxed) as usize;
        let (chunk, offset) = Self::locate(i);
        assert!(chunk < Self::CHUNKS, "slot table full");
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..Self::CHUNK0 << chunk).map(|_| OnceLock::new()).collect::<Vec<_>>().into()
        });
        if slots[offset].set(value).is_err() {
            unreachable!("append slot already occupied");
        }
        self.len.store((i + 1) as u32, Ordering::Release);
        i as u32
    }
}

type ArgsEncoder = Box<dyn Fn(&Args, &mut BytesMut) -> WeaveResult<()> + Send + Sync>;
type ArgsDecoder = Box<dyn Fn(&mut Bytes) -> WeaveResult<Args> + Send + Sync>;
type RetEncoder = Box<dyn Fn(&AnyValue, &mut BytesMut) -> WeaveResult<()> + Send + Sync>;
type RetDecoder = Box<dyn Fn(&mut Bytes) -> WeaveResult<AnyValue> + Send + Sync>;

struct MethodMarshal {
    encode_args: ArgsEncoder,
    decode_args: ArgsDecoder,
    encode_ret: RetEncoder,
    decode_ret: RetDecoder,
}

/// One published method slot: the codec plus the boundary names (`Arc<str>`
/// — cloned only for errors and name-based dispatch on the serving node).
pub(crate) struct MethodEntry {
    pub(crate) class: ClassId,
    pub(crate) class_name: Arc<str>,
    pub(crate) method_name: Arc<str>,
    marshal: MethodMarshal,
}

impl MethodEntry {
    /// Decode an argument pack from the front of `bytes`.
    pub(crate) fn read_args(&self, bytes: &mut Bytes) -> WeaveResult<Args> {
        (self.marshal.decode_args)(bytes)
    }

    /// Encode a return value into `buf`.
    pub(crate) fn write_ret(&self, ret: &AnyValue, buf: &mut BytesMut) -> WeaveResult<()> {
        (self.marshal.encode_ret)(ret, buf)
    }
}

struct ClassEntry {
    name: Arc<str>,
    /// Method name → id, for the string-keyed slow path.
    methods: RwLock<HashMap<Arc<str>, MethodId>>,
    state: RwLock<Option<StateCodec>>,
}

type StateSnapshot =
    Arc<dyn Fn(&weavepar_weave::Weaver, ObjId) -> WeaveResult<Bytes> + Send + Sync>;
type StateRestore =
    Arc<dyn Fn(&weavepar_weave::Weaver, &Bytes) -> WeaveResult<ObjId> + Send + Sync>;

/// Per-class object-state marshalling (used by migration: snapshot an
/// instance's state to bytes on one node, rebuild it on another).
#[derive(Clone)]
pub struct StateCodec {
    snapshot: StateSnapshot,
    restore: StateRestore,
}

struct RegistryInner {
    classes: SlotTable<ClassEntry>,
    methods: SlotTable<MethodEntry>,
    /// Class name → id, for interning and the string-keyed slow path.
    class_ids: RwLock<HashMap<Arc<str>, ClassId>>,
}

/// Per-`(class, method)` marshalling knowledge — what Java gets from
/// serialisable classes, an application registers here once per remotable
/// method (constructions use method name `"new"`). Registration returns a
/// dense [`MethodId`]; per-call marshalling by id is an array index.
#[derive(Clone)]
pub struct MarshalRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MarshalRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MarshalRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MarshalRegistry {
            inner: Arc::new(RegistryInner {
                classes: SlotTable::new(),
                methods: SlotTable::new(),
                class_ids: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Intern `class`, creating an (empty) class slot on first sight.
    pub fn intern_class(&self, class: &str) -> ClassId {
        if let Some(&id) = self.inner.class_ids.read().get(class) {
            return id;
        }
        let mut ids = self.inner.class_ids.write();
        if let Some(&id) = ids.get(class) {
            return id;
        }
        let name: Arc<str> = Arc::from(class);
        let id = ClassId::from_raw(self.inner.classes.push(ClassEntry {
            name: name.clone(),
            methods: RwLock::new(HashMap::new()),
            state: RwLock::new(None),
        }));
        ids.insert(name, id);
        id
    }

    /// The interned id of `class`, if it has been seen.
    pub fn class_id(&self, class: &str) -> Option<ClassId> {
        self.inner.class_ids.read().get(class).copied()
    }

    /// The name behind an interned class id.
    pub fn class_name(&self, class: ClassId) -> WeaveResult<Arc<str>> {
        self.class_entry(class).map(|e| e.name.clone())
    }

    fn class_entry(&self, class: ClassId) -> WeaveResult<&ClassEntry> {
        self.inner
            .classes
            .get(class.raw())
            .ok_or_else(|| WeaveError::remote(format!("unknown class id {}", class.raw())))
    }

    pub(crate) fn method_entry(&self, method: MethodId) -> WeaveResult<&MethodEntry> {
        self.inner
            .methods
            .get(method.raw())
            .ok_or_else(|| WeaveError::remote(format!("unknown method id {}", method.raw())))
    }

    /// Register marshalling for `class.method` with argument tuple `A` and
    /// return type `R`, returning the method's dense id. Registering an
    /// already-known `(class, method)` returns the existing id unchanged.
    pub fn register<A: WireArgs, R: Wire>(&self, class: &str, method: &str) -> MethodId {
        let class_id = self.intern_class(class);
        let entry = self.class_entry(class_id).expect("freshly interned class");
        let mut methods = entry.methods.write();
        if let Some(&id) = methods.get(method) {
            return id;
        }
        let marshal = MethodMarshal {
            encode_args: Box::new(|args, buf| A::encode_args(args, buf)),
            decode_args: Box::new(|bytes| A::decode_args(bytes)),
            encode_ret: Box::new(|ret, buf| {
                let typed = ret.downcast_ref::<R>().ok_or_else(|| WeaveError::TypeMismatch {
                    expected: std::any::type_name::<R>(),
                    context: "marshalling return value".into(),
                })?;
                typed.encode(buf);
                Ok(())
            }),
            decode_ret: Box::new(|bytes| {
                let v: R = R::decode(bytes)?;
                Ok(AnyValue::new(v))
            }),
        };
        let method_name: Arc<str> = Arc::from(method);
        let id = MethodId::from_raw(self.inner.methods.push(MethodEntry {
            class: class_id,
            class_name: entry.name.clone(),
            method_name: method_name.clone(),
            marshal,
        }));
        methods.insert(method_name, id);
        id
    }

    /// The id of `class.method`, if registered.
    pub fn try_method_id(&self, class: &str, method: &str) -> Option<MethodId> {
        let class_id = self.class_id(class)?;
        let entry = self.inner.classes.get(class_id.raw())?;
        entry.methods.read().get(method).copied()
    }

    /// The id of `class.method`, or a [`WeaveError::Remote`] when unknown.
    pub fn method_id(&self, class: &str, method: &str) -> WeaveResult<MethodId> {
        self.try_method_id(class, method).ok_or_else(|| {
            WeaveError::remote(format!("no marshaller registered for {class}.{method}"))
        })
    }

    // ---- by-id fast path (no lock, no hashing, no allocation) ----

    /// Encode an argument pack into `buf` by method id.
    pub fn encode_args_id(
        &self,
        method: MethodId,
        args: &Args,
        buf: &mut BytesMut,
    ) -> WeaveResult<()> {
        (self.method_entry(method)?.marshal.encode_args)(args, buf)
    }

    /// Encode a return value into `buf` by method id.
    pub fn encode_ret_id(
        &self,
        method: MethodId,
        ret: &AnyValue,
        buf: &mut BytesMut,
    ) -> WeaveResult<()> {
        self.method_entry(method)?.write_ret(ret, buf)
    }

    /// Decode a return value from the front of `bytes` by method id.
    pub fn decode_ret_id(&self, method: MethodId, bytes: &mut Bytes) -> WeaveResult<AnyValue> {
        (self.method_entry(method)?.marshal.decode_ret)(bytes)
    }

    // ---- string-keyed conveniences (resolve the id, then index) ----

    /// Encode an argument pack for `class.method`.
    pub fn encode_args(&self, class: &str, method: &str, args: &Args) -> WeaveResult<Bytes> {
        let id = self.method_id(class, method)?;
        let mut buf = BytesMut::new();
        self.encode_args_id(id, args, &mut buf)?;
        Ok(buf.freeze())
    }

    /// Encode a return value for `class.method`.
    pub fn encode_ret(&self, class: &str, method: &str, ret: &AnyValue) -> WeaveResult<Bytes> {
        let id = self.method_id(class, method)?;
        let mut buf = BytesMut::new();
        self.encode_ret_id(id, ret, &mut buf)?;
        Ok(buf.freeze())
    }

    /// Decode a return value for `class.method`.
    pub fn decode_ret(&self, class: &str, method: &str, bytes: &Bytes) -> WeaveResult<AnyValue> {
        let id = self.method_id(class, method)?;
        let mut view = bytes.clone();
        self.decode_ret_id(id, &mut view)
    }

    // ---- object-state codecs (migration; cold path, name-keyed) ----

    /// Register object-state marshalling for `T`: `extract` captures the
    /// instance's state as a [`Wire`] value, `rebuild` reconstructs an
    /// instance from it. Required for migration (paper Figure 2's
    /// `Point.migrate`).
    pub fn register_state<T, S, E, R>(&self, extract: E, rebuild: R)
    where
        T: weavepar_weave::Weaveable,
        S: Wire,
        E: Fn(&T) -> S + Send + Sync + 'static,
        R: Fn(S) -> T + Send + Sync + 'static,
    {
        let codec = StateCodec {
            snapshot: Arc::new(move |weaver, obj| {
                let state = weaver.space().with_object::<T, _>(obj, |t| extract(t))?;
                Ok(to_bytes(&state))
            }),
            restore: Arc::new(move |weaver, bytes| {
                let state: S = from_bytes(bytes)?;
                Ok(weaver.space().insert(rebuild(state)))
            }),
        };
        let class = self.intern_class(T::CLASS);
        let entry = self.class_entry(class).expect("freshly interned class");
        *entry.state.write() = Some(codec);
    }

    fn state_codec(&self, class: &str) -> WeaveResult<StateCodec> {
        self.class_id(class)
            .and_then(|id| self.inner.classes.get(id.raw()))
            .and_then(|entry| entry.state.read().clone())
            .ok_or_else(|| WeaveError::remote(format!("no state codec registered for `{class}`")))
    }

    /// Snapshot the state of a live object of `class`.
    pub fn snapshot_state(
        &self,
        weaver: &weavepar_weave::Weaver,
        class: &str,
        obj: ObjId,
    ) -> WeaveResult<Bytes> {
        (self.state_codec(class)?.snapshot)(weaver, obj)
    }

    /// Rebuild an instance of `class` from snapshotted state.
    pub fn restore_state(
        &self,
        weaver: &weavepar_weave::Weaver,
        class: &str,
        state: &Bytes,
    ) -> WeaveResult<ObjId> {
        (self.state_codec(class)?.restore)(weaver, state)
    }

    /// Is a state codec known for `class`?
    pub fn knows_state(&self, class: &str) -> bool {
        self.state_codec(class).is_ok()
    }
}

impl std::fmt::Debug for MarshalRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarshalRegistry")
            .field("classes", &self.inner.classes.len())
            .field("methods", &self.inner.methods.len())
            .finish()
    }
}

/// Builder for one `CallPack` frame: many oneway calls to one node, framed
/// into a single contiguous buffer (see the module docs for the layout).
pub struct PackFrame {
    buf: BytesMut,
    count: u32,
}

impl PackFrame {
    /// Start a frame in `buf` (cleared; its capacity is reused).
    pub fn new(mut buf: BytesMut) -> Self {
        buf.clear();
        buf.put_u32_le(0); // count, patched by `finish`
        PackFrame { buf, count: 0 }
    }

    /// Append one call, encoding `args` in place through the registry. On
    /// encode failure the frame is rolled back to its previous state.
    pub fn push(
        &mut self,
        obj: ObjId,
        method: MethodId,
        registry: &MarshalRegistry,
        args: &Args,
    ) -> WeaveResult<()> {
        let rollback = self.buf.len();
        self.buf.put_u64_le(obj.raw());
        self.buf.put_u32_le(method.raw());
        let len_at = self.buf.len();
        self.buf.put_u32_le(0); // args_len, patched below
        if let Err(e) = registry.encode_args_id(method, args, &mut self.buf) {
            self.buf.truncate(rollback);
            return Err(e);
        }
        let args_len = (self.buf.len() - len_at - 4) as u32;
        self.buf[len_at..len_at + 4].copy_from_slice(&args_len.to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// Calls in the frame so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True when no call has been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Frame size in bytes so far (header included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Patch the header and freeze the frame for submission.
    pub fn finish(mut self) -> Bytes {
        let count = self.count;
        self.buf[0..4].copy_from_slice(&count.to_le_bytes());
        self.buf.freeze()
    }
}

/// Zero-copy reader over a `CallPack` frame: yields `(obj, method, args)`
/// entries whose `args` are sub-views of the frame. Fuses on the first
/// malformed entry.
pub struct PackReader {
    frame: Bytes,
    remaining: u32,
}

impl PackReader {
    /// Open a frame; fails when even the count header is truncated.
    pub fn new(mut frame: Bytes) -> WeaveResult<Self> {
        let remaining = u32::decode(&mut frame)?;
        Ok(PackReader { frame, remaining })
    }

    /// Entries not yet read.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }
}

impl Iterator for PackReader {
    type Item = WeaveResult<(ObjId, MethodId, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let entry = (|| {
            let obj = ObjId::decode(&mut self.frame)?;
            let method = MethodId::from_raw(u32::decode(&mut self.frame)?);
            let len = u32::decode(&mut self.frame)? as usize;
            if self.frame.remaining() < len {
                return Err(short("CallPack entry"));
            }
            Ok((obj, method, self.frame.split_to(len)))
        })();
        if entry.is_err() {
            self.remaining = 0;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_weave::args;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    /// Satellite-3 harness: the value must round-trip, and *every* strict
    /// prefix of its encoding must fail to decode. (Only meaningful for
    /// values whose full encoding is needed — i.e. everything but `()`.)
    fn roundtrip_and_truncation_matrix<T: Wire + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let bytes = to_bytes(&v);
        assert!(!bytes.is_empty(), "matrix requires a non-empty encoding");
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
        for cut in 0..bytes.len() {
            let mut prefix = bytes.slice(0..cut);
            assert!(
                T::decode(&mut prefix).is_err(),
                "decoding a {cut}/{} byte prefix of {v:?} must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(1234u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX / 3);
        roundtrip(-7i8);
        roundtrip(-30000i16);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(3.25f32);
        roundtrip(-1.5e300f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(42usize);
        roundtrip(());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip("hello wire".to_string());
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(9u8));
        roundtrip(None::<u8>);
        roundtrip((1u8, "two".to_string()));
        roundtrip((1u8, 2u16, vec![3u32]));
        roundtrip(ObjId::from_raw(77));
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn truncation_matrix_ints() {
        roundtrip_and_truncation_matrix(0x5Au8);
        roundtrip_and_truncation_matrix(0xBEEFu16);
        roundtrip_and_truncation_matrix(0xDEAD_BEEFu32);
        roundtrip_and_truncation_matrix(u64::MAX - 3);
        roundtrip_and_truncation_matrix(-5i8);
        roundtrip_and_truncation_matrix(-12345i16);
        roundtrip_and_truncation_matrix(i32::MIN + 1);
        roundtrip_and_truncation_matrix(i64::MAX - 9);
        roundtrip_and_truncation_matrix(1.5f32);
        roundtrip_and_truncation_matrix(-2.25f64);
        roundtrip_and_truncation_matrix(7usize);
        roundtrip_and_truncation_matrix(true);
        roundtrip_and_truncation_matrix(false);
        roundtrip_and_truncation_matrix(ObjId::from_raw(404));
    }

    #[test]
    fn truncation_matrix_containers() {
        roundtrip_and_truncation_matrix("hello".to_string());
        roundtrip_and_truncation_matrix(String::new());
        roundtrip_and_truncation_matrix(vec![1u64, 2, 3]);
        roundtrip_and_truncation_matrix(Vec::<u32>::new());
        roundtrip_and_truncation_matrix(vec!["a".to_string(), String::new(), "bc".to_string()]);
        roundtrip_and_truncation_matrix(Some(9u32));
        roundtrip_and_truncation_matrix(None::<u8>);
        roundtrip_and_truncation_matrix(vec![Some(1u8), None, Some(3)]);
        roundtrip_and_truncation_matrix((1u8, "two".to_string()));
        roundtrip_and_truncation_matrix((1u8, 2u16, vec![3u32]));
        roundtrip_and_truncation_matrix(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&123456u32);
        let mut cut = bytes.slice(0..2);
        assert!(u32::decode(&mut cut).is_err());
        let bytes = to_bytes(&"hello".to_string());
        let mut cut = bytes.slice(0..6);
        assert!(String::decode(&mut cut).is_err());
    }

    #[test]
    fn short_container_is_an_error() {
        // A Vec whose header promises more elements than the payload holds.
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_u64_le(1);
        let mut b = buf.freeze();
        assert!(Vec::<u64>::decode(&mut b).is_err());
        // A String whose header promises more bytes than remain.
        let mut buf = BytesMut::new();
        buf.put_u32_le(10);
        buf.put_slice(b"abc");
        let mut b = buf.freeze();
        assert!(String::decode(&mut b).is_err());
    }

    #[test]
    fn pack_roundtrips_and_every_prefix_fails() {
        use weavepar_weave::Pack;
        let many: Pack = (0..1_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for pack in [Pack::from_slice(&[]), Pack::from_slice(&[u64::MAX]), many] {
            roundtrip_and_truncation_matrix(pack);
        }
    }

    #[test]
    fn a_forged_pack_length_is_the_truncation_error() {
        // The header promises more words than the frame holds: the decode
        // fails on the length check, before it allocates anything.
        for promised in [2, 1 << 20, u32::MAX] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(promised);
            buf.put_u64_le(1);
            let mut b = buf.freeze();
            assert_eq!(weavepar_weave::Pack::decode(&mut b).unwrap_err(), short("Pack"));
        }
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        let mut b = buf.freeze();
        assert!(bool::decode(&mut b).is_err());
        // And through Option's tag byte too.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        let mut b = buf.freeze();
        assert!(Option::<u8>::decode(&mut b).is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        let mut b = buf.freeze();
        assert!(String::decode(&mut b).is_err());
    }

    #[test]
    fn wire_args_roundtrip() {
        let args = args![5u64, vec![1u64, 2, 3]];
        let mut buf = BytesMut::new();
        <(u64, Vec<u64>)>::encode_args(&args, &mut buf).unwrap();
        let mut bytes = buf.freeze();
        let back = <(u64, Vec<u64>)>::decode_args(&mut bytes).unwrap();
        assert_eq!(*back.get::<u64>(0).unwrap(), 5);
        assert_eq!(*back.get::<Vec<u64>>(1).unwrap(), vec![1, 2, 3]);
        assert_eq!(<(u64, Vec<u64>)>::arity(), 2);
        assert_eq!(<()>::arity(), 0);
    }

    #[test]
    fn wire_args_type_mismatch() {
        let args = args!["oops".to_string()];
        let mut buf = BytesMut::new();
        assert!(<(u64,)>::encode_args(&args, &mut buf).is_err());
    }

    #[test]
    fn registry_end_to_end() {
        let reg = MarshalRegistry::new();
        reg.register::<(u64, u64), ()>("PrimeFilter", "new");
        reg.register::<(Vec<u64>,), Vec<u64>>("PrimeFilter", "filter");
        assert!(reg.try_method_id("PrimeFilter", "filter").is_some());
        assert!(reg.try_method_id("PrimeFilter", "other").is_none());

        let args = args![vec![9u64, 15, 21]];
        let mut bytes = reg.encode_args("PrimeFilter", "filter", &args).unwrap();
        let filter = reg.method_id("PrimeFilter", "filter").unwrap();
        let back = reg.method_entry(filter).and_then(|e| e.read_args(&mut bytes)).unwrap();
        assert_eq!(*back.get::<Vec<u64>>(0).unwrap(), vec![9, 15, 21]);

        let ret: AnyValue = AnyValue::new(vec![9u64]);
        let rb = reg.encode_ret("PrimeFilter", "filter", &ret).unwrap();
        let rv = reg.decode_ret("PrimeFilter", "filter", &rb).unwrap();
        assert_eq!(*rv.downcast::<Vec<u64>>().unwrap(), vec![9]);
    }

    #[test]
    fn registry_ids_are_dense_and_stable() {
        let reg = MarshalRegistry::new();
        let a = reg.register::<(u64,), ()>("C", "a");
        let b = reg.register::<(u64,), ()>("C", "b");
        let c = reg.register::<(), ()>("D", "a");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Re-registration returns the existing id.
        assert_eq!(reg.register::<(u64,), ()>("C", "a"), a);
        assert_eq!(reg.method_id("C", "a").unwrap(), a);
        assert_eq!(reg.method_id("D", "a").unwrap(), c);
        assert_eq!([a, b, c].map(|id| id.raw()), [0, 1, 2]);
        // Class ids are interned once.
        assert_eq!(reg.intern_class("C"), reg.class_id("C").unwrap());
        assert_eq!(&*reg.class_name(reg.class_id("D").unwrap()).unwrap(), "D");
    }

    #[test]
    fn registry_by_id_matches_string_path() {
        let reg = MarshalRegistry::new();
        let id = reg.register::<(u64, String), String>("C", "m");
        let args = args![7u64, "x".to_string()];
        let via_string = reg.encode_args("C", "m", &args).unwrap();
        let mut buf = BytesMut::new();
        reg.encode_args_id(id, &args, &mut buf).unwrap();
        assert_eq!(buf.freeze(), via_string);
        let mut view = via_string.clone();
        let back = reg.method_entry(id).and_then(|e| e.read_args(&mut view)).unwrap();
        assert_eq!(*back.get::<u64>(0).unwrap(), 7);
    }

    #[test]
    fn registry_unknown_method_errors() {
        let reg = MarshalRegistry::new();
        let err = reg.encode_args("X", "y", &args![]).unwrap_err();
        assert!(matches!(err, WeaveError::Remote(_)));
        assert!(reg.method_id("X", "y").is_err());
        assert!(reg.method_entry(MethodId::from_raw(999)).is_err());
        assert!(reg.class_name(ClassId::from_raw(999)).is_err());
    }

    #[test]
    fn registry_ret_type_mismatch() {
        let reg = MarshalRegistry::new();
        reg.register::<(), u64>("C", "m");
        let ret: AnyValue = AnyValue::new("not a u64".to_string());
        assert!(reg.encode_ret("C", "m", &ret).is_err());
    }

    #[test]
    fn slot_table_chunk_arithmetic() {
        // Chunk c holds 64 << c slots starting at 64 * (2^c - 1).
        assert_eq!(SlotTable::<()>::locate(0), (0, 0));
        assert_eq!(SlotTable::<()>::locate(63), (0, 63));
        assert_eq!(SlotTable::<()>::locate(64), (1, 0));
        assert_eq!(SlotTable::<()>::locate(191), (1, 127));
        assert_eq!(SlotTable::<()>::locate(192), (2, 0));
        let t: SlotTable<usize> = SlotTable::new();
        for i in 0..300 {
            assert_eq!(t.push(i), i as u32);
        }
        for i in 0..300u32 {
            assert_eq!(t.get(i), Some(&(i as usize)));
        }
        assert_eq!(t.get(300), None);
    }

    #[test]
    fn pack_frame_roundtrip() {
        let reg = MarshalRegistry::new();
        let add = reg.register::<(u64,), u64>("Adder", "add");
        let mut frame = PackFrame::new(BytesMut::new());
        assert!(frame.is_empty());
        for i in 0..5u64 {
            frame.push(ObjId::from_raw(i + 1), add, &reg, &args![i]).unwrap();
        }
        assert_eq!(frame.count(), 5);
        let bytes = frame.finish();
        let reader = PackReader::new(bytes).unwrap();
        assert_eq!(reader.remaining(), 5);
        for (i, entry) in reader.enumerate() {
            let (obj, method, mut argview) = entry.unwrap();
            assert_eq!(obj, ObjId::from_raw(i as u64 + 1));
            assert_eq!(method, add);
            let args = reg.method_entry(method).and_then(|e| e.read_args(&mut argview)).unwrap();
            assert_eq!(*args.get::<u64>(0).unwrap(), i as u64);
        }
    }

    #[test]
    fn pack_frame_rolls_back_failed_pushes() {
        let reg = MarshalRegistry::new();
        let add = reg.register::<(u64,), u64>("Adder", "add");
        let mut frame = PackFrame::new(BytesMut::new());
        frame.push(ObjId::from_raw(1), add, &reg, &args![1u64]).unwrap();
        let len_before = frame.len();
        // Wrong argument type: the push must fail and leave the frame as-is.
        assert!(frame.push(ObjId::from_raw(2), add, &reg, &args!["bad".to_string()]).is_err());
        assert_eq!(frame.len(), len_before);
        assert_eq!(frame.count(), 1);
        let reader = PackReader::new(frame.finish()).unwrap();
        assert_eq!(reader.count(), 1);
    }

    #[test]
    fn pack_frame_truncation_matrix() {
        let reg = MarshalRegistry::new();
        let add = reg.register::<(u64,), u64>("Adder", "add");
        let mut frame = PackFrame::new(BytesMut::new());
        frame.push(ObjId::from_raw(1), add, &reg, &args![1u64]).unwrap();
        frame.push(ObjId::from_raw(2), add, &reg, &args![2u64]).unwrap();
        let bytes = frame.finish();
        for cut in 0..bytes.len() {
            let prefix = bytes.slice(0..cut);
            match PackReader::new(prefix) {
                // Header truncated: the open itself fails.
                Err(_) => assert!(cut < 4),
                // Entries truncated: iteration must surface an error.
                Ok(reader) => {
                    let entries: Vec<_> = reader.collect();
                    assert!(
                        entries.iter().any(|e| e.is_err()),
                        "a {cut}/{} byte prefix must not decode cleanly",
                        bytes.len()
                    );
                }
            }
        }
        // The empty frame is valid and yields nothing.
        let empty = PackFrame::new(BytesMut::new()).finish();
        assert_eq!(PackReader::new(empty).unwrap().count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn u64_roundtrip(v in any::<u64>()) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<u64>(&b).unwrap(), v);
        }

        #[test]
        fn i64_roundtrip(v in any::<i64>()) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<i64>(&b).unwrap(), v);
        }

        #[test]
        fn f64_roundtrip(v in any::<f64>().prop_filter("not NaN", |f| !f.is_nan())) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<f64>(&b).unwrap(), v);
        }

        #[test]
        fn string_roundtrip(v in ".{0,64}") {
            let s = v.to_string();
            let b = to_bytes(&s);
            prop_assert_eq!(from_bytes::<String>(&b).unwrap(), s);
        }

        #[test]
        fn vec_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..128)) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<Vec<u64>>(&b).unwrap(), v);
        }

        /// A pack has the bytes of its items as a `Vec<u64>`, and a view
        /// that starts inside its allocation encodes only its own range.
        #[test]
        fn pack_has_the_vec_layout(
            v in proptest::collection::vec(any::<u64>(), 0..128),
            chunk in 1usize..40,
            mid in 0usize..130,
        ) {
            let whole = weavepar_weave::Pack::from_slice(&v);
            let (head, tail) = whole.split_at(mid);
            let mut packs = whole.split_chunks(chunk);
            packs.extend([whole, head, tail]);
            for pack in packs {
                let bytes = to_bytes(&pack);
                prop_assert_eq!(&bytes, &to_bytes(&pack.to_vec()));
                prop_assert_eq!(from_bytes::<weavepar_weave::Pack>(&bytes).unwrap(), pack);
            }
        }

        #[test]
        fn nested_roundtrip(v in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..8), 0..8)) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<Vec<Vec<u32>>>(&b).unwrap(), v);
        }

        #[test]
        fn tuple_roundtrip(a in any::<u64>(), s in ".{0,16}", o in proptest::option::of(any::<i32>())) {
            let v = (a, s.to_string(), vec![o]);
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<(u64, String, Vec<Option<i32>>)>(&b).unwrap(), v);
        }

        /// Decoding arbitrary junk never panics.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let b = Bytes::from(bytes);
            let _ = from_bytes::<u64>(&b);
            let _ = from_bytes::<String>(&b);
            let _ = from_bytes::<Vec<u64>>(&b);
            let _ = from_bytes::<(u64, String)>(&b);
            let _ = from_bytes::<Option<Vec<u8>>>(&b);
        }

        /// Reading arbitrary junk as a pack frame never panics.
        #[test]
        fn pack_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            if let Ok(reader) = PackReader::new(Bytes::from(bytes)) {
                for entry in reader.take(64) {
                    let _ = entry;
                }
            }
        }

        /// Packed frames round-trip for arbitrary payload sizes.
        #[test]
        fn pack_frame_roundtrips(vals in proptest::collection::vec(any::<u64>(), 0..32)) {
            let reg = MarshalRegistry::new();
            let add = reg.register::<(u64,), u64>("A", "m");
            let mut frame = PackFrame::new(BytesMut::new());
            for (i, v) in vals.iter().enumerate() {
                frame.push(ObjId::from_raw(i as u64), add, &reg, &weavepar_weave::args![*v]).unwrap();
            }
            let reader = PackReader::new(frame.finish()).unwrap();
            let mut seen = Vec::new();
            for entry in reader {
                let (_, method, mut argview) = entry.unwrap();
                let args = reg.method_entry(method).and_then(|e| e.read_args(&mut argview)).unwrap();
                seen.push(*args.get::<u64>(0).unwrap());
            }
            prop_assert_eq!(seen, vals);
        }
    }
}
