//! The [`weaveable!`] macro: declares an application class whose
//! constructions and method calls are join points.
//!
//! This is the one-time shim that replaces AspectJ's compile-time weaving
//! (see the crate docs). From a single declaration it generates:
//!
//! 1. an inherent `impl` with the written methods — the class remains a
//!    perfectly ordinary sequential Rust type, directly usable without any
//!    weaver (that *is* the paper's unplugged sequential version);
//! 2. a [`Weaveable`](crate::dispatch::Weaveable) implementation (constructor,
//!    dispatch table, method list, argument/return sizers for the trace
//!    recorder);
//! 3. a typed client proxy whose calls go through the weaver, i.e. through
//!    whatever aspects are currently plugged.
//!
//! All method parameter and return types must implement
//! [`ByteSize`](crate::value::ByteSize) (so traces can model message sizes)
//! and be `Send + 'static` (so calls can cross threads and simulated nodes).

/// Declare a weaveable class. See the crate-level example for the grammar:
///
/// ```ignore
/// weaveable! {
///     class PrimeFilter as PrimeFilterProxy {
///         fn new(pmin: u64, pmax: u64) -> Self { /* ... */ }
///         fn filter(&mut self, nums: Vec<u64>) -> Vec<u64> { /* ... */ }
///     }
/// }
/// ```
#[macro_export]
macro_rules! weaveable {
    (
        class $Class:ident as $Proxy:ident {
            $(#[$cattr:meta])*
            fn new( $($cparam:ident : $cty:ty),* $(,)? ) -> Self $cbody:block
            $(
                $(#[$mattr:meta])*
                fn $method:ident ( &mut $this:ident $(, $param:ident : $pty:ty)* $(,)? ) $(-> $rty:ty)? $mbody:block
            )*
        }
    ) => {
        impl $Class {
            /// Plain sequential constructor (unwoven).
            $(#[$cattr])*
            #[allow(clippy::new_without_default, clippy::too_many_arguments)]
            pub fn new( $($cparam : $cty),* ) -> Self $cbody

            $(
                /// Plain sequential method (unwoven).
                $(#[$mattr])*
                #[allow(clippy::too_many_arguments)]
                pub fn $method(&mut $this $(, $param : $pty)*) $(-> $rty)? $mbody
            )*
        }

        impl $crate::dispatch::Weaveable for $Class {
            const CLASS: &'static str = stringify!($Class);

            #[allow(unused_mut, unused_variables, unused_assignments)]
            fn construct(mut args: $crate::value::Args) -> $crate::error::WeaveResult<Self> {
                let mut __i = 0usize;
                $(
                    let $cparam: $cty = args.take(__i)?;
                    __i += 1;
                )*
                Ok(<$Class>::new($($cparam),*))
            }

            #[allow(unused_mut, unused_variables, unused_assignments)]
            fn dispatch(
                &mut self,
                method: &'static str,
                mut args: $crate::value::Args,
            ) -> $crate::error::WeaveResult<$crate::value::AnyValue> {
                $(
                    if method == stringify!($method) {
                        let mut __i = 0usize;
                        $(
                            let $param: $pty = args.take(__i)?;
                            __i += 1;
                        )*
                        let __result = self.$method($($param),*);
                        return Ok($crate::value::Value::new(__result));
                    }
                )*
                Err($crate::error::WeaveError::NoSuchMethod {
                    class: stringify!($Class).into(),
                    method: method.into(),
                })
            }

            fn methods() -> &'static [&'static str] {
                &[$(stringify!($method)),*]
            }

            #[allow(unused_mut, unused_variables, unused_assignments)]
            fn arg_bytes(method: &'static str, args: &$crate::value::Args) -> usize {
                if method == $crate::signature::Signature::NEW {
                    let mut __total = 0usize;
                    let mut __i = 0usize;
                    $(
                        __total += args
                            .get::<$cty>(__i)
                            .map(|v| $crate::value::ByteSize::byte_size(v))
                            .unwrap_or(0);
                        __i += 1;
                    )*
                    return __total;
                }
                $(
                    if method == stringify!($method) {
                        let mut __total = 0usize;
                        let mut __i = 0usize;
                        $(
                            __total += args
                                .get::<$pty>(__i)
                                .map(|v| $crate::value::ByteSize::byte_size(v))
                                .unwrap_or(0);
                            __i += 1;
                        )*
                        return __total;
                    }
                )*
                0
            }

            #[allow(unused_variables)]
            fn ret_bytes(method: &'static str, ret: &$crate::value::AnyValue) -> usize {
                $(
                    if method == stringify!($method) {
                        $(
                            if let Some(v) = ret.downcast_ref::<$rty>() {
                                return $crate::value::ByteSize::byte_size(v);
                            }
                        )?
                        return 0;
                    }
                )*
                0
            }
        }

        /// Typed client proxy: every call is a join point on the weaver.
        #[derive(Clone)]
        #[allow(private_interfaces)]
        pub struct $Proxy {
            handle: $crate::object::Handle<$Class>,
        }

        #[allow(private_interfaces)]
        impl $Proxy {
            /// Woven construction: runs construction advice, then the base
            /// constructor.
            #[allow(clippy::too_many_arguments)]
            pub fn construct(
                weaver: &$crate::registry::Weaver,
                $($cparam : $cty),*
            ) -> $crate::error::WeaveResult<Self> {
                let handle = weaver.construct::<$Class>($crate::args![$($cparam),*])?;
                Ok(Self { handle })
            }

            /// Wrap an object id.
            pub fn from_id(
                weaver: &$crate::registry::Weaver,
                id: $crate::object::ObjId,
            ) -> Self {
                Self { handle: $crate::object::Handle::from_id(weaver, id) }
            }

            /// The underlying handle.
            pub fn handle(&self) -> &$crate::object::Handle<$Class> {
                &self.handle
            }

            /// The target object id.
            pub fn id(&self) -> $crate::object::ObjId {
                self.handle.id()
            }

            $(
                /// Woven method call (join point).
                #[allow(clippy::too_many_arguments, unused_parens)]
                pub fn $method(&self $(, $param : $pty)*) -> $crate::error::WeaveResult<($($rty)?)> {
                    let __ret = self.handle.call(stringify!($method), $crate::args![$($param),*])?;
                    #[allow(unused_parens)]
                    $crate::value::downcast_ret::<($($rty)?)>(__ret)
                }
            )*
        }

        impl ::std::fmt::Debug for $Proxy {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}({})", stringify!($Proxy), self.handle.id())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::value::downcast_ret;

    struct Counter {
        n: i64,
        step: i64,
    }

    crate::weaveable! {
        class Counter as CounterProxy {
            fn new(start: i64, step: i64) -> Self {
                Counter { n: start, step }
            }
            fn bump(&mut self) {
                self.n += self.step;
            }
            fn add(&mut self, extra: i64) -> i64 {
                self.n += extra;
                self.n
            }
            fn value(&mut self) -> i64 {
                self.n
            }
        }
    }

    #[test]
    fn sequential_use_without_weaver() {
        let mut c = Counter::new(10, 2);
        c.bump();
        assert_eq!(c.add(3), 15);
        assert_eq!(c.value(), 15);
    }

    #[test]
    fn weaveable_impl_is_generated() {
        assert_eq!(Counter::CLASS, "Counter");
        assert_eq!(Counter::methods(), &["bump", "add", "value"]);
        let mut c = Counter::construct(crate::args![5i64, 1i64]).unwrap();
        let ret = c.dispatch("add", crate::args![2i64]).unwrap();
        assert_eq!(downcast_ret::<i64>(ret).unwrap(), 7);
        assert!(c.dispatch("nope", crate::args![]).is_err());
    }

    #[test]
    fn proxy_roundtrip() {
        let weaver = Weaver::new();
        let p = CounterProxy::construct(&weaver, 100, 10).unwrap();
        p.bump().unwrap();
        assert_eq!(p.add(1).unwrap(), 111);
        assert_eq!(p.value().unwrap(), 111);
        assert_eq!(format!("{p:?}"), format!("CounterProxy({})", p.id()));
    }

    #[test]
    fn proxy_calls_are_join_points() {
        let weaver = Weaver::new();
        let blocked = Aspect::named("Block")
            .around(Pointcut::call("Counter.bump"), |_inv: &mut Invocation| Ok(crate::ret!()))
            .build();
        weaver.plug(blocked);
        let p = CounterProxy::construct(&weaver, 0, 1).unwrap();
        p.bump().unwrap(); // suppressed by advice
        assert_eq!(p.value().unwrap(), 0);
    }

    #[test]
    fn sizers_use_bytesize() {
        let a = crate::args![3i64];
        assert_eq!(Counter::arg_bytes("add", &a), 8);
        let ctor = crate::args![1i64, 2i64];
        assert_eq!(Counter::arg_bytes("new", &ctor), 16);
        assert_eq!(Counter::arg_bytes("value", &crate::args![]), 0);
        let ret: AnyValue = AnyValue::new(42i64);
        assert_eq!(Counter::ret_bytes("add", &ret), 8);
        assert_eq!(Counter::ret_bytes("bump", &ret), 0);
        assert_eq!(Counter::ret_bytes("unknown", &ret), 0);
    }

    #[test]
    fn from_id_names_the_same_object() {
        let weaver = Weaver::new();
        let p = CounterProxy::construct(&weaver, 1, 1).unwrap();
        let q = CounterProxy::from_id(&weaver, p.id());
        assert_eq!(q.handle().id(), p.id());
        q.bump().unwrap();
        assert_eq!(p.value().unwrap(), 2);
    }
}
