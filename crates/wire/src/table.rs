//! The protocol as one table: each enum and record struct that crosses
//! the wire is declared once, through [`wire_enum!`](crate::wire_enum) or
//! [`wire_struct!`](crate::wire_struct), and everything else about its
//! wire form is generated from that declaration:
//!
//! * the type itself, with its docs and derives;
//! * its [`Wire`](crate::codec::Wire) impl — a tag byte, then each field
//!   through its own type's `Wire` impl, in declaration order;
//! * its tags: `CONTEXT` (the [`WireError::BadTag`] context string),
//!   `TAGS` (live, in declaration order) and `RETIRED`;
//! * `draw`, which builds any row from a [`Draw`] source, so property
//!   tests generate every variant from the same rows.
//!
//! Adding a message is one row plus its handler arm. Retiring one moves
//! its tag to `retired`: tags are never reused, because journals,
//! segment files and ref logs hold encoded values. A tag used twice, or
//! a live tag that is also retired, fails to compile.
//!
//! [`WireError::BadTag`]: crate::codec::WireError::BadTag

/// A source of values of type `T`: what a generated `draw` takes each
/// field from. Property tests implement it over their generators; no
/// other code does.
pub trait Draw<T> {
    /// The next value.
    fn draw(&mut self) -> T;
}

/// Declare a wire enum: one row per variant, `tag => Variant` followed
/// by its fields in braces (named) or parentheses (`name: Type`,
/// generating a tuple variant), or by nothing (unit). Decoding lists the
/// retired tags as match arms under `#[deny(unreachable_patterns)]`, so
/// a tag used twice does not compile:
///
/// ```compile_fail
/// bff_wire::wire_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Twice: "twice" {
///         0 => First,
///         0 => Second(n: u64),
///     }
/// }
/// ```
///
/// and neither does a live tag that reuses a retired one:
///
/// ```compile_fail
/// bff_wire::wire_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Reused: "reused" {
///         0 => First,
///         1 => Second { n: u64 },
///     }
///     retired [1]
/// }
/// ```
///
/// The same declaration with a fresh tag compiles:
///
/// ```
/// bff_wire::wire_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Fresh: "fresh" {
///         0 => First,
///         2 => Second { n: u64 },
///     }
///     retired [1]
/// }
/// assert_eq!(bff_wire::encode(&Fresh::Second { n: 300 }), [2, 0xac, 0x02]);
/// assert_eq!((Fresh::TAGS, Fresh::RETIRED), (&[0, 2][..], &[1][..]));
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $context:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $var:ident
                $( { $( $(#[$fmeta:meta])* $f:ident : $ft:ty ),* $(,)? } )?
                $( ( $( $t:ident : $tt:ty ),* $(,)? ) )?
            ),* $(,)?
        }
        $( retired [ $( $old:literal ),* $(,)? ] )?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $var $( { $( $(#[$fmeta])* $f: $ft ),* } )? $( ( $( $tt ),* ) )?,
            )*
        }

        impl $name {
            /// The context of the `BadTag` error that decoding an unknown
            /// tag of this type returns.
            pub const CONTEXT: &'static str = $context;
            /// Live tags, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),*];
            /// Tags of retired variants: never decoded, never reused.
            pub const RETIRED: &'static [u8] = &[$($($old),*)?];

            /// Build the variant with tag `tag`, each field drawn from
            /// `src` in declaration order.
            ///
            /// # Panics
            /// If `tag` is not in `TAGS`.
            #[allow(unused_variables)] // `src`, when every variant is a unit
            pub fn draw<S>(tag: u8, src: &mut S) -> Self
            where
                $($( $( S: $crate::table::Draw<$ft>, )* )? $( $( S: $crate::table::Draw<$tt>, )* )?)*
            {
                match tag {
                    $( $tag => Self::$var
                        $( { $( $f: <S as $crate::table::Draw<$ft>>::draw(src) ),* } )?
                        $( ( $( <S as $crate::table::Draw<$tt>>::draw(src) ),* ) )?, )*
                    _ => panic!("{} has no tag {}", $context, tag),
                }
            }
        }

        impl $crate::codec::Wire for $name {
            fn enc(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(
                        Self::$var $( { $( $f ),* } )? $( ( $( $t ),* ) )? => {
                            out.push($tag);
                            $( $( $crate::codec::Wire::enc($f, out); )* )?
                            $( $( $crate::codec::Wire::enc($t, out); )* )?
                        }
                    )*
                }
            }

            #[deny(unreachable_patterns)]
            fn dec(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::WireError> {
                match r.byte()? {
                    $(
                        $tag => ::core::result::Result::Ok(Self::$var
                            $( { $( $f: $crate::codec::Wire::dec(r)? ),* } )?
                            $( ( $( <$tt as $crate::codec::Wire>::dec(r)? ),* ) )?),
                    )*
                    $($( $old => ::core::result::Result::Err($crate::codec::WireError::BadTag($context, $old)), )*)?
                    t => ::core::result::Result::Err($crate::codec::WireError::BadTag($context, t)),
                }
            }
        }
    };
}

/// Declare a wire record struct: its named fields encode in declaration
/// order, each through its own type's `Wire` impl, with no tag.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $ft:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $f: $ft ),*
        }

        impl $name {
            /// Build a value, each field drawn from `src` in declaration
            /// order.
            pub fn draw<S>(src: &mut S) -> Self
            where
                $( S: $crate::table::Draw<$ft>, )*
            {
                Self { $( $f: <S as $crate::table::Draw<$ft>>::draw(src) ),* }
            }
        }

        impl $crate::codec::Wire for $name {
            fn enc(&self, out: &mut ::std::vec::Vec<u8>) {
                $( $crate::codec::Wire::enc(&self.$f, out); )*
            }

            fn dec(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::WireError> {
                ::core::result::Result::Ok(Self { $( $f: $crate::codec::Wire::dec(r)? ),* })
            }
        }
    };
}
