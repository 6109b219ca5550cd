//! The workspace's JSON: one writer, one strict parser, two traits and
//! the macros that implement them.
//!
//! Everything the repository persists or re-reads as JSON goes through
//! this module — the JSONL trace schema ([`crate::TraceRecord`], whose
//! line format is documented on the type), the `args` payloads of the
//! Chrome exports and every `results/*.json` figure document — so there
//! is no registry dependency and exactly one statement of each format.
//!
//! * **Writing.** [`ToJson`] appends to a [`Writer`], compact
//!   ([`to_string`]) or 2-space pretty ([`to_string_pretty`]). Integers
//!   are exact; a finite `f64` is its shortest round-trip form with a
//!   `.0` on integral values (`1.0`, `1e21`, `-0.0`), a non-finite one is
//!   `null`.
//! * **Reading.** [`from_str`] is strict, because trace files arrive
//!   from outside the program: one value and nothing after it, no
//!   duplicate keys, no lone surrogate escapes, no number an `f64` cannot
//!   hold, containers nested at most [`MAX_DEPTH`] deep — every rejection
//!   a typed [`Error`], never a panic. [`FromJson`] then demands the
//!   exact shape: [`Fields`] reports a missing field, a leftover
//!   (unknown) field, a float where a `u64` belongs.
//! * **Macros.** [`json_struct!`](crate::json_struct) wraps a struct
//!   definition and adds [`ToJson`] with the fields in declaration order.
//!   The crate-internal `json_enum!` wraps an enum definition and
//!   generates its one `snake_case` name table (`name`, `from_name`) plus
//!   both traits: a unit enum is its name as a string, an enum of struct
//!   variants is an object tagged `"type"`.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Write as _;

/// Deepest container nesting [`from_str`] accepts.
pub const MAX_DEPTH: usize = 32;

/// Why a text was rejected by [`from_str`].
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Not one well-formed JSON value: what is wrong, at which byte.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the parser expected or refused there.
        what: &'static str,
    },
    /// Containers nested deeper than [`MAX_DEPTH`], at this byte.
    TooDeep(usize),
    /// A number whose magnitude no `f64` holds (`1e999`), at this byte.
    NumberOutOfRange(usize),
    /// An object spelled the same key twice.
    DuplicateKey(String),
    /// A field the target type does not have.
    UnknownField(String),
    /// A field the target type needs and the object lacks.
    MissingField(&'static str),
    /// A string outside the closed name table of the enum `of`.
    UnknownName {
        /// The enum whose table was consulted.
        of: &'static str,
        /// The string that is not in it.
        got: String,
    },
    /// A value of the wrong JSON type or range for its target.
    Expected(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Syntax { at, what } => write!(f, "{what} at byte {at}"),
            Error::TooDeep(at) => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            Error::NumberOutOfRange(at) => write!(f, "number out of f64 range at byte {at}"),
            Error::DuplicateKey(k) => write!(f, "duplicate key `{k}`"),
            Error::UnknownField(k) => write!(f, "unknown field `{k}`"),
            Error::MissingField(k) => write!(f, "missing field `{k}`"),
            Error::UnknownName { of, got } => write!(f, "`{got}` is not a known {of}"),
            Error::Expected(want) => write!(f, "expected {want}"),
        }
    }
}

impl std::error::Error for Error {}

/// A parsed JSON value, as handed to [`FromJson`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact.
    U64(u64),
    /// Any other (finite) number.
    F64(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are unique.
    Obj(BTreeMap<String, Value>),
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &'static str) -> Result<T, Error> {
        Err(Error::Syntax { at: self.at, what })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes `c` (after whitespace) if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(c);
        self.at += usize::from(hit);
        hit
    }

    /// After an opening bracket: `item (, item)*` up to and including
    /// the closing bracket `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.at += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return self.err("expected `,` or the closing bracket");
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(Error::TooDeep(self.at)),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return p.err("expected `:`");
                    }
                    let v = p.value(depth + 1)?;
                    match map.entry(key) {
                        Entry::Occupied(e) => return Err(Error::DuplicateKey(e.key().clone())),
                        Entry::Vacant(e) => e.insert(v),
                    };
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value(depth + 1).map(|v| items.push(v)))?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, v) in
                    [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
                {
                    if self.text[self.at..].starts_with(word) {
                        self.at += word.len();
                        return Ok(v);
                    }
                }
                self.err("expected a value")
            }
        }
    }

    fn digits(&mut self) -> Result<(), Error> {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == start {
            return self.err("expected a digit");
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        self.at += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.at += 1; // a leading zero stands alone
        } else {
            self.digits()?;
        }
        let mut integral = self.peek() != Some(b'.');
        if !integral {
            self.at += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            self.at += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        let token = &self.text[start..self.at];
        if let (true, Ok(n)) = (integral, token.parse::<u64>()) {
            return Ok(Value::U64(n));
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(Error::NumberOutOfRange(start)),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self.text.get(self.at..self.at + 4).and_then(|h| u32::from_str_radix(h, 16).ok());
        match code {
            // `from_str_radix` tolerates a sign; JSON does not.
            Some(c) if self.peek() != Some(b'+') => {
                self.at += 4;
                Ok(c)
            }
            _ => self.err("expected four hex digits"),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        if self.peek() != Some(b'"') {
            return self.err("expected a string");
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.at += 1,
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
            let esc = self.peek();
            self.at += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.text[self.at..].starts_with("\\u") {
                        self.at += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return self.err("lone surrogate escape");
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    match char::from_u32(code) {
                        Some(c) => c,
                        None => return self.err("lone surrogate escape"),
                    }
                }
                _ => {
                    self.at -= 1;
                    return self.err("unknown escape");
                }
            });
        }
    }
}

/// Parses exactly one JSON value and decodes it as a `T`.
///
/// # Errors
///
/// Returns the [`Error`] naming the first thing wrong with `text`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    let mut p = Parser { text, at: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != text.len() {
        return p.err("trailing bytes after the value");
    }
    T::from_json(v)
}

/// Types decodable from a parsed [`Value`].
pub trait FromJson: Sized {
    /// Decodes `v`, rejecting any shape but the type's own.
    ///
    /// # Errors
    ///
    /// Returns the [`Error`] describing the mismatch.
    fn from_json(v: Value) -> Result<Self, Error>;

    /// The value of an absent object field: an error, except for `Option`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingField`] unless the type has a default.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::MissingField(field))
    }
}

macro_rules! from_value {
    ($($t:ty: $want:literal, $($pat:pat => $out:expr),+;)*) => {$(
        impl FromJson for $t {
            fn from_json(v: Value) -> Result<Self, Error> {
                match v {
                    $($pat => Ok($out),)+
                    _ => Err(Error::Expected($want)),
                }
            }
        }
    )*};
}
from_value! {
    u64: "an unsigned integer", Value::U64(n) => n;
    f64: "a number", Value::F64(x) => x, Value::U64(n) => n as f64;
    bool: "a boolean", Value::Bool(b) => b;
    String: "a string", Value::Str(s) => s;
}

impl FromJson for u32 {
    fn from_json(v: Value) -> Result<Self, Error> {
        u64::from_json(v)?.try_into().map_err(|_| Error::Expected("an integer below 2^32"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn missing(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.into_iter().map(T::from_json).collect(),
            _ => Err(Error::Expected("an array")),
        }
    }
}

/// The fields of one JSON object, consumed by name; whatever is left at
/// [`Fields::finish`] is an unknown field.
#[derive(Debug)]
pub struct Fields(BTreeMap<String, Value>);

impl Fields {
    /// Opens `v`, which must be an object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Expected`] for any other value.
    pub fn of(v: Value) -> Result<Self, Error> {
        match v {
            Value::Obj(map) => Ok(Fields(map)),
            _ => Err(Error::Expected("an object")),
        }
    }

    /// Removes and decodes the field `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingField`] when absent (unless `T` is an
    /// `Option`), or the field's own decoding error.
    pub fn take<T: FromJson>(&mut self, name: &'static str) -> Result<T, Error> {
        match self.0.remove(name) {
            Some(v) => T::from_json(v),
            None => T::missing(name),
        }
    }

    /// Ends decoding.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] naming a field nobody took.
    pub fn finish(mut self) -> Result<(), Error> {
        match self.0.pop_first() {
            Some((k, _)) => Err(Error::UnknownField(k)),
            None => Ok(()),
        }
    }
}

/// The output side: tracks commas, and in pretty mode the indentation.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
}

impl Writer {
    /// Starts the next array element (or, via [`Writer::key`], member):
    /// a comma unless it is the container's first, then the line break.
    pub fn element(&mut self) {
        if !self.out.ends_with(['[', '{']) {
            self.out.push(',');
        }
        self.line();
    }

    fn line(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth));
        }
    }

    /// Starts an object member: separator, quoted `name`, colon.
    pub fn key(&mut self, name: &str) {
        self.element();
        self.string(name);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Opens an array (`'['`) or object (`'{'`).
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Closes the innermost container with its matching `bracket`.
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.out.ends_with(['[', '{']) {
            self.line();
        }
        self.out.push(bracket);
    }

    /// Writes a string value, escaping quotes, backslashes and controls.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes a pre-rendered scalar token (a number, `true`, `null`).
    fn token(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = self.out.write_fmt(args);
    }
}

/// Types that write themselves as JSON.
pub trait ToJson {
    /// Appends this value to `w`.
    fn write_json(&self, w: &mut Writer);
}

fn render<T: ToJson + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer { out: String::new(), pretty, depth: 0 };
    value.write_json(&mut w);
    w.out
}

/// `value` as compact JSON (no whitespace).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    render(value, false)
}

/// `value` as JSON indented by two spaces per level.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    render(value, true)
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.token(format_args!("{self}"));
            }
        }
    )*};
}
display_to_json!(u32, u64, usize, i64, bool);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            // `{:?}` is the shortest text that parses back to these bits,
            // and always carries a `.0` or an exponent.
            w.token(format_args!("{self:?}"));
        } else {
            w.token(format_args!("null"));
        }
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.token(format_args!("null")),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.open('[');
        for item in self {
            w.element();
            item.write_json(w);
        }
        w.close(']');
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut Writer) {
        w.open('{');
        for (k, v) in self {
            w.key(k);
            v.write_json(w);
        }
        w.close('}');
    }
}

macro_rules! tuple_to_json {
    ($($n:tt $t:ident),*) => {
        impl<$($t: ToJson),*> ToJson for ($($t,)*) {
            fn write_json(&self, w: &mut Writer) {
                w.open('[');
                $(w.element(); self.$n.write_json(w);)*
                w.close(']');
            }
        }
    };
}
tuple_to_json!(0 A, 1 B);
tuple_to_json!(0 A, 1 B, 2 C);
tuple_to_json!(0 A, 1 B, 2 C, 3 D, 4 E, 5 F);

/// Wraps a struct definition and implements [`ToJson`](crate::json::ToJson)
/// for it: an object with every field, in declaration order, under the
/// field's own name.
#[macro_export]
macro_rules! json_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty),* }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.open('{');
                $(w.key(stringify!($field)); $crate::json::ToJson::write_json(&self.$field, w);)*
                w.close('}');
            }
        }
    };
}

/// `snake_case` of an `UpperCamelCase` ASCII identifier, at compile
/// time: the bytes, zero-padded, and how many of them count.
#[doc(hidden)]
pub const fn snake(camel: &str) -> ([u8; 48], usize) {
    let (b, mut out, mut i, mut o) = (camel.as_bytes(), [0u8; 48], 0, 0);
    while i < b.len() {
        if i > 0 && b[i].is_ascii_uppercase() {
            out[o] = b'_';
            o += 1;
        }
        out[o] = b[i].to_ascii_lowercase();
        o += 1;
        i += 1;
    }
    (out, o)
}

/// The `snake_case` name of a variant identifier, as a `&'static str`.
macro_rules! snake_name {
    ($var:ident) => {{
        const SNAKE: ([u8; 48], usize) = $crate::json::snake(stringify!($var));
        const NAME: &str = match std::str::from_utf8(SNAKE.0.split_at(SNAKE.1).0) {
            Ok(name) => name,
            Err(_) => panic!("variant identifiers are ASCII"),
        };
        NAME
    }};
}

/// Wraps an enum definition and generates its single name table —
/// `name()` is snake_case of the variant identifier — with the JSON
/// traits reading it. First arm: a unit enum, written and read as its
/// name. Second arm: an enum of struct variants, written as an object
/// whose `"type"` member is the name, followed by the variant's fields
/// in declaration order; it is read as part of an enclosing record
/// (`take_members`).
macro_rules! json_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $var:ident),* $(,)?
    }) => {
        $(#[$meta])* $vis enum $name { $($(#[$vmeta])* $var),* }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$var),*];

            /// Stable snake_case name of the variant: its serialized form.
            pub fn name(&self) -> &'static str {
                match self { $($name::$var => snake_name!($var)),* }
            }

            /// The variant called `name`, if any.
            pub fn from_name(name: &str) -> Option<Self> {
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.string(self.name());
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: $crate::json::Value) -> Result<Self, $crate::json::Error> {
                let got = <String as $crate::json::FromJson>::from_json(v)?;
                Self::from_name(&got)
                    .ok_or($crate::json::Error::UnknownName { of: stringify!($name), got })
            }
        }
    };
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $var:ident {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
        }),* $(,)?
    }) => {
        $(#[$meta])* $vis enum $name {
            $($(#[$vmeta])* $var { $($(#[$fmeta])* $field: $ty),* }),*
        }

        impl $name {
            /// The name of every variant, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(snake_name!($var)),*];

            /// Stable snake_case name of the variant: its `"type"` tag.
            pub fn name(&self) -> &'static str {
                match self { $($name::$var { .. } => snake_name!($var)),* }
            }

            /// Writes `"type"` and the variant's fields as members of the
            /// object the caller has open.
            pub(crate) fn write_members(&self, w: &mut $crate::json::Writer) {
                w.key("type");
                w.string(self.name());
                match self {
                    $($name::$var { $($field),* } => {
                        $(w.key(stringify!($field)); $crate::json::ToJson::write_json($field, w);)*
                    })*
                }
            }

            /// Takes `"type"` and that variant's fields out of `fields`.
            pub(crate) fn take_members(
                fields: &mut $crate::json::Fields,
            ) -> Result<Self, $crate::json::Error> {
                let got: String = fields.take("type")?;
                $(if got == snake_name!($var) {
                    return Ok($name::$var { $($field: fields.take(stringify!($field))?),* });
                })*
                Err($crate::json::Error::UnknownName { of: stringify!($name), got })
            }
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.open('{');
                self.write_members(w);
                w.close('}');
            }
        }

    };
}
