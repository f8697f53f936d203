//! A tiny JSON emitter for the harness artifacts.
//!
//! The artifacts under `results/` are plain rows-of-scalars; a full
//! serialization framework is not needed to emit them. [`ToJson`]
//! covers exactly the shapes the binaries write: scalars, strings,
//! options, vectors, small tuples, and the row structs in the crate
//! root. Strings are escaped by `obs::json::write_str`, the one JSON
//! string escaper in the workspace.

use std::fmt::Write as _;

use obs::json::write_str;

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a standalone JSON document.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Appends one `"key": value` object field (with leading comma unless
/// first) to `out`.
pub fn write_field<T: ToJson + ?Sized>(out: &mut String, first: &mut bool, key: &str, value: &T) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    write_str(out, key);
    out.push_str(": ");
    value.write_json(out);
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes a
            // decimal point or exponent, so the output stays a JSON
            // number distinguishable from an integer.
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null"); // JSON has no NaN/Infinity
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

macro_rules! tuple_to_json {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push_str(", "); }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    };
}
tuple_to_json!(A: 0, B: 1);
tuple_to_json!(A: 0, B: 1, C: 2);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings() {
        assert_eq!(true.to_json(), "true");
        assert_eq!(42u64.to_json(), "42");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(2.0f64.to_json(), "2.0");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
        assert_eq!("Det→Det".to_json(), "\"Det→Det\"");
    }

    #[test]
    fn containers() {
        assert_eq!(Option::<u64>::None.to_json(), "null");
        assert_eq!(Some(3usize).to_json(), "3");
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1, 2, 3]");
        assert_eq!(("x".to_owned(), 1u64, true).to_json(), r#"["x", 1, true]"#);
    }

    #[test]
    fn object_fields() {
        let mut s = String::new();
        let mut first = true;
        s.push('{');
        write_field(&mut s, &mut first, "a", &1u64);
        write_field(&mut s, &mut first, "b", "two");
        s.push('}');
        assert_eq!(s, r#"{"a": 1, "b": "two"}"#);
    }
}
