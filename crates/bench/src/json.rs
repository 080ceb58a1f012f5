//! The one JSON value the `BENCH_*.json` artifacts are written through.
//!
//! Keys keep their order, so artifacts diff cleanly between runs; output is
//! indented by two spaces; strings are escaped per RFC 8259; JSON has no NaN
//! or infinity, so a non-finite number is written as `null`.

use std::fmt::Write;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An exact count.
    Int(u64),
    /// A measurement, written with the shortest digits that read back to the
    /// same `f64`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `(key, value)` fields, in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// The value indented by two spaces per level, with a final newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// A duration is written in seconds.
impl From<Duration> for Json {
    fn from(d: Duration) -> Json {
        Json::Num(d.as_secs_f64())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Readers for the tests, which inspect the built value rather than its text.
#[cfg(test)]
impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Every object key anywhere in the tree.
    pub fn keys(&self) -> std::collections::BTreeSet<&str> {
        let mut keys = std::collections::BTreeSet::new();
        let mut stack = vec![self];
        while let Some(value) = stack.pop() {
            match value {
                Json::Arr(items) => stack.extend(items),
                Json::Obj(fields) => {
                    for (key, value) in fields {
                        keys.insert(key.as_str());
                        stack.push(value);
                    }
                }
                _ => {}
            }
        }
        keys
    }
}

/// `value["key"]`: the field, or a panic naming the missing key.
#[cfg(test)]
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no {key:?} field in {self:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_strings_null_for_non_finite_numbers_and_indented_nesting() {
        let value = Json::obj([
            ("quote \" backslash \\ bell \u{7}", "tab\tline\n".into()),
            (
                "counts",
                Json::Arr(vec![1u64.into(), Json::Null, true.into()]),
            ),
            ("nan", f64::NAN.into()),
            ("inf", f64::INFINITY.into()),
            ("half", 0.5.into()),
            ("none", Option::<u64>::None.into()),
            ("empty", Json::Obj(Vec::new())),
            (
                "nested",
                Json::obj([("seconds", Duration::from_millis(1500).into())]),
            ),
        ]);
        let expected = r#"{
  "quote \" backslash \\ bell \u0007": "tab\tline\n",
  "counts": [
    1,
    null,
    true
  ],
  "nan": null,
  "inf": null,
  "half": 0.5,
  "none": null,
  "empty": {},
  "nested": {
    "seconds": 1.5
  }
}
"#;
        assert_eq!(value.to_pretty(), expected);
    }
}
