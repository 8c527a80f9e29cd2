//! The campaign documents' JSON writer: values, `(key, value)` pairs and
//! objects, in the field order the caller lists.

use simty::obs::{json_f64, json_string, QuantileSummary};
use simty::sim::json::report_to_json;
use simty::sim::SimReport;

/// A value's form in a campaign document.
pub(crate) trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> String;
}

/// Implements [`ToJson`] for each type through the function given.
macro_rules! json_via {
    ($($t:ty => $f:expr),+ $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                ($f)(self)
            }
        }
    )+};
}
json_via!(
    u64 => u64::to_string,
    usize => usize::to_string,
    bool => bool::to_string,
    f64 => |v: &f64| json_f64(*v),
    str => json_string,
    String => |s: &String| json_string(s),
    SimReport => report_to_json,
    QuantileSummary => QuantileSummary::to_json,
);

/// `null`, or the value.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        self.as_ref().map_or_else(|| "null".to_owned(), T::to_json)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> String {
        T::to_json(self)
    }
}

/// `json_pairs!(value; a, b)`: the named fields of `value` (an `Option`
/// of a reference) as `(key, JSON value)` pairs, in the listed order;
/// every one is `null` when `value` is `None`.
macro_rules! json_pairs {
    ($v:expr; $($f:ident),+ $(,)?) => {{
        let v = $v;
        vec![$((
            stringify!($f),
            v.map_or_else(|| "null".to_owned(), |v| $crate::json::ToJson::to_json(&v.$f)),
        )),+]
    }};
}
pub(crate) use json_pairs;

/// Renders `(key, JSON value)` pairs, in order, as a JSON object.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}:{value}", json_string(key)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders values, in order, as a JSON array.
pub(crate) fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}
