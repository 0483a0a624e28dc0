//! Thin helpers over the workspace's vendored JSON value tree.

pub use serde::value::Value as Json;

#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[must_use]
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[must_use]
pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

#[must_use]
pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::String(s) => Some(s),
        _ => None,
    }
}

#[must_use]
pub fn as_array(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Array(items) => Some(items),
        _ => None,
    }
}

/// The numbers in a JSON array; empty for anything else.
#[must_use]
pub fn numbers(value: Option<&Json>) -> Vec<f64> {
    value
        .and_then(as_array)
        .map(|items| items.iter().filter_map(as_f64).collect())
        .unwrap_or_default()
}

#[must_use]
pub fn fields(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Object(fields) => fields,
        _ => &[],
    }
}

/// Compact JSON text.
///
/// # Errors
///
/// Fails on a non-finite float.
pub fn to_string(value: &Json) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// # Errors
///
/// Fails on malformed JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}
