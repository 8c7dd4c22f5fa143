//! Reading JSON documents into the vendored `serde` value tree (the
//! stub parses into typed values only, so a pass-through type stands in
//! for "any document").

use serde::{Deserialize, Error, Value};

struct Document(Value);

impl Deserialize for Document {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Document(v.clone()))
    }
}

/// Parse any JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Document>(text).map(|d| d.0).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v =
            parse(r#"{"correct": true, "metrics": {"a_s": {"value": 1.5, "unit": "s"}}}"#).unwrap();
        assert!(v.field("correct").unwrap().as_bool().unwrap());
        let a = v.field("metrics").unwrap().field("a_s").unwrap();
        assert_eq!(a.field("value").unwrap().as_f64().unwrap(), 1.5);
        assert!(parse("{").is_err());
    }
}
