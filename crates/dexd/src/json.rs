//! Instance ⇄ JSON conversion, shared by the HTTP surface and the
//! `dexcli` file format.
//!
//! The wire shape is an object of relation names to arrays of rows,
//! labeled nulls as `{"null": n}`, Skolem terms (output only) as
//! `{"skolem": f, "args": […]}`.

use dex_relational::{Instance, Schema, Tuple, Value};
use serde_json::{json, Map, Value as Json};

/// Build an instance over `schema` from its JSON object form. Errors
/// are client errors (unknown relation, arity mismatch, unsupported
/// value) phrased for a 400 response body.
pub fn instance_from_json(j: &Json, schema: &Schema) -> Result<Instance, String> {
    let obj = j
        .as_object()
        .ok_or_else(|| "expected a JSON object of relations".to_string())?;
    let mut inst = Instance::empty(schema.clone());
    for (rel, rows) in obj {
        let rows = rows
            .as_array()
            .ok_or_else(|| format!("`{rel}` must be an array of rows"))?;
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("rows of `{rel}` must be arrays"))?;
            let tuple: Tuple = cells
                .iter()
                .map(json_to_value)
                .collect::<Result<Vec<_>, _>>()?
                .into();
            inst.insert(rel, tuple).map_err(|e| e.to_string())?;
        }
    }
    Ok(inst)
}

/// Render an instance as its JSON object form (empty relations
/// omitted, mirroring the CLI).
pub fn instance_to_json(inst: &Instance) -> Json {
    let mut obj = Map::new();
    for rel in inst.relations() {
        if rel.is_empty() {
            continue;
        }
        let rows: Vec<Json> = rel.iter().map(|t| tuple_to_json(&t)).collect();
        obj.insert(rel.name().to_string(), Json::Array(rows));
    }
    Json::Object(obj)
}

/// Render one tuple as its JSON row: an array of cells.
pub fn tuple_to_json(t: &Tuple) -> Json {
    Json::Array(t.iter().map(value_to_json).collect())
}

fn json_to_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::String(s) => Ok(Value::str(s.clone())),
        Json::Number(n) => n
            .as_i64()
            .map(Value::int)
            .ok_or_else(|| format!("non-integer number {n}")),
        Json::Bool(b) => Ok(Value::bool(*b)),
        Json::Object(o) => {
            if let Some(id) = o.get("null").and_then(Json::as_u64) {
                return Ok(Value::null(id));
            }
            Err(format!("unsupported value {j}"))
        }
        other => Err(format!("unsupported value {other}")),
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Const(dex_relational::Constant::Int(i)) => json!(i),
        Value::Const(dex_relational::Constant::Str(s)) => json!(s),
        Value::Const(dex_relational::Constant::Bool(b)) => json!(b),
        Value::Null(n) => json!({ "null": n.0 }),
        Value::Skolem(f, args) => json!({
            "skolem": f.as_str(),
            "args": args.iter().map(value_to_json).collect::<Vec<_>>(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping;

    #[test]
    fn instance_round_trips_through_json() {
        let m = parse_mapping("source Emp(name, dept);\ntarget T(a);\nEmp(x, d) -> T(x);").unwrap();
        let j = json!({"Emp": json!([json!(["ann", "eng"]), json!(["bob", "ops"])])});
        let inst = instance_from_json(&j, m.source()).unwrap();
        assert_eq!(inst.fact_count(), 2);
        assert_eq!(instance_to_json(&inst), j);
    }

    #[test]
    fn bad_shapes_are_client_errors() {
        let m = parse_mapping("source Emp(name);\ntarget T(a);\nEmp(x) -> T(x);").unwrap();
        for bad in [
            json!([1, 2]),
            json!({"Emp": "nope"}),
            json!({"Emp": json!([json!([1.5])])}),
            json!({"Nope": json!([json!(["x"])])}),
        ] {
            assert!(instance_from_json(&bad, m.source()).is_err(), "{bad}");
        }
    }
}
