//! Response checks against the generator's closed-form expectations.
//!
//! Outputs are deterministic, so a response byte-identical to one
//! already verified for the same request needs no second parse:
//! [`Verifier`] remembers the hash of each request's first verified
//! response and re-parses only when the bytes differ (persisting
//! responses always differ, by their store path, and are small).

use crate::json::{self, J};
use crate::workload::{Expect, Op, OpKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// FNV-1a over the bytes: stable across runs and platforms, which the
/// determinism test relies on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Check one response in full.
pub fn check(op: &Op, status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        let head = String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned();
        return Err(format!("status {status}: {head}"));
    }
    let v = json::parse(body)?;
    if v.get("op").and_then(J::as_str) != Some(op.kind.endpoint()) {
        return Err("response `op` does not echo the endpoint".into());
    }
    if (op.kind == OpKind::Persist) != v.get("store").is_some_and(|s| s.as_str().is_some()) {
        return Err("`store` present exactly on persisting chases".into());
    }
    match &op.expect {
        Expect::Workers { rows, st_firings } => {
            let target = field(&v, "target")?;
            if target.keys() != ["Worker"] {
                return Err(format!("target relations {:?}", target.keys()));
            }
            let mut got = Vec::with_capacity(rows.len());
            for row in arr(target, "Worker")? {
                got.push(str_cells::<3>(row)?);
            }
            got.sort();
            if &got != rows {
                return Err(format!("Worker: {} rows differ from expected", got.len()));
            }
            if op.kind != OpKind::Exchange {
                let stats = field(&v, "stats")?;
                let fired = stats.get("st_firings").and_then(J::as_u64);
                let rounds = stats.get("rounds").and_then(J::as_u64);
                if fired != Some(*st_firings) || rounds != Some(0) {
                    return Err(format!("stats: st_firings {fired:?}, rounds {rounds:?}"));
                }
            }
            Ok(())
        }
        Expect::Org { depts } => check_org(&v, depts),
        Expect::Lint => match (v.get("errors").and_then(J::as_bool), v.get("diagnostics")) {
            (Some(false), Some(J::Arr(_))) => Ok(()),
            _ => Err("lint: expected `errors: false` and a diagnostics array".into()),
        },
        Expect::Explain => match v.get("plan") {
            Some(J::Obj(_)) => Ok(()),
            _ => Err("explain: no plan object".into()),
        },
    }
}

fn field<'a>(v: &'a J, key: &str) -> Result<&'a J, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn arr<'a>(v: &'a J, key: &str) -> Result<&'a [J], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn str_cells<const N: usize>(row: &J) -> Result<[String; N], String> {
    let cells = row
        .as_arr()
        .filter(|c| c.len() == N)
        .ok_or("bad row arity")?;
    let mut out: [String; N] = std::array::from_fn(|_| String::new());
    for (slot, cell) in out.iter_mut().zip(cells) {
        *slot = cell.as_str().ok_or("expected a string cell")?.to_string();
    }
    Ok(out)
}

fn check_org(v: &J, depts: &[(String, Vec<String>)]) -> Result<(), String> {
    let target = field(v, "target")?;
    if target.keys() != ["Colleague", "Office", "Worker"] {
        return Err(format!("target relations {:?}", target.keys()));
    }
    // Office: one row per department, each with its own null.
    let mut office: BTreeMap<&str, u64> = BTreeMap::new();
    for row in arr(target, "Office")? {
        match row.as_arr() {
            Some([J::Str(d), n]) => {
                let id = n.null_id().ok_or("Office.office is not a null")?;
                if office.insert(d, id).is_some() {
                    return Err(format!("two Office rows for `{d}`"));
                }
            }
            _ => return Err("bad Office row".into()),
        }
    }
    let distinct: BTreeSet<u64> = office.values().copied().collect();
    if office.len() != depts.len() || distinct.len() != depts.len() {
        return Err("Office: expected one distinct null per department".into());
    }
    // Worker: every employee, carrying its department's Office null.
    let mut dept_of: HashMap<&str, &str> = HashMap::new();
    for (d, names) in depts {
        for n in names {
            dept_of.insert(n, d);
        }
    }
    let workers = arr(target, "Worker")?;
    if workers.len() != dept_of.len() {
        return Err(format!(
            "Worker: {} rows, expected {}",
            workers.len(),
            dept_of.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for row in workers {
        let Some([J::Str(n), J::Str(d), o]) = row.as_arr() else {
            return Err("bad Worker row".into());
        };
        if dept_of.get(n.as_str()) != Some(&d.as_str()) || !seen.insert(n.as_str()) {
            return Err(format!("unexpected Worker row for `{n}`"));
        }
        if o.null_id().is_none() || o.null_id() != office.get(d.as_str()).copied() {
            return Err(format!(
                "Worker `{n}` does not share its department's Office null"
            ));
        }
    }
    // Colleague: exactly the ordered pairs within each department.
    let pairs = arr(target, "Colleague")?;
    let expected: usize = depts.iter().map(|(_, n)| n.len() * n.len()).sum();
    if pairs.len() != expected {
        return Err(format!(
            "Colleague: {} rows, expected {expected}",
            pairs.len()
        ));
    }
    let mut uniq = BTreeSet::new();
    for row in pairs {
        let [a, b] = str_cells::<2>(row)?;
        match (dept_of.get(a.as_str()), dept_of.get(b.as_str())) {
            (Some(x), Some(y)) if x == y => {}
            _ => return Err(format!("Colleague ({a}, {b}) crosses departments")),
        }
        uniq.insert((a, b));
    }
    if uniq.len() != expected {
        return Err("Colleague holds duplicate rows".into());
    }
    let rounds = field(v, "stats")?.get("rounds").and_then(J::as_u64);
    if rounds.unwrap_or(0) < 1 {
        return Err(format!(
            "expected at least one phase-2 round, got {rounds:?}"
        ));
    }
    Ok(())
}

/// Checks responses, parsing each request's output only until one
/// response has been verified in full.
#[derive(Default)]
pub struct Verifier {
    verified: HashMap<usize, u64>,
}

impl Verifier {
    /// Check the response to `ops[idx]`.
    pub fn verify(&mut self, idx: usize, op: &Op, status: u16, body: &[u8]) -> Result<(), String> {
        let h = fnv1a(body);
        if status == 200 && self.verified.get(&idx) == Some(&h) {
            return Ok(());
        }
        check(op, status, body)?;
        self.verified.insert(idx, h);
        Ok(())
    }
}
