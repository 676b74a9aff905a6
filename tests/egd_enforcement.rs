//! Egd enforcement on the `org` mapping: the structure of its merged
//! solution, and guards on how much work the merging takes.
//!
//! The work guards count work instead of timing it: index probes made
//! while searching egd premises, plus rows rewritten by the merges'
//! null substitutions (`EgdStats::index_probes + EgdStats::rewritten`).
//! A merge has to cost what it touches, so a null-free relation the
//! egds never mention must not add work, and doubling the departments
//! at a fixed department size must not much more than double it.

use dex::chase::{enforce_egds_with, exchange, EgdStats};
use dex::logic::{parse_mapping, Mapping};
use dex::relational::{Instance, NullId, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Every employee gets an invented office null; `key Office(dept)`
/// folds each one into its department's; `key Worker(name)` never
/// fires; `Colleague` fans out to every ordered pair in a department.
const ORG: &str = "
source Emp(name, dept);
source Dept(dept);
target Worker(name, dept, office);
target Office(dept, office);
target Colleague(a, b);
key Worker(name);
key Office(dept);
Emp(n, d) -> Worker(n, d, o);
Dept(d) -> Office(d, o);
Worker(n, d, o) -> Office(d, o);
Worker(n, d, o) & Worker(m, d, p) -> Colleague(n, m);
";

fn org() -> Mapping {
    parse_mapping(ORG).unwrap()
}

/// `org` without its keys: chasing it leaves every office null unmerged.
fn org_without_keys() -> Mapping {
    let keyless: String = ORG
        .lines()
        .filter(|l| !l.starts_with("key "))
        .map(|l| format!("{l}\n"))
        .collect();
    parse_mapping(&keyless).unwrap()
}

/// `emps` employees spread round-robin over `depts` departments.
fn source(m: &Mapping, emps: usize, depts: usize) -> Instance {
    let mut src = Instance::empty(m.source().clone());
    for i in 0..emps {
        let t = Tuple::new(vec![
            Value::str(format!("e{i:04}")),
            Value::str(format!("d{}", i % depts)),
        ]);
        src.insert("Emp", t).unwrap();
    }
    for d in 0..depts {
        src.insert("Dept", Tuple::new(vec![Value::str(format!("d{d}"))]))
            .unwrap();
    }
    src
}

fn null_of(v: &Value) -> NullId {
    match v {
        Value::Null(n) => *n,
        other => panic!("expected a labeled null, found {other}"),
    }
}

/// The oracle structure of an `org` solution: one `Office` row per
/// department with its own null, every `Worker` carrying its
/// department's null, and `Colleague` holding exactly the ordered pairs
/// within each department (plus `extra_colleagues` unrelated rows).
fn check_org_structure(target: &Instance, emps: usize, depts: usize, extra_colleagues: usize) {
    let offices: BTreeMap<String, NullId> = target
        .relation("Office")
        .unwrap()
        .iter()
        .map(|t| (t[0].to_string(), null_of(&t[1])))
        .collect();
    assert_eq!(
        target.relation("Office").unwrap().len(),
        depts,
        "one Office row per department"
    );
    let distinct: BTreeSet<NullId> = offices.values().copied().collect();
    assert_eq!(distinct.len(), depts, "departments keep distinct nulls");

    let workers = target.relation("Worker").unwrap();
    assert_eq!(workers.len(), emps);
    for w in workers.iter() {
        assert_eq!(
            Some(&null_of(&w[2])),
            offices.get(&w[1].to_string()),
            "Worker {} shares its department's Office null",
            w[0]
        );
    }
    let per_dept = emps / depts;
    assert_eq!(
        target.relation("Colleague").unwrap().len(),
        depts * per_dept * per_dept + extra_colleagues
    );
}

#[test]
fn org_chase_merges_each_department_into_one_office() {
    let m = org();
    let res = exchange(&m, &source(&m, 100, 2)).unwrap();
    check_org_structure(&res.target, 100, 2, 0);
    assert_eq!(res.target.fact_count(), 5102);
    assert_eq!(res.nulls_created, 102);
    assert_eq!(res.stats.rounds, 1);
    assert_eq!(res.firings, 5302, "5,202 tgd firings plus 100 merges");
}

/// Enforce `org`'s keys over the keyless chase of `emps` × `depts`,
/// with `side` extra null-free `Colleague` rows the egds never mention.
fn egd_run(emps: usize, depts: usize, side: usize) -> EgdStats {
    let mut pre = exchange(&org_without_keys(), &source(&org(), emps, depts))
        .unwrap()
        .target;
    for i in 0..side {
        let t = Tuple::new(vec![
            Value::str(format!("x{i}")),
            Value::str(format!("y{i}")),
        ]);
        pre.insert("Colleague", t).unwrap();
    }
    let (enforced, stats) = enforce_egds_with(&pre, org().target_egds()).unwrap();
    check_org_structure(&enforced, emps, depts, side);
    assert_eq!(stats.merges, emps, "every worker's null merges once");
    stats
}

fn work(s: &EgdStats) -> u64 {
    s.index_probes + s.rewritten
}

#[test]
fn egd_work_ignores_null_free_relations() {
    let base = egd_run(100, 2, 0);
    // 5,000 Colleague rows become 50,000.
    let grown = egd_run(100, 2, 45_000);
    assert_eq!(work(&grown), work(&base), "{grown:?} vs {base:?}");
    assert_eq!(grown.rewritten, base.rewritten);
}

#[test]
fn egd_work_scales_with_the_departments() {
    let one = work(&egd_run(100, 2, 0));
    let two = work(&egd_run(200, 4, 0));
    assert!(
        two * 10 <= one * 25,
        "2× departments cost {two} units of egd work against {one} at 1×"
    );
}
