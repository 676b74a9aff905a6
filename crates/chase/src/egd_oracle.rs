//! The egd step as it was before in-place substitution, kept as the
//! reference the streaming, in-place step is property-tested against:
//! one merge per full re-match, each materializing every premise match
//! and rebuilding the whole instance.
//!
//! [`with_oracle`] routes every egd step taken on the calling thread
//! through [`chase_one_egd`], so whole exchanges and
//! `enforce_egds_with` runs can be compared literally with the real
//! step: same tuples, same null labels, same merge count, same error.

use crate::chase::term_value;
use crate::error::ChaseError;
use dex_logic::eval::{match_conjunction_mode, MatchMode};
use dex_relational::{Instance, NullId, Value};
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Is the oracle taking this thread's egd steps?
pub(crate) fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Run `f` with every egd step on this thread taken by the oracle.
pub(crate) fn with_oracle<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
        }
    }
    ACTIVE.with(|a| a.set(true));
    let _reset = Reset;
    f()
}

/// A copy of `inst` with `subst` applied to every tuple of every
/// relation: the whole-instance rebuild.
fn substitute_rebuild(inst: &Instance, subst: &BTreeMap<NullId, Value>) -> Instance {
    let mut out = Instance::empty(inst.schema().clone());
    for (rel, t) in inst.facts() {
        out.insert(rel.as_str(), t.substitute_nulls(subst))
            .expect("a substituted tuple keeps its relation's arity");
    }
    out
}

/// Chase one egd to its local fixpoint the old way. Returns the new
/// instance and the number of merges applied.
pub(crate) fn chase_one_egd(
    egd: &dex_logic::Egd,
    target: &Instance,
    mode: MatchMode,
) -> Result<(Instance, usize), ChaseError> {
    let mut target = target.clone();
    let mut merges = 0usize;
    loop {
        let mut subst: BTreeMap<NullId, Value> = BTreeMap::new();
        'find: for m in match_conjunction_mode(&egd.lhs, &target, mode) {
            for (a, b) in &egd.equalities {
                let va = term_value(a, &m, egd)?;
                let vb = term_value(b, &m, egd)?;
                if va == vb {
                    continue;
                }
                match (&va, &vb) {
                    (Value::Null(n), _) => {
                        subst.insert(*n, vb.clone());
                    }
                    (_, Value::Null(n)) => {
                        subst.insert(*n, va.clone());
                    }
                    _ => {
                        return Err(ChaseError::EgdFailure {
                            egd: egd.to_string(),
                            left: va.to_string(),
                            right: vb.to_string(),
                        });
                    }
                }
                break 'find; // apply one merge at a time
            }
        }
        if subst.is_empty() {
            return Ok((target, merges));
        }
        target = substitute_rebuild(&target, &subst);
        merges += 1;
    }
}

mod props {
    use super::with_oracle;
    use crate::chase::{enforce_egds_with, exchange_with, ChaseOptions, ChaseVariant, Matcher};
    use crate::error::ChaseError;
    use dex_logic::{parse_mapping, Atom, Egd, Mapping, Term};
    use dex_relational::{Instance, Tuple, Value};
    use proptest::prelude::*;

    /// `m` with its egds replaced by `egds`.
    fn with_egds(m: &Mapping, egds: Vec<Egd>) -> Mapping {
        Mapping::with_target_deps(
            m.source().clone(),
            m.target().clone(),
            m.st_tgds().to_vec(),
            m.target_tgds().to_vec(),
            egds,
        )
        .unwrap()
    }

    /// Parse `text` and append `extra` egds to its key egds.
    fn mapping(text: &str, extra: Vec<Egd>) -> Mapping {
        let m = parse_mapping(text).unwrap();
        let mut egds = m.target_egds().to_vec();
        egds.extend(extra);
        with_egds(&m, egds)
    }

    /// The generated mapping shapes, each with egds:
    /// 0. many invented nulls in one key group, next to a null-free
    ///    side relation that the generator makes large;
    /// 1. a composite key (which merges under the oblivious chase, where
    ///    both tgds give each key its own null) plus a cross-relation
    ///    `x = y` egd, with a target tgd carrying merged nulls into
    ///    another relation;
    /// 2. a constant egd `x = 'c'` guarded by a flag relation;
    /// 3. a key over a column that also receives source constants, so
    ///    generated sources hit constant clashes, sometimes only after
    ///    a merge has turned a null into a constant.
    fn shapes() -> Vec<Mapping> {
        let v = Term::var;
        vec![
            mapping(
                r#"
                source E(k, v);
                source S(a, b);
                target T(k, n);
                target Side(a, b);
                key T(k);
                E(k, v) -> T(k, n);
                S(a, b) -> Side(a, b);
                "#,
                vec![],
            ),
            mapping(
                r#"
                source E(a, b);
                target T(a, b, n);
                target U(a, m);
                target P(n);
                key T(a, b);
                E(a, b) -> T(a, b, n) & U(a, m);
                E(a, b) -> T(a, b, n);
                T(a, b, n) -> P(n);
                "#,
                vec![Egd::new(
                    vec![
                        Atom::vars("T", &["a", "b", "n"]),
                        Atom::vars("U", &["a", "m"]),
                    ],
                    vec![(v("n"), v("m"))],
                )],
            ),
            mapping(
                r#"
                source E(a, b);
                source F(a, b);
                target T(a, n);
                target Flag(a);
                key T(a);
                E(a, b) -> T(a, n);
                F(a, b) -> Flag(a);
                "#,
                vec![Egd::new(
                    vec![Atom::vars("T", &["x", "n"]), Atom::vars("Flag", &["x"])],
                    vec![(v("n"), Term::cnst("c"))],
                )],
            ),
            mapping(
                r#"
                source E(a, b);
                source F(a, b);
                target T(a, n);
                target Flag(a);
                key T(a);
                E(a, b) -> T(a, n);
                F(a, b) -> T(a, b) & Flag(a);
                "#,
                vec![Egd::new(
                    vec![Atom::vars("T", &["x", "n"]), Atom::vars("Flag", &["x"])],
                    vec![(v("n"), Term::cnst("w1"))],
                )],
            ),
        ]
    }

    /// Fill every source relation from the generated pairs; `S` (the
    /// null-free side relation's source) gets `side` rows per pair.
    fn populate(m: &Mapping, rows: &[(u8, u8)], side: usize) -> Instance {
        let mut inst = Instance::empty(m.source().clone());
        for rel in m.source().relations() {
            let name = rel.name().as_str();
            for (i, &(a, b)) in rows.iter().enumerate() {
                let copies = if name == "S" { side } else { 1 };
                for c in 0..copies {
                    let t = if name == "S" {
                        Tuple::new(vec![Value::str(format!("s{i}_{c}")), Value::int(b.into())])
                    } else {
                        Tuple::new(vec![
                            Value::str(format!("v{a}")),
                            Value::str(format!("w{b}")),
                        ])
                    };
                    inst.insert(name, t).unwrap();
                }
            }
        }
        inst
    }

    fn error_text<T>(r: &Result<T, ChaseError>) -> Option<String> {
        r.as_ref().err().map(ToString::to_string)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exchanges and standalone egd enforcement with the streaming,
        /// in-place egd step are literally equal to the whole-rebuild
        /// oracle: same tuples and null labels, same merge and firing
        /// counts, same round shape, same error text.
        #[test]
        fn egd_step_literally_equals_rebuild_oracle(
            rows in proptest::collection::vec((0u8..3, 0u8..4), 0..10),
            side in 1usize..12,
        ) {
            for m in shapes() {
                let src = populate(&m, &rows, side);
                for (variant, matcher) in [
                    (ChaseVariant::Standard, Matcher::Indexed),
                    (ChaseVariant::Standard, Matcher::Scan),
                    (ChaseVariant::Oblivious, Matcher::Indexed),
                ] {
                    let opts = ChaseOptions { variant, matcher, threads: 1, ..Default::default() };
                    let new = exchange_with(&m, &src, opts);
                    let old = with_oracle(|| exchange_with(&m, &src, opts));
                    prop_assert_eq!(error_text(&new), error_text(&old), "for:\n{}", m);
                    if let (Ok(new), Ok(old)) = (&new, &old) {
                        prop_assert_eq!(&new.target, &old.target, "for:\n{}", m);
                        prop_assert_eq!(new.nulls_created, old.nulls_created);
                        prop_assert_eq!(new.firings, old.firings);
                        prop_assert_eq!(new.stats.st_firings, old.stats.st_firings);
                        prop_assert_eq!(new.stats.rounds, old.stats.rounds);
                        prop_assert_eq!(&new.stats.firings_per_round, &old.stats.firings_per_round);
                        prop_assert_eq!(&new.stats.delta_sizes, &old.stats.delta_sizes);
                    }
                }

                // The egd-free chase: the instance the egds are enforced over.
                let pre = exchange_with(&with_egds(&m, vec![]), &src, ChaseOptions::default())
                    .unwrap()
                    .target;
                let new = enforce_egds_with(&pre, m.target_egds());
                let old = with_oracle(|| enforce_egds_with(&pre, m.target_egds()));
                prop_assert_eq!(error_text(&new), error_text(&old), "for:\n{}", m);
                if let (Ok((new, ns)), Ok((old, os))) = (&new, &old) {
                    prop_assert_eq!(new, old, "for:\n{}", m);
                    prop_assert_eq!(ns.merges, os.merges);
                    prop_assert_eq!(ns.rounds, os.rounds);
                    prop_assert_eq!(ns.rewritten == 0, ns.merges == 0, "every merge rewrites a row");
                }
            }
        }
    }

    /// The generator reaches the outcomes the property is about: merges
    /// and constant clashes.
    #[test]
    fn shapes_cover_merges_and_clashes() {
        let rows = [(0u8, 1u8), (0, 2), (1, 1), (2, 3)];
        let mut merged = 0;
        let mut clashed = 0;
        for m in shapes() {
            match exchange_with(&m, &populate(&m, &rows, 3), ChaseOptions::default()) {
                Ok(r)
                    if r.firings
                        > r.stats.st_firings + r.stats.firings_per_round.iter().sum::<usize>() =>
                {
                    merged += 1
                }
                Ok(_) => {}
                Err(ChaseError::EgdFailure { .. }) => clashed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(merged >= 2, "merging shapes: {merged}");
        assert!(clashed >= 1, "clashing shapes: {clashed}");
    }
}
