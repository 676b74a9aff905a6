//! Database instances: one relation instance per relation of a schema.

use crate::error::RelationalError;
use crate::fd::FdViolation;
use crate::name::Name;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Constant, NullGen, NullId, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A database instance over a [`Schema`].
///
/// ```
/// use dex_relational::{tuple, Instance, RelSchema, Schema};
///
/// let schema = Schema::with_relations(vec![
///     RelSchema::untyped("Emp", vec!["name"]).unwrap(),
/// ]).unwrap();
/// let mut db = Instance::empty(schema);
/// db.insert("Emp", tuple!["Alice"]).unwrap();
/// assert!(db.contains("Emp", &tuple!["Alice"]));
/// assert_eq!(db.fact_count(), 1);
/// assert!(db.is_ground()); // no labeled nulls anywhere
/// ```
///
/// Every relation of the schema is always present (possibly empty), so
/// iteration order and printing are schema-determined and deterministic.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Instance {
    schema: Schema,
    relations: BTreeMap<Name, Relation>,
}

impl Instance {
    /// The empty instance of `schema`.
    pub fn empty(schema: Schema) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name().clone(), Relation::empty(r.clone())))
            .collect();
        Instance { schema, relations }
    }

    /// Build an instance and add the given facts.
    ///
    /// `facts` pairs a relation name with the tuples to insert, e.g.
    /// `[("Emp", vec![tuple!["Alice"], tuple!["Bob"]])]`.
    pub fn with_facts(
        schema: Schema,
        facts: Vec<(&str, Vec<Tuple>)>,
    ) -> Result<Self, RelationalError> {
        let mut inst = Instance::empty(schema);
        for (rel, tuples) in facts {
            inst.relations
                .get_mut(rel)
                .ok_or_else(|| RelationalError::UnknownRelation(Name::new(rel)))?
                .extend_validated(tuples)?;
        }
        Ok(inst)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The instance of relation `name`.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Like [`Instance::relation`] but returns a structured error.
    pub fn expect_relation(&self, name: &str) -> Result<&Relation, RelationalError> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationalError::UnknownRelation(Name::new(name)))
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Iterate over relation instances in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.values()
    }

    /// Insert a fact into relation `rel`.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool, RelationalError> {
        self.relations
            .get_mut(rel)
            .ok_or_else(|| RelationalError::UnknownRelation(Name::new(rel)))?
            .insert(t)
    }

    /// Insert a fact with delta logging (see
    /// [`Relation::insert_delta`]). Returns `true` if it was new.
    pub fn insert_delta(&mut self, rel: &str, t: Tuple) -> Result<bool, RelationalError> {
        self.relations
            .get_mut(rel)
            .ok_or_else(|| RelationalError::UnknownRelation(Name::new(rel)))?
            .insert_delta(t)
    }

    /// Drain every relation's delta log, returning the relations that
    /// had pending deltas (in name order) with their new tuples.
    pub fn drain_deltas(&mut self) -> Vec<(Name, Vec<Tuple>)> {
        self.relations
            .iter_mut()
            .filter(|(_, r)| r.delta_len() > 0)
            .map(|(n, r)| (n.clone(), r.drain_delta()))
            .collect()
    }

    /// Copy every relation's pending delta log without draining it —
    /// the relations that have pending deltas (in name order) with
    /// their new tuples. Used by chase checkpointing to hand the
    /// round's insertions to a WAL while leaving the semi-naive
    /// bookkeeping untouched.
    pub fn peek_deltas(&self) -> Vec<(Name, Vec<Tuple>)> {
        self.relations
            .iter()
            .filter(|(_, r)| r.delta_len() > 0)
            .map(|(n, r)| (n.clone(), r.peek_delta()))
            .collect()
    }

    /// Total number of undrained delta tuples across all relations.
    pub fn delta_len(&self) -> usize {
        self.relations.values().map(Relation::delta_len).sum()
    }

    /// Cumulative (index builds, index probes) summed over all
    /// relation instances.
    pub fn index_stats(&self) -> (u64, u64) {
        self.relations
            .values()
            .map(Relation::index_stats)
            .fold((0, 0), |(b, p), (rb, rp)| (b + rb, p + rp))
    }

    /// Remove a fact; `true` if it was present.
    pub fn remove(&mut self, rel: &str, t: &Tuple) -> Result<bool, RelationalError> {
        Ok(self
            .relations
            .get_mut(rel)
            .ok_or_else(|| RelationalError::UnknownRelation(Name::new(rel)))?
            .remove(t))
    }

    /// Membership test for a fact.
    pub fn contains(&self, rel: &str, t: &Tuple) -> bool {
        self.relations.get(rel).is_some_and(|r| r.contains(t))
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Is the instance entirely empty?
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Relation::is_empty)
    }

    /// Iterate over all facts as `(relation, tuple)` pairs. Tuples are
    /// materialized lazily from each relation's column arena.
    pub fn facts(&self) -> impl Iterator<Item = (&Name, Tuple)> + '_ {
        self.relations
            .iter()
            .flat_map(|(n, r)| r.iter().map(move |t| (n, t)))
    }

    /// Every null id occurring anywhere in the instance.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        let mut out = BTreeSet::new();
        for r in self.relations.values() {
            r.collect_nulls(&mut out);
        }
        out
    }

    /// Is the instance ground (no nulls, no Skolem terms)?
    pub fn is_ground(&self) -> bool {
        self.facts().all(|(_, t)| t.is_ground())
    }

    /// Every constant occurring in the instance (the active domain's
    /// ground part).
    pub fn constants(&self) -> BTreeSet<Constant> {
        fn visit(v: &Value, out: &mut BTreeSet<Constant>) {
            match v {
                Value::Const(c) => {
                    out.insert(c.clone());
                }
                Value::Null(_) => {}
                Value::Skolem(_, args) => args.iter().for_each(|a| visit(a, out)),
            }
        }
        let mut out = BTreeSet::new();
        for (_, t) in self.facts() {
            for v in t.iter() {
                visit(v, &mut out);
            }
        }
        out
    }

    /// A null generator fresh for this instance.
    pub fn null_gen(&self) -> NullGen {
        let start = self
            .nulls()
            .iter()
            .next_back()
            .map(|n| n.0 + 1)
            .unwrap_or(0);
        NullGen::starting_at(start)
    }

    /// Apply a null substitution across the instance, in place, and
    /// clear every delta log (see [`Relation::substitute_nulls_in_place`]).
    /// Only rows mentioning a substituted null are rewritten; relations
    /// without such rows, null-free ones included, are not scanned.
    /// Returns how many rows were rewritten.
    pub fn substitute_nulls_in_place(&mut self, subst: &BTreeMap<NullId, Value>) -> usize {
        self.relations
            .values_mut()
            .map(|r| r.substitute_nulls_in_place(subst))
            .sum()
    }

    /// All FD violations across all relations.
    pub fn fd_violations(&self) -> Vec<(Name, FdViolation)> {
        self.relations
            .iter()
            .flat_map(|(n, r)| r.fd_violations().into_iter().map(move |v| (n.clone(), v)))
            .collect()
    }

    /// Does every relation satisfy its FDs?
    pub fn satisfies_fds(&self) -> bool {
        self.relations.values().all(Relation::satisfies_fds)
    }

    /// Is `self` a sub-instance of `other` (every fact of `self` in
    /// `other`)? Relations missing from `other` count as empty.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.facts().all(|(n, t)| other.contains(n.as_str(), &t))
    }

    /// Union of two instances over the same schema.
    pub fn union(&self, other: &Instance) -> Result<Instance, RelationalError> {
        if self.schema != other.schema {
            return Err(RelationalError::SchemaMismatch {
                context: "instance union over different schemas".into(),
            });
        }
        let mut out = self.clone();
        for (n, t) in other.facts() {
            out.insert(n.as_str(), t)?;
        }
        Ok(out)
    }

    /// Merge an instance over a *different* schema into a combined
    /// instance over the disjoint union of the two schemas. Used to stage
    /// source ∪ target for the chase.
    pub fn merge_disjoint(&self, other: &Instance) -> Result<Instance, RelationalError> {
        let schema = self.schema.disjoint_union(&other.schema)?;
        let mut out = Instance::empty(schema);
        for (n, t) in self.facts().chain(other.facts()) {
            out.insert(n.as_str(), t)?;
        }
        Ok(out)
    }

    /// Restrict the instance to the relations of `sub` (which must be a
    /// sub-schema). Facts in other relations are dropped.
    pub fn project_to_schema(&self, sub: &Schema) -> Result<Instance, RelationalError> {
        let mut out = Instance::empty(sub.clone());
        for rel in sub.relations() {
            let src = self.expect_relation(rel.name().as_str())?;
            for t in src.iter() {
                out.insert(rel.name().as_str(), t)?;
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, r) in &self.relations {
            if r.is_empty() {
                continue;
            }
            if !first {
                writeln!(f)?;
            }
            first = false;
            writeln!(f, "{n}:")?;
            for t in r.iter() {
                writeln!(f, "  {t}")?;
            }
        }
        if first {
            writeln!(f, "(empty instance)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::tuple;

    fn emp_schema() -> Schema {
        Schema::with_relations(vec![RelSchema::untyped("Emp", vec!["name"]).unwrap()]).unwrap()
    }

    fn mgr_schema() -> Schema {
        Schema::with_relations(vec![
            RelSchema::untyped("Manager", vec!["emp", "mgr"]).unwrap()
        ])
        .unwrap()
    }

    #[test]
    fn empty_instance_has_all_relations() {
        let i = Instance::empty(emp_schema());
        assert!(i.relation("Emp").is_some());
        assert!(i.is_empty());
        assert_eq!(i.fact_count(), 0);
    }

    #[test]
    fn with_facts_builder() {
        let i = Instance::with_facts(
            emp_schema(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        assert_eq!(i.fact_count(), 2);
        assert!(i.contains("Emp", &tuple!["Alice"]));
    }

    #[test]
    fn unknown_relation_errors() {
        let mut i = Instance::empty(emp_schema());
        assert!(matches!(
            i.insert("Nope", tuple!["x"]).unwrap_err(),
            RelationalError::UnknownRelation(_)
        ));
    }

    #[test]
    fn nulls_and_null_gen() {
        let mut i = Instance::empty(mgr_schema());
        i.insert(
            "Manager",
            Tuple::new(vec![Value::str("Alice"), Value::null(5)]),
        )
        .unwrap();
        assert_eq!(i.nulls(), BTreeSet::from([NullId(5)]));
        let mut g = i.null_gen();
        assert_eq!(g.fresh_id(), NullId(6));
        assert!(!i.is_ground());
    }

    #[test]
    fn constants_collects_ground_values() {
        let i = Instance::with_facts(
            mgr_schema(),
            vec![("Manager", vec![tuple!["Alice", "Bob"]])],
        )
        .unwrap();
        let cs = i.constants();
        assert!(cs.contains(&Constant::Str("Alice".into())));
        assert!(cs.contains(&Constant::Str("Bob".into())));
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn subinstance_ordering() {
        let small =
            Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let big = Instance::with_facts(
            emp_schema(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        assert!(small.is_subinstance_of(&big));
        assert!(!big.is_subinstance_of(&small));
    }

    #[test]
    fn union_same_schema() {
        let a = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let b = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Bob"]])]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
        // Union over different schemas is an error.
        let m = Instance::empty(mgr_schema());
        assert!(a.union(&m).is_err());
    }

    #[test]
    fn merge_disjoint_and_project_back() {
        let src = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let tgt = Instance::with_facts(
            mgr_schema(),
            vec![("Manager", vec![tuple!["Alice", "Bob"]])],
        )
        .unwrap();
        let merged = src.merge_disjoint(&tgt).unwrap();
        assert_eq!(merged.fact_count(), 2);
        let back = merged.project_to_schema(&emp_schema()).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn substitute_nulls_across_instance() {
        let mut i = Instance::empty(mgr_schema());
        i.insert(
            "Manager",
            Tuple::new(vec![Value::str("Alice"), Value::null(0)]),
        )
        .unwrap();
        let mut s = BTreeMap::new();
        s.insert(NullId(0), Value::str("Ted"));
        assert_eq!(i.substitute_nulls_in_place(&s), 1);
        assert!(i.contains("Manager", &tuple!["Alice", "Ted"]));
        assert!(i.is_ground());
        assert!(i.nulls().is_empty());
    }

    #[test]
    fn display_skips_empty_relations() {
        let i = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let s = i.to_string();
        assert!(s.contains("Emp:"));
        assert!(s.contains("(Alice)"));
    }

    #[test]
    fn serde_round_trip() {
        let i = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let js = serde_json::to_string(&i).unwrap();
        let back: Instance = serde_json::from_str(&js).unwrap();
        assert_eq!(back, i);
    }
}
