//! Query interface: SPARQL endpoint plus canned provenance queries.
//!
//! The paper answers every provenance need with a few SPARQL statements
//! (Table 5). This engine embeds the `provio-sparql` evaluator and adds the
//! backward-lineage derivation DASSA's use case walks: a data product is
//! derived from every object its producing program read.

use provio_model::{ontology, ActivityClass, AgentClass, EntityClass, Guid, Relation};
use provio_rdf::{ns, Graph, IdMap, IdSet, Iri, Literal, Subject, Term, TermId, Triple};
use provio_sparql::{Query, QueryError, Solutions};
use std::collections::{BTreeMap, VecDeque};

/// Query engine over a (merged) provenance graph.
pub struct ProvQueryEngine {
    graph: Graph,
    /// Step budget for each SPARQL evaluation; `u64::MAX` = unlimited.
    budget: u64,
}

impl ProvQueryEngine {
    pub fn new(graph: Graph) -> Self {
        ProvQueryEngine {
            graph,
            budget: u64::MAX,
        }
    }

    /// Cap each SPARQL evaluation at `budget` steps, in produced bindings
    /// and visited path nodes; `0` means unlimited. A runaway join or a closure
    /// walk over a dense merged graph then fails with
    /// [`QueryError::BudgetExhausted`] instead of monopolizing the engine.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = if budget == 0 { u64::MAX } else { budget };
        self
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Run a SPARQL SELECT query, subject to the engine's step budget.
    pub fn sparql(&self, query: &str) -> Result<Solutions, QueryError> {
        Query::parse(query)?.execute_with_budget(&self.graph, self.budget)
    }

    /// Find the entity whose `rdfs:label` is exactly `label`.
    pub fn entity_by_label(&self, label: &str) -> Option<Guid> {
        self.graph
            .subjects_with(
                &Iri::new(ns::RDFS_LABEL),
                &Term::Literal(Literal::plain(label)),
            )
            .into_iter()
            .find_map(|s| match s {
                Subject::Iri(i) => Guid::from_iri(&i),
                Subject::Blank(_) => None,
            })
    }

    /// Saturate the graph with `prov:wasDerivedFrom` edges between data
    /// objects: for every program, everything it wrote derives from
    /// everything it read (the inference behind the paper's backward
    /// lineage walk, §6.5). The edges are not written one by one: each
    /// program becomes one group (outputs, inputs) of a
    /// [`Graph::add_product`], which every read — `wasDerivedFrom+`
    /// queries, the lineage walks — sees as if its |outputs| × |inputs|
    /// edges had been inserted in (program, output, input) id order.
    /// Programs, inputs and outputs are gathered as term ids in one scan
    /// of the triple log, not through an index.
    ///
    /// Returns the number of derivation edges added.
    pub fn derive_lineage(&mut self) -> usize {
        let g = &self.graph;
        let predicate = |rel: Relation| g.term_id(&Term::iri(rel.iri()));
        let is_guid = |id: TermId| g.term(id).as_iri().and_then(Guid::from_iri).is_some();

        // Entities relate to activities via wasReadBy / wasWrittenBy /
        // wasCreatedBy …; activities relate to programs via
        // wasAssociatedWith.
        let associated = predicate(Relation::WasAssociatedWith);
        let reads = [Relation::WasReadBy, Relation::WasOpenedBy].map(predicate);
        let writes = [
            Relation::WasWrittenBy,
            Relation::WasCreatedBy,
            Relation::WasFlushedBy,
            Relation::WasModifiedBy,
        ]
        .map(predicate);
        let mut program_of: IdMap<TermId, TermId> = IdMap::default();
        // (wrote?, entity, activity)
        let mut io: Vec<(bool, TermId, TermId)> = Vec::new();
        for (s, p, o) in g.iter_ids() {
            let p = Some(p);
            if p == associated {
                if is_guid(o) {
                    program_of.insert(s, o);
                }
            } else if reads.contains(&p) || writes.contains(&p) {
                io.push((writes.contains(&p), s, o));
            }
        }

        // (program, entity) pairs: what each program read, what it wrote.
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        for (wrote, entity, activity) in io {
            if let Some(&program) = program_of.get(&activity) {
                if is_guid(entity) {
                    if wrote { &mut outputs } else { &mut inputs }.push((program, entity));
                }
            }
        }
        for pairs in [&mut inputs, &mut outputs] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        if inputs.is_empty() || outputs.is_empty() {
            return 0;
        }

        let derived = self
            .graph
            .intern(&Term::iri(Relation::WasDerivedFrom.iri()));
        let groups = outputs.chunk_by(|a, b| a.0 == b.0).filter_map(|outs| {
            let program = outs[0].0;
            let ins = &inputs[inputs.partition_point(|p| p.0 < program)
                ..inputs.partition_point(|p| p.0 <= program)];
            let ids = |pairs: &[(TermId, TermId)]| pairs.iter().map(|p| p.1).collect();
            (!ins.is_empty()).then(|| (ids(outs), ids(ins)))
        });
        self.graph.add_product(derived, groups)
    }

    /// Transitive backward lineage of an entity (BFS over
    /// `prov:wasDerivedFrom`), nearest first.
    pub fn backward_lineage(&self, entity: &Guid) -> Vec<Guid> {
        self.derivation_walk(entity, |g, derived, cur| {
            g.match_ids(Some(Some(cur)), Some(Some(derived)), None)
                .into_iter()
                .map(|(_, _, o)| o)
                .collect()
        })
    }

    /// Breadth-first over `prov:wasDerivedFrom` from `entity`, on term
    /// ids; `step(graph, derived, node)` lists the nodes one edge away. A
    /// `Guid` is built only for a node that is returned.
    fn derivation_walk(
        &self,
        entity: &Guid,
        step: impl Fn(&Graph, TermId, TermId) -> Vec<TermId>,
    ) -> Vec<Guid> {
        let g = &self.graph;
        let (Some(derived), Some(start)) = (
            g.term_id(&Term::iri(Relation::WasDerivedFrom.iri())),
            g.term_id(&Term::Iri(entity.to_iri())),
        ) else {
            return Vec::new();
        };
        let mut seen: IdSet<TermId> = IdSet::default();
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            for next in step(g, derived, cur) {
                if !seen.insert(next) {
                    continue;
                }
                if let Some(guid) = g.term(next).as_iri().and_then(Guid::from_iri) {
                    out.push(guid);
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// Provenance reduction (the database-style optimization the paper
    /// cites as applicable, §7): collapse all I/O-API activity nodes that
    /// are equivalent for lineage purposes — same API label, same
    /// associated agents, same set of (relation, data-object) edges — into
    /// one representative node carrying an occurrence count and summed
    /// duration/bytes. Lineage queries return identical answers on the
    /// reduced graph; per-invocation timelines are lost (by design).
    ///
    /// Returns (activities before, activities after).
    pub fn reduce_activities(&mut self) -> (usize, usize) {
        use provio_model::{ActivityClass, PropKey, PropValue};

        // Group activities by their lineage-equivalence signature.
        let mut groups: BTreeMap<String, Vec<Guid>> = BTreeMap::new();
        for class in ActivityClass::ALL {
            for act in ontology::nodes_of_class(&self.graph, class.into()) {
                let node = match ontology::node_from_graph(&self.graph, &act) {
                    Some(n) => n,
                    None => continue,
                };
                let mut out_edges: Vec<String> = ontology::relations_from_graph(&self.graph, &act)
                    .into_iter()
                    .map(|(r, g)| format!("{}→{}", r.local_name(), g))
                    .collect();
                out_edges.sort();
                // Incoming edges (entity —wasReadBy→ activity etc.).
                let mut in_edges: Vec<String> = Vec::new();
                for rel in Relation::ALL {
                    let p = Iri::new(rel.iri());
                    for s in self.graph.subjects_with(&p, &Term::Iri(act.to_iri())) {
                        in_edges.push(format!("{}←{}", rel.local_name(), s));
                    }
                }
                in_edges.sort();
                let sig = format!(
                    "{}|{}|{}|{}",
                    class.local_name(),
                    node.label,
                    out_edges.join(";"),
                    in_edges.join(";")
                );
                groups.entry(sig).or_default().push(act);
            }
        }

        // Decide every removal and insertion while only reading, then
        // apply them: a write between two reads would rebuild the indexes.
        let g = &self.graph;
        let id_of = |iri: Iri| g.term_id(&Term::Iri(iri));
        let relations: Vec<TermId> = Relation::ALL
            .iter()
            .filter_map(|r| id_of(Iri::new(r.iri())))
            .collect();
        let per_call: Vec<TermId> = [PropKey::ElapsedNs, PropKey::Bytes, PropKey::TimestampNs]
            .iter()
            .filter_map(|k| id_of(Iri::new(k.iri())))
            .collect();
        let mut dropped: IdSet<(TermId, TermId, TermId)> = IdSet::default();
        let mut repointed: Vec<(TermId, TermId, TermId)> = Vec::new();
        let mut aggregates: Vec<Triple> = Vec::new();
        let before: usize = groups.values().map(Vec::len).sum();
        let mut after = 0usize;
        for (_, mut members) in groups {
            members.sort();
            after += 1;
            if members.len() < 2 {
                continue;
            }
            let keep = &members[0];
            let Some(keep_id) = id_of(keep.to_iri()) else {
                continue;
            };
            // Aggregate numeric properties onto the representative.
            let mut count = 0i64;
            let mut total_ns = 0i64;
            let mut total_bytes = 0i64;
            for m in &members {
                if let Some(n) = ontology::node_from_graph(g, m) {
                    count += 1;
                    if let Some(PropValue::Int(v)) = n.prop(PropKey::ElapsedNs) {
                        total_ns += v;
                    }
                    if let Some(PropValue::Int(v)) = n.prop(PropKey::Bytes) {
                        total_bytes += v;
                    }
                }
            }
            // Drop the duplicates and their edges; their incoming edges
            // re-point at the representative (idempotent).
            for m in members[1..].iter().filter_map(|m| id_of(m.to_iri())) {
                dropped.extend(g.match_ids(Some(Some(m)), None, None));
                for (s, p, o) in g.match_ids(None, None, Some(Some(m))) {
                    if relations.contains(&p) {
                        dropped.insert((s, p, o));
                        repointed.push((s, p, keep_id));
                    }
                }
            }
            // Replace the representative's per-invocation numbers with
            // aggregates.
            for &key in &per_call {
                dropped.extend(g.match_ids(Some(Some(keep_id)), Some(Some(key)), None));
            }
            let subject = keep.to_subject();
            aggregates.push(Triple::new(
                subject.clone(),
                Iri::new(format!("{}occurrences", provio_rdf::ns::PROVIO)),
                Literal::integer(count),
            ));
            if total_ns > 0 {
                aggregates.push(Triple::new(
                    subject.clone(),
                    Iri::new(PropKey::ElapsedNs.iri()),
                    Literal::integer(total_ns),
                ));
            }
            if total_bytes > 0 {
                aggregates.push(Triple::new(
                    subject,
                    Iri::new(PropKey::Bytes.iri()),
                    Literal::integer(total_bytes),
                ));
            }
        }
        self.graph.retain(|s, p, o| !dropped.contains(&(s, p, o)));
        for (s, p, o) in repointed {
            self.graph.insert_ids(s, p, o);
        }
        for t in &aggregates {
            self.graph.insert(t);
        }
        (before, after)
    }

    /// Transitive *forward* lineage: everything derived from `entity`
    /// (impact analysis — "which products must be regenerated if this
    /// input was bad?").
    pub fn forward_lineage(&self, entity: &Guid) -> Vec<Guid> {
        self.derivation_walk(entity, |g, derived, cur| {
            g.match_ids(None, Some(Some(derived)), Some(Some(cur)))
                .into_iter()
                .map(|(s, _, _)| s)
                .collect()
        })
    }

    /// Programs an entity is attributed to (Table 5 q1).
    pub fn programs_of(&self, entity: &Guid) -> Vec<Guid> {
        self.related(entity, Relation::WasAttributedTo)
    }

    /// Threads a program acted on behalf of (Table 5 q8).
    pub fn threads_of(&self, program: &Guid) -> Vec<Guid> {
        self.related(program, Relation::ActedOnBehalfOf)
    }

    /// Users a thread acted on behalf of (Table 5 q9).
    pub fn users_of(&self, thread: &Guid) -> Vec<Guid> {
        self.related(thread, Relation::ActedOnBehalfOf)
    }

    fn related(&self, subject: &Guid, rel: Relation) -> Vec<Guid> {
        self.graph
            .objects(&subject.to_subject(), &Iri::new(rel.iri()))
            .into_iter()
            .filter_map(|t| t.as_iri().and_then(Guid::from_iri))
            .collect()
    }

    /// Node label.
    pub fn label_of(&self, id: &Guid) -> Option<String> {
        self.graph
            .objects(&id.to_subject(), &Iri::new(ns::RDFS_LABEL))
            .into_iter()
            .find_map(|t| t.as_literal().map(|l| l.lexical().to_string()))
    }

    /// The full chain for H5bench scenario 3: file → programs → threads →
    /// users, as labels.
    pub fn access_chain(&self, file_label: &str) -> Vec<(String, String, String)> {
        let Some(file) = self.entity_by_label(file_label) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for prog in self.programs_of(&file) {
            let p = self.label_of(&prog).unwrap_or_default();
            for th in self.threads_of(&prog) {
                let t = self.label_of(&th).unwrap_or_default();
                for u in self.users_of(&th) {
                    out.push((p.clone(), t.clone(), self.label_of(&u).unwrap_or_default()));
                }
            }
        }
        out.sort();
        out
    }

    /// Count of activity nodes per I/O API class (H5bench scenario 1).
    pub fn io_api_counts(&self) -> Vec<(ActivityClass, usize)> {
        ActivityClass::ALL
            .into_iter()
            .map(|c| {
                (
                    c,
                    ontology::nodes_of_class(&self.graph, c.into()).len(),
                )
            })
            .collect()
    }

    /// All entities of a class, with labels.
    pub fn entities(&self, class: EntityClass) -> Vec<(Guid, String)> {
        let mut v: Vec<(Guid, String)> = ontology::nodes_of_class(&self.graph, class.into())
            .into_iter()
            .map(|g| {
                let l = self.label_of(&g).unwrap_or_default();
                (g, l)
            })
            .collect();
        v.sort_by(|a, b| a.1.cmp(&b.1));
        v
    }

    /// All agents of a class, with labels.
    pub fn agents(&self, class: AgentClass) -> Vec<(Guid, String)> {
        let mut v: Vec<(Guid, String)> = ontology::nodes_of_class(&self.graph, class.into())
            .into_iter()
            .map(|g| {
                let l = self.label_of(&g).unwrap_or_default();
                (g, l)
            })
            .collect();
        v.sort_by(|a, b| a.1.cmp(&b.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_rdf::turtle;
    use std::collections::HashMap;

    /// A hand-built DASSA-shaped provenance graph:
    /// WestSac.tdms --tdms2h5--> WestSac.h5 --decimate--> decimate.h5
    fn dassa_graph() -> Graph {
        let ttl = r#"
        @prefix prov: <http://www.w3.org/ns/prov#> .
        @prefix provio: <https://github.com/hpc-io/prov-io#> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

        <urn:provio:agent/program/tdms2h5> a provio:Program ; rdfs:label "tdms2h5" ;
            prov:actedOnBehalfOf <urn:provio:agent/thread/t0> .
        <urn:provio:agent/program/decimate> a provio:Program ; rdfs:label "decimate" ;
            prov:actedOnBehalfOf <urn:provio:agent/thread/t0> .
        <urn:provio:agent/thread/t0> a provio:Thread ; rdfs:label "rank0" ;
            prov:actedOnBehalfOf <urn:provio:agent/user/UserA> .
        <urn:provio:agent/user/UserA> a provio:User ; rdfs:label "UserA" .

        <urn:provio:act/read-1> a provio:Read ; rdfs:label "read" ;
            prov:wasAssociatedWith <urn:provio:agent/program/tdms2h5> .
        <urn:provio:act/write-1> a provio:Write ; rdfs:label "write" ;
            prov:wasAssociatedWith <urn:provio:agent/program/tdms2h5> .
        <urn:provio:act/read-2> a provio:Read ; rdfs:label "H5Dread" ;
            prov:wasAssociatedWith <urn:provio:agent/program/decimate> .
        <urn:provio:act/write-2> a provio:Write ; rdfs:label "H5Dwrite" ;
            prov:wasAssociatedWith <urn:provio:agent/program/decimate> .

        <urn:provio:obj/file/WestSac.tdms> a provio:File ; rdfs:label "/WestSac.tdms" ;
            provio:wasReadBy <urn:provio:act/read-1> .
        <urn:provio:obj/file/WestSac.h5> a provio:File ; rdfs:label "/WestSac.h5" ;
            provio:wasWrittenBy <urn:provio:act/write-1> ;
            provio:wasReadBy <urn:provio:act/read-2> ;
            prov:wasAttributedTo <urn:provio:agent/program/tdms2h5> .
        <urn:provio:obj/file/decimate.h5> a provio:File ; rdfs:label "/decimate.h5" ;
            provio:wasWrittenBy <urn:provio:act/write-2> ;
            prov:wasAttributedTo <urn:provio:agent/program/decimate> .
        "#;
        turtle::parse(ttl).unwrap().0
    }

    /// `derive_lineage` as it was before products: the same gather, then
    /// every (output, input) pair of every program inserted into the log in
    /// (program, output, input) order.
    fn derive_by_inserting(eng: &mut ProvQueryEngine) -> usize {
        let g = &eng.graph;
        let predicate = |rel: Relation| g.term_id(&Term::iri(rel.iri()));
        let is_guid = |id: TermId| g.term(id).as_iri().and_then(Guid::from_iri).is_some();
        let associated = predicate(Relation::WasAssociatedWith);
        let reads = [Relation::WasReadBy, Relation::WasOpenedBy].map(predicate);
        let writes = [
            Relation::WasWrittenBy,
            Relation::WasCreatedBy,
            Relation::WasFlushedBy,
            Relation::WasModifiedBy,
        ]
        .map(predicate);
        let mut program_of: IdMap<TermId, TermId> = IdMap::default();
        let mut io: Vec<(bool, TermId, TermId)> = Vec::new();
        for (s, p, o) in g.iter_ids() {
            let p = Some(p);
            if p == associated {
                if is_guid(o) {
                    program_of.insert(s, o);
                }
            } else if reads.contains(&p) || writes.contains(&p) {
                io.push((writes.contains(&p), s, o));
            }
        }
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        for (wrote, entity, activity) in io {
            if let Some(&program) = program_of.get(&activity) {
                if is_guid(entity) {
                    if wrote { &mut outputs } else { &mut inputs }.push((program, entity));
                }
            }
        }
        for pairs in [&mut inputs, &mut outputs] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        if inputs.is_empty() || outputs.is_empty() {
            return 0;
        }
        let derived = eng.graph.intern(&Term::iri(Relation::WasDerivedFrom.iri()));
        let mut added = 0;
        for outs in outputs.chunk_by(|a, b| a.0 == b.0) {
            let program = outs[0].0;
            let ins = &inputs[inputs.partition_point(|p| p.0 < program)
                ..inputs.partition_point(|p| p.0 <= program)];
            for &(_, out) in outs {
                for &(_, inp) in ins {
                    if out != inp && eng.graph.insert_ids(out, derived, inp) {
                        added += 1;
                    }
                }
            }
        }
        added
    }

    /// Every lineage answer of the two engines, for every GUID node.
    fn lineage_answers(eng: &ProvQueryEngine) -> Vec<String> {
        let mut out = vec![format!("{:?}", eng.graph().iter_ids().collect::<Vec<_>>())];
        let guid_of = |t: &Term| t.as_iri().and_then(Guid::from_iri);
        for guid in eng.graph().terms().iter().filter_map(guid_of) {
            out.push(format!("{guid} <- {:?}", eng.backward_lineage(&guid)));
            out.push(format!("{guid} -> {:?}", eng.forward_lineage(&guid)));
            let from = format!("SELECT ?b WHERE {{ <{guid}> prov:wasDerivedFrom+ ?b . }}");
            out.push(format!("{:?}", eng.sparql(&from).unwrap().rows));
        }
        let all = "SELECT ?a ?b WHERE { ?a prov:wasDerivedFrom+ ?b . }";
        out.push(format!("{:?}", eng.sparql(all).unwrap().rows));
        out
    }

    /// `derive_lineage` answers exactly as the inserted edges did: its
    /// count, the log, both walks from every node, `wasDerivedFrom+` rows,
    /// then a reduction and a second derivation (which adds nothing).
    fn assert_lineage_as_inserted(graph: &Graph) {
        let derived = || {
            let mut got = ProvQueryEngine::new(graph.clone());
            let mut want = ProvQueryEngine::new(graph.clone());
            let added = got.derive_lineage();
            assert!(added > 0);
            assert_eq!(added, derive_by_inserting(&mut want));
            assert_eq!(lineage_answers(&got), lineage_answers(&want));
            (got, want)
        };
        let (mut got, mut want) = derived();
        assert_eq!(got.reduce_activities(), want.reduce_activities());
        assert_eq!(lineage_answers(&got), lineage_answers(&want));
        let again = (got.derive_lineage(), derive_by_inserting(&mut want));
        assert_eq!(again, (0, 0));
        assert_eq!(lineage_answers(&got), lineage_answers(&want));
        // A second derivation while the first one's edges are still groups.
        let (mut got, mut want) = derived();
        let again = (got.derive_lineage(), derive_by_inserting(&mut want));
        assert_eq!(again, (0, 0));
        assert_eq!(lineage_answers(&got), lineage_answers(&want));
    }

    /// Two programs share an output and an input, so both derive one pair;
    /// one reads what it writes; stored `wasDerivedFrom` edges
    /// (configuration versions, an explicit derivation) repeat some of the
    /// derived pairs and reverse another.
    fn overlapping_graph() -> Graph {
        let mut ttl = String::from(
            "@prefix prov: <http://www.w3.org/ns/prov#> .\n\
             @prefix provio: <https://github.com/hpc-io/prov-io#> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             <urn:provio:obj/file/shared> prov:wasDerivedFrom <urn:provio:obj/file/in2> .\n\
             <urn:provio:obj/file/out0> prov:wasDerivedFrom <urn:provio:obj/file/cfg> .\n\
             <urn:provio:obj/file/in2> prov:wasDerivedFrom <urn:provio:obj/file/out1> .\n",
        );
        let io = [
            ("p1", "w", "shared"),
            ("p1", "r", "in2"),
            ("p1", "w", "out1"),
            ("p1", "r", "in1"),
            ("p0", "r", "in0"),
            ("p0", "w", "out0"),
            ("p0", "r", "in1"),
            ("p0", "w", "shared"),
            ("p0", "r", "out0"),
        ];
        for (k, (program, rw, file)) in io.into_iter().enumerate() {
            let (class, rel) = match rw {
                "r" => ("Read", "wasReadBy"),
                _ => ("Write", "wasWrittenBy"),
            };
            ttl += &format!(
                "<urn:provio:act/{k}> a provio:{class} ; rdfs:label \"{rw}\" ;\n\
                   prov:wasAssociatedWith <urn:provio:agent/program/{program}> .\n\
                 <urn:provio:obj/file/{file}> provio:{rel} <urn:provio:act/{k}> .\n"
            );
        }
        turtle::parse(&ttl).unwrap().0
    }

    #[test]
    fn lineage_answers_match_the_inserted_edges() {
        assert_lineage_as_inserted(&dassa_graph());
        assert_lineage_as_inserted(&four_programs());
        assert_lineage_as_inserted(&overlapping_graph());
    }

    #[test]
    fn lineage_derivation_and_backward_walk() {
        let mut eng = ProvQueryEngine::new(dassa_graph());
        let added = eng.derive_lineage();
        assert!(added >= 2, "added {added}");
        let product = eng.entity_by_label("/decimate.h5").unwrap();
        let lineage = eng.backward_lineage(&product);
        let labels: Vec<String> = lineage
            .iter()
            .map(|g| eng.label_of(g).unwrap())
            .collect();
        assert_eq!(labels, vec!["/WestSac.h5", "/WestSac.tdms"]);
    }

    #[test]
    fn derive_lineage_is_idempotent() {
        let mut eng = ProvQueryEngine::new(dassa_graph());
        let first = eng.derive_lineage();
        let second = eng.derive_lineage();
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    /// Four programs, each reading three files and writing three.
    fn four_programs() -> Graph {
        let mut ttl = String::from(
            "@prefix prov: <http://www.w3.org/ns/prov#> .\n\
             @prefix provio: <https://github.com/hpc-io/prov-io#> .\n",
        );
        for p in 0..4 {
            for k in 0..3 {
                ttl += &format!(
                    "<urn:provio:act/r{p}-{k}> prov:wasAssociatedWith <urn:provio:agent/program/p{p}> .\n\
                     <urn:provio:act/w{p}-{k}> prov:wasAssociatedWith <urn:provio:agent/program/p{p}> .\n\
                     <urn:provio:obj/file/in{p}-{k}> provio:wasReadBy <urn:provio:act/r{p}-{k}> .\n\
                     <urn:provio:obj/file/out{p}-{k}> provio:wasWrittenBy <urn:provio:act/w{p}-{k}> .\n"
                );
            }
        }
        turtle::parse(&ttl).unwrap().0
    }

    #[test]
    fn derive_lineage_inserts_in_one_order() {
        let graph = four_programs();
        let before = graph.len();
        let mut a = ProvQueryEngine::new(graph.clone());
        let mut b = ProvQueryEngine::new(graph);
        assert_eq!(a.derive_lineage(), 4 * 3 * 3);
        assert_eq!(b.derive_lineage(), 4 * 3 * 3);
        assert!(a.graph().iter_ids().eq(b.graph().iter_ids()));
        // (program, output, input) order: outputs and inputs ascend
        // within each program's nine edges.
        let edges: Vec<_> = a.graph().iter_ids().skip(before).collect();
        for program in edges.chunks(9) {
            assert!(program.windows(2).all(|w| (w[0].0, w[0].2) < (w[1].0, w[1].2)));
        }
    }

    #[test]
    fn table5_q1_attribution_query() {
        let eng = ProvQueryEngine::new(dassa_graph());
        let sols = eng
            .sparql(
                "SELECT ?program WHERE { \
                   <urn:provio:obj/file/decimate.h5> prov:wasAttributedTo ?program . }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols.rows[0]["program"].to_string().contains("decimate"));
    }

    #[test]
    fn table5_q7_to_q9_access_chain() {
        let eng = ProvQueryEngine::new(dassa_graph());
        let product = eng.entity_by_label("/decimate.h5").unwrap();
        let progs = eng.programs_of(&product);
        assert_eq!(progs.len(), 1);
        let threads = eng.threads_of(&progs[0]);
        assert_eq!(threads.len(), 1);
        let users = eng.users_of(&threads[0]);
        assert_eq!(eng.label_of(&users[0]).unwrap(), "UserA");

        let chain = eng.access_chain("/decimate.h5");
        assert_eq!(chain, vec![("decimate".into(), "rank0".into(), "UserA".into())]);
    }

    #[test]
    fn io_api_counts_by_class() {
        let eng = ProvQueryEngine::new(dassa_graph());
        let counts: HashMap<ActivityClass, usize> =
            eng.io_api_counts().into_iter().collect();
        assert_eq!(counts[&ActivityClass::Read], 2);
        assert_eq!(counts[&ActivityClass::Write], 2);
        assert_eq!(counts[&ActivityClass::Fsync], 0);
    }

    #[test]
    fn sparql_transitive_lineage_path_query() {
        let mut eng = ProvQueryEngine::new(dassa_graph());
        eng.derive_lineage();
        let sols = eng
            .sparql(
                "SELECT ?origin WHERE { \
                   <urn:provio:obj/file/decimate.h5> prov:wasDerivedFrom+ ?origin . }",
            )
            .unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn entity_listing_sorted() {
        let eng = ProvQueryEngine::new(dassa_graph());
        let files = eng.entities(EntityClass::File);
        let labels: Vec<&str> = files.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(labels, vec!["/WestSac.h5", "/WestSac.tdms", "/decimate.h5"]);
        let programs = eng.agents(AgentClass::Program);
        assert_eq!(programs.len(), 2);
    }

    #[test]
    fn reduction_preserves_lineage_answers() {
        // Build a graph where one program read the same file 50 times.
        let mut g = Graph::new();
        let ttl_head = r#"
            @prefix prov: <http://www.w3.org/ns/prov#> .
            @prefix provio: <https://github.com/hpc-io/prov-io#> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            <urn:provio:agent/program/p> a provio:Program ; rdfs:label "p" .
            <urn:provio:obj/file/in> a provio:File ; rdfs:label "/in" .
            <urn:provio:obj/file/out> a provio:File ; rdfs:label "/out" ;
                prov:wasAttributedTo <urn:provio:agent/program/p> ;
                provio:wasWrittenBy <urn:provio:act/w-0> .
            <urn:provio:act/w-0> a provio:Write ; rdfs:label "write" ;
                prov:wasAssociatedWith <urn:provio:agent/program/p> .
        "#;
        provio_rdf::turtle::parse_into(ttl_head, &mut g).unwrap();
        for i in 0..50 {
            let frag = format!(
                "@prefix prov: <http://www.w3.org/ns/prov#> . \
                 @prefix provio: <https://github.com/hpc-io/prov-io#> . \
                 @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> . \
                 <urn:provio:act/r-{i}> a provio:Read ; rdfs:label \"read\" ; \
                   provio:elapsed {} ; \
                   prov:wasAssociatedWith <urn:provio:agent/program/p> . \
                 <urn:provio:obj/file/in> provio:wasReadBy <urn:provio:act/r-{i}> .",
                100 + i
            );
            provio_rdf::turtle::parse_into(&frag, &mut g).unwrap();
        }

        let mut eng = ProvQueryEngine::new(g);
        let before_len = eng.graph().len();
        let (before, after) = eng.reduce_activities();
        assert_eq!(before, 51, "50 reads + 1 write");
        assert_eq!(after, 2, "one representative per equivalence class");
        assert!(eng.graph().len() < before_len);

        // Lineage still derivable and identical.
        eng.derive_lineage();
        let out = eng.entity_by_label("/out").unwrap();
        let lineage = eng.backward_lineage(&out);
        assert_eq!(lineage.len(), 1);
        assert_eq!(eng.label_of(&lineage[0]).unwrap(), "/in");
        // The representative read carries the aggregate count + duration.
        let sols = eng
            .sparql(
                "SELECT ?n ?d WHERE { ?a a provio:Read ; \
                   provio:occurrences ?n ; provio:elapsed ?d . }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0]["n"].as_literal().unwrap().as_i64(), Some(50));
        let total: i64 = (0..50).map(|i| 100 + i).sum();
        assert_eq!(
            sols.rows[0]["d"].as_literal().unwrap().as_i64(),
            Some(total)
        );
    }

    #[test]
    fn reduction_is_idempotent() {
        let mut eng = ProvQueryEngine::new(dassa_graph());
        let (b1, a1) = eng.reduce_activities();
        let (b2, a2) = eng.reduce_activities();
        assert_eq!(a1, b2);
        assert_eq!(a2, b2, "second pass is a no-op");
        assert!(b1 >= a1);
    }

    #[test]
    fn forward_lineage_is_backward_inverted() {
        let mut eng = ProvQueryEngine::new(dassa_graph());
        eng.derive_lineage();
        let raw = eng.entity_by_label("/WestSac.tdms").unwrap();
        let forward = eng.forward_lineage(&raw);
        let labels: Vec<String> = forward.iter().map(|g| eng.label_of(g).unwrap()).collect();
        assert_eq!(labels, vec!["/WestSac.h5", "/decimate.h5"]);
        // Inversion property: everything forward of raw has raw in its
        // backward lineage.
        for g in &forward {
            assert!(eng.backward_lineage(g).contains(&raw));
        }
    }

    #[test]
    fn query_budget_knob_limits_evaluation() {
        let eng = ProvQueryEngine::new(dassa_graph()).with_budget(2);
        let err = eng
            .sparql("SELECT ?a ?p WHERE { ?a prov:wasAssociatedWith ?p . }")
            .unwrap_err();
        assert!(matches!(err, QueryError::BudgetExhausted { budget: 2 }));

        // 0 means unlimited.
        let eng = ProvQueryEngine::new(dassa_graph()).with_budget(0);
        let sols = eng
            .sparql("SELECT ?a WHERE { ?a a provio:Read . }")
            .unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn missing_label_lookup_is_none() {
        let eng = ProvQueryEngine::new(dassa_graph());
        assert!(eng.entity_by_label("/nope").is_none());
    }
}
