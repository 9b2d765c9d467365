import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ref import reference_index
from kg_strategies import graphs as kg_graphs
from kgdta.errors import KindViolation, ModalityConflict
from kgdta.graph import (
    MultimodalGraph,
    Node,
    NodeId,
    NodeKind,
    Relation,
    RelationKind,
    attribute_node,
    entity,
    merge_graphs,
    resolve_same_as,
)
from kgdta.schema import parse_ntriples, to_ntriples

TARGET_OF = Relation("target_of", RelationKind.OBJECT)
SEQUENCE = Relation("sequence", RelationKind.DATA)
SAME_AS_REL = Relation("sameAs", RelationKind.OBJECT)


def protein(local_id):
    return entity("uniprot", local_id, "protein")


def drug(local_id):
    return entity("drugbank", local_id, "drug")


def test_add_triple_base_case():
    g = MultimodalGraph()
    g.add_triple(protein("P06820"), TARGET_OF, drug("DB02268"))
    assert len(g.nodes) == 2
    assert g.num_triples() == 1


def test_add_triple_is_idempotent():
    g = MultimodalGraph()
    g.add_triple(protein("P06820"), TARGET_OF, drug("DB02268"))
    g.add_triple(protein("P06820"), TARGET_OF, drug("DB02268"))
    assert g.num_triples() == 1


def test_add_data_property_idempotent():
    g = MultimodalGraph()
    seq = attribute_node("protein_sequence", "MKTAY")
    g.add_triple(protein("P06820"), TARGET_OF, drug("DB02268"))
    g.add_triple(protein("P06820"), SEQUENCE, seq)
    g.add_triple(protein("P06820"), SEQUENCE, seq)
    assert len(g.nodes) == 3
    assert g.num_triples() == 2


def test_modality_conflict_on_reused_id():
    g = MultimodalGraph()
    g.add_triple(protein("P1"), TARGET_OF, drug("D1"))
    with pytest.raises(ModalityConflict):
        g.add_triple(entity("uniprot", "P1", "drug"), TARGET_OF, drug("D2"))


def test_a_nan_literal_is_the_same_literal_as_itself():
    g = MultimodalGraph()
    mass = Relation("mass", RelationKind.DATA)
    g.add_triple(protein("P1"), mass, attribute_node("number", float("nan")))
    g.add_triple(protein("P2"), mass, attribute_node("number", float("nan")))
    assert g.num_triples() == 2 and len(g.attributes()) == 1


def test_a_nan_literal_round_trips_through_ntriples():
    nan = attribute_node("number", float("nan"))
    g = MultimodalGraph().add_triple(protein("P1"), Relation("mass", RelationKind.DATA), nan)
    back = parse_ntriples(to_ntriples(g))
    assert back.triple_keys() == g.triple_keys()
    (value,) = [n.value for n in back.attributes()]
    assert value != value


def test_a_number_and_its_text_are_different_literals():
    g = MultimodalGraph()
    g.add_node(Node(NodeId("attr", "v"), "text", NodeKind.ATTRIBUTE, 1.0))
    with pytest.raises(ModalityConflict, match="conflicting literal 1.0 vs '1.0'"):
        g.add_node(Node(NodeId("attr", "v"), "text", NodeKind.ATTRIBUTE, "1.0"))


def test_kind_violation_data_property_to_entity():
    g = MultimodalGraph()
    with pytest.raises(KindViolation):
        g.add_triple(protein("P1"), SEQUENCE, drug("D1"))


def test_kind_violation_object_property_to_attribute():
    g = MultimodalGraph()
    with pytest.raises(KindViolation):
        g.add_triple(protein("P1"), TARGET_OF, attribute_node("text", "hello"))


def test_attribute_cannot_be_source():
    g = MultimodalGraph()
    attr = attribute_node("text", "hello")
    with pytest.raises(KindViolation):
        g.add_triple(attr, TARGET_OF, drug("D1"))


def test_entity_node_must_not_carry_value():
    with pytest.raises(KindViolation):
        Node(NodeId("uniprot", "P1"), "protein", NodeKind.ENTITY, value="oops")


def test_shared_attribute_values_share_nodes():
    a = attribute_node("protein_sequence", "MKTAY")
    b = attribute_node("protein_sequence", "MKTAY")
    assert a.id == b.id
    assert attribute_node("protein_sequence", "MKTAX").id != a.id


def test_merge_combines_properties_of_same_entity():
    a = MultimodalGraph()
    a.add_triple(protein("P06820"), Relation("label", RelationKind.DATA), attribute_node("text", "Neuraminidase"))
    b = MultimodalGraph()
    b.add_triple(protein("P06820"), Relation("family", RelationKind.DATA), attribute_node("text", "hydrolase 34"))
    merged = merge_graphs(a, b)
    pid = NodeId("uniprot", "P06820")
    assert pid in merged.nodes
    names = {t.relation.name for t in merged.triples() if t.source == pid}
    assert names == {"label", "family"}


def test_merge_with_empty_is_identity():
    g = MultimodalGraph()
    g.add_triple(protein("P1"), TARGET_OF, drug("D1"))
    merged = merge_graphs(g, MultimodalGraph())
    assert merged.triple_keys() == g.triple_keys()
    assert set(merged.nodes) == set(g.nodes)


# --- random graph machinery -------------------------------------------------

_MODALITY_BY_NS = {"uniprot": "protein", "drugbank": "drug", "chembl": "drug"}
_ids = st.integers(0, 5).map(lambda i: f"x{i}")
_namespaces = st.sampled_from(sorted(_MODALITY_BY_NS))


@st.composite
def triple_specs(draw):
    ns = draw(_namespaces)
    src = entity(ns, draw(_ids), _MODALITY_BY_NS[ns])
    if draw(st.booleans()):
        tns = draw(_namespaces)
        tgt = entity(tns, draw(_ids), _MODALITY_BY_NS[tns])
        rel = Relation(draw(st.sampled_from(["target_of", "interacts"])), RelationKind.OBJECT)
        if src.id == tgt.id:
            rel = Relation("interacts", RelationKind.OBJECT)
    else:
        rel = Relation(draw(st.sampled_from(["mass", "mass2"])), RelationKind.DATA)
        tgt = attribute_node("number", float(draw(st.integers(0, 9))))
    return (src, rel, tgt)


@st.composite
def graphs(draw):
    g = MultimodalGraph()
    for src, rel, tgt in draw(st.lists(triple_specs(), max_size=12)):
        g.add_triple(src, rel, tgt)
    return g


@given(graphs())
def test_triples_unique_after_any_build(g):
    keys = [(str(t.source), t.relation.name, str(t.target)) for t in g.triples()]
    assert len(keys) == len(set(keys))


@given(graphs())
def test_attributes_never_sources(g):
    for t in g.triples():
        assert g.nodes[t.source].kind is NodeKind.ENTITY


@given(graphs(), graphs())
def test_merge_commutes_on_triple_sets(a, b):
    ab = sorted(merge_graphs(a, b).triple_keys())
    ba = sorted(merge_graphs(b, a).triple_keys())
    assert ab == ba


@settings(max_examples=50)
@given(graphs(), graphs(), graphs())
def test_merge_associative_on_triple_sets(a, b, c):
    left = merge_graphs(merge_graphs(a, b), c).triple_keys()
    right = merge_graphs(a, merge_graphs(b, c)).triple_keys()
    assert left == right


# --- sameAs -------------------------------------------------------------------


def test_same_as_collapses_pair_and_keeps_attributes():
    g = MultimodalGraph()
    chem = entity("chembl", "CHEMBL1091644", "drug")
    db = entity("drugbank", "DB02268", "drug")
    g.add_triple(chem, Relation("smiles", RelationKind.DATA), attribute_node("smiles", "CCO"))
    g.add_triple(db, Relation("mass", RelationKind.DATA), attribute_node("number", 46.07))
    g.add_triple(chem, SAME_AS_REL, db)
    resolved = resolve_same_as(g)
    canonical = NodeId("chembl", "CHEMBL1091644")
    assert canonical in resolved.nodes
    assert NodeId("drugbank", "DB02268") not in resolved.nodes
    rels = {t.relation.name for t in resolved.triples() if t.source == canonical}
    assert rels == {"smiles", "mass"}
    assert resolved.aliases[canonical] == (NodeId("drugbank", "DB02268"),)
    assert all(t.relation.name != "sameAs" for t in resolved.triples())


def test_same_as_noop_when_absent():
    g = MultimodalGraph()
    g.add_triple(protein("P1"), TARGET_OF, drug("D1"))
    resolved = resolve_same_as(g)
    assert resolved.triple_keys() == g.triple_keys()
    assert resolved.aliases == {}


def test_same_as_chain_collapses_to_one():
    g = MultimodalGraph()
    x, y, z = drug("X"), entity("chembl", "Y", "drug"), entity("zinc", "Z", "drug")
    g.add_triple(x, SAME_AS_REL, y)
    g.add_triple(y, SAME_AS_REL, z)
    g.add_triple(protein("P1"), TARGET_OF, x)
    resolved = resolve_same_as(g)

    # union-find oracle, written independently of the implementation
    groups = {"drugbank:X": "drugbank:X", "chembl:Y": "chembl:Y", "zinc:Z": "zinc:Z"}

    def root(k):
        while groups[k] != k:
            k = groups[k]
        return k

    for a, b in [("drugbank:X", "chembl:Y"), ("chembl:Y", "zinc:Z")]:
        ra, rb = root(a), root(b)
        if ra != rb:
            groups[max(ra, rb)] = min(ra, rb)
    expected_canonical = min(root(k) for k in groups)

    survivors = {str(n.id) for n in resolved.entities() if n.modality == "drug"}
    assert survivors == {expected_canonical}


def test_same_as_modality_conflict():
    g = MultimodalGraph()
    g.add_triple(drug("D1"), SAME_AS_REL, entity("chembl", "C1", "drug"))
    g.nodes[NodeId("chembl", "C1")] = entity("chembl", "C1", "drug")
    bad = MultimodalGraph()
    bad.add_triple(entity("a", "1", "drug"), SAME_AS_REL, entity("b", "1", "protein"))
    with pytest.raises(ModalityConflict):
        resolve_same_as(bad)


@given(graphs())
def test_resolve_same_as_idempotent(g):
    once = resolve_same_as(g)
    twice = resolve_same_as(once)
    assert twice.triple_keys() == once.triple_keys()
    assert set(twice.nodes) == set(once.nodes)


# --- the int columns and the index built from them ------------------------------


@st.composite
def graphs_with_same_as(draw):
    """A gnarly graph plus sameAs links among its drug namespaces."""
    g = draw(kg_graphs(gnarly=True))
    ids = st.sampled_from(["x0", "x1", "x2", "a b"])
    namespaces = st.sampled_from(["drugbank", "chembl"])
    for _ in range(draw(st.integers(0, 4))):
        left = entity(draw(namespaces), draw(ids), "drug")
        g.add_triple(left, SAME_AS_REL, entity(draw(namespaces), draw(ids), "drug"))
    return g


def assert_index_matches_reference(g):
    got, want = g.index(), reference_index(g)
    for name in ("node_ids", "nodes", "position", "modalities", "relations"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("is_entity", "modality", "triples", "relation", "receiver", "sender", "weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@settings(max_examples=150)
@given(kg_graphs(gnarly=True))
def test_index_matches_the_per_triple_reference(g):
    assert_index_matches_reference(g)


@settings(max_examples=100)
@given(graphs_with_same_as(), graphs_with_same_as())
def test_index_of_merged_and_resolved_graphs_matches_the_reference(a, b):
    merged = merge_graphs(a, b)
    for g in (merged, resolve_same_as(a), resolve_same_as(merged)):
        assert_index_matches_reference(g)


@settings(max_examples=100)
@given(graphs_with_same_as(), graphs_with_same_as())
def test_merge_and_resolve_keep_insertion_order(a, b):
    """Both add nodes and triples in the order that replaying the inputs' triples
    row by row through `add_node` and `add_triple` would."""
    want = MultimodalGraph()
    for g in (a, b):
        for node in g.nodes.values():
            want.add_node(node)
        for t in g.triples():
            want.add_triple(g.nodes[t.source], t.relation, g.nodes[t.target])
    merged = merge_graphs(a, b)
    assert list(merged.nodes.values()) == list(want.nodes.values())
    assert merged.triples() == want.triples()

    resolved = resolve_same_as(a)
    canon = {alias: root for root, aliases in resolved.aliases.items() for alias in aliases}
    assert list(resolved.nodes) == list(dict.fromkeys(canon.get(nid, nid) for nid in a.nodes))
    rows = ((canon.get(t.source, t.source), t.relation, canon.get(t.target, t.target))
            for t in a.triples() if t.relation.name != "sameAs")
    assert [(t.source, t.relation, t.target) for t in resolved.triples()] == list(dict.fromkeys(rows))
