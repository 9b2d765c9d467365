"""The graph builders against row-at-a-time references, pinned digests and the
errors they raise.

Every builder adds each node once and appends (source, relation code, target) int
rows. The properties here check that this gives exactly the graph that adding the
same triples one by one through the pre-columnar `add_triple` gives: node order,
relation order, rows (a repeated row keeps its first position) and aliases. The
golden digests were computed from the row-at-a-time builders and pin the bytes
that every later stage reads."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ref import ReferenceGraph, reference_merge, reference_resolve_same_as
from kg_strategies import triple_specs
from kgdta.errors import KindViolation, NTriplesParse
from kgdta.graph import (
    SAME_AS,
    MultimodalGraph,
    Relation,
    RelationKind,
    attribute_node,
    entity,
    merge_graphs,
    resolve_same_as,
)
from kgdta.schema import _node_iri, build_graph, parse_ntriples, parse_schema, to_ntriples
from kgdta.synthetic import make_planted_world

FIXTURES = Path(__file__).parent / "fixtures"
SAME_AS_REL = Relation(SAME_AS, RelationKind.OBJECT)


@st.composite
def build_specs(draw):
    """Triples to add in order: random ones, sameAs links among drug ids, and
    repeats of earlier ones."""
    specs = draw(st.lists(triple_specs(gnarly=True), max_size=12))
    ids = st.sampled_from(["x0", "x1", "x2", "a b"])
    namespaces = st.sampled_from(["drugbank", "chembl"])
    for _ in range(draw(st.integers(0, 3))):
        left = entity(draw(namespaces), draw(ids), "drug")
        specs.append((left, SAME_AS_REL, entity(draw(namespaces), draw(ids), "drug")))
    if specs:
        specs += draw(st.lists(st.sampled_from(specs), max_size=6))
    return draw(st.permutations(specs))


def build(specs) -> tuple[MultimodalGraph, ReferenceGraph]:
    graph, reference = MultimodalGraph(), ReferenceGraph()
    for spec in specs:
        graph.add_triple(*spec)
        reference.add_triple(*spec)
    return graph, reference


def assert_same_graph(graph: MultimodalGraph, reference: ReferenceGraph):
    assert list(graph.nodes.items()) == list(reference.nodes.items())
    assert list(graph.relation_kinds.items()) == list(reference.relation_kinds.items())
    assert graph.columns() == reference.columns()
    assert list(graph.aliases.items()) == list(reference.aliases.items())


@settings(max_examples=150)
@given(build_specs())
def test_add_triple_builds_the_reference_graph(specs):
    assert_same_graph(*build(specs))


@settings(max_examples=100)
@given(build_specs(), build_specs())
def test_merge_and_resolve_build_the_reference_graphs(a_specs, b_specs):
    a, ref_a = build(a_specs)
    b, ref_b = build(b_specs)
    merged, ref_merged = merge_graphs(a, b), reference_merge(ref_a, ref_b)
    assert_same_graph(merged, ref_merged)
    assert_same_graph(resolve_same_as(a), reference_resolve_same_as(ref_a))
    resolved = resolve_same_as(merged)
    assert_same_graph(resolved, reference_resolve_same_as(ref_merged))
    # a second resolution carries the first one's aliases forward
    assert_same_graph(
        resolve_same_as(merge_graphs(resolved, b)),
        reference_resolve_same_as(reference_merge(reference_resolve_same_as(ref_merged), ref_b)),
    )


def reference_parse(lines: list[str], nodes_by_iri: dict) -> ReferenceGraph:
    """What parsing `lines` gives row by row: the nodes in the order of their first
    modality line, then each relation line in file order through `add_triple`."""
    reference = ReferenceGraph()
    split = []  # (subject IRI, predicate IRI, object as written)
    for line in lines:
        subject, rest = line[1:].split("> <", 1)
        split.append((subject, *rest.split("> ", 1)))
    for subject, predicate, _ in split:
        if predicate == "ns://meta/modality":
            reference.add_node(nodes_by_iri[subject])
    for subject, predicate, obj in split:
        if predicate.startswith("ns://rel/"):
            target = nodes_by_iri[obj[1 : -len("> .")]]
            kind = RelationKind.DATA if target.value is not None else RelationKind.OBJECT
            name = predicate[len("ns://rel/") :]
            reference.add_triple(nodes_by_iri[subject], Relation(name, kind), target)
    return reference


@settings(max_examples=150)
@given(build_specs(), st.data())
def test_parse_of_shuffled_and_repeated_lines_builds_the_reference_graph(specs, data):
    # plain relation names, so the predicate IRI needs no percent-decoding here
    graph, _ = build(specs)
    lines = to_ntriples(graph).splitlines()
    if lines:
        lines += data.draw(st.lists(st.sampled_from(lines), max_size=8))
    lines = data.draw(st.permutations(lines))
    nodes_by_iri = {_node_iri(nid): node for nid, node in graph.nodes.items()}
    assert_same_graph(parse_ntriples("".join(line + "\n" for line in lines)), reference_parse(lines, nodes_by_iri))


def test_make_planted_world_builds_the_reference_graph():
    world = make_planted_world(12, 9, seed=4)
    reference = ReferenceGraph()
    drugs = {did: entity("drug", did, "drug") for did in world.drug_values}
    proteins = {pid: entity("prot", pid, "protein") for pid in world.protein_values}
    for did, value in world.drug_values.items():
        reference.add_triple(drugs[did], Relation("smiles", RelationKind.DATA), attribute_node("smiles", value))
    for pid, value in world.protein_values.items():
        reference.add_triple(
            proteins[pid], Relation("sequence", RelationKind.DATA), attribute_node("protein_sequence", value)
        )
    dots = world.drug_latents @ world.protein_latents.T
    drug_ids, protein_ids = list(drugs), list(proteins)
    for i, j in world.kg_pairs:
        if dots[i, j] > world.threshold:
            reference.add_triple(drugs[drug_ids[i]], Relation("binding_to", RelationKind.OBJECT), proteins[protein_ids[j]])
    assert_same_graph(world.graph, reference)


# --- golden digests -----------------------------------------------------------------

# sha256 of each graph's N-Triples, of its node ids then relation names in insertion
# order (one per line), and of the raw bytes of its index arrays (int64 and float64,
# little-endian), with their shapes
GOLDEN = {
    "world": {
        "ntriples": "6c1a20fd2615f944d8c637c4f99eba034d7ec7400c7eeb181ec8e01c25473b31",
        "order": "3bc147166bd5ca8a5ee5d10f9a512080d801b4a42aa8a4211c10cb99f458638a",
        "triples": ((6160, 3), "b2545fa7229f884461b87fd7fddaaff0b5dae812c258e0c31d2c2690185708c3"),
        "relation": ((12320,), "2ca8082e35484c59c7db4096be682eb8a527245b5ddad6efc4bd87be32a1bd63"),
        "receiver": ((12320,), "687b2dc11d618b353f0d7e12b756ad90ca8d7f60e3fd48505f929b67e8940b69"),
        "sender": ((12320,), "8513d5cbdd64cd88b1cd38143f46a7276628866fa8b0a1b71d784e0d2d00961e"),
        "weight": ((12320,), "36873dcab467e5dad547741d3340f1ccd883c3dd91e9b6c17646854e0741dadd"),
    },
    "parsed world": {
        "ntriples": "6c1a20fd2615f944d8c637c4f99eba034d7ec7400c7eeb181ec8e01c25473b31",
        "order": "72c5d828889d2549139227e14d66660b85f1e7aa8869f345b350bf9b1abce002",
        "triples": ((6160, 3), "c849d4a91218338208cbeae5091ecf9da3f0ad31bf76865340421686f4572f34"),
        "relation": ((12320,), "2ca8082e35484c59c7db4096be682eb8a527245b5ddad6efc4bd87be32a1bd63"),
        "receiver": ((12320,), "687b2dc11d618b353f0d7e12b756ad90ca8d7f60e3fd48505f929b67e8940b69"),
        "sender": ((12320,), "8513d5cbdd64cd88b1cd38143f46a7276628866fa8b0a1b71d784e0d2d00961e"),
        "weight": ((12320,), "36873dcab467e5dad547741d3340f1ccd883c3dd91e9b6c17646854e0741dadd"),
    },
    "fixture": {
        "ntriples": "61ad9dcd2dbba57641bf8d0af0d184ffbc2b41cdd819455ee82215b2e427bd6c",
        "order": "d6cb5afbbfaea2d5c280b248fa067a98fbdc14c09da75eb764aae7581a4bd0f6",
        "triples": ((25, 3), "f16f0c0209f3ee03523a8bb7b4bb0767aa3f5ce58d46e8d9609b90b82cb45981"),
        "relation": ((48,), "9aadb60e307b3be4f951161b11a465804c907101f4def9f922c7b94a1b059c74"),
        "receiver": ((48,), "85df7e48791889d0b079d2a440de2be471cde5ccc7bb53b5eb323289e90cb016"),
        "sender": ((48,), "044ba69f5d6e97d793ee582f863fbd0d9a522402b8ffefa55967020fda41b263"),
        "weight": ((48,), "6ddbda04be8d07297c4abc1a321d96e4ac7b5498c546fc025bda085529674e68"),
    },
    "resolved fixture": {
        "ntriples": "2a055c3272194fe384efa3d8d12bf4029d34ce4fbac8f2cadce84505c3e9628c",
        "order": "218297a94178272c0ffdc258d38dc3c658be983c7a22b0d785d6f1cd4358b6bd",
        "triples": ((24, 3), "329ff1e871ce595af60d37f38af2d7790674faf32e94548067dc62f4355ab1ff"),
        "relation": ((48,), "9aadb60e307b3be4f951161b11a465804c907101f4def9f922c7b94a1b059c74"),
        "receiver": ((48,), "a244594e706449354c369460dfc8d57eccf3a95917d979f6ac093a1936b60e0a"),
        "sender": ((48,), "c6a440fe60793580dd6190514db45737f861a5b5abdfbcb264e7a47bc3d7f734"),
        "weight": ((48,), "8b3ce3070bc383830d6fd72fa840be7bdce4f0c653648cb892e956910f615a68"),
    },
}


def golden_graphs() -> dict[str, MultimodalGraph]:
    world = make_planted_world(240, 160, seed=0).graph
    schema = parse_schema((FIXTURES / "schema.json").read_text(), base_dir=FIXTURES)
    fixture, _ = build_graph(schema, base_dir=FIXTURES)
    return {
        "world": world,
        "parsed world": parse_ntriples(to_ntriples(world)),
        "fixture": fixture,
        "resolved fixture": resolve_same_as(fixture),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_builders_keep_the_golden_bytes():
    for name, graph in golden_graphs().items():
        want = GOLDEN[name]
        assert sha256(to_ntriples(graph).encode()) == want["ntriples"], name
        order = "\n".join([*map(str, graph.nodes), *graph.relation_kinds])
        assert sha256(order.encode()) == want["order"], name
        index = graph.index()
        for field in ("triples", "relation", "receiver", "sender", "weight"):
            array = getattr(index, field)
            dtype = "<f8" if field == "weight" else "<i8"
            got = (array.shape, sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()))
            assert got == want[field], f"{name}: {field}"


# --- errors -------------------------------------------------------------------------


def nt(*lines):
    return "".join(line + "\n" for line in lines)


_NODES = (
    '<ns://a/b> <ns://meta/modality> "drug" .',
    '<ns://a/c> <ns://meta/modality> "drug" .',
    '<ns://v/h> <ns://meta/modality> "text" .',
    '<ns://v/h> <ns://meta/value> "hi" .',
)


def test_an_attribute_subject_is_a_kind_violation_naming_it():
    text = nt(*_NODES, "<ns://a/b> <ns://rel/r> <ns://a/c> .", "<ns://v/h> <ns://rel/r> <ns://a/c> .")
    with pytest.raises(KindViolation, match="^triple source v:h must be an entity$"):
        parse_ntriples(text)


def test_an_attribute_subject_is_reported_before_a_relation_kind_conflict_on_its_line():
    # line 6 both starts from an attribute and uses `r` with an attribute target
    text = nt(*_NODES, "<ns://a/b> <ns://rel/r> <ns://a/c> .", "<ns://v/h> <ns://rel/r> <ns://v/h> .")
    with pytest.raises(KindViolation, match="^triple source v:h must be an entity$"):
        parse_ntriples(text)


def test_a_line_whose_nodes_both_lack_modality_names_the_object():
    with pytest.raises(NTriplesParse, match="^line 2: node a:y has no modality triple$"):
        parse_ntriples(nt(_NODES[0], "<ns://a/x> <ns://rel/r> <ns://a/y> ."))


def test_a_node_without_modality_is_reported_before_an_attribute_subject():
    text = nt(*_NODES, "<ns://v/h> <ns://rel/r> <ns://a/x> .")
    with pytest.raises(NTriplesParse, match="^line 5: node a:x has no modality triple$"):
        parse_ntriples(text)


def test_a_repeated_relation_line_keeps_one_row_at_its_first_position():
    first, second = "<ns://a/b> <ns://rel/r> <ns://a/c> .", "<ns://a/c> <ns://rel/s> <ns://a/b> ."
    graph = parse_ntriples(nt(*_NODES, first, second, first, second, first))
    assert [(str(t.source), t.relation.name, str(t.target)) for t in graph.triples()] == [
        ("a:b", "r", "a:c"),
        ("a:c", "s", "a:b"),
    ]
    assert graph.columns() == ([0, 1], [0, 1], [1, 0])


def test_build_graph_reports_a_relation_used_as_data_and_object_property_at_its_first_row(tmp_path):
    (tmp_path / "t.tsv").write_text("id\tseq\tother\nA1\t\tA2\nA2\tMKTA\tA1\n")
    doc = {
        "sources": [{"name": "t", "path": "t.tsv"}],
        "entity_types": [{
            "name": "protein", "source": "t", "namespace": "uniprot", "id_column": "id", "modality": "protein",
            "data_properties": [{"relation": "r", "column": "seq", "modality": "protein_sequence"}],
            "object_properties": [{"relation": "r", "target_namespace": "uniprot", "target_column": "other"}],
        }],
    }
    with pytest.raises(KindViolation, match="^relation 'r' used as both data and object property$"):
        build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
