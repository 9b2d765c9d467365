import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from kg_strategies import graphs
from kgdta.errors import NTriplesParse, SchemaParse, SchemaValidation, SourceRead
from kgdta.graph import MultimodalGraph, NodeId, resolve_same_as
from kgdta.schema import build_graph, parse_schema, parse_ntriples, to_ntriples

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_schema():
    return parse_schema((FIXTURES / "schema.json").read_text(), base_dir=FIXTURES)


def minimal_schema(tmp_path, **overrides):
    (tmp_path / "t.tsv").write_text("id\tseq\nA1\tMKTA\n")
    doc = {
        "sources": [{"name": "t", "path": "t.tsv", "format": "delimited", "delimiter": "\t"}],
        "entity_types": [
            {
                "name": "protein",
                "source": "t",
                "namespace": "uniprot",
                "id_column": "id",
                "modality": "protein",
                "data_properties": [
                    {"relation": "sequence", "column": "seq", "modality": "protein_sequence"}
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_schema(tmp_path):
    schema = parse_schema(json.dumps(minimal_schema(tmp_path)), base_dir=tmp_path)
    assert len(schema.sources) == 1
    assert schema.entity_types[0].data_properties[0].relation == "sequence"


def test_fixture_schema_declares_same_as():
    schema = load_fixture_schema()
    drug_type = next(et for et in schema.entity_types if et.name == "drug")
    assert drug_type.same_as_links


def test_unknown_column_rejected(tmp_path):
    doc = minimal_schema(tmp_path)
    doc["entity_types"][0]["data_properties"][0]["column"] = "nope"
    with pytest.raises(SchemaValidation, match="nope"):
        parse_schema(json.dumps(doc), base_dir=tmp_path)


def test_malformed_json_rejected():
    with pytest.raises(SchemaParse):
        parse_schema("{not json")


def test_empty_namespace_rejected(tmp_path):
    doc = minimal_schema(tmp_path)
    doc["entity_types"][0]["namespace"] = ""
    with pytest.raises(SchemaValidation):
        parse_schema(json.dumps(doc), base_dir=tmp_path)


def test_missing_source_file(tmp_path):
    doc = minimal_schema(tmp_path)
    doc["sources"][0]["path"] = "missing.tsv"
    with pytest.raises(SourceRead):
        parse_schema(json.dumps(doc), base_dir=tmp_path)


def test_conflicting_namespace_modalities(tmp_path):
    doc = minimal_schema(tmp_path)
    doc["namespaces"] = {"uniprot": "drug"}
    with pytest.raises(SchemaValidation):
        parse_schema(json.dumps(doc), base_dir=tmp_path)


def test_same_as_modality_mismatch_rejected(tmp_path):
    doc = minimal_schema(tmp_path)
    doc["namespaces"] = {"pdb": "structure"}
    doc["entity_types"][0]["same_as_links"] = [
        {"source_column": "id", "target_namespace": "pdb", "target_column": "seq"}
    ]
    with pytest.raises(SchemaValidation, match="mixes"):
        parse_schema(json.dumps(doc), base_dir=tmp_path)


def test_build_fixture_graph_counts():
    graph, report = build_graph(load_fixture_schema(), base_dir=FIXTURES)
    # 4 protein rows -> 4 entities; one molecule row missing its id
    assert report.entities["protein"] == 4
    assert report.entities["drug"] == 2
    assert report.skipped_missing_id == 1
    assert not report.errors

    p06820 = NodeId("uniprot", "P06820")
    rels = {t.relation.name for t in graph.triples() if t.source == p06820}
    assert rels == {"sequence", "label", "family", "length", "target_of"}

    # NA length is a null marker: entity exists, no length triple
    p00533_rels = {t.relation.name for t in graph.triples() if t.source == NodeId("uniprot", "P00533")}
    assert "length" not in p00533_rels and "sequence" in p00533_rels
    # empty sequence cell: entity exists, no sequence triple
    p99999_rels = {t.relation.name for t in graph.triples() if t.source == NodeId("uniprot", "P99999")}
    assert "sequence" not in p99999_rels

    # jsonl source merges onto the same drugbank entities and links to uniprot
    assert ("drugbank:DB02268", "binding_to", "uniprot:P06820") in graph.triple_keys()
    # sameAs triple emitted for the declared link
    assert ("drugbank:DB02268", "sameAs", "chembl:CHEMBL1091644") in graph.triple_keys()


def test_entities_shared_across_sources_merge():
    graph, _ = build_graph(load_fixture_schema(), base_dir=FIXTURES)
    db = NodeId("drugbank", "DB02268")
    rels = {t.relation.name for t in graph.triples() if t.source == db}
    # smiles/mass from molecules.csv, confidence/binding_to from interactions.jsonl
    assert {"smiles", "mass", "confidence", "binding_to"} <= rels


def test_row_decode_errors_are_tallied(tmp_path):
    (tmp_path / "bad.tsv").write_text("id\tlength\nA1\tnot_a_number\nA2\t7\n")
    doc = {
        "sources": [{"name": "b", "path": "bad.tsv", "format": "delimited", "delimiter": "\t"}],
        "entity_types": [
            {
                "name": "thing",
                "source": "b",
                "namespace": "uniprot",
                "id_column": "id",
                "modality": "protein",
                "data_properties": [{"relation": "length", "column": "length", "modality": "number"}],
            }
        ],
    }
    graph, report = build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
    assert len(report.errors) == 1 and "bad.tsv:2" in report.errors[0]
    assert report.entities["thing"] == 2  # build continued


def test_build_is_deterministic():
    schema = load_fixture_schema()
    a, _ = build_graph(schema, base_dir=FIXTURES)
    b, _ = build_graph(schema, base_dir=FIXTURES)
    assert to_ntriples(a) == to_ntriples(b)


def test_resolve_same_as_after_build():
    graph, _ = build_graph(load_fixture_schema(), base_dir=FIXTURES)
    resolved = resolve_same_as(graph)
    canonical = NodeId("chembl", "CHEMBL1091644")
    assert canonical in resolved.nodes
    assert NodeId("drugbank", "DB02268") not in resolved.nodes
    rels = {t.relation.name for t in resolved.triples() if t.source == canonical}
    assert {"smiles", "mass", "binding_to"} <= rels


# --- N-Triples ------------------------------------------------------------------


def test_single_object_triple_format():
    from kgdta.graph import Relation, RelationKind, entity

    g = MultimodalGraph()
    g.add_triple(
        entity("uniprot", "P06820", "protein"),
        Relation("target_of", RelationKind.OBJECT),
        entity("drugbank", "DB02268", "drug"),
    )
    text = to_ntriples(g)
    assert "<ns://uniprot/P06820> <ns://rel/target_of> <ns://drugbank/DB02268> ." in text.splitlines()


def test_empty_graph_serializes_to_empty_string():
    assert to_ntriples(MultimodalGraph()) == ""
    empty = parse_ntriples("")
    assert empty.num_triples() == 0 and not empty.nodes


def test_lines_are_sorted_with_lf():
    graph, _ = build_graph(load_fixture_schema(), base_dir=FIXTURES)
    text = to_ntriples(graph)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n") and "\r" not in text


def graph_signature(g):
    nodes = {
        (str(n.id), n.modality, n.kind.value, n.value if not isinstance(n.value, float) else round(n.value, 12))
        for n in g.nodes.values()
    }
    return nodes, g.triple_keys()


def test_fixture_roundtrip():
    graph, _ = build_graph(load_fixture_schema(), base_dir=FIXTURES)
    back = parse_ntriples(to_ntriples(graph))
    assert graph_signature(back) == graph_signature(graph)
    assert to_ntriples(back) == to_ntriples(graph)


@settings(max_examples=150)
@given(graphs(gnarly=True))
def test_roundtrip_property(g):
    back = parse_ntriples(to_ntriples(g))
    assert graph_signature(back) == graph_signature(g)


def test_missing_terminal_dot_reports_line():
    g = MultimodalGraph()
    from kgdta.graph import Relation, RelationKind, entity

    g.add_triple(
        entity("uniprot", "P1", "protein"),
        Relation("target_of", RelationKind.OBJECT),
        entity("drugbank", "D1", "drug"),
    )
    lines = to_ntriples(g).splitlines()
    lines[1] = lines[1].rstrip(" .")
    with pytest.raises(NTriplesParse, match="line 2"):
        parse_ntriples("\n".join(lines))


def test_unknown_predicate_rejected():
    with pytest.raises(NTriplesParse):
        parse_ntriples('<ns://a/b> <http://example.com/p> <ns://a/c> .\n')


def test_node_without_modality_rejected():
    with pytest.raises(NTriplesParse, match="modality"):
        parse_ntriples("<ns://a/b> <ns://rel/r> <ns://a/c> .\n")
