import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg_strategies import graphs
from kgdta.errors import KindViolation, NTriplesParse, SchemaParse, SchemaValidation, SourceRead
from kgdta.graph import MultimodalGraph, NodeId, Relation, RelationKind, attribute_node, entity, resolve_same_as
from kgdta.schema import Schema, build_graph, parse_schema, parse_ntriples, to_ntriples

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


def test_source_that_is_not_utf8_raises_source_read(tmp_path):
    doc = minimal_schema(tmp_path)
    (tmp_path / "t.tsv").write_bytes("id\tseq\nÄ1\tMKTA\n".encode("latin-1"))
    with pytest.raises(SourceRead, match="t.tsv"):
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


def fixture_doc():
    return json.loads((FIXTURES / "schema.json").read_text())


MALFORMED = {
    "source_not_an_object": lambda doc: doc["sources"].__setitem__(0, 5),
    "sources_not_a_list": lambda doc: doc.__setitem__("sources", {"a": 1}),
    "namespaces_not_an_object": lambda doc: doc.__setitem__("namespaces", []),
    "entity_type_not_an_object": lambda doc: doc["entity_types"].__setitem__(2, "drug"),
    "property_not_an_object": lambda doc: doc["entity_types"][0]["data_properties"].__setitem__(1, 7),
    "property_block_not_a_list": lambda doc: doc["entity_types"][0].__setitem__(
        "data_properties", {"relation": "sequence", "column": "seq", "modality": "protein_sequence"}
    ),
    "null_markers_not_a_list": lambda doc: doc["sources"][0].__setitem__("null_markers", "NA"),
    "required_field_missing": lambda doc: doc["entity_types"][1]["same_as_links"][0].pop("target_column"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_entries_raise_schema_validation(case):
    doc = fixture_doc()
    MALFORMED[case](doc)
    with pytest.raises(SchemaValidation):
        parse_schema(json.dumps(doc), base_dir=FIXTURES)


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def mutated_schemas(draw):
    """The fixture schema with one to three entries, fields or blocks dropped or
    replaced by a number, string, list or object."""
    doc = fixture_doc()
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_schemas())
def test_a_mutated_schema_parses_or_raises_a_schema_error(doc):
    try:
        schema = parse_schema(json.dumps(doc), base_dir=FIXTURES)
    except (SchemaParse, SchemaValidation, SourceRead):
        return
    assert isinstance(schema, Schema)


JSONL_SCHEMA = json.dumps({
    "sources": [{"name": "r", "path": "rows.jsonl", "format": "jsonl"}],
    "entity_types": [{"name": "t", "source": "r", "namespace": "uniprot", "id_column": "id", "modality": "protein"}],
})


def test_undecodable_first_jsonl_row_names_its_line(tmp_path):
    (tmp_path / "rows.jsonl").write_text('\n  \n{"id": \n{"id": "A1"}\n')
    with pytest.raises(SourceRead, match=r"rows\.jsonl:3: bad JSON"):
        parse_schema(JSONL_SCHEMA, base_dir=tmp_path)


def test_later_undecodable_jsonl_rows_are_tallied_with_their_lines(tmp_path):
    (tmp_path / "rows.jsonl").write_text('{"id": "A1"}\n\n[1]\n{"id": \n{"id": "A2"}\n')
    _, report = build_graph(parse_schema(JSONL_SCHEMA, base_dir=tmp_path), base_dir=tmp_path)
    assert len(report.errors) == 2
    assert "rows.jsonl:3: row is not an object" in report.errors[0]
    assert "rows.jsonl:4: bad JSON" in report.errors[1]
    assert report.entities["t"] == 2


def test_jsonl_id_target_and_same_as_cells_of_other_types_are_row_errors(tmp_path):
    (tmp_path / "rows.jsonl").write_text(
        '{"id": "A1", "x": "B1", "alias": 7}\n'
        '{"id": [1, 2], "x": "B2", "alias": "C2"}\n'
        '{"id": "A3", "x": {"a": 1}, "alias": "C3"}\n'
        '{"id": true, "x": "B4", "alias": "C4"}\n'
        '{"id": "A5", "x": false, "alias": [5]}\n'
        '{"id": 6, "x": 6.5, "alias": null}\n'
        '{"id": NaN, "x": "B7", "alias": "C7"}\n'
        '{"id": "A8", "x": Infinity, "alias": 1e400}\n'
    )
    doc = json.loads(JSONL_SCHEMA)
    doc["entity_types"][0]["object_properties"] = [
        {"relation": "binds", "target_namespace": "drugbank", "target_column": "x"}
    ]
    doc["entity_types"][0]["same_as_links"] = [
        {"source_column": "id", "target_namespace": "chembl", "target_column": "alias"}
    ]
    doc["namespaces"] = {"drugbank": "drug", "chembl": "protein"}
    graph, report = build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
    assert report.errors == [
        f"{tmp_path / 'rows.jsonl'}:2: 'id' has unsupported type list",
        f"{tmp_path / 'rows.jsonl'}:3: 'x' has unsupported type dict",
        f"{tmp_path / 'rows.jsonl'}:4: 'id' has unsupported type bool",
        f"{tmp_path / 'rows.jsonl'}:5: 'x' has unsupported type bool",
        f"{tmp_path / 'rows.jsonl'}:5: 'alias' has unsupported type list",
        f"{tmp_path / 'rows.jsonl'}:7: 'id' is not finite",
        f"{tmp_path / 'rows.jsonl'}:8: 'x' is not finite",
        f"{tmp_path / 'rows.jsonl'}:8: 'alias' is not finite",
    ]
    assert report.entities["t"] == 5  # rows 2, 4 and 7 have no usable id
    assert sorted(str(n.id) for n in graph.entities()) == [
        "chembl:7", "chembl:C3", "drugbank:6.5", "drugbank:B1",
        "uniprot:6", "uniprot:A1", "uniprot:A3", "uniprot:A5", "uniprot:A8",
    ]
    assert graph.triple_keys() == {
        ("uniprot:A1", "binds", "drugbank:B1"),
        ("uniprot:A1", "sameAs", "chembl:7"),
        ("uniprot:A3", "sameAs", "chembl:C3"),
        ("uniprot:6", "binds", "drugbank:6.5"),
    }


@pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85"])  # the others are control characters JSON escapes
def test_a_jsonl_string_holding_a_unicode_line_boundary_stays_one_row(tmp_path, boundary):
    rows = [{"id": "A1", "name": f"x{boundary}y"}, {"id": "A2", "name": "z"}]
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows) + '{"id": \n'
    (tmp_path / "rows.jsonl").write_text(text, encoding="utf-8")
    doc = json.loads(JSONL_SCHEMA)
    doc["entity_types"][0]["data_properties"] = [{"relation": "label", "column": "name", "modality": "text"}]
    graph, report = build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
    assert report.errors == [f"{tmp_path / 'rows.jsonl'}:3: bad JSON: Expecting value"]
    assert [n.value for n in graph.attributes()] == [f"x{boundary}y", "z"]


def test_jsonl_bool_in_a_number_column_is_a_row_error(tmp_path):
    (tmp_path / "rows.jsonl").write_text('{"id": "A1", "len": true}\n{"id": "A2", "len": false}\n{"id": "A3", "len": 4}\n')
    doc = json.loads(JSONL_SCHEMA)
    doc["entity_types"][0]["data_properties"] = [{"relation": "length", "column": "len", "modality": "number"}]
    graph, report = build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
    assert report.errors == [
        f"{tmp_path / 'rows.jsonl'}:1: 'len' has unsupported type bool",
        f"{tmp_path / 'rows.jsonl'}:2: 'len' has unsupported type bool",
    ]
    assert report.entities["t"] == 3
    assert [n.value for n in graph.attributes()] == [4.0]

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


def test_row_errors_name_the_file_line_after_a_quoted_line_break(tmp_path):
    (tmp_path / "q.tsv").write_text('id\tlength\n"A\nB"\t1\nC\tx\nD\n')
    doc = minimal_schema(tmp_path)
    doc["sources"][0]["path"] = "q.tsv"
    doc["entity_types"][0]["data_properties"] = [{"relation": "length", "column": "length", "modality": "number"}]
    _, report = build_graph(parse_schema(json.dumps(doc), base_dir=tmp_path), base_dir=tmp_path)
    assert len(report.errors) == 2
    assert "q.tsv:4: 'length' is not a number" in report.errors[0]
    assert "q.tsv:5: expected 2 cells, got 1" in report.errors[1]


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


def nt(*lines):
    return "".join(line + "\n" for line in lines)


_TEXT_NODE = '<ns://a/x> <ns://meta/modality> "text" .'


@pytest.mark.parametrize("lines", [
    [_TEXT_NODE, '<ns://a/x> <ns://meta/modality> "drug" .'],
    [_TEXT_NODE, '<ns://a/x> <ns://meta/value> "one" .', '<ns://a/x> <ns://meta/value> "two" .'],
    [_TEXT_NODE, '<ns://a/x> <ns://meta/value> "1.0"^^<ns://meta/float> .', '<ns://a/x> <ns://meta/value> "1.0" .'],
])
def test_conflicting_meta_lines_name_the_second(lines):
    with pytest.raises(NTriplesParse, match=f"^line {len(lines)}: node a:x"):
        parse_ntriples(nt(*lines))


def test_repeated_meta_lines_with_the_same_literal_are_accepted():
    lines = [_TEXT_NODE, '<ns://a/x> <ns://meta/value> "nan"^^<ns://meta/float> .']
    graph = parse_ntriples(nt(*lines, *lines))
    (node,) = graph.nodes.values()
    assert node.modality == "text" and node.value != node.value


def test_a_bad_iri_reports_its_first_line():
    good = '<ns://a/x> <ns://meta/modality> "drug" .'
    bad = '<ns://a> <ns://meta/modality> "drug" .'
    with pytest.raises(NTriplesParse, match="^line 2: malformed node IRI"):
        parse_ntriples(nt(good, bad, good, good, bad))


def test_a_node_without_modality_reports_the_first_edge_line_using_it():
    text = nt(
        '<ns://a/b> <ns://meta/modality> "drug" .',
        '<ns://a/b> <ns://rel/r> <ns://a/c> .',
        '<ns://a/b> <ns://rel/s> <ns://a/c> .',
    )
    with pytest.raises(NTriplesParse, match="^line 2: node a:c has no modality triple"):
        parse_ntriples(text)


def test_a_relation_with_attribute_and_entity_targets_is_a_kind_violation():
    text = nt(
        '<ns://a/b> <ns://meta/modality> "drug" .',
        '<ns://a/c> <ns://meta/modality> "drug" .',
        '<ns://v/h> <ns://meta/modality> "text" .',
        '<ns://v/h> <ns://meta/value> "hi" .',
        '<ns://a/b> <ns://rel/r> <ns://a/c> .',
        '<ns://a/b> <ns://rel/r> <ns://v/h> .',
    )
    with pytest.raises(KindViolation, match="used as both data and object property"):
        parse_ntriples(text)


# the characters besides "\n" and "\r" that str.splitlines ends a line at
@pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_a_text_literal_holding_a_unicode_line_boundary_round_trips(boundary):
    label = attribute_node("text", f"{boundary}a{boundary}b{boundary}")
    g = MultimodalGraph().add_triple(entity("a", "x", "drug"), Relation("label", RelationKind.DATA), label)
    back = parse_ntriples(to_ntriples(g))
    assert graph_signature(back) == graph_signature(g)
    assert back.nodes[label.id].value == label.value


@pytest.mark.parametrize("predicate", ["modality", "value"])
def test_an_unknown_escape_reports_its_line(predicate):
    text = nt('<ns://v/h> <ns://meta/modality> "text" .', f'<ns://v/h> <ns://meta/{predicate}> "a\\qb" .')
    with pytest.raises(NTriplesParse, match=r"^line 2: unknown escape \\q"):
        parse_ntriples(text)
