import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdta.errors import (
    DimMismatch,
    KindViolation,
    MissingHandler,
    ModalityConflict,
    NonFinite,
    ParseError,
)
from kgdta.graph import MultimodalGraph, NodeId, Relation, RelationKind, attribute_node, entity
from kgdta.handlers import (
    Handler,
    HandlerRegistry,
    compute_initial_embeddings,
    default_registry,
    hashed_ngram_embed,
    import_external_embeddings,
    number_embed,
    sequence_embed,
    smiles_fingerprint,
    text_embed,
)
from kgdta.util import fnv1a64


def reference_fnv1a64(s: str) -> int:
    # independent implementation of the public FNV-1a spec, used as the hash oracle
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def scalar_ngram_embed(value, sizes, dim, binary):
    """The per-n-gram loop form of `hashed_ngram_embed`, hashing with `util.fnv1a64`."""
    vec = np.zeros(dim)
    for size in sizes:
        for i in range(len(value) - size + 1):
            bucket = fnv1a64(value[i : i + size]) % dim
            vec[bucket] = 1.0 if binary else vec[bucket] + 1.0
    norm = math.sqrt(float(np.dot(vec, vec)))
    if not binary and norm > 0.0:
        vec /= norm
    return vec


SPECIAL_STRINGS = ["", "C", "é", "😀", "a😀b", "ü€𝄞", "e\u0301", "CCO😀😀c1ccccc1", "日本語のテキスト"]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(SPECIAL_STRINGS), st.text(max_size=30)),
    st.lists(st.integers(1, 8), min_size=1, max_size=4),
    st.sampled_from([1, 7, 64, 2048]),
    st.booleans(),
)
def test_hashed_ngram_embed_is_bit_exact_with_the_scalar_loop(value, sizes, dim, binary):
    fast = hashed_ngram_embed(value, sizes, dim, binary=binary)
    assert fast.tobytes() == scalar_ngram_embed(value, sizes, dim, binary).tobytes()


def test_bigrams_of_cco_land_in_reference_buckets():
    vec = hashed_ngram_embed("CCO", 2, 2048, binary=True)
    expected = {reference_fnv1a64("CC") % 2048, reference_fnv1a64("CO") % 2048}
    assert set(np.nonzero(vec)[0]) == expected
    assert vec.sum() == len(expected)


def test_empty_string_embeds_to_zeros():
    assert not hashed_ngram_embed("", 3, 64).any()
    assert not smiles_fingerprint("").any()
    assert not sequence_embed("").any()


@pytest.mark.parametrize("value", [2.0, 7, None, ["C"]])
def test_string_handlers_reject_a_value_that_is_not_a_string(value):
    for embed in (smiles_fingerprint, sequence_embed, text_embed):
        with pytest.raises(KindViolation, match="string"):
            embed(value)


def test_a_number_literal_on_a_string_modality_has_no_initial_embedding():
    g = MultimodalGraph()
    g.add_triple(entity("drugbank", "D1", "drug"), Relation("smiles", RelationKind.DATA), attribute_node("smiles", 2.0))
    with pytest.raises(KindViolation, match="string"):
        compute_initial_embeddings(g, default_registry())


def test_equal_strings_equal_vectors_and_single_edits_differ():
    rng = np.random.default_rng(7)
    alphabet = list("ACDEFGHIKLMNPQRSTVWY")
    for _ in range(200):
        s = "".join(rng.choice(alphabet, size=12))
        again = str(s)
        i = int(rng.integers(0, len(s)))
        repl = alphabet[(alphabet.index(s[i]) + 1) % len(alphabet)]
        edited = s[:i] + repl + s[i + 1 :]
        a = hashed_ngram_embed(s, 3, 256)
        assert np.array_equal(a, hashed_ngram_embed(again, 3, 256))
        assert not np.array_equal(a, hashed_ngram_embed(edited, 3, 256))


def test_fingerprint_shape_and_order_sensitivity():
    fp = smiles_fingerprint("CCO")
    assert fp.shape == (2048,)
    assert set(np.unique(fp)) <= {0.0, 1.0}
    assert 0 < fp.sum() <= 3 + 2 + 1  # at most one bucket per n-gram of sizes 1..3
    assert not np.array_equal(fp, smiles_fingerprint("OCC"))


def test_sequence_truncation_to_1022():
    rng = np.random.default_rng(11)
    long_seq = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=2000))
    assert np.array_equal(sequence_embed(long_seq), sequence_embed(long_seq[:1022]))
    assert not np.array_equal(sequence_embed(long_seq), sequence_embed(long_seq[:900]))


def test_sequence_embedding_is_unit_norm():
    vec = sequence_embed("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_number_embed_identity_and_nonfinite():
    assert np.array_equal(number_embed(3.5), [3.5])
    assert np.array_equal(number_embed(0), [0.0])
    with pytest.raises(NonFinite):
        number_embed(float("nan"))
    with pytest.raises(NonFinite):
        number_embed(float("inf"))


def test_registry_replacement_and_lookup():
    reg = HandlerRegistry()
    reg.register(Handler("smiles", 8, lambda v: np.zeros(8)))
    reg.register(Handler("smiles", 4, lambda v: np.ones(4)))
    assert reg.get("smiles").dim == 4
    reg.register(Handler("text", 2, lambda v: np.zeros(2)))
    assert reg.get("text").dim == 2
    with pytest.raises(MissingHandler):
        reg.get("image")


def _toy_graph():
    g = MultimodalGraph()
    seq_rel = Relation("sequence", RelationKind.DATA)
    smi_rel = Relation("smiles", RelationKind.DATA)
    for i, seq in enumerate(["MKTAY", "HFSRQ", "LEERL"]):
        g.add_triple(entity("uniprot", f"P{i}", "protein"), seq_rel, attribute_node("protein_sequence", seq))
    for i, smi in enumerate(["CCO", "c1ccccc1"]):
        g.add_triple(entity("drugbank", f"D{i}", "drug"), smi_rel, attribute_node("smiles", smi))
    return g


def initial_vector(table, graph, node_id):
    """The initial vector the table holds for one attribute of `graph`."""
    row = table.row[graph.index().position[node_id]]
    assert row >= 0
    return table.matrices[graph.nodes[node_id].modality][row]


def test_compute_initial_embeddings_rows_follow_the_index():
    g = _toy_graph()
    gi = g.index()
    table = compute_initial_embeddings(g, default_registry())
    assert table.node_ids is gi.node_ids
    assert len(table.row) == len(g.nodes) == 10
    for node in g.entities():
        assert table.row[gi.position[node.id]] == -1
    for modality, dim, count in (("protein_sequence", 128, 3), ("smiles", 2048, 2)):
        assert table.matrices[modality].shape == (count, dim)
        nodes = sorted(gi.position[n.id] for n in g.nodes.values() if n.modality == modality)
        assert table.row[nodes].tolist() == list(range(count))  # rows follow index order
    assert set(table.matrices) == {"protein_sequence", "smiles"}
    for node in g.attributes():
        assert initial_vector(table, g, node.id).any()


def test_categorical_attributes_have_no_row():
    g = MultimodalGraph()
    g.add_triple(
        entity("uniprot", "P1", "protein"),
        Relation("organism", RelationKind.DATA),
        attribute_node("categorical", "Homo sapiens"),
    )
    table = compute_initial_embeddings(g, default_registry())
    assert table.row.tolist() == [-1, -1]
    assert table.matrices == {}


def test_missing_handler_for_unknown_modality():
    g = MultimodalGraph()
    g.add_triple(
        entity("drugbank", "D1", "drug"),
        Relation("depicted_by", RelationKind.DATA),
        attribute_node("image", "blob"),
    )
    with pytest.raises(MissingHandler, match="image"):
        compute_initial_embeddings(g, default_registry())


def test_batched_equals_one_at_a_time():
    g = _toy_graph()
    reg = default_registry()
    table = compute_initial_embeddings(g, reg)
    # oracle: embed each attribute individually, bypassing the batched path
    for node in g.attributes():
        expected = reg.get(node.modality).embed(node.value)
        assert np.array_equal(initial_vector(table, g, node.id), expected)


def test_import_external_embeddings_roundtrip(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("protein_sequence,4\nuniprot:P1,0.1,0.2,0.3,0.4\ncafe01,1,2,3,4\n")
    table = import_external_embeddings(str(path))
    assert list(table) == ["protein_sequence"]
    frag = table["protein_sequence"]
    assert list(frag) == [NodeId("uniprot", "P1"), NodeId("attr", "cafe01")]
    assert np.allclose(frag[NodeId("uniprot", "P1")], [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(frag[NodeId("attr", "cafe01")], [1, 2, 3, 4])

    again = import_external_embeddings(str(path))["protein_sequence"]
    assert again.keys() == frag.keys()  # re-import is idempotent
    assert all(np.array_equal(again[k], frag[k]) for k in frag)


def test_import_external_dim_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("protein_sequence,4\nuniprot:P1,1,2,3\n")
    with pytest.raises(DimMismatch):
        import_external_embeddings(str(path))


def test_import_external_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("protein_sequence\n")
    with pytest.raises(ParseError):
        import_external_embeddings(str(path))
    path.write_text("protein_sequence,2\nuniprot:P1,1,oops\n")
    with pytest.raises(ParseError):
        import_external_embeddings(str(path))
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"protein_sequence,2\nuniprot:P1,1,{bad}\n")
        with pytest.raises(ParseError):
            import_external_embeddings(str(path))


def test_external_vectors_override_handler_output(tmp_path):
    g = _toy_graph()
    seq_node = g.attributes()[0]
    path = tmp_path / "ext.csv"
    path.write_text(f"protein_sequence,128\n{seq_node.id.local_id}," + ",".join(["0.5"] * 128) + "\n")
    external = import_external_embeddings(str(path))
    table = compute_initial_embeddings(g, default_registry(), external=external)
    assert np.array_equal(initial_vector(table, g, seq_node.id), np.full(128, 0.5))
    reg = default_registry()
    for node in g.attributes()[1:]:
        assert np.array_equal(initial_vector(table, g, node.id), reg.get(node.modality).embed(node.value))


@pytest.mark.parametrize("shape", [(4,), (129,), (2, 64), ()], ids=["narrow", "wide", "2d", "scalar"])
def test_external_width_must_match_the_handler(shape):
    g = _toy_graph()
    seq_node = g.attributes()[0]
    with pytest.raises(DimMismatch, match="protein_sequence"):
        compute_initial_embeddings(
            g, default_registry(), external={"protein_sequence": {seq_node.id: np.zeros(shape)}})


def test_external_vector_must_match_its_node_modality(tmp_path):
    # a text-headed file keyed by a sequence attribute's hash must not replace its row
    g = _toy_graph()
    seq_node = g.attributes()[0]
    assert seq_node.modality == "protein_sequence"
    path = tmp_path / "ext.csv"
    path.write_text(f"text,128\n{seq_node.id.local_id}," + ",".join(["0.5"] * 128) + "\n")
    with pytest.raises(ModalityConflict, match="text"):
        compute_initial_embeddings(g, default_registry(), external=import_external_embeddings(str(path)))
    # keys naming no node of the graph stay allowed
    path.write_text("text,128\nattr:absent," + ",".join(["0.5"] * 128) + "\n")
    table = compute_initial_embeddings(g, default_registry(), external=import_external_embeddings(str(path)))
    expected = default_registry().get("protein_sequence").embed(seq_node.value)
    assert np.array_equal(initial_vector(table, g, seq_node.id), expected)


@pytest.mark.parametrize("target", ["entity", "categorical"])
def test_external_vector_for_a_node_without_a_row_is_rejected(target, tmp_path):
    # entities and categorical attributes have no initial row, so the vector would be dropped
    g = _toy_graph()
    g.add_triple(entity("uniprot", "P0", "protein"), Relation("family", RelationKind.DATA),
                 attribute_node("categorical", "kinase"))
    node = g.nodes[NodeId("uniprot", "P0")] if target == "entity" else next(
        n for n in g.attributes() if n.modality == "categorical")
    path = tmp_path / "ext.csv"
    path.write_text(f"{node.modality},4\n{node.id.namespace}:{node.id.local_id},1,2,3,4\n")
    with pytest.raises(KindViolation, match=node.modality):
        compute_initial_embeddings(g, default_registry(), external=import_external_embeddings(str(path)))


def test_import_external_table_that_is_not_utf8_raises_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("protein_sequence,2\nÄ1,1,2\n".encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.csv is not UTF-8"):
        import_external_embeddings(str(path))
