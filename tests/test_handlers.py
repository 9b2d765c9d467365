import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdta.errors import DimMismatch, MissingHandler, NonFinite, ParseError
from kgdta.graph import MultimodalGraph, NodeId, Relation, RelationKind, attribute_node, entity
from kgdta.handlers import (
    EmbeddingTable,
    Handler,
    HandlerRegistry,
    compute_initial_embeddings,
    default_registry,
    hashed_ngram_embed,
    import_external_embeddings,
    number_embed,
    sequence_embed,
    smiles_fingerprint,
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


def test_compute_initial_embeddings_counts_and_zero_entities():
    g = _toy_graph()
    table = compute_initial_embeddings(g, default_registry(), entity_dim=16)
    assert len(table.entries) == len(g.nodes) == 10
    for node in g.entities():
        vec = table.get(node.id)
        assert vec.shape == (16,)
        assert not vec.any()
    for node in g.attributes():
        assert table.get(node.id).any()
    assert table.dims["protein_sequence"] == 128
    assert table.dims["smiles"] == 2048


def test_categorical_attributes_are_zero():
    g = MultimodalGraph()
    g.add_triple(
        entity("uniprot", "P1", "protein"),
        Relation("organism", RelationKind.DATA),
        attribute_node("categorical", "Homo sapiens"),
    )
    table = compute_initial_embeddings(g, default_registry(), entity_dim=8)
    for node in g.attributes():
        assert not table.get(node.id).any()


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
    table = compute_initial_embeddings(g, reg, entity_dim=16)
    # oracle: embed each attribute individually, bypassing the batched path
    for node in g.attributes():
        expected = reg.get(node.modality).embed(node.value)
        assert np.array_equal(table.get(node.id), expected)


def test_import_external_embeddings_roundtrip(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("protein_sequence,4\nuniprot:P1,0.1,0.2,0.3,0.4\ncafe01,1,2,3,4\n")
    frag = import_external_embeddings(str(path))
    assert frag.dims == {"protein_sequence": 4}
    assert np.allclose(frag.get(NodeId("uniprot", "P1")), [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(frag.get(NodeId("attr", "cafe01")), [1, 2, 3, 4])

    again = import_external_embeddings(str(path))
    merged = EmbeddingTable().merge(frag).merge(again)
    assert len(merged.entries) == 2  # re-import is idempotent


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


def test_external_vectors_override_handler_output():
    g = _toy_graph()
    seq_node = g.attributes()[0]
    ext = EmbeddingTable()
    ext.put(seq_node.id, "protein_sequence", np.full(128, 0.5))
    table = compute_initial_embeddings(g, default_registry(), entity_dim=16, external=ext)
    assert np.array_equal(table.get(seq_node.id), np.full(128, 0.5))


def test_merge_dim_conflict():
    a = EmbeddingTable()
    a.put(NodeId("attr", "x"), "protein_sequence", np.zeros(4))
    b = EmbeddingTable()
    b.put(NodeId("attr", "y"), "protein_sequence", np.zeros(5))
    with pytest.raises(DimMismatch):
        a.merge(b)
