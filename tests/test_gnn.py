import sys

import numpy as np
import pytest

import kgdta.graph as graph_mod
from kgdta import numerics as nm
from gnn_ref import flat_messages
import numerics_ref as ref
from kgdta.errors import DimMismatch, KindViolation, MissingHandler, MissingProjection, NonFinite, ShapeMismatch
from kgdta.gnn import (
    INFER_DEFAULTS,
    FlowPolicy,
    GnnParams,
    RgcnLayer,
    build_mp,
    encode,
    encode_layers,
    infer,
    init_gnn_params,
)
from kgdta.graph import MultimodalGraph, NodeId, NodeKind, Relation, RelationKind, attribute_node, entity
from kgdta.handlers import (
    EmbeddingTable,
    Handler,
    HandlerRegistry,
    compute_initial_embeddings,
    default_registry,
)
from kgdta.util import substream

SEQ = Relation("sequence", RelationKind.DATA)
TXT = Relation("comment", RelationKind.DATA)
BIND = Relation("binding_to", RelationKind.OBJECT)


def identity_params(dim=3, relations=("sequence", "comment", "binding_to")) -> GnnParams:
    eye = np.eye(dim)
    layers = [
        RgcnLayer(
            w_self=nm.param(eye.copy()),
            bias=nm.param(np.zeros(dim)),
            w_rel={r: nm.param(eye.copy()) for r in relations},
            w_default=nm.param(eye.copy()),
        )
        for _ in range(2)
    ]
    projections = {
        "protein_sequence": (nm.param(eye.copy()), nm.param(np.zeros(dim))),
        "text": (nm.param(eye.copy()), nm.param(np.zeros(dim))),
    }
    return GnnParams(projections, layers, dim, dim, dim)


def table_for(graph, vectors: dict[str, np.ndarray], dim=3) -> EmbeddingTable:
    """Initial table of `graph` holding `vectors` (keyed by node id text) for its
    attributes; every other non-categorical attribute starts at zeros of `dim`.
    Vectors for entities and categorical attributes are left out: they have no row."""
    zeros = HandlerRegistry()
    for modality in {node.modality for node in graph.nodes.values()}:
        zeros.register(Handler(modality, dim, lambda value: np.zeros(dim)))
    external = {}
    for nid, node in graph.nodes.items():
        if str(nid) in vectors and node.kind is not NodeKind.ENTITY and node.modality != "categorical":
            external.setdefault(node.modality, {})[nid] = vectors[str(nid)]
    return compute_initial_embeddings(graph, zeros, external=external)


def test_isolated_entity_is_bias_driven():
    g = MultimodalGraph()
    g.add_node(entity("uniprot", "P1", "protein"))
    params = identity_params()
    params.layers[0].bias = nm.param(np.array([1.0, -2.0, 0.5]))
    params.layers[1].bias = nm.param(np.array([0.25, 0.0, -1.0]))
    out = encode(g, table_for(g, {}), params)
    # relu through two self-loop transforms of the zero vector: bias-driven
    h1 = np.maximum(np.array([1.0, -2.0, 0.5]), 0.0)
    expected = np.maximum(h1 + np.array([0.25, 0.0, -1.0]), 0.0)
    assert np.array_equal(out[NodeId("uniprot", "P1")], expected)


def test_single_neighbor_identity_weights_gives_relu_v():
    g = MultimodalGraph()
    prot = entity("uniprot", "P1", "protein")
    attr = attribute_node("protein_sequence", "MKTAY")
    g.add_triple(prot, SEQ, attr)
    v = np.array([0.5, -1.5, 2.0])
    params = identity_params()
    mp = build_mp(g, None, FlowPolicy.unrestricted())
    layers = encode_layers(mp, table_for(g, {str(attr.id): v}), params)
    row = mp.node_ids.index(prot.id)
    # layer 1 entity output: relu(W_self*0 + mean over the single neighbor of I@v)
    assert np.array_equal(layers[1].data[mp.scope_rows.tolist().index(row)], np.maximum(v, 0.0))


def test_mean_aggregation_over_two_neighbors():
    g = MultimodalGraph()
    prot = entity("uniprot", "P1", "protein")
    a1 = attribute_node("protein_sequence", "AAA")
    a2 = attribute_node("protein_sequence", "BBB")
    g.add_triple(prot, SEQ, a1)
    g.add_triple(prot, SEQ, a2)
    v1, v2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 3.0, 0.0])
    params = identity_params()
    mp = build_mp(g, None, FlowPolicy.unrestricted())
    layers = encode_layers(mp, table_for(g, {str(a1.id): v1, str(a2.id): v2}), params)
    row = list(mp.scope_rows).index(mp.node_ids.index(prot.id))
    assert np.allclose(layers[1].data[row], (v1 + v2) / 2.0)


def test_flow_control_blocks_disallowed_attribute():
    def protein_vec(policy, text_value):
        g = MultimodalGraph()
        prot = entity("uniprot", "P1", "protein")
        seq = attribute_node("protein_sequence", "MKTAY")
        txt = attribute_node("text", text_value)
        g.add_triple(prot, SEQ, seq)
        g.add_triple(prot, TXT, txt)
        table = compute_initial_embeddings(g, default_registry())
        params = init_gnn_params(
            {"protein_sequence": 128, "text": 128},
            ["sequence", "comment"],
            substream(0, "init"),
        )
        return encode(g, table, params, policy)[prot.id]

    controlled = FlowPolicy.controlled({"protein": {"sequence"}})
    assert np.array_equal(
        protein_vec(controlled, "a kinase"), protein_vec(controlled, "totally different")
    )
    unrestricted = FlowPolicy.unrestricted()
    assert not np.array_equal(
        protein_vec(unrestricted, "a kinase"), protein_vec(unrestricted, "totally different")
    )


def test_permutation_invariance_of_insertion_order():
    a1 = attribute_node("protein_sequence", "AAA")
    a2 = attribute_node("protein_sequence", "BBB")
    prot = entity("uniprot", "P1", "protein")
    drug_e = entity("drugbank", "D1", "drug")

    g1 = MultimodalGraph()
    g1.add_triple(prot, SEQ, a1)
    g1.add_triple(prot, SEQ, a2)
    g1.add_triple(drug_e, BIND, prot)

    g2 = MultimodalGraph()
    g2.add_triple(drug_e, BIND, prot)
    g2.add_triple(prot, SEQ, a2)
    g2.add_triple(prot, SEQ, a1)

    params = identity_params()
    vectors = {str(a1.id): np.array([1.0, 2.0, 3.0]), str(a2.id): np.array([-1.0, 0.5, 0.0])}
    out1 = encode(g1, table_for(g1, vectors), params)
    out2 = encode(g2, table_for(g2, vectors), params)
    for nid in out1:
        assert np.array_equal(out1[nid], out2[nid])


def test_insertion_order_is_bitwise_irrelevant_with_many_same_relation_neighbors():
    """Sums of three or more messages depend on their order in floating point, so
    only a canonical edge order makes encoding independent of insertion order."""
    prot = entity("uniprot", "P1", "protein")
    attrs = [attribute_node("protein_sequence", s) for s in ("AAA", "CCC", "DDD", "EEE")]
    drugs = [entity("drugbank", f"D{i}", "drug") for i in range(3)]
    triples = [(prot, SEQ, a) for a in attrs] + [(d, BIND, prot) for d in drugs]
    rng = substream(6, "vectors")
    vectors = {str(a.id): rng.normal(size=5) for a in attrs}
    params = init_gnn_params({"protein_sequence": 5}, ["sequence", "binding_to"], substream(6, "init"), 4, 6, 6)
    outputs = []
    for order in ([0, 1, 2, 3, 4, 5, 6], [6, 3, 1, 5, 0, 4, 2], [2, 0, 3, 1, 6, 5, 4]):
        g = MultimodalGraph()
        for i in order:
            g.add_triple(*triples[i])
        outputs.append(encode(g, table_for(g, vectors, dim=5), params))
    for out in outputs[1:]:
        assert out.keys() == outputs[0].keys()
        for nid in out:
            assert out[nid].tobytes() == outputs[0][nid].tobytes(), nid


def test_build_mp_sees_nodes_and_triples_added_after_an_earlier_build():
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    seq = attribute_node("protein_sequence", "MKTAY")
    g = MultimodalGraph()
    g.add_triple(p1, SEQ, seq)
    g.add_node(p2)
    before = build_mp(g, None, FlowPolicy.unrestricted())
    g.add_triple(p2, BIND, p1)  # between nodes the index already holds
    between = build_mp(g, None, FlowPolicy.unrestricted())
    g.add_node(entity("uniprot", "P3", "protein"))
    after = build_mp(g, None, FlowPolicy.unrestricted())
    assert [len(flat_messages(mp).receiver) for mp in (before, between, after)] == [2, 4, 4]
    assert [len(mp.node_ids) for mp in (before, between, after)] == [3, 3, 4]

    fresh = MultimodalGraph()
    fresh.add_triple(p2, BIND, p1)
    fresh.add_triple(p1, SEQ, seq)
    fresh.add_node(entity("uniprot", "P3", "protein"))
    params = identity_params()
    vectors = {str(seq.id): np.array([1.0, -2.0, 0.5])}
    mutated = encode(g, table_for(g, vectors), params)
    rebuilt = encode(fresh, table_for(fresh, vectors), params)
    assert mutated.keys() == rebuilt.keys()
    for nid in mutated:
        assert np.array_equal(mutated[nid], rebuilt[nid])


def test_initial_table_must_follow_the_graph_index():
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    seq = attribute_node("protein_sequence", "MKTAY")
    g = MultimodalGraph()
    g.add_triple(p1, SEQ, seq)
    g.add_node(p2)
    params = identity_params()
    vectors = {str(seq.id): np.array([1.0, -2.0, 0.5])}
    table = table_for(g, vectors)
    g.add_triple(p2, BIND, p1)  # among the nodes the table was built for: still aligned
    assert table.node_ids is not g.index().node_ids
    out = encode(g, table, params)
    fresh = encode(g, table_for(g, vectors), params)
    assert all(np.array_equal(out[nid], fresh[nid]) for nid in fresh)

    g.add_node(entity("uniprot", "P3", "protein"))
    with pytest.raises(ValueError, match="other nodes"):
        encode(g, table, params)
    other = MultimodalGraph()  # as many nodes, other ids
    other.add_triple(p1, SEQ, attribute_node("protein_sequence", "WWWWW"))
    other.add_node(p2)
    with pytest.raises(ValueError, match="other nodes"):
        encode(other, table, params)


def test_an_attribute_without_an_initial_row_raises():
    g = MultimodalGraph()
    prot, seq = entity("uniprot", "P1", "protein"), attribute_node("protein_sequence", "MKTAY")
    g.add_triple(prot, SEQ, seq)
    g.add_triple(prot, TXT, attribute_node("text", "a kinase"))
    table = table_for(g, {})
    assert table.matrices["protein_sequence"].shape == (1, 3)
    table.row[g.index().position[seq.id]] = -1  # would read the last row if not caught
    with pytest.raises(ValueError, match="no row for a 'protein_sequence' node"):
        encode_layers(build_mp(g, None, FlowPolicy.unrestricted()), table, identity_params())


def dense_reference(mp, table, params, history=None) -> list[np.ndarray]:
    """The R-GCN layer formula on dense per-relation matrices rebuilt from the
    MpGraph's messages: h' = relu(h W_self + sum_r A_r h W_r + b)."""
    n = len(mp.node_ids)
    dims = [params.proj_dim, params.hidden_dim, params.out_dim]
    h = np.zeros((n, dims[0]))
    for modality, rows in mp.attr_rows.items():
        w, b = params.projections[modality]
        position = {nid: i for i, nid in enumerate(table.node_ids)}
        initial = [table.matrices[modality][table.row[position[mp.node_ids[i]]]] for i in rows]
        h[rows] = np.stack(initial) @ w.data + b.data
    dense = {}
    flat = flat_messages(mp)
    for k, rel in enumerate(flat.relations):
        edges = flat.relation == k
        if edges.any():
            A = np.zeros((n, n))
            A[flat.receiver[edges], flat.sender[edges]] = flat.weight[edges]
            dense[rel] = A
    outputs = []
    for l, layer in enumerate(params.layers):
        if l > 0:
            h = np.zeros((n, dims[l]))
            h[mp.scope_rows] = outputs[-1]
            if history is not None:
                out_rows = np.flatnonzero(mp.row[mp.closure] < 0)
                h[out_rows] = history[l - 1][mp.closure[out_rows]]
        z = h @ layer.w_self.data + layer.bias.data
        for rel, A in dense.items():
            z = z + A @ h @ layer.weight_for(rel).data
        outputs.append(np.maximum(z, 0.0)[mp.scope_rows])
    return outputs


def acceptance_encodings():
    """(mp, table, params, history) for three planted worlds, two policies, and the
    whole graph, a partition, and a partition reading a history."""
    from kgdta.pretrain import partition, trainable_relations
    from kgdta.synthetic import make_planted_world

    registry = default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)
    worlds = [
        make_planted_world(n_drugs=13, n_proteins=12, seed=1).graph,
        make_planted_world(n_drugs=10, n_proteins=8, seed=2).graph,
        make_planted_world(n_drugs=60, n_proteins=40, latent_dim=8, edge_density=0.3,
                           kg_pair_fraction=0.5, seed=0).graph,
    ]
    for g in worlds:
        table = compute_initial_embeddings(g, registry)
        dims = {m: table.matrices[m].shape[1] for m in ("protein_sequence", "smiles")}
        params = init_gnn_params(dims, trainable_relations(g), substream(8, "init"), 16, 12, 12)
        part = partition(g, 3, substream(8, "partition"))
        n_nodes = len(g.nodes)
        history = [np.zeros((n_nodes, 12)) for _ in range(2)]
        rng = substream(8, "history")
        history[0][np.arange(n_nodes)] = rng.normal(size=(n_nodes, 12))
        for policy in (FlowPolicy.unrestricted(), FlowPolicy.controlled()):
            for scope, hist in ((None, None), (np.flatnonzero(part == 1), None), (np.flatnonzero(part == 2), history)):
                yield build_mp(g, scope, policy), table, params, hist


def test_sparse_encoder_matches_the_dense_formula_on_acceptance_graphs():
    worst = 0.0
    for mp, table, params, hist in acceptance_encodings():
        # every edge feeds a scope row, and each receiver's weights per relation average
        flat = flat_messages(mp)
        assert set(flat.receiver.tolist()) <= set(mp.scope_rows.tolist())
        sums = {}
        for k, v, w in zip(flat.relation.tolist(), flat.receiver.tolist(), flat.weight.tolist()):
            sums[k, v] = sums.get((k, v), 0.0) + w
        assert all(abs(total - 1.0) < 1e-12 for total in sums.values())
        sparse = encode_layers(mp, table, params, hist)
        for got, want in zip(sparse[1:], dense_reference(mp, table, params, hist)):
            worst = max(worst, float(np.max(np.abs(got.data - want))))
    assert worst <= 1e-12, worst


def test_relation_groups_match_the_full_width_reference_bit_for_bit():
    """Each relation's product over its target rows only gives the bytes of the
    full-width loop in tests/gnn_ref.py, outputs and parameter gradients alike. A
    relation with one target makes its product a one-row matmul, which BLAS may sum
    in another order, so there the match is to 1e-15."""
    from gnn_ref import reference_encode_layers

    # the graph `infer` encodes, one entity hearing one attribute; with the entity
    # alone in scope, its relation has a single target
    seq = attribute_node("protein_sequence", "MK")
    query = MultimodalGraph().add_triple(entity("uniprot", "P1", "protein"), SEQ, seq)
    query_params = init_gnn_params({"protein_sequence": 3}, ["sequence"], substream(9, "init"), 16, 12, 12)
    query_table = table_for(query, {str(seq.id): np.array([0.3, -1.2, 0.7])})
    query_mps = [build_mp(query, scope, FlowPolicy.controlled()) for scope in (None, np.array([1]))]
    assert [[len(targets) for _, targets, *_ in mp.groups] for mp in query_mps] == [[2], [1]]
    exact = 0
    queries = [(mp, query_table, query_params, None) for mp in query_mps]
    for mp, table, params, hist in [*acceptance_encodings(), *queries]:
        named = params.named_parameters()
        probe = substream(9, "probe").normal(size=(len(mp.scope_rows), params.out_dim))
        runs = []
        for encoder in (encode_layers, reference_encode_layers):
            layers = encoder(mp, table, params, hist)
            nm.backward(ref.sum_all(ref.mul(layers[-1], nm.constant(probe))))
            grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in named.values()]
            runs.append([layer.data for layer in layers] + grads)
            for p in named.values():
                p.grad = None
        one_target = any(len(targets) == 1 for _, targets, *_ in mp.groups)
        for got, want in zip(*runs):
            assert got.shape == want.shape
            if one_target:
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-15
            else:
                assert got.tobytes() == want.tobytes()
        exact += not one_target
    assert exact > 0


def test_one_op_projection_encodes_the_bytes_of_the_op_chain(monkeypatch):
    """Layer 0 as one `numerics.projection` gives the layers and parameter gradients
    of the matmul, add and `assemble_rows` chain it replaced, bit for bit: two
    projected modalities and a categorical attribute, which starts at zero, over the
    whole graph and over a partial scope that reads the history."""
    from kgdta.pretrain import partition, trainable_relations
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=10, n_proteins=8, seed=2).graph
    proteins = [node for node in g.entities() if node.modality == "protein"]
    for i, prot in enumerate(proteins):
        g.add_triple(prot, Relation("family", RelationKind.DATA), attribute_node("categorical", f"f{i % 3}"))
    table = compute_initial_embeddings(g, default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16))
    dims = {m: table.matrices[m].shape[1] for m in table.matrices}
    params = init_gnn_params(dims, trainable_relations(g), substream(5, "init"), 16, 12, 12)
    named = params.named_parameters()
    n = len(g.nodes)
    history = [substream(5, "history", l).normal(size=(n, 12)) for l in range(2)]
    part = partition(g, 3, substream(5, "partition"))
    for scope, hist in ((None, None), (np.flatnonzero(part == 1), history)):
        mp = build_mp(g, scope, FlowPolicy.unrestricted())
        assert sorted(mp.attr_rows) == ["protein_sequence", "smiles"]
        assert any(g.nodes[nid].modality == "categorical" for nid in mp.node_ids)
        assert scope is None or (mp.row[mp.closure] < 0).any()  # the history is read
        probe = substream(5, "probe").normal(size=(len(mp.scope_rows), params.out_dim))
        runs = []
        for chain in (False, True):
            with monkeypatch.context() as m:
                if chain:
                    m.setattr(nm, "projection", ref.projection_chain)
                layers = encode_layers(mp, table, params, hist)
            nm.backward(ref.sum_all(ref.mul(layers[-1], nm.constant(probe))))
            assert all(named[f"proj/{m}/{k}"].grad is not None for m in dims for k in "wb")
            grads = [None if p.grad is None else p.grad.tobytes() for p in named.values()]
            runs.append([layer.data.tobytes() for layer in layers] + grads)
            for p in named.values():
                p.grad = None
        assert runs[0] == runs[1]


def test_groups_are_each_relations_edges_and_distinct_receivers():
    """Also the invariants `numerics.rgcn_layer` trusts without checking them, and
    that no group array can be made writeable again."""
    from kgdta.pretrain import partition
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=6, n_proteins=5, seed=4).graph
    gi = g.index()
    part = partition(g, 3, substream(4, "partition"))
    # partitions keep an entity with its attributes, so under the controlled policy
    # only the alternating scopes have closure rows outside the scope
    n = len(gi.node_ids)
    scopes = [None, *(np.flatnonzero(part == p) for p in range(3)), np.arange(0, n, 2), np.arange(1, n, 2)]
    for policy in (FlowPolicy.unrestricted(), FlowPolicy.controlled()):
        partial = 0
        for scope in scopes:
            mp = build_mp(g, scope, policy)
            partial += np.count_nonzero(mp.row[mp.closure] < 0) > 0
            # the messages, straight from the index: edges into the scope the policy keeps
            in_scope = np.zeros(n, dtype=bool)
            in_scope[np.arange(n) if scope is None else scope] = True
            live = in_scope[gi.receiver] & ~policy.blocked(gi)
            relation, weight_of = gi.relation[live], gi.weight[live]
            receiver = np.searchsorted(mp.closure, gi.receiver[live])
            sender_of = np.searchsorted(mp.closure, gi.sender[live])
            assert np.array_equal(mp.closure[receiver], gi.receiver[live])
            assert np.array_equal(mp.closure[sender_of], gi.sender[live])
            rows, lo = len(mp.closure), 0  # group indices are closure rows
            for rel, targets, segment, sender, weight in mp.groups:
                hi = lo + len(sender)
                k = gi.relations.index(rel)
                assert (relation[lo:hi] == k).all() and hi - lo > 0
                assert np.array_equal(targets, np.unique(receiver[lo:hi]))
                assert np.array_equal(targets[segment], receiver[lo:hi])
                assert np.array_equal(sender, sender_of[lo:hi]) and np.array_equal(weight, weight_of[lo:hi])
                assert (np.diff(targets) > 0).all() and 0 <= targets[0] and targets[-1] < rows
                assert (np.diff(segment) >= 0).all() and np.array_equal(np.unique(segment), np.arange(len(targets)))
                assert sender.min() >= 0 and sender.max() < rows
                assert not any(a.flags.writeable for a in (targets, segment, sender, weight))
                for a in (targets, segment, sender, weight):  # `rgcn_layer` trusts them unchecked
                    with pytest.raises(ValueError):
                        a.flags.writeable = True
                lo = hi
            assert lo == len(relation)
        assert partial >= 2


def test_a_relation_without_a_live_edge_in_the_scope_gets_no_group():
    g = MultimodalGraph()
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    g.add_triple(p1, SEQ, attribute_node("protein_sequence", "MKTAY"))
    g.add_triple(p1, TXT, attribute_node("text", "a kinase"))
    g.add_triple(p2, BIND, entity("uniprot", "P3", "protein"))
    position = g.index().position
    scope = np.array([position[p1.id]])
    # `binding_to` has edges only outside the scope, `comment` only blocked ones
    assert [group[0] for group in build_mp(g, scope, FlowPolicy.unrestricted()).groups] == ["comment", "sequence"]
    mp = build_mp(g, scope, FlowPolicy.controlled())
    assert [group[0] for group in mp.groups] == ["sequence"]
    assert [group[0] for group in build_mp(g, np.array([position[p2.id]]), FlowPolicy.unrestricted()).groups] == [
        "binding_to"
    ]
    out = encode(g, table_for(g, {}), identity_params(), FlowPolicy.controlled(), scope=[p1.id])
    assert out[p1.id].shape == (3,)


@pytest.mark.parametrize("bad", [-1, 5])
def test_build_mp_rejects_a_scope_index_outside_the_graph(bad):
    g = MultimodalGraph()
    g.add_triple(entity("uniprot", "P1", "protein"), BIND, entity("uniprot", "P2", "protein"))
    g.add_triple(entity("uniprot", "P2", "protein"), SEQ, attribute_node("protein_sequence", "MK"))
    assert len(g.index().node_ids) == 3
    for scope in (np.array([bad]), np.array([0, bad]), [bad, 1, 1]):
        with pytest.raises(IndexError):
            build_mp(g, scope, FlowPolicy.unrestricted())
    assert g.index().mp_cache == {}


def test_build_mp_rejects_a_scope_that_is_not_integer():
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=6, n_proteins=5, seed=4).graph
    mask = np.zeros(len(g.index().node_ids), dtype=bool)
    mask[[7, 9]] = True
    for scope in (mask, np.array([7.9, 9.2]), np.array([7.0, 9.0])):
        with pytest.raises(IndexError):  # numpy would read the mask as rows 0 and 1
            build_mp(g, scope, FlowPolicy.unrestricted())
    assert g.index().mp_cache == {}
    assert len(build_mp(g, np.asarray([]), FlowPolicy.unrestricted()).scope_rows) == 0


def test_encode_layers_rejects_a_history_of_the_wrong_shape():
    g = MultimodalGraph()
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    g.add_triple(p1, BIND, p2)
    table, params = table_for(g, {}), identity_params()
    n = len(g.index().node_ids)
    inside = build_mp(g, None, FlowPolicy.unrestricted())  # reads no history row
    partial = build_mp(g, np.array([g.index().position[p1.id]]), FlowPolicy.unrestricted())
    out_rows = [np.flatnonzero(mp.row[mp.closure] < 0) for mp in (inside, partial)]
    assert len(out_rows[0]) == 0 and len(out_rows[1]) == 1
    for mp in (inside, partial):
        encode_layers(mp, table, params, [np.zeros((n, 3)), np.zeros((n, 3))])
        for bad in (
            [np.zeros((n, 4)), np.zeros((n, 3))],
            [np.zeros((n, 3)), np.zeros((n, 2))],
            [np.zeros((n - 1, 3)), np.zeros((n - 1, 3))],
            [np.zeros((n + 1, 3)), np.zeros((n, 3))],
            [np.zeros((n, 3))],
            [np.zeros(n), np.zeros(n)],
        ):
            with pytest.raises(ShapeMismatch):
                encode_layers(mp, table, params, bad)


def test_full_graph_edges_are_the_triples_both_ways():
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=6, n_proteins=5, seed=4).graph
    g.add_triple(entity("uniprot", "P0", "protein"), Relation("rdf:type", RelationKind.OBJECT),
                 entity("class", "Protein", "class"))
    mp = build_mp(g, None, FlowPolicy.unrestricted())
    flat = flat_messages(mp)
    got = {
        (flat.relations[k], mp.node_ids[v], mp.node_ids[u])
        for k, v, u in zip(flat.relation.tolist(), flat.receiver.tolist(), flat.sender.tolist())
    }
    want = {(t.relation.name, t.target, t.source) for t in g.triples() if t.relation.name != "rdf:type"}
    want |= {(rel, u, v) for rel, v, u in want}
    assert got == want
    assert len(flat.receiver) == len(got)
    # controlled: only the allowed relation reaches a governed entity, and a policy
    # entry for an attribute modality governs nothing
    allowed = {"protein": {"sequence"}, "drug": {"smiles"}, "smiles": {"sequence"}}
    controlled = build_mp(g, None, FlowPolicy.controlled(allowed))
    flat = flat_messages(controlled)
    kept = set()
    for k, v, u in zip(flat.relation.tolist(), flat.receiver.tolist(), flat.sender.tolist()):
        kept.add((flat.relations[k], controlled.node_ids[v], controlled.node_ids[u]))
    for rel, v, u in want:
        node = g.nodes[v]
        governed = node.kind is NodeKind.ENTITY and node.modality in allowed
        assert ((rel, v, u) in kept) == (not governed or rel in allowed[node.modality])


def test_locality_two_hop_ball():
    def build(extra_attr_value):
        g = MultimodalGraph()
        p1, p2, p3 = (entity("uniprot", f"P{i}", "protein") for i in (1, 2, 3))
        d = entity("drugbank", "D1", "drug")
        g.add_triple(d, BIND, p1)      # d's 1-hop
        g.add_triple(p1, BIND, p2)     # d's 2-hop
        g.add_triple(p2, BIND, p3)     # 3 hops from d
        g.add_triple(p3, SEQ, attribute_node("protein_sequence", extra_attr_value))
        table = compute_initial_embeddings(g, default_registry())
        params = init_gnn_params({"protein_sequence": 128}, ["sequence", "binding_to"], substream(1, "init"))
        return encode(g, table, params, scope=[d.id])[d.id]

    # the mutated attribute hangs 4 hops from the drug: bitwise identical embedding
    assert np.array_equal(build("MKTAY"), build("WWWWW"))


def test_disconnected_structure_is_bitwise_irrelevant():
    params = init_gnn_params({"smiles": 2048, "protein_sequence": 128}, ["smiles", "sequence"], substream(2, "init"))
    registry = default_registry()
    init_vec, direct = infer(params, FlowPolicy.unrestricted(), "CCO", "smiles", registry)

    g = MultimodalGraph()
    q = entity("query", "q", "drug")
    g.add_triple(q, Relation("smiles", RelationKind.DATA), attribute_node("smiles", "CCO"))
    # disconnected clutter
    other = entity("uniprot", "P1", "protein")
    g.add_triple(other, SEQ, attribute_node("protein_sequence", "MKTAY"))
    table = compute_initial_embeddings(g, registry)
    embedded = encode(g, table, params)[q.id]
    assert np.array_equal(direct, embedded)
    row = table.row[g.index().position[attribute_node("smiles", "CCO").id]]
    assert np.array_equal(init_vec, table.matrices["smiles"][row])


def test_infer_deterministic_and_shapes():
    params = init_gnn_params({"smiles": 2048, "protein_sequence": 128}, ["smiles", "sequence"], substream(3, "init"))
    registry = default_registry()
    a_init, a_gnn = infer(params, FlowPolicy.controlled(), "CCO", "smiles", registry)
    b_init, b_gnn = infer(params, FlowPolicy.controlled(), "CCO", "smiles", registry)
    assert a_init.shape == (2048,) and a_gnn.shape == (128,)
    assert np.array_equal(a_init, b_init) and np.array_equal(a_gnn, b_gnn)
    s_init, s_gnn = infer(params, FlowPolicy.controlled(), "MKTAY", "protein_sequence", registry)
    assert s_init.shape == (128,) and s_gnn.shape == (128,)


INFER_PARAMS = init_gnn_params(
    {"smiles": 2048, "protein_sequence": 128, "number": 1}, ["smiles", "sequence", "mass"], substream(8, "init")
)


@pytest.mark.parametrize(
    "policy", [FlowPolicy.unrestricted(), FlowPolicy.controlled()], ids=["unrestricted", "controlled"]
)
@pytest.mark.parametrize(
    "value, modality, relation, entity_modality",
    [
        ("MKTAYIAKQRQISFVKSHFSRQ", "protein_sequence", None, None),
        ("CC(=O)Oc1ccccc1C(=O)O", "smiles", None, None),
        (3, "number", "mass", "drug"),  # an int is embedded as the float an attribute node stores
        (2.5, "number", "weight", "compound"),
        ("MKTAY", "protein_sequence", "comment", "enzyme"),
        ("CCO", "smiles", "sequence", "protein"),
    ],
)
def test_infer_equals_encode_on_an_explicit_two_node_graph(policy, value, modality, relation, entity_modality):
    registry = default_registry()
    other = 7 if modality == "number" else value[::-1]  # another value warms the kept graph first
    infer(INFER_PARAMS, policy, other, modality, registry, relation, entity_modality)
    init_vec, out = infer(INFER_PARAMS, policy, value, modality, registry, relation, entity_modality)

    relation = relation or INFER_DEFAULTS[modality][0]
    query = entity("query", "q", entity_modality or INFER_DEFAULTS[modality][1])
    attr = attribute_node(modality, value)
    g = MultimodalGraph()
    g.add_triple(query, Relation(relation, RelationKind.DATA), attr)
    table = compute_initial_embeddings(g, registry)
    expected = encode(g, table, INFER_PARAMS, policy)[query.id]
    assert out.tobytes() == expected.tobytes()
    assert init_vec.tobytes() == table.matrices[modality][table.row[g.index().position[attr.id]]].tobytes()


def test_infer_checks_the_handler_output():
    stored = np.ones(2048)
    lookup = HandlerRegistry().register(Handler("smiles", 2048, lambda v: stored))
    init_vec, _ = infer(INFER_PARAMS, FlowPolicy.controlled(), "CCO", "smiles", lookup)
    assert np.array_equal(init_vec, stored) and not np.shares_memory(init_vec, stored)  # the caller owns it
    wide = HandlerRegistry().register(Handler("smiles", 2048, lambda v: np.zeros(2047)))
    with pytest.raises(DimMismatch, match="2048-dim"):
        infer(INFER_PARAMS, FlowPolicy.controlled(), "CCO", "smiles", wide)
    nan = HandlerRegistry().register(Handler("smiles", 2048, lambda v: np.full(2048, np.nan)))
    with pytest.raises(NonFinite):
        infer(INFER_PARAMS, FlowPolicy.controlled(), "CCO", "smiles", nan)


def test_infer_rejects_bools_categorical_and_unhandled_modalities():
    embedded = []
    registry = default_registry().register(Handler("categorical", 1, lambda v: embedded.append(v) or np.ones(1)))
    policy = FlowPolicy.controlled()
    with pytest.raises(KindViolation):
        infer(INFER_PARAMS, policy, True, "number", registry, "mass", "drug")
    for relation, entity_modality in ((None, None), ("family", "protein")):
        with pytest.raises(KindViolation, match="categorical"):
            infer(INFER_PARAMS, policy, "kinase", "categorical", registry, relation, entity_modality)
        with pytest.raises(MissingHandler):
            infer(INFER_PARAMS, policy, "x.png", "image", registry, relation, entity_modality)
    assert embedded == []


def test_infer_rejects_a_number_for_a_string_modality():
    with pytest.raises(KindViolation, match="string"):
        infer(INFER_PARAMS, FlowPolicy.controlled(), 2.0, "smiles", default_registry())


def test_same_as_triples_carry_no_messages():
    g = MultimodalGraph()
    d1, d2 = entity("drugbank", "D1", "drug"), entity("chembl", "C1", "drug")
    g.add_triple(d1, Relation("smiles", RelationKind.DATA), attribute_node("smiles", "CCO"))
    g.add_triple(d2, Relation("smiles", RelationKind.DATA), attribute_node("smiles", "c1ccccc1N"))
    params = init_gnn_params({"smiles": 2048}, ["smiles"], substream(5, "init"))
    before = encode(g, compute_initial_embeddings(g, default_registry()), params)
    g.add_triple(d1, Relation("sameAs", RelationKind.OBJECT), d2)  # left unresolved
    after = encode(g, compute_initial_embeddings(g, default_registry()), params)
    for d in (d1, d2):
        assert after[d.id].any() and after[d.id].tobytes() == before[d.id].tobytes()
    assert g.index().relations == ["smiles"] and g.index().triples[-1, 1] == -1


def test_a_warm_infer_call_builds_no_graph_index_or_table(monkeypatch):
    registry, policy = default_registry(), FlowPolicy.controlled()
    infer(INFER_PARAMS, policy, "CCO", "smiles", registry)  # cold: builds the kept graph once
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(MultimodalGraph, "__init__", counting("MultimodalGraph", MultimodalGraph.__init__))
    monkeypatch.setattr(graph_mod, "_build_index", counting("GraphIndex", graph_mod._build_index))
    modules = [m for n, m in sys.modules.items() if n == "kgdta" or n.startswith("kgdta.")]
    for fn in (attribute_node, compute_initial_embeddings):
        name = fn.__name__
        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    infer(INFER_PARAMS, policy, "CCN", "smiles", registry)
    infer(INFER_PARAMS, policy, "MKTAY", "protein_sequence", registry)
    assert counts == {}
    # the counters are live: a cold key builds its graph and index
    infer(INFER_PARAMS, policy, "CCO", "smiles", registry, "smiles", "query-probe")
    assert counts == {"MultimodalGraph": 1, "GraphIndex": 1, "attribute_node": 1}


def test_build_mp_results_are_cached_per_scope_set_and_policy():
    g = MultimodalGraph()
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    g.add_triple(p1, SEQ, attribute_node("protein_sequence", "MKTAY"))
    g.add_triple(p1, BIND, p2)
    g.add_triple(p2, TXT, attribute_node("text", "a kinase"))
    first = build_mp(g, np.array([1, 3]), FlowPolicy.controlled())
    assert build_mp(g, np.array([1, 3]), FlowPolicy.controlled()) is first
    assert build_mp(g, np.array([3, 1, 3]), FlowPolicy.controlled()) is first
    assert build_mp(g, [3, 1], FlowPolicy.controlled()) is first
    assert build_mp(g, np.array([1, 3]), FlowPolicy.unrestricted()) is not first
    assert build_mp(g, np.array([1]), FlowPolicy.controlled()) is not first
    whole = build_mp(g, None, FlowPolicy.controlled())
    assert build_mp(g, None, FlowPolicy.controlled()) is whole
    assert build_mp(g, np.array([3, 2, 1, 0, 0]), FlowPolicy.controlled()) is whole  # every node is None
    assert len(g.index().mp_cache) == 4

    arrays = [v for v in vars(first).values() if isinstance(v, np.ndarray)] + list(first.attr_rows.values())
    group_arrays = [a for group in first.groups for a in group[1:]]
    assert len(arrays) == 3 + len(first.attr_rows) and all(not a.flags.writeable for a in arrays)
    assert len(group_arrays) == 4 * len(first.groups) > 0 and all(not a.flags.writeable for a in group_arrays)
    with pytest.raises(ValueError, match="read-only"):
        first.groups[0][1][0] = 0

    g.add_triple(p2, SEQ, attribute_node("protein_sequence", "WWWWW"))  # a mutation drops the cache
    assert g.index().mp_cache == {}
    assert build_mp(g, np.array([1, 3]), FlowPolicy.controlled()) is not first


class _CountedSet(frozenset):
    """A frozenset that counts how often it is iterated, as sorting it does."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_a_warm_whole_graph_build_mp_is_one_cache_lookup(monkeypatch):
    g = MultimodalGraph()
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    g.add_triple(p1, SEQ, attribute_node("protein_sequence", "MKTAY"))
    g.add_triple(p1, BIND, p2)
    allowed = _CountedSet({SEQ.name})
    policy = FlowPolicy("controlled", {"protein": allowed})
    assert allowed.iterations == 1  # the key is made once, with the policy
    whole = build_mp(g, None, policy)
    calls = []
    for name in ("arange", "unique"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _fn=fn, **k: calls.append(_name) or _fn(*a, **k))
    assert build_mp(g, None, policy) is whole and build_mp(g, None, policy) is whole
    assert calls == [] and allowed.iterations == 1
    # a partial scope still checks its rows, and the counters are live
    assert build_mp(g, np.array([0, 2, 1, 0]), policy) is whole
    assert calls == ["unique"] and allowed.iterations == 1


def test_row_counts_the_scope_nodes_in_index_order_and_is_minus_one_elsewhere():
    from kgdta.pretrain import partition
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=6, n_proteins=5, seed=4).graph
    n = len(g.index().node_ids)
    part = partition(g, 3, substream(8, "partition"))
    for scope in (np.flatnonzero(part == 1), None):
        mp = build_mp(g, scope, FlowPolicy.unrestricted())
        inside = np.arange(n) if scope is None else scope
        want = np.full(n, -1)
        want[inside] = np.arange(len(inside))
        assert np.array_equal(mp.row, want)
        # row r of the scope outputs is closure row scope_rows[r]
        assert np.array_equal(mp.closure[mp.scope_rows[mp.row[inside]]], inside)
        out_rows = np.flatnonzero(mp.row[mp.closure] < 0)
        assert np.array_equal(out_rows, np.setdiff1d(np.arange(len(mp.closure)), mp.scope_rows))
        assert len(out_rows) > 0 or scope is None  # the partition reads neighbours outside it


def test_unseen_relation_uses_default_weight():
    g = MultimodalGraph()
    p = entity("uniprot", "P1", "protein")
    q = entity("uniprot", "P2", "protein")
    g.add_triple(p, Relation("novel_link", RelationKind.OBJECT), q)
    params = identity_params(relations=())  # only the default weight exists
    out = encode(g, table_for(g, {}), params)
    assert out[p.id].shape == (3,)


def test_missing_projection_raises():
    g = MultimodalGraph()
    g.add_triple(entity("uniprot", "P1", "protein"), SEQ, attribute_node("protein_sequence", "MK"))
    params = identity_params()
    del params.projections["protein_sequence"]
    with pytest.raises(MissingProjection):
        encode(g, table_for(g, {}), params)


def test_missing_projection_raises_for_a_neighbor_whose_messages_are_blocked():
    g = MultimodalGraph()
    prot = entity("uniprot", "P1", "protein")
    g.add_triple(prot, TXT, attribute_node("text", "a kinase"))
    params = identity_params()
    del params.projections["text"]
    policy = FlowPolicy.controlled()  # proteins listen to `sequence` only
    assert build_mp(g, np.array([g.index().position[prot.id]]), policy).node_ids == [prot.id]
    with pytest.raises(MissingProjection):
        encode(g, table_for(g, {}), params, policy, scope=[prot.id])
    with pytest.raises(MissingProjection):
        infer(params, policy, "a kinase", "text", default_registry(), "comment", "protein")


def test_historical_store_feeds_out_of_scope_neighbors():
    g = MultimodalGraph()
    p1 = entity("uniprot", "P1", "protein")
    p2 = entity("uniprot", "P2", "protein")
    g.add_triple(p1, BIND, p2)
    params = identity_params()
    table = table_for(g, {})

    hist = [np.zeros((len(g.nodes), 3)) for _ in range(2)]
    hist[0][np.array([g.index().position[p2.id]])] = np.array([[5.0, 0.0, 0.0]])
    out_with = encode(g, table, params, history=hist, scope=[p1.id])[p1.id]
    out_zero = encode(g, table, params, scope=[p1.id])[p1.id]
    # layer 2 of p1 aggregates p2's layer-1 embedding: history vs zero fallback
    assert not np.array_equal(out_with, out_zero)
    assert np.allclose(out_with - out_zero, np.array([5.0, 0.0, 0.0]))


def test_encode_gradients_pass_finite_differences():
    g = MultimodalGraph()
    prot = entity("uniprot", "P1", "protein")
    drug_e = entity("drugbank", "D1", "drug")
    g.add_triple(prot, SEQ, attribute_node("protein_sequence", "MKTAY"))
    g.add_triple(drug_e, BIND, prot)
    rng = substream(4, "init")
    params = init_gnn_params({"protein_sequence": 5}, ["sequence", "binding_to"], rng, 4, 6, 6)
    named = params.named_parameters()
    for p in named.values():
        # keep pre-activations off the relu kink so finite differences are valid
        p.data = p.data + rng.normal(size=p.data.shape) * 0.1
    vectors = {}
    for node in g.nodes.values():
        vectors[str(node.id)] = rng.normal(size=5 if node.modality == "protein_sequence" else 4)
    table = table_for(g, vectors, dim=5)

    def f(p):
        mp = build_mp(g, None, FlowPolicy.unrestricted())
        layers = encode_layers(mp, table, params)
        return ref.mean(ref.mul(layers[-1], layers[-1]))

    assert nm.grad_check(f, named) < 1e-4


def test_controlled_policy_requires_nonempty_sets():
    with pytest.raises(ValueError):
        FlowPolicy("controlled", {"protein": frozenset()})
