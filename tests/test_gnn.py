import numpy as np
import pytest

from kgdta import numerics as nm
from kgdta.errors import MissingProjection
from kgdta.gnn import (
    FlowPolicy,
    GnnParams,
    HistoricalStore,
    RgcnLayer,
    build_mp,
    encode,
    encode_layers,
    infer,
    init_gnn_params,
    params_from_dict,
    params_to_dict,
    policy_from_dict,
    policy_to_dict,
)
from kgdta.graph import MultimodalGraph, NodeId, NodeKind, Relation, RelationKind, attribute_node, entity
from kgdta.handlers import EmbeddingTable, compute_initial_embeddings, default_registry
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
    table = EmbeddingTable()
    for node in graph.nodes.values():
        key = str(node.id)
        if key in vectors:
            table.put(node.id, node.modality, vectors[key])
        else:
            table.put(node.id, node.modality, np.zeros(dim))
    return table


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
        table = compute_initial_embeddings(g, default_registry(), entity_dim=64)
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
        table = EmbeddingTable()
        for node in g.nodes.values():
            table.put(node.id, node.modality, vectors.get(str(node.id), np.zeros(4)))
        outputs.append(encode(g, table, params))
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
    assert [len(mp.receiver) for mp in (before, between, after)] == [2, 4, 4]
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


def dense_reference(mp, table, params, history=None) -> list[np.ndarray]:
    """The R-GCN layer formula on dense per-relation matrices rebuilt from the
    MpGraph edge arrays: h' = relu(h W_self + sum_r A_r h W_r + b)."""
    n = len(mp.node_ids)
    dims = [params.proj_dim, params.hidden_dim, params.out_dim]
    h = np.zeros((n, dims[0]))
    for modality, rows in mp.attr_rows.items():
        w, b = params.projections[modality]
        h[rows] = np.stack([table.get(mp.node_ids[i]) for i in rows]) @ w.data + b.data
    dense = {}
    for k, rel in enumerate(mp.relations):
        edges = mp.relation == k
        if edges.any():
            A = np.zeros((n, n))
            A[mp.receiver[edges], mp.sender[edges]] = mp.weight[edges]
            dense[rel] = A
    outputs = []
    for l, layer in enumerate(params.layers):
        if l > 0:
            h = np.zeros((n, dims[l]))
            h[mp.scope_rows] = outputs[-1]
            if history is not None:
                h[mp.out_rows] = history.layers[l - 1][mp.closure[mp.out_rows]]
        z = h @ layer.w_self.data + layer.bias.data
        for rel, A in dense.items():
            z = z + A @ h @ layer.weight_for(rel).data
        outputs.append(np.maximum(z, 0.0)[mp.scope_rows])
    return outputs


def test_sparse_encoder_matches_the_dense_formula_on_acceptance_graphs():
    from kgdta.pretrain import partition, trainable_relations
    from kgdta.synthetic import make_planted_world

    registry = default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)
    worlds = [
        make_planted_world(n_drugs=13, n_proteins=12, seed=1).graph,
        make_planted_world(n_drugs=10, n_proteins=8, seed=2).graph,
        make_planted_world(n_drugs=60, n_proteins=40, latent_dim=8, edge_density=0.3,
                           kg_pair_fraction=0.5, seed=0).graph,
    ]
    worst = 0.0
    for g in worlds:
        table = compute_initial_embeddings(g, registry, entity_dim=16)
        dims = {m: table.dims[m] for m in ("protein_sequence", "smiles")}
        params = init_gnn_params(dims, trainable_relations(g), substream(8, "init"), 16, 12, 12)
        part = partition(g, 3, substream(8, "partition"))
        n_nodes = len(g.nodes)
        history = HistoricalStore(n_nodes, [12, 12])
        rng = substream(8, "history")
        history.update(0, np.arange(n_nodes), rng.normal(size=(n_nodes, 12)))
        for policy in (FlowPolicy.unrestricted(), FlowPolicy.controlled()):
            for scope, hist in ((None, None), (np.flatnonzero(part == 1), None), (np.flatnonzero(part == 2), history)):
                mp = build_mp(g, scope, policy)
                # every edge feeds a scope row, and each receiver's weights per relation average
                assert set(mp.receiver.tolist()) <= set(mp.scope_rows.tolist())
                sums = {}
                for k, v, w in zip(mp.relation.tolist(), mp.receiver.tolist(), mp.weight.tolist()):
                    sums[k, v] = sums.get((k, v), 0.0) + w
                assert all(abs(total - 1.0) < 1e-12 for total in sums.values())
                sparse = encode_layers(mp, table, params, hist)
                for got, want in zip(sparse[1:], dense_reference(mp, table, params, hist)):
                    worst = max(worst, float(np.max(np.abs(got.data - want))))
    assert worst <= 1e-12, worst


def test_full_graph_edges_are_the_triples_both_ways():
    from kgdta.synthetic import make_planted_world

    g = make_planted_world(n_drugs=6, n_proteins=5, seed=4).graph
    g.add_triple(entity("uniprot", "P0", "protein"), Relation("rdf:type", RelationKind.OBJECT),
                 entity("class", "Protein", "class"))
    mp = build_mp(g, None, FlowPolicy.unrestricted())
    got = {
        (mp.relations[k], mp.node_ids[v], mp.node_ids[u])
        for k, v, u in zip(mp.relation.tolist(), mp.receiver.tolist(), mp.sender.tolist())
    }
    want = {(t.relation.name, t.target, t.source) for t in g.triples() if t.relation.name != "rdf:type"}
    want |= {(rel, u, v) for rel, v, u in want}
    assert got == want
    assert len(mp.receiver) == len(got)
    # controlled: only the allowed relation reaches a governed entity, and a policy
    # entry for an attribute modality governs nothing
    allowed = {"protein": {"sequence"}, "drug": {"smiles"}, "smiles": {"sequence"}}
    controlled = build_mp(g, None, FlowPolicy.controlled(allowed))
    kept = set()
    for k, v, u in zip(controlled.relation.tolist(), controlled.receiver.tolist(), controlled.sender.tolist()):
        kept.add((controlled.relations[k], controlled.node_ids[v], controlled.node_ids[u]))
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
        table = compute_initial_embeddings(g, default_registry(), entity_dim=64)
        params = init_gnn_params({"protein_sequence": 128}, ["sequence", "binding_to"], substream(1, "init"))
        return encode(g, table, params, scope=[d.id])[d.id]

    # the mutated attribute hangs 4 hops from the drug: bitwise identical embedding
    assert np.array_equal(build("MKTAY"), build("WWWWW"))


def test_disconnected_structure_is_bitwise_irrelevant():
    params = init_gnn_params({"smiles": 2048}, ["smiles"], substream(2, "init"))
    registry = default_registry()
    init_vec, direct = infer(params, FlowPolicy.unrestricted(), "CCO", "smiles", registry)

    g = MultimodalGraph()
    q = entity("query", "q", "drug")
    g.add_triple(q, Relation("smiles", RelationKind.DATA), attribute_node("smiles", "CCO"))
    # disconnected clutter
    other = entity("uniprot", "P1", "protein")
    g.add_triple(other, SEQ, attribute_node("protein_sequence", "MKTAY"))
    table = compute_initial_embeddings(g, registry, entity_dim=params.proj_dim)
    embedded = encode(g, table, params, scope=[q.id])[q.id]
    assert np.array_equal(direct, embedded)
    assert np.array_equal(init_vec, table.get(attribute_node("smiles", "CCO").id))


def test_infer_deterministic_and_shapes():
    params = init_gnn_params({"smiles": 2048, "protein_sequence": 128}, ["smiles", "sequence"], substream(3, "init"))
    registry = default_registry()
    a_init, a_gnn = infer(params, FlowPolicy.controlled(), "CCO", "smiles", registry)
    b_init, b_gnn = infer(params, FlowPolicy.controlled(), "CCO", "smiles", registry)
    assert a_init.shape == (2048,) and a_gnn.shape == (128,)
    assert np.array_equal(a_init, b_init) and np.array_equal(a_gnn, b_gnn)
    s_init, s_gnn = infer(params, FlowPolicy.controlled(), "MKTAY", "protein_sequence", registry)
    assert s_init.shape == (128,) and s_gnn.shape == (128,)


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

    hist = HistoricalStore(len(g.nodes), [3, 3])
    hist.update(0, np.array([g.index().position[p2.id]]), np.array([[5.0, 0.0, 0.0]]))
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
    table = EmbeddingTable()
    for node in g.nodes.values():
        dim = 5 if node.modality == "protein_sequence" else 4
        table.put(node.id, node.modality, rng.normal(size=dim))

    def f(p):
        mp = build_mp(g, None, FlowPolicy.unrestricted())
        layers = encode_layers(mp, table, params)
        return nm.mean(nm.mul(layers[-1], layers[-1]))

    assert nm.grad_check(f, named) < 1e-4


def test_params_roundtrip_through_dict():
    params = init_gnn_params({"smiles": 16}, ["binding_to"], substream(5, "init"), 4, 6, 6)
    doc = params_to_dict(params)
    back = params_from_dict(doc)
    assert params_to_dict(back) == doc
    policy = FlowPolicy.controlled({"drug": {"smiles"}})
    assert policy_from_dict(policy_to_dict(policy)) == policy


def test_controlled_policy_requires_nonempty_sets():
    with pytest.raises(ValueError):
        FlowPolicy("controlled", {"protein": frozenset()})
