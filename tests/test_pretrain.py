import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg_strategies import graphs
from kgdta import numerics as nm
from kgdta.errors import EmptyTrainingSet, ExhaustedCandidates, InvalidK, UnknownRelation
from kgdta.graph import MultimodalGraph, NodeId, Relation, RelationKind, Triple, attribute_node, entity
from kgdta.handlers import compute_initial_embeddings, default_registry
from kgdta.pretrain import (
    AdmissibleSets,
    Checkpoint,
    EmbeddingView,
    LinkFilter,
    PretrainConfig,
    ScoreFn,
    checkpoint_from_json,
    checkpoint_to_json,
    evaluate_link_auc,
    init_score_fn,
    link_auc,
    load_checkpoint,
    numeric_triples,
    partition,
    pretrain_loss,
    sample_negatives,
    save_checkpoint,
    score,
    sequential_pretrain,
    train,
)
from kgdta.synthetic import make_planted_world
from kgdta.util import substream

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))
TARGET_OF = Relation("target_of", RelationKind.OBJECT)


def simple_fn(kind, w, **kwargs):
    return ScoreFn(kind, {"r": nm.param(np.array(w, dtype=np.float64))}, **kwargs)


def test_distmult_zero_gives_half():
    fn = simple_fn("distmult", [0.0, 0.0, 0.0])
    assert score(fn, np.zeros(3), "r", np.zeros(3)) == 0.5


def test_transe_exact_translation():
    h = np.array([0.3, -0.2])
    w = np.array([0.1, 0.4])
    fn = simple_fn("transe", w, margin=1.0)
    assert abs(score(fn, h, "r", h + w) - SIGMOID_1) < 1e-12


def test_distmult_toy_trilinear():
    fn = simple_fn("distmult", [1.0, 1.0])
    # sum_i h_i * w_i * t_i = 1*1*1 + 0*1*0 = 1
    assert abs(score(fn, [1.0, 0.0], "r", [1.0, 0.0]) - SIGMOID_1) < 1e-12


def test_unknown_relation():
    fn = simple_fn("distmult", [0.0])
    with pytest.raises(UnknownRelation):
        score(fn, [0.0], "nope", [0.0])


@given(st.integers(0, 2), st.integers(0, 10_000))
def test_scores_strictly_in_unit_interval(kind_idx, seed):
    kind = ("distmult", "transe", "classifier")[kind_idx]
    rng = np.random.default_rng(seed)
    fn = init_score_fn(kind, ["r"], 6, rng, clf_hidden=8)
    val = score(fn, rng.normal(size=6) * 3, "r", rng.normal(size=6) * 3)
    assert 0.0 < val < 1.0


# --- negative sampling ---------------------------------------------------------


def _object_triple(s_ns, s_id, t_ns, t_id, rel="target_of"):
    return Triple(NodeId(s_ns, s_id), Relation(rel, RelationKind.OBJECT), NodeId(t_ns, t_id))


def test_negatives_come_from_enumerated_complement():
    pos = [_object_triple("drugbank", "d1", "uniprot", "p1")]
    sets = AdmissibleSets(
        {"target_of": ([NodeId("drugbank", "d1"), NodeId("drugbank", "d2")],
                       [NodeId("uniprot", "p1"), NodeId("uniprot", "p2")])}
    )
    # oracle: enumerate the admissible complement by hand
    complement = {
        ("drugbank:d2", "target_of", "uniprot:p1"),
        ("drugbank:d1", "target_of", "uniprot:p2"),
        ("drugbank:d2", "target_of", "uniprot:p2"),
    }
    for trial in range(50):
        negs = sample_negatives(pos, sets, 1, substream(trial, "neg"))
        assert len(negs) == 1
        key = (str(negs[0].source), negs[0].relation.name, str(negs[0].target))
        assert key in complement


def test_equal_ratio():
    pos = [
        _object_triple("drugbank", f"d{i}", "uniprot", f"p{i}") for i in range(5)
    ]
    sets = AdmissibleSets.from_triples(pos)
    negs = sample_negatives(pos, sets, 1, substream(0, "neg"))
    assert len(negs) == len(pos)
    negs3 = sample_negatives(pos, sets, 3, substream(0, "neg"))
    assert len(negs3) == 3 * len(pos)


def test_exhausted_candidates_when_all_pairs_positive():
    pos = [
        _object_triple("drugbank", d, "uniprot", p)
        for d in ("d1", "d2")
        for p in ("p1", "p2")
    ]
    sets = AdmissibleSets.from_triples(pos)
    with pytest.raises(ExhaustedCandidates):
        sample_negatives(pos, sets, 1, substream(0, "neg"))


@settings(max_examples=60)
@given(graphs(max_triples=10), st.integers(0, 1000))
def test_negatives_always_admissible(g, seed):
    positives = [t for t in g.triples() if t.relation.name not in ("rdf:type", "sameAs")]
    if not positives:
        return
    sets = AdmissibleSets.from_triples(positives)
    keys = {t.key for t in positives}
    try:
        negs = sample_negatives(positives, sets, 1, substream(seed, "neg"))
    except ExhaustedCandidates:
        return
    assert len(negs) == len(positives)
    for t in negs:
        sources, targets = sets.by_relation[t.relation.name]
        assert t.source in sources and t.target in targets
        assert t.key not in keys


# --- loss ------------------------------------------------------------------------


def view_over(vectors: dict[NodeId, np.ndarray]) -> EmbeddingView:
    ids = sorted(vectors)
    h = nm.constant(np.stack([vectors[i] for i in ids]))
    return EmbeddingView(h, {nid: i for i, nid in enumerate(ids)})


def test_single_positive_at_half_gives_ln2():
    t = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    fn = simple_fn("distmult", np.zeros(4))
    view = view_over({t.source: np.zeros(4), t.target: np.zeros(4)})
    loss = pretrain_loss([t], [], view, fn)
    assert abs(float(loss.data) - math.log(2)) < 1e-12


def test_perfectly_scored_triples_drive_loss_to_zero():
    pos = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    neg = _object_triple("drugbank", "d1", "uniprot", "p2", rel="r")
    fn = simple_fn("distmult", np.ones(2))
    view = view_over(
        {
            pos.source: np.array([6.0, 6.0]),
            pos.target: np.array([6.0, 6.0]),
            neg.target: np.array([-6.0, -6.0]),
        }
    )
    loss = float(pretrain_loss([pos], [neg], view, fn).data)
    assert 0.0 < loss < 1e-9


def test_exact_regression_head_contributes_zero():
    from kgdta.pretrain import RegressionHeads

    t = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    fn = simple_fn("distmult", np.zeros(2))
    view = view_over({t.source: np.zeros(2), t.target: np.zeros(2)})
    heads = RegressionHeads({"mass": (nm.param(np.zeros((2, 1))), nm.param(np.array([7.5])))}, lam=1.0)
    reg_triples = [(t.source, "mass", 7.5)]
    with_reg = float(pretrain_loss([t], [], view, fn, heads, reg_triples).data)
    without = float(pretrain_loss([t], [], view, fn).data)
    assert abs(with_reg - without) < 1e-15


# --- partitioning -------------------------------------------------------------------


def path_graph(n=4):
    g = MultimodalGraph()
    prev = None
    for i in range(n):
        node = entity("uniprot", f"P{i}", "protein")
        g.add_node(node)
        if prev is not None:
            g.add_triple(prev, Relation("interacts", RelationKind.OBJECT), node)
        prev = node
    return g


def test_partition_k1_is_whole_graph():
    g = path_graph(4)
    plan = partition(g, 1, substream(0, "partition"))
    assert set(plan.assignment.values()) == {0}
    assert len(plan.assignment) == len(g.nodes)


def test_partition_k2_on_path_is_balanced():
    g = path_graph(4)
    for seed in range(10):
        plan = partition(g, 2, substream(seed, "partition"))
        sizes = {}
        for node in g.entities():
            sizes[plan.assignment[node.id]] = sizes.get(plan.assignment[node.id], 0) + 1
        assert sorted(sizes.values()) == [2, 2]


def test_partition_invalid_k():
    g = path_graph(3)
    with pytest.raises(InvalidK):
        partition(g, 0)
    with pytest.raises(InvalidK):
        partition(g, 4)


def test_attributes_colocated_with_incident_entity():
    g = MultimodalGraph()
    shared = attribute_node("text", "shared label")
    for i in range(6):
        g.add_triple(entity("uniprot", f"P{i}", "protein"), Relation("label", RelationKind.DATA), shared)
    plan = partition(g, 3, substream(0, "partition"))
    incident_parts = {plan.assignment[NodeId("uniprot", f"P{i}")] for i in range(6)}
    assert plan.assignment[shared.id] in incident_parts


@settings(max_examples=40, deadline=None)
@given(graphs(max_triples=14), st.integers(1, 4))
def test_partition_cover_and_balance(g, k):
    entities = [n.id for n in g.entities()]
    if not entities or k > len(entities):
        return
    plan = partition(g, k, substream(0, "partition"))
    counts = [0] * k
    for e in entities:
        counts[plan.assignment[e]] += 1
    assert sum(counts) == len(entities)
    assert max(counts) - min(counts) <= 1
    for a in g.attributes():
        # an attribute joins the part of its smallest incident entity (part 0 if none)
        incident = sorted(t.source for t in g.triples() if t.target == a.id)
        assert plan.assignment[a.id] == (plan.assignment[incident[0]] if incident else 0)


def reference_partition(graph, k, rng):
    """Partitioning written over NodeId sets and lists, as a loop-form oracle."""
    entities = sorted(n.id for n in graph.entities())
    assignment = {}
    if entities:
        adjacency = {e: set() for e in entities}
        for t in graph.triples():
            if t.relation.name not in ("rdf:type", "sameAs") and t.target in adjacency:
                adjacency[t.source].add(t.target)
                adjacency[t.target].add(t.source)
        seed_rows = sorted(int(i) for i in rng.choice(len(entities), size=k, replace=False))
        queues = [[entities[i]] for i in seed_rows]
        sizes = [0] * k
        while len(assignment) < len(entities):
            p = min(range(k), key=lambda i: (sizes[i], i))
            fresh = [c for c in queues[p] if c not in assignment]
            node = fresh[0] if fresh else next(e for e in entities if e not in assignment)
            queues[p] = queues[p][queues[p].index(node) + 1 :] if fresh else []
            assignment[node] = p
            sizes[p] += 1
            queues[p] += [u for u in sorted(adjacency[node]) if u not in assignment]
    for node in graph.attributes():
        incident = sorted(t.source for t in graph.triples() if t.target == node.id)
        assignment[node.id] = assignment[incident[0]] if incident else 0
    return assignment


@settings(max_examples=60, deadline=None)
@given(graphs(max_triples=16), st.integers(1, 4), st.integers(0, 1000))
def test_partition_matches_the_reference_loop(g, k, seed):
    if k > max(len(g.entities()), 1):
        return
    plan = partition(g, k, substream(seed, "partition"))
    expected = reference_partition(g, k, substream(seed, "partition"))
    assert list(plan.assignment.items()) == list(expected.items())


# --- training ---------------------------------------------------------------------------


def small_registry():
    # compact handler dims: these tests exercise graph machinery, not handler width
    return default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)


def small_world(seed=0, n_drugs=12, n_proteins=8):
    world = make_planted_world(n_drugs=n_drugs, n_proteins=n_proteins, seed=seed)
    table = compute_initial_embeddings(world.graph, small_registry(), entity_dim=16)
    return world, table


SMALL_DIMS = dict(proj_dim=16, hidden_dim=12, out_dim=12, clf_hidden=8)


def test_gas_k1_matches_full_batch_reference():
    """Partitioned training with k=1 must bit-match a plain full-batch loop."""
    from kgdta.gnn import build_mp, encode_layers, init_gnn_params
    from kgdta.pretrain import (
        AdmissibleSets,
        _attr_modality_dims,
        _split_positives,
        trainable_relations,
    )

    world, table = small_world()
    cfg = PretrainConfig(score_fn="distmult", epochs=6, lr=1e-3, seed=5, **SMALL_DIMS)

    result = train(world.graph, table, cfg)

    # reference: no partition plan, no history store, same substream conventions
    graph = world.graph
    filtered = [t for t in graph.triples() if cfg.link_filter.admits(t.relation.name)]
    train_pos, _ = _split_positives(filtered, cfg)
    sets = AdmissibleSets.from_triples(filtered)
    forbidden = {t.key for t in filtered}
    relations = trainable_relations(graph)
    params = init_gnn_params(
        _attr_modality_dims(graph, table), relations, substream(cfg.seed, "init"),
        cfg.proj_dim, cfg.hidden_dim, cfg.out_dim,
    )
    fn = init_score_fn(cfg.score_fn, relations, cfg.out_dim, substream(cfg.seed, "init_score"),
                       cfg.clf_hidden, cfg.margin)
    named = {**params.named_parameters(), **fn.named_parameters()}
    state = None
    losses = []
    mp = build_mp(graph, None, cfg.policy)
    for epoch in range(cfg.epochs):
        layers = encode_layers(mp, table, params)
        view = EmbeddingView(layers[-1], {nid: i for i, nid in enumerate(mp.scope_ids)})
        negs = sample_negatives(train_pos, sets, 1, substream(cfg.seed, "neg", epoch, 0), forbidden)
        loss = pretrain_loss(train_pos, negs, view, fn)
        losses.append(float(loss.data))
        nm.zero_grads(named)
        nm.backward(loss)
        _, state = nm.adam_step(named, nm.collect_grads(named), state, cfg.lr)

    trained = result.named_parameters()
    for epoch, ref_loss in enumerate(losses):
        assert abs(result.log[epoch]["train_loss"] - ref_loss) <= 1e-12
    for name, p in named.items():
        assert np.max(np.abs(p.data - trained[name].data)) <= 1e-12, name


def test_partitioned_training_runs_and_is_deterministic():
    world, table = small_world()
    cfg = PretrainConfig(score_fn="distmult", epochs=3, lr=1e-3, seed=7, partitions=3, **SMALL_DIMS)
    a = train(world.graph, table, cfg)
    b = train(world.graph, table, cfg)
    assert checkpoint_to_json(Checkpoint.from_result(a)) == checkpoint_to_json(Checkpoint.from_result(b))
    assert a.log == b.log
    parts = {row["partition"] for row in a.log}
    assert parts == {0, 1, 2}
    assert all("val_loss" in row for row in a.log)


def test_restricted_filter_trains_only_selected_relations():
    world, table = small_world()
    cfg = PretrainConfig(
        score_fn="distmult",
        epochs=3,
        lr=1e-2,
        seed=3,
        link_filter=LinkFilter.restricted(["binding_to"]),
        **SMALL_DIMS,
    )
    result = train(world.graph, table, cfg)
    assert all(t.relation.name == "binding_to" for t in result.train_triples)

    fresh = init_score_fn(
        cfg.score_fn, result.relations, cfg.out_dim, substream(cfg.seed, "init_score"),
        cfg.clf_hidden, cfg.margin,
    )
    # scorer embeddings of filtered-out relations never receive gradient
    assert np.array_equal(result.score_fn.rel_emb["smiles"].data, fresh.rel_emb["smiles"].data)
    assert not np.array_equal(
        result.score_fn.rel_emb["binding_to"].data, fresh.rel_emb["binding_to"].data
    )


def test_empty_training_set_raises():
    g = MultimodalGraph()
    g.add_node(entity("uniprot", "P1", "protein"))
    table = compute_initial_embeddings(g, default_registry(), entity_dim=8)
    with pytest.raises(EmptyTrainingSet):
        train(g, table, PretrainConfig(epochs=1, **SMALL_DIMS))


def test_regression_without_numeric_attribute_raises():
    world, table = small_world()
    assert not numeric_triples(world.graph)
    with pytest.raises(EmptyTrainingSet):
        train(world.graph, table, PretrainConfig(epochs=1, regression=True, **SMALL_DIMS))


def test_regression_objective_trains():
    g = MultimodalGraph()
    rng = substream(0, "mkfix")
    for i in range(6):
        prot = entity("uniprot", f"P{i}", "protein")
        g.add_triple(prot, Relation("sequence", RelationKind.DATA),
                     attribute_node("protein_sequence", "".join(rng.choice(list("ACDF"), size=20))))
        g.add_triple(prot, Relation("length", RelationKind.DATA), attribute_node("number", float(i)))
        g.add_triple(entity("drugbank", f"D{i}", "drug"), TARGET_OF, prot)
    assert len(numeric_triples(g)) == 6
    table = compute_initial_embeddings(g, small_registry(), entity_dim=16)
    cfg = PretrainConfig(score_fn="transe", epochs=4, lr=1e-2, seed=1, regression=True, **SMALL_DIMS)
    result = train(g, table, cfg)
    assert result.regression is not None and "length" in result.regression.heads
    first, last = result.log[0]["train_loss"], result.log[-1]["train_loss"]
    assert last < first


def test_sequential_single_graph_equals_train():
    world, table = small_world()
    cfg = PretrainConfig(score_fn="distmult", epochs=2, lr=1e-3, seed=2, **SMALL_DIMS)
    direct = train(world.graph, table, cfg)
    seq = sequential_pretrain([world.graph], cfg, initial_tables=[table])
    a = checkpoint_to_json(Checkpoint.from_result(direct))
    b = checkpoint_to_json(Checkpoint.from_result(seq))
    assert a == b


def test_sequential_warm_start_and_vocabulary_growth():
    world1, table1 = small_world(seed=0)
    world2, table2 = small_world(seed=9)
    # give phase 2 a brand-new relation (two triples so corruption is possible)
    g2 = world2.graph
    drugs = [n for n in g2.entities() if n.modality == "drug"]
    g2.add_triple(drugs[0], Relation("synergy_with", RelationKind.OBJECT), drugs[1])
    g2.add_triple(drugs[2], Relation("synergy_with", RelationKind.OBJECT), drugs[3])
    table2 = compute_initial_embeddings(g2, small_registry(), entity_dim=16)

    cfg = PretrainConfig(score_fn="distmult", epochs=2, lr=1e-3, seed=4, **SMALL_DIMS)
    phase1 = train(world1.graph, table1, cfg)

    warm = train(g2, table2, PretrainConfig(score_fn="distmult", epochs=0, lr=1e-3, seed=4, **SMALL_DIMS),
                 warm_start=phase1)
    # overlapping weights copied verbatim; exactly one new relation appears
    assert set(warm.score_fn.rel_emb) == set(phase1.score_fn.rel_emb) | {"synergy_with"}
    for rel in phase1.score_fn.rel_emb:
        assert np.array_equal(warm.score_fn.rel_emb[rel].data, phase1.score_fn.rel_emb[rel].data)
    for layer_w, layer_p in zip(warm.params.layers, phase1.params.layers):
        assert set(layer_w.w_rel) == set(layer_p.w_rel) | {"synergy_with"}

    seq = sequential_pretrain([world1.graph, g2], cfg, initial_tables=[table1, table2])
    phases = {row.get("phase") for row in seq.log}
    assert phases == {0, 1}


def _checkpoint_arrays(ckpt):
    named = {**ckpt.params.named_parameters(), **ckpt.score_fn.named_parameters()}
    if ckpt.regression is not None:
        named.update(ckpt.regression.named_parameters())
    return {name: t.data for name, t in named.items()}


def with_protein_lengths(graph):
    """Give every protein a numeric `length` attribute, so regression heads exist."""
    proteins = [n for n in graph.entities() if n.modality == "protein"]
    for i, prot in enumerate(proteins):
        graph.add_triple(prot, Relation("length", RelationKind.DATA), attribute_node("number", float(i)))
    return graph, compute_initial_embeddings(graph, small_registry(), entity_dim=16)


def test_checkpoint_roundtrip(tmp_path):
    world, _ = small_world()
    graph, table = with_protein_lengths(world.graph)
    cfg = PretrainConfig(score_fn="classifier", epochs=2, lr=1e-3, seed=6, regression=True, **SMALL_DIMS)
    result = train(graph, table, cfg)
    ckpt = Checkpoint.from_result(result)
    # extremes of float64 that a decimal round trip could lose
    extremes = np.array([-0.0, 5e-324, 1.7e308, -1.7e308])
    ckpt.params.layers[0].bias.data[: len(extremes)] = extremes
    text = checkpoint_to_json(ckpt)
    back = checkpoint_from_json(text)
    assert checkpoint_to_json(back) == text
    assert back.score_fn.kind == "classifier"
    assert back.regression is not None

    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, str(path))
    assert path.read_text(encoding="utf-8") == text
    loaded = load_checkpoint(str(path))
    assert checkpoint_to_json(loaded) == text

    before, after = _checkpoint_arrays(ckpt), _checkpoint_arrays(loaded)
    assert set(after) == set(before)
    assert {name.split("/")[0] for name in after} == {"proj", "layer0", "layer1", "score", "reg"}
    for name, data in after.items():
        assert data.dtype == np.float64 and data.shape == before[name].shape, name
        assert data.tobytes() == before[name].tobytes(), name
        # grad_check perturbs parameters in place
        assert data.flags.writeable and data.flags.owndata, name
    assert np.signbit(loaded.params.layers[0].bias.data[0])


def test_link_auc_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pos = rng.normal(size=rng.integers(2, 20))
        neg = rng.normal(size=rng.integers(2, 20))
        if rng.random() < 0.3:
            neg[0] = pos[0]  # force a tie
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        oracle = wins / (len(pos) * len(neg))
        assert abs(link_auc(pos, neg) - oracle) < 1e-12


def test_evaluate_link_auc_smoke():
    world, table = small_world()
    cfg = PretrainConfig(score_fn="distmult", epochs=2, lr=1e-3, seed=8, **SMALL_DIMS)
    result = train(world.graph, table, cfg)
    auc = evaluate_link_auc(world.graph, table, result, seed=0)
    assert 0.0 <= auc <= 1.0


def test_loss_gradients_pass_finite_differences_all_scorers():
    world, _ = small_world(n_drugs=4, n_proteins=3)
    graph, table = with_protein_lengths(world.graph)
    for kind in ("distmult", "transe", "classifier"):
        cfg = PretrainConfig(score_fn=kind, epochs=0, seed=11, regression=True, **SMALL_DIMS)
        result = train(graph, table, cfg)
        named = result.named_parameters()
        assert {"reg/length/w", "reg/length/b"} <= set(named)
        rng = substream(12, "jitter", kind)
        for p in named.values():
            # random small parameters, scaled so no gradient component sits down at
            # the relative-error denominator floor
            p.data = p.data + rng.normal(size=p.data.shape) * 0.2

        from kgdta.gnn import build_mp, encode_layers
        from kgdta.pretrain import _split_positives

        filtered = [t for t in graph.triples() if cfg.link_filter.admits(t.relation.name)]
        train_pos, _ = _split_positives(filtered, cfg)
        sets = AdmissibleSets.from_triples(filtered)
        negs = sample_negatives(train_pos, sets, 1, substream(13, "neg"), {t.key for t in filtered})
        reg_triples = numeric_triples(graph)
        mp = build_mp(graph, None, cfg.policy)

        def objective(p):
            layers = encode_layers(mp, table, result.params)
            view = EmbeddingView(layers[-1], {nid: i for i, nid in enumerate(mp.scope_ids)})
            return pretrain_loss(train_pos, negs, view, result.score_fn, result.regression, reg_triples)

        err = nm.grad_check(objective, named)
        assert err < 1e-4, f"{kind}: {err}"
