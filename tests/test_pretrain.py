import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kg_strategies import graphs
from kgdta import numerics as nm
import numerics_ref as ref
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
    score_logits,
    sequential_pretrain,
    train,
)
from kgdta.synthetic import make_planted_world
from kgdta.util import substream

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))
TARGET_OF = Relation("target_of", RelationKind.OBJECT)


def simple_fn(kind, w, **kwargs):
    return ScoreFn(kind, {"r": nm.param(np.array(w, dtype=np.float64))}, **kwargs)


def one_row(v) -> nm.Tensor:
    return nm.constant(np.asarray(v, dtype=np.float64).reshape(1, -1))


def test_distmult_zero_gives_half():
    fn = simple_fn("distmult", [0.0, 0.0, 0.0])
    logits = score_logits(fn, "r", one_row(np.zeros(3)), one_row(np.zeros(3)))
    assert nm.sigmoid(logits).data[0] == 0.5


def test_transe_exact_translation():
    h = np.array([0.3, -0.2])
    w = np.array([0.1, 0.4])
    fn = simple_fn("transe", w, margin=1.0)
    logits = score_logits(fn, "r", one_row(h), one_row(h + w))
    assert abs(nm.sigmoid(logits).data[0] - SIGMOID_1) < 1e-12


def test_distmult_toy_trilinear():
    fn = simple_fn("distmult", [1.0, 1.0])
    # sum_i h_i * w_i * t_i = 1*1*1 + 0*1*0 = 1
    logits = score_logits(fn, "r", one_row([1.0, 0.0]), one_row([1.0, 0.0]))
    assert abs(nm.sigmoid(logits).data[0] - SIGMOID_1) < 1e-12


def test_unknown_relation():
    fn = simple_fn("distmult", [0.0])
    with pytest.raises(UnknownRelation):
        score_logits(fn, "nope", one_row([0.0]), one_row([0.0]))


@given(st.integers(0, 2), st.integers(0, 10_000))
def test_scores_strictly_in_unit_interval(kind_idx, seed):
    kind = ("distmult", "transe", "classifier")[kind_idx]
    rng = np.random.default_rng(seed)
    fn = init_score_fn(kind, ["r"], 6, rng, clf_hidden=8)
    logits = score_logits(fn, "r", one_row(rng.normal(size=6) * 3), one_row(rng.normal(size=6) * 3))
    val = nm.sigmoid(logits).data[0]
    assert 0.0 < val < 1.0


# --- negative sampling ---------------------------------------------------------


def _object_triple(s_ns, s_id, t_ns, t_id, rel="target_of"):
    return Triple(NodeId(s_ns, s_id), Relation(rel, RelationKind.OBJECT), NodeId(t_ns, t_id))


def interned(triples):
    """Node ids, relation names and (source, relation code, target) int rows of
    `triples`, with ints in sorted order as a graph index numbers them."""
    node_ids = sorted({t.source for t in triples} | {t.target for t in triples})
    relations = sorted({t.relation.name for t in triples})
    position = {nid: i for i, nid in enumerate(node_ids)}
    rows = [(position[t.source], relations.index(t.relation.name), position[t.target]) for t in triples]
    return node_ids, relations, np.array(rows, dtype=np.intp).reshape(-1, 3)


def named(rows, node_ids, relations):
    """Triple keys of int rows."""
    return [(node_ids[s], relations[r], node_ids[t]) for s, r, t in rows.tolist()]


def rows_where(g, keep):
    """Int rows over `g.index()` of the triples of `g` that `keep` admits; the
    index's rows follow `g.triples()` order, so a mask over that list selects them."""
    return g.index().triples[np.array([keep(t) for t in g.triples()], dtype=bool)]


def test_negatives_come_from_enumerated_complement():
    node_ids = [NodeId("drugbank", "d1"), NodeId("drugbank", "d2"), NodeId("uniprot", "p1"), NodeId("uniprot", "p2")]
    pos = np.array([[0, 0, 2]])  # d1 target_of p1
    sets = AdmissibleSets({0: (np.array([0, 1]), np.array([2, 3]))}, n_nodes=4, n_relations=1)
    # oracle: enumerate the admissible complement by hand
    complement = {
        ("drugbank:d2", "target_of", "uniprot:p1"),
        ("drugbank:d1", "target_of", "uniprot:p2"),
        ("drugbank:d2", "target_of", "uniprot:p2"),
    }
    for trial in range(50):
        negs = sample_negatives(pos, sets, 1, substream(trial, "neg"))
        assert len(negs) == 1
        (source, relation, target), = named(negs, node_ids, ["target_of"])
        assert (str(source), relation, str(target)) in complement


def test_equal_ratio():
    pos = [
        _object_triple("drugbank", f"d{i}", "uniprot", f"p{i}") for i in range(5)
    ]
    node_ids, relations, rows = interned(pos)
    sets = AdmissibleSets.from_rows(rows, len(node_ids), len(relations))
    negs = sample_negatives(rows, sets, 1, substream(0, "neg"))
    assert len(negs) == len(pos)
    negs3 = sample_negatives(rows, sets, 3, substream(0, "neg"))
    assert len(negs3) == 3 * len(pos)


def test_exhausted_candidates_when_all_pairs_positive():
    pos = [
        _object_triple("drugbank", d, "uniprot", p)
        for d in ("d1", "d2")
        for p in ("p1", "p2")
    ]
    node_ids, relations, rows = interned(pos)
    sets = AdmissibleSets.from_rows(rows, len(node_ids), len(relations))
    with pytest.raises(ExhaustedCandidates):
        sample_negatives(rows, sets, 1, substream(0, "neg"))


@settings(max_examples=60)
@given(graphs(max_triples=10), st.integers(0, 1000))
def test_negatives_always_admissible(g, seed):
    positives = [t for t in g.triples() if t.relation.name not in ("rdf:type", "sameAs")]
    if not positives:
        return
    gi = g.index()
    keys = {t.key for t in positives}
    rows = rows_where(g, lambda t: t.key in keys)
    sets = AdmissibleSets.from_rows(rows, len(gi.node_ids), len(gi.relations))
    try:
        negs = sample_negatives(rows, sets, 1, substream(seed, "neg"))
    except ExhaustedCandidates:
        return
    assert len(negs) == len(positives)
    for (s, r, t), key in zip(negs.tolist(), named(negs, gi.node_ids, gi.relations)):
        sources, targets = sets.by_relation[r]
        assert s in sources and t in targets
        assert key not in keys


def reference_sample_negatives(positives, ratio, rng, forbidden, fallbacks):
    """The sampler written over `Triple`s and NodeId-key sets, as a loop-form oracle;
    appends to `fallbacks` each positive whose rejection loop gave up."""
    sources, targets = {}, {}
    for t in positives:
        sources.setdefault(t.relation.name, set()).add(t.source)
        targets.setdefault(t.relation.name, set()).add(t.target)
    out = []
    for t in positives:
        srcs, tgts = sorted(sources[t.relation.name]), sorted(targets[t.relation.name])
        for _ in range(ratio):
            for _ in range(32):
                if int(rng.integers(0, 2)) == 0:
                    cand = Triple(srcs[int(rng.integers(len(srcs)))], t.relation, t.target)
                else:
                    cand = Triple(t.source, t.relation, tgts[int(rng.integers(len(tgts)))])
                if cand.key not in forbidden:
                    out.append(cand.key)
                    break
            else:
                fallbacks.append(t.key)
                pool = [(s, t.relation.name, t.target) for s in srcs if (s, t.relation.name, t.target) not in forbidden]
                pool += [(t.source, t.relation.name, u) for u in tgts if (t.source, t.relation.name, u) not in forbidden]
                if not pool:
                    raise ExhaustedCandidates(str(t.key))
                out.append(pool[int(rng.integers(len(pool)))])
    return out


def assert_sampler_matches_reference(g, positives, forbidden, ratio, seed):
    """The int sampler, mapped through the index, draws exactly what the reference
    draws, or both raise ExhaustedCandidates. Returns the reference's fallbacks."""
    gi = g.index()
    positive_keys = {t.key for t in positives}
    rows = rows_where(g, lambda t: t.key in positive_keys)
    sets = AdmissibleSets.from_rows(rows, len(gi.node_ids), len(gi.relations))
    keys = sets.keys(rows_where(g, lambda t: t.key in forbidden))
    fallbacks = []
    try:
        want = reference_sample_negatives(positives, ratio, substream(seed, "neg"), forbidden, fallbacks)
    except ExhaustedCandidates:
        with pytest.raises(ExhaustedCandidates):
            sample_negatives(rows, sets, ratio, substream(seed, "neg"), keys)
        return fallbacks
    got = sample_negatives(rows, sets, ratio, substream(seed, "neg"), keys)
    assert named(got, gi.node_ids, gi.relations) == want
    return fallbacks


@settings(max_examples=80, deadline=None)
@given(graphs(max_triples=12), st.integers(0, 1000), st.integers(1, 3))
def test_int_sampler_draws_exactly_what_the_triple_sampler_draws(g, seed, ratio):
    positives = [t for t in g.triples() if t.relation.name not in ("rdf:type", "sameAs")]
    if positives:
        assert_sampler_matches_reference(g, positives, {t.key for t in positives}, ratio, seed)


def bipartite_graph(n_sources, n_targets, pairs):
    g = MultimodalGraph()
    drugs = [entity("drugbank", f"d{i:03d}", "drug") for i in range(n_sources)]
    proteins = [entity("uniprot", f"p{j:03d}", "protein") for j in range(n_targets)]
    for i, j in pairs:
        g.add_triple(drugs[i], TARGET_OF, proteins[j])
    return g


def test_int_sampler_matches_the_reference_through_the_exhaustive_fallback():
    # every corruption of (d0, p0) is a positive except (d59, p0) and (d0, p59), so
    # the rejection loop mostly gives up and the fallback pool lists those two in order
    n = 60
    pairs = [(0, 0)] + [(i, 0) for i in range(1, n - 1)] + [(0, j) for j in range(1, n - 1)]
    pairs += [(n - 1, 1), (1, n - 1)]
    g = bipartite_graph(n, n, pairs)
    positives = g.triples()
    fallbacks = []
    for seed in range(8):
        fallbacks += assert_sampler_matches_reference(g, positives, {t.key for t in positives}, 2, seed)
    assert fallbacks


def test_int_sampler_matches_the_reference_when_candidates_are_exhausted():
    g = bipartite_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    positives = g.triples()
    with pytest.raises(ExhaustedCandidates):
        reference_sample_negatives(positives, 1, substream(0, "neg"), {t.key for t in positives}, [])
    assert_sampler_matches_reference(g, positives, {t.key for t in positives}, 1, 0)


# --- loss ------------------------------------------------------------------------


def view_over(vectors: dict[NodeId, np.ndarray], node_ids: list[NodeId]) -> EmbeddingView:
    h = nm.constant(np.stack([vectors[nid] for nid in node_ids]))
    return EmbeddingView(h, np.arange(len(node_ids)))


def test_view_reads_scope_rows_then_history_then_zeros():
    history = [np.zeros((5, 2)), np.zeros((5, 3))]
    history[1][np.array([1, 2])] = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    h = nm.param(np.array([[10.0, 11.0, 12.0], [20.0, 21.0, 22.0]]))
    row_of = np.array([-1, -1, 0, -1, 1])  # nodes 2 and 4 are in scope; 1 and 2 are stored
    view = EmbeddingView(h, row_of, history[-1])
    out = view.rows(np.array([2, 1, 3, 4, 2, 0]))
    want = [[10, 11, 12], [1, 2, 3], [0, 0, 0], [20, 21, 22], [10, 11, 12], [0, 0, 0]]
    assert np.array_equal(out.data, np.array(want, dtype=np.float64))
    probe = np.arange(18.0).reshape(6, 3)
    nm.backward(ref.sum_all(nm.mul(out, nm.constant(probe))))
    assert np.array_equal(h.grad, np.stack([probe[0] + probe[4], probe[3]]))
    assert np.array_equal(history[1][1:3], [[1, 2, 3], [4, 5, 6]])
    assert not history[0].any()
    # without a fallback every out-of-scope node reads zeros
    assert np.array_equal(EmbeddingView(h, row_of).rows(np.array([1, 4])).data, [[0, 0, 0], [20, 21, 22]])


def test_single_positive_at_half_gives_ln2():
    t = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    fn = simple_fn("distmult", np.zeros(4))
    node_ids, relations, rows = interned([t])
    view = view_over({t.source: np.zeros(4), t.target: np.zeros(4)}, node_ids)
    loss = pretrain_loss(rows, rows[:0], view, fn, relations)
    assert abs(float(loss.data) - math.log(2)) < 1e-12


def test_perfectly_scored_triples_drive_loss_to_zero():
    pos = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    neg = _object_triple("drugbank", "d1", "uniprot", "p2", rel="r")
    fn = simple_fn("distmult", np.ones(2))
    node_ids, relations, rows = interned([pos, neg])
    view = view_over(
        {
            pos.source: np.array([6.0, 6.0]),
            pos.target: np.array([6.0, 6.0]),
            neg.target: np.array([-6.0, -6.0]),
        },
        node_ids,
    )
    loss = float(pretrain_loss(rows[:1], rows[1:], view, fn, relations).data)
    assert 0.0 < loss < 1e-9


def test_exact_regression_head_contributes_zero():
    from kgdta.pretrain import RegressionHeads

    t = _object_triple("drugbank", "d1", "uniprot", "p1", rel="r")
    mass = Triple(t.source, Relation("mass", RelationKind.DATA), NodeId("attr", "m"))
    fn = simple_fn("distmult", np.zeros(2))
    node_ids, relations, rows = interned([t, mass])
    view = view_over({nid: np.zeros(2) for nid in node_ids}, node_ids)
    heads = RegressionHeads({"mass": (nm.param(np.zeros((2, 1))), nm.param(np.array([7.5])))}, lam=1.0)
    reg_triples = (rows[1:], np.array([7.5]))
    with_reg = float(pretrain_loss(rows[:1], rows[:0], view, fn, relations, heads, reg_triples).data)
    without = float(pretrain_loss(rows[:1], rows[:0], view, fn, relations).data)
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
    part = partition(g, 1, substream(0, "partition"))
    assert set(part.tolist()) == {0}
    assert len(part) == len(g.nodes)


def test_partition_k2_on_path_is_balanced():
    g = path_graph(4)
    position = g.index().position
    for seed in range(10):
        part = partition(g, 2, substream(seed, "partition"))
        sizes = {}
        for node in g.entities():
            p = int(part[position[node.id]])
            sizes[p] = sizes.get(p, 0) + 1
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
    part, position = partition(g, 3, substream(0, "partition")), g.index().position
    incident_parts = {part[position[NodeId("uniprot", f"P{i}")]] for i in range(6)}
    assert part[position[shared.id]] in incident_parts


@settings(max_examples=40, deadline=None)
@given(graphs(max_triples=14), st.integers(1, 4))
def test_partition_cover_and_balance(g, k):
    entities = [n.id for n in g.entities()]
    if not entities or k > len(entities):
        return
    part, position = partition(g, k, substream(0, "partition")), g.index().position
    counts = [0] * k
    for e in entities:
        counts[part[position[e]]] += 1
    assert sum(counts) == len(entities)
    assert max(counts) - min(counts) <= 1
    for a in g.attributes():
        # an attribute joins the part of its smallest incident entity (part 0 if none)
        incident = sorted(t.source for t in g.triples() if t.target == a.id)
        assert part[position[a.id]] == (part[position[incident[0]]] if incident else 0)


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
    part = partition(g, k, substream(seed, "partition"))
    expected = reference_partition(g, k, substream(seed, "partition"))
    assert part.dtype == np.intp
    assert part.tolist() == [expected[nid] for nid in g.index().node_ids]


# --- training ---------------------------------------------------------------------------


def small_registry():
    # compact handler dims: these tests exercise graph machinery, not handler width
    return default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)


def small_world(seed=0, n_drugs=12, n_proteins=8):
    world = make_planted_world(n_drugs=n_drugs, n_proteins=n_proteins, seed=seed)
    table = compute_initial_embeddings(world.graph, small_registry())
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
    gi = graph.index()
    filtered = rows_where(graph, lambda t: cfg.link_filter.admits(t.relation.name))
    train_at, _ = _split_positives(len(filtered), cfg)
    train_pos = filtered[train_at]
    sets = AdmissibleSets.from_rows(filtered, len(gi.node_ids), len(gi.relations))
    forbidden = sets.keys(filtered)
    relations = trainable_relations(graph)
    params = init_gnn_params(
        _attr_modality_dims(table), relations, substream(cfg.seed, "init"),
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
        view = EmbeddingView(layers[-1], mp.row)
        negs = sample_negatives(train_pos, sets, 1, substream(cfg.seed, "neg", epoch, 0), forbidden)
        loss = pretrain_loss(train_pos, negs, view, fn, gi.relations)
        losses.append(float(loss.data))
        nm.backward(loss)
        state = nm.adam_step(named, state, cfg.lr)

    trained = result.named_parameters()
    for epoch, ref_loss in enumerate(losses):
        assert abs(result.log[epoch]["train_loss"] - ref_loss) <= 1e-12
    for name, p in named.items():
        assert np.max(np.abs(p.data - trained[name].data)) <= 1e-12, name


@pytest.mark.parametrize("score_fn", ["distmult", "classifier"])
def test_one_partition_reuses_each_validation_forward_for_the_next_epoch(monkeypatch, score_fn):
    """With the whole graph as the only scope, epoch e's validation forward is epoch
    e+1's training forward: one `encode_layers` call per epoch plus the first, and
    the same bits as a run that encodes the training scope afresh every epoch."""
    import copy

    import kgdta.pretrain as pretrain_mod

    world, _ = small_world()
    graph, table = with_protein_lengths(world.graph)
    cfg = PretrainConfig(score_fn=score_fn, epochs=4, lr=1e-2, seed=3, regression=True, **SMALL_DIMS)
    calls = []
    encode_layers = pretrain_mod.encode_layers

    def counting(*args, **kwargs):
        calls.append(args[0])
        return encode_layers(*args, **kwargs)

    monkeypatch.setattr(pretrain_mod, "encode_layers", counting)
    reused = train(graph, table, cfg)
    assert len(calls) == cfg.epochs + 1
    assert len({id(mp) for mp in calls}) == 1  # the training and validation MpGraph are one

    # a copy of the validation MpGraph is not the training one, so nothing is reused
    build_mp = pretrain_mod.build_mp
    monkeypatch.setattr(pretrain_mod, "build_mp", lambda graph, scope, policy: (
        copy.copy(build_mp(graph, scope, policy)) if scope is None else build_mp(graph, scope, policy)))
    calls.clear()
    fresh = train(graph, table, cfg)
    assert len(calls) == 2 * cfg.epochs
    assert reused.log == fresh.log
    assert checkpoint_to_json(Checkpoint.from_result(reused)) == checkpoint_to_json(Checkpoint.from_result(fresh))
    assert np.array_equal(reused.history[-1], fresh.history[-1])


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
    gi = world.graph.index()
    assert {gi.relations[r] for r in result.train_rows[:, 1].tolist()} == {"binding_to"}

    fresh = init_score_fn(
        cfg.score_fn, result.relations, cfg.out_dim, substream(cfg.seed, "init_score"),
        cfg.clf_hidden, cfg.margin,
    )
    # scorer embeddings of filtered-out relations never receive gradient
    assert np.array_equal(result.score_fn.rel_emb["smiles"].data, fresh.rel_emb["smiles"].data)
    assert not np.array_equal(
        result.score_fn.rel_emb["binding_to"].data, fresh.rel_emb["binding_to"].data
    )


@pytest.mark.parametrize("k", [1, 3])
def test_split_rows_are_the_admitted_rows_split_once(k):
    from kgdta.pretrain import _split_positives

    world, table = small_world()
    cfg = PretrainConfig(score_fn="distmult", epochs=1, lr=1e-3, seed=9, partitions=k,
                         link_filter=LinkFilter.restricted(["binding_to"]), **SMALL_DIMS)
    result = train(world.graph, table, cfg)
    gi = world.graph.index()
    code = gi.relations.index("binding_to")
    admitted = gi.triples[gi.triples[:, 1] == code]
    train_keys = [tuple(row) for row in result.train_rows.tolist()]
    val_keys = [tuple(row) for row in result.val_rows.tolist()]
    assert train_keys and val_keys and not set(train_keys) & set(val_keys)
    assert sorted(train_keys + val_keys) == sorted(tuple(row) for row in admitted.tolist())
    assert set(result.train_rows[:, 1].tolist()) | set(result.val_rows[:, 1].tolist()) == {code}
    train_at, val_at = _split_positives(len(admitted), cfg)
    assert np.array_equal(result.train_rows, admitted[train_at])
    assert np.array_equal(result.val_rows, admitted[val_at])


def test_empty_training_set_raises():
    g = MultimodalGraph()
    g.add_node(entity("uniprot", "P1", "protein"))
    table = compute_initial_embeddings(g, default_registry())
    with pytest.raises(EmptyTrainingSet):
        train(g, table, PretrainConfig(epochs=1, **SMALL_DIMS))


def test_training_refuses_an_initial_table_of_other_nodes():
    world, table = small_world()
    other, other_table = small_world(seed=1)
    cfg = PretrainConfig(score_fn="distmult", epochs=1, lr=1e-3, seed=2, **SMALL_DIMS)
    with pytest.raises(ValueError, match="other nodes"):
        train(world.graph, other_table, cfg)
    result = train(world.graph, table, cfg)
    with pytest.raises(ValueError, match="other nodes"):
        evaluate_link_auc(world.graph, other_table, result)
    assert 0.0 <= evaluate_link_auc(world.graph, table, result) <= 1.0


def test_regression_without_numeric_attribute_raises():
    world, table = small_world()
    assert len(numeric_triples(world.graph)[1]) == 0
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
    assert len(numeric_triples(g)[1]) == 6
    table = compute_initial_embeddings(g, small_registry())
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
    table2 = compute_initial_embeddings(g2, small_registry())

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


def test_warm_start_after_grad_check_on_its_parameters_trains_the_same():
    world, table = small_world(seed=0)
    cfg = PretrainConfig(score_fn="distmult", epochs=2, lr=1e-3, seed=4, **SMALL_DIMS)
    phase1 = train(world.graph, table, cfg)
    clean = checkpoint_to_json(Checkpoint.from_result(train(world.graph, table, cfg, warm_start=phase1)))
    # grad_check leaves its analytic gradients on .grad of the warm-start parameters
    name, tensor = next(iter(phase1.named_parameters().items()))
    nm.grad_check(lambda p: ref.sum_all(nm.mul(p[name], p[name])), {name: tensor})
    assert tensor.grad is not None
    after = checkpoint_to_json(Checkpoint.from_result(train(world.graph, table, cfg, warm_start=phase1)))
    assert after == clean


def _checkpoint_arrays(ckpt):
    return {name: t.data for name, t in ckpt.named_parameters().items()}


def with_protein_lengths(graph):
    """Give every protein a numeric `length` attribute, so regression heads exist."""
    proteins = [n for n in graph.entities() if n.modality == "protein"]
    for i, prot in enumerate(proteins):
        graph.add_triple(prot, Relation("length", RelationKind.DATA), attribute_node("number", float(i)))
    return graph, compute_initial_embeddings(graph, small_registry())


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

        gi = graph.index()
        filtered = rows_where(graph, lambda t: cfg.link_filter.admits(t.relation.name))
        train_pos = filtered[_split_positives(len(filtered), cfg)[0]]
        sets = AdmissibleSets.from_rows(filtered, len(gi.node_ids), len(gi.relations))
        negs = sample_negatives(train_pos, sets, 1, substream(13, "neg"), sets.keys(filtered))
        reg_triples = numeric_triples(graph)
        mp = build_mp(graph, None, cfg.policy)

        def objective(p):
            layers = encode_layers(mp, table, result.params)
            view = EmbeddingView(layers[-1], mp.row)
            return pretrain_loss(train_pos, negs, view, result.score_fn, gi.relations,
                                 result.regression, reg_triples)

        err = nm.grad_check(objective, named)
        assert err < 1e-4, f"{kind}: {err}"
