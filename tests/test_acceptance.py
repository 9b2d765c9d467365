"""Acceptance suite: one test per criterion, each printing a pass/fail line with
its runtime and asserting its stated budget and tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kgdta
from kgdta import numerics as nm
from kgdta.cli import main as cli_main
from kgdta.downstream import (
    AffinityDataset,
    AffinityRow,
    DownstreamConfig,
    SplitSpec,
    make_split,
    pearson,
    run_benchmark,
    save_affinity_tsv,
    spearman,
)
from kgdta.gnn import EmbeddingView, FlowPolicy, build_mp, encode, encode_layers, init_gnn_params
from kgdta.graph import (
    MultimodalGraph,
    Relation,
    RelationKind,
    attribute_node,
    entity,
    merge_graphs,
    resolve_same_as,
)
from kgdta.handlers import compute_initial_embeddings, default_registry
from kgdta.pretrain import (
    AdmissibleSets,
    Checkpoint,
    LinkFilter,
    PretrainConfig,
    _split_positives,
    evaluate_link_auc,
    init_score_fn,
    numeric_triples,
    pretrain_loss,
    sample_negatives,
    train,
    trainable_relations,
)
from kgdta.schema import parse_ntriples, to_ntriples
from kgdta.synthetic import make_planted_world
from kgdta.util import substream


def report(criterion: str, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"\n[{criterion}] PASS  {detail}  ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget: {elapsed:.1f}s"


SMALL_DIMS = dict(proj_dim=16, hidden_dim=12, out_dim=12, clf_hidden=8)


def small_registry():
    return default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)


# --- 1. gradient suite -----------------------------------------------------------


def ten_node_toy_graph():
    """Exactly 10 nodes; every relation leaves room for corrupted triples."""
    g = MultimodalGraph()
    seq = Relation("sequence", RelationKind.DATA)
    smi = Relation("smiles", RelationKind.DATA)
    mass = Relation("mass", RelationKind.DATA)
    bind = Relation("binding_to", RelationKind.OBJECT)
    p1, p2 = entity("uniprot", "P1", "protein"), entity("uniprot", "P2", "protein")
    d1, d2 = entity("drugbank", "D1", "drug"), entity("drugbank", "D2", "drug")
    g.add_triple(p1, seq, attribute_node("protein_sequence", "MKTAYIA"))
    g.add_triple(p2, seq, attribute_node("protein_sequence", "HFSRQLE"))
    g.add_triple(d1, smi, attribute_node("smiles", "CCO"))
    g.add_triple(d2, smi, attribute_node("smiles", "c1ccccc1O"))
    # O(1) numeric literals keep the loss surface well-conditioned for differencing
    g.add_triple(d1, mass, attribute_node("number", 0.46))
    g.add_triple(d2, mass, attribute_node("number", 1.80))
    g.add_triple(d1, bind, p1)
    g.add_triple(d2, bind, p2)
    assert len(g.nodes) == 10
    return g


def test_01_gradient_suite():
    t0 = time.time()
    graph = ten_node_toy_graph()
    table = compute_initial_embeddings(graph, small_registry())
    worst = {}
    for kind in ("distmult", "transe", "classifier"):
        for with_regression in (False, True):
            cfg = PretrainConfig(score_fn=kind, epochs=0, seed=21,
                                 regression=with_regression, **SMALL_DIMS)
            result = train(graph, table, cfg)
            named = result.named_parameters()
            rng = substream(22, "jitter", kind, with_regression)
            for p in named.values():
                # random small parameters away from relu kinks
                p.data = p.data + rng.normal(size=p.data.shape) * 0.15
            gi = graph.index()
            filtered = gi.triples[[cfg.link_filter.admits(t.relation.name) for t in graph.triples()]]
            train_pos = filtered[_split_positives(len(filtered), cfg)[0]]
            sets = AdmissibleSets.from_rows(filtered, len(gi.node_ids), len(gi.relations))
            negs = sample_negatives(train_pos, sets, 1, substream(23, "neg"), sets.keys(filtered))
            reg_triples = numeric_triples(graph) if with_regression else None
            mp = build_mp(graph, None, cfg.policy)

            def objective(p):
                layers = encode_layers(mp, table, result.params)
                view = EmbeddingView(layers[-1], mp.row)
                return pretrain_loss(train_pos, negs, view, result.score_fn, gi.relations,
                                     result.regression, reg_triples)

            err = nm.grad_check(objective, named)
            assert err < 1e-4, f"{kind} regression={with_regression}: {err:.3e}"
            worst[f"{kind}{'+reg' if with_regression else ''}"] = err
    detail = "max rel err " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report("criterion 1: gradient suite", detail, t0, 30)


# --- 2. graph invariants ------------------------------------------------------------


def random_graph(rng, allow_same_as=True):
    g = MultimodalGraph()
    modality_by_ns = {"uniprot": "protein", "drugbank": "drug", "chembl": "drug"}
    namespaces = sorted(modality_by_ns)
    texts = ["hello", 'quo"te', "back\\slash", "tab\there", "line\nbreak", "ümlaut", "a b/c:d%"]
    n = int(rng.integers(0, 14))
    for _ in range(n):
        ns = namespaces[int(rng.integers(3))]
        src = entity(ns, f"x{int(rng.integers(6))}", modality_by_ns[ns])
        kind = int(rng.integers(0, 4))
        if kind == 0:
            tns = namespaces[int(rng.integers(3))]
            tgt = entity(tns, f"x{int(rng.integers(6))}", modality_by_ns[tns])
            rel = Relation("target_of" if rng.random() < 0.5 else "interacts", RelationKind.OBJECT)
        elif kind == 1 and allow_same_as and ns != "uniprot":
            other = "chembl" if ns == "drugbank" else "drugbank"
            tgt = entity(other, f"x{int(rng.integers(6))}", "drug")
            rel = Relation("sameAs", RelationKind.OBJECT)
        elif kind == 2:
            tgt = attribute_node("number", float(int(rng.integers(10))))
            rel = Relation("mass", RelationKind.DATA)
        else:
            tgt = attribute_node("text", texts[int(rng.integers(len(texts)))])
            rel = Relation("label", RelationKind.DATA)
        g.add_triple(src, rel, tgt)
    return g


def graph_signature(g):
    nodes = {(str(n.id), n.modality, n.kind.value, n.value) for n in g.nodes.values()}
    return nodes, g.triple_keys()


def test_02_graph_invariants():
    t0 = time.time()
    rng = substream(31, "graphs")
    checked = 0
    for _ in range(220):
        a = random_graph(rng)
        b = random_graph(rng)
        # triple uniqueness
        for g in (a, b):
            keys = [(str(t.source), t.relation.name, str(t.target)) for t in g.triples()]
            assert len(keys) == len(set(keys))
        # merge commutativity and idempotence
        assert merge_graphs(a, b).triple_keys() == merge_graphs(b, a).triple_keys()
        assert merge_graphs(a, a).triple_keys() == a.triple_keys()
        # sameAs idempotence
        ra = resolve_same_as(a)
        assert graph_signature(resolve_same_as(ra)) == graph_signature(ra)
        assert all(t.relation.name != "sameAs" for t in ra.triples())
        # round trip
        assert graph_signature(parse_ntriples(to_ntriples(a))) == graph_signature(a)
        checked += 1
    report("criterion 2: graph invariants", f"{checked} random graph pairs", t0, 60)


# --- 3. GAS consistency ----------------------------------------------------------------


def test_03_gas_consistency():
    t0 = time.time()
    world = make_planted_world(n_drugs=13, n_proteins=12, seed=1)
    graph = world.graph
    assert len(graph.nodes) == 50
    table = compute_initial_embeddings(graph, small_registry())
    cfg = PretrainConfig(score_fn="distmult", epochs=20, lr=1e-3, seed=17, partitions=1, **SMALL_DIMS)
    result = train(graph, table, cfg)

    # full-batch reference loop: no partition plan, no historical store
    gi = graph.index()
    filtered = gi.triples[[cfg.link_filter.admits(t.relation.name) for t in graph.triples()]]
    train_pos = filtered[_split_positives(len(filtered), cfg)[0]]
    sets = AdmissibleSets.from_rows(filtered, len(gi.node_ids), len(gi.relations))
    forbidden = sets.keys(filtered)
    relations = trainable_relations(graph)
    from kgdta.pretrain import _attr_modality_dims

    params = init_gnn_params(_attr_modality_dims(table), relations,
                             substream(cfg.seed, "init"), cfg.proj_dim, cfg.hidden_dim, cfg.out_dim)
    fn = init_score_fn(cfg.score_fn, relations, cfg.out_dim, substream(cfg.seed, "init_score"),
                       cfg.clf_hidden)
    named = {**params.named_parameters(), **fn.named_parameters()}
    state = None
    mp = build_mp(graph, None, cfg.policy)
    max_loss_diff = 0.0
    for epoch in range(cfg.epochs):
        layers = encode_layers(mp, table, params)
        view = EmbeddingView(layers[-1], mp.row)
        negs = sample_negatives(train_pos, sets, 1, substream(cfg.seed, "neg", epoch, 0), forbidden)
        loss = pretrain_loss(train_pos, negs, view, fn, gi.relations)
        max_loss_diff = max(max_loss_diff, abs(float(loss.data) - result.log[epoch]["train_loss"]))
        nm.backward(loss)
        state = nm.adam_step(named, state, cfg.lr)

    trained = result.named_parameters()
    max_param_diff = max(float(np.max(np.abs(p.data - trained[name].data)))
                         for name, p in named.items())
    assert max_loss_diff <= 1e-12, max_loss_diff
    assert max_param_diff <= 1e-12, max_param_diff
    report("criterion 3: GAS k=1 consistency",
           f"50-node graph, 20 epochs: loss diff {max_loss_diff:.1e}, param diff {max_param_diff:.1e}",
           t0, 60)


# --- 4. flow-control soundness ------------------------------------------------------------


def test_04_flow_control_soundness():
    t0 = time.time()

    def protein_vec(policy, text_value):
        g = MultimodalGraph()
        prot = entity("uniprot", "P1", "protein")
        g.add_triple(prot, Relation("sequence", RelationKind.DATA),
                     attribute_node("protein_sequence", "MKTAYIA"))
        g.add_triple(prot, Relation("comment", RelationKind.DATA),
                     attribute_node("text", text_value))
        table = compute_initial_embeddings(g, small_registry())
        params = init_gnn_params({"protein_sequence": 8, "text": 8},
                                 ["sequence", "comment"], substream(41, "init"), 16, 12, 12)
        return encode(g, table, params, policy)[prot.id]

    controlled = FlowPolicy.controlled({"protein": {"sequence"}})
    same = np.array_equal(protein_vec(controlled, "alpha"), protein_vec(controlled, "omega"))
    assert same, "controlled policy leaked a disallowed attribute into the entity"
    unrestricted = FlowPolicy.unrestricted()
    changed = not np.array_equal(protein_vec(unrestricted, "alpha"), protein_vec(unrestricted, "omega"))
    assert changed, "unrestricted policy ignored an attribute edit"
    report("criterion 4: flow-control soundness",
           "disallowed attribute mutation: bitwise-identical controlled, different unrestricted",
           t0, 10)


# --- 5. planted-link learnability ------------------------------------------------------------


def test_05_planted_link_learnability():
    t0 = time.time()
    world = make_planted_world(n_drugs=60, n_proteins=40, latent_dim=8,
                               edge_density=0.3, kg_pair_fraction=1.0, seed=0)
    registry = default_registry()
    table = compute_initial_embeddings(world.graph, registry)
    base = dict(score_fn="distmult", link_filter=LinkFilter.restricted(["binding_to"]),
                policy=FlowPolicy.unrestricted(), seed=0)

    untrained = train(world.graph, table, PretrainConfig(epochs=0, **base))
    auc_untrained = evaluate_link_auc(world.graph, table, untrained, seed=0, ratio=5)
    assert 0.45 <= auc_untrained <= 0.55, auc_untrained

    result = train(world.graph, table, PretrainConfig(epochs=200, lr=2e-3, **base))
    auc = evaluate_link_auc(world.graph, table, result, seed=0, ratio=5)
    assert auc >= 0.90, auc
    report("criterion 5: planted-link learnability",
           f"held-out AUC {auc:.3f} (untrained {auc_untrained:.3f})", t0, 300)


# --- 6. knowledge-enhancement gain -------------------------------------------------------------


def test_06_knowledge_enhancement_gain():
    t0 = time.time()
    world = make_planted_world(n_drugs=60, n_proteins=40, latent_dim=8,
                               edge_density=0.3, kg_pair_fraction=0.5, seed=0)
    registry = default_registry()
    table = compute_initial_embeddings(world.graph, registry)
    scorers = ("distmult", "transe", "classifier")
    checkpoints = []
    for kind in scorers:
        cfg = PretrainConfig(score_fn=kind, epochs=120, lr=2e-3,
                             link_filter=LinkFilter.restricted(["binding_to"]),
                             policy=FlowPolicy.controlled(), seed=0)
        checkpoints.append((kind, Checkpoint.from_result(train(world.graph, table, cfg))))

    ds_cfg = DownstreamConfig(lr=1e-3, steps=800, batch=128,
                              init_hidden=(64, 32), gnn_hidden=(64, 64), eval_every=100)
    rep = run_benchmark(world.dataset, SplitSpec("random", seed=0), checkpoints,
                        registry, ds_cfg, seeds=range(6), graph=world.graph)
    rows = {r["model"]: r for r in rep.rows}
    baseline = rows["baseline"]["pearson"]
    gains = {k: rows[k]["pearson"] - baseline for k in scorers}
    for kind, gain in gains.items():
        assert gain >= 0.05, f"{kind}: gain {gain:+.4f} below 0.05"
    best = max(rows[k]["pearson"] for k in scorers)
    ensemble_margin = rows["ensemble"]["pearson"] - best
    assert ensemble_margin >= -0.02, f"ensemble {ensemble_margin:+.4f} below best-0.02"
    detail = (f"baseline {baseline:.3f}; gains " +
              ", ".join(f"{k}={v:+.3f}" for k, v in gains.items()) +
              f"; ensemble-best {ensemble_margin:+.3f}")
    report("criterion 6: knowledge-enhancement gain", detail, t0, 600)


# --- 7. negative sampling contract -----------------------------------------------------------------


def test_07_negative_sampling_contract():
    from kgdta.errors import ExhaustedCandidates

    t0 = time.time()
    rng = substream(71, "worlds")
    total_negs = 0
    sampled_graphs = 0
    degenerate = 0
    trial = 0
    while sampled_graphs < 1000:
        trial += 1
        n_src = int(rng.integers(3, 8))
        n_tgt = int(rng.integers(3, 8))
        density = 0.2 + 0.4 * float(rng.random())
        g = MultimodalGraph()
        rel = Relation("binding_to", RelationKind.OBJECT)
        sources = [entity("drugbank", f"d{i}", "drug") for i in range(n_src)]
        targets = [entity("uniprot", f"p{j}", "protein") for j in range(n_tgt)]
        for s in sources:
            for t in targets:
                if rng.random() < density:
                    g.add_triple(s, rel, t)
        positives = g.triples()
        if not positives:
            continue
        gi = g.index()
        rows = gi.triples  # every triple is a positive, in `g.triples()` order
        sets = AdmissibleSets.from_rows(rows, len(gi.node_ids), len(gi.relations))
        keys = {t.key for t in positives}
        # the admissible sets, as node ids, per relation name
        named_sets = {
            gi.relations[r]: ([gi.node_ids[i] for i in srcs], [gi.node_ids[i] for i in tgts])
            for r, (srcs, tgts) in sets.by_relation.items()
        }
        try:
            negs = sample_negatives(rows, sets, 1, substream(72, "neg", trial))
        except ExhaustedCandidates:
            # only legitimate when some positive's corruption complement is empty;
            # check that with brute-force enumeration, then draw a fresh graph
            srcs, tgts = named_sets["binding_to"]
            saturated = any(
                all((s, "binding_to", t.target) in keys for s in srcs)
                and all((t.source, "binding_to", tt) in keys for tt in tgts)
                for t in positives
            )
            assert saturated, "ExhaustedCandidates raised although corruptions exist"
            degenerate += 1
            continue
        assert len(negs) == len(positives)
        for s, r, t in negs.tolist():
            srcs, tgts = named_sets[gi.relations[r]]
            key = (gi.node_ids[s], gi.relations[r], gi.node_ids[t])
            assert key[0] in srcs and key[2] in tgts and key not in keys
        total_negs += len(negs)
        sampled_graphs += 1
    report("criterion 7: negative-sampling contract",
           f"1000 random graphs, {total_negs} negatives, all admissible, 1:1 ratio "
           f"({degenerate} saturated graphs verified and redrawn)", t0, 30)


# --- 8. metric oracles -------------------------------------------------------------------------------


def brute_force_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.sqrt(sum((a - mx) ** 2 for a in x))
    vy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (vx * vy)


def brute_force_ranks(values):
    # O(n^2) tie-averaged ranks, no sorting tricks
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def test_08_metric_oracles():
    t0 = time.time()
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    rng = substream(81, "metrics")
    for trial in range(100):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if trial % 3 == 0:
            y[: n // 2] = y[0]  # ties
        assert abs(pearson(x, y) - brute_force_pearson(list(x), list(y))) < 1e-12
        expected = brute_force_pearson(brute_force_ranks(list(x)), brute_force_ranks(list(y)))
        assert abs(spearman(x, y) - expected) < 1e-12
    report("criterion 8: metric oracles",
           "pearson/spearman match brute force to 1e-12 on 100 vectors incl. hand-derived 0.8",
           t0, 5)


# --- 9. determinism ------------------------------------------------------------------------------------


def test_09_determinism(tmp_path, capsys):
    t0 = time.time()
    world = make_planted_world(n_drugs=10, n_proteins=8, seed=2)
    kg = tmp_path / "kg.nt"
    kg.write_text(to_ntriples(world.graph), encoding="utf-8")
    data = tmp_path / "affinity.tsv"
    save_affinity_tsv(world.dataset, str(data))

    pre_args = ["pretrain", "--graph", str(kg), "--seed", "7", "--epochs", "3", "--lr", "0.001",
                "--proj-dim", "8", "--hidden-dim", "8", "--out-dim", "8",
                "--sequence-dim", "8", "--text-dim", "8", "--fingerprint-dim", "16"]
    ck1, ck2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli_main([*pre_args, "--out", str(ck1)]) == 0
    assert cli_main([*pre_args, "--out", str(ck2)]) == 0
    assert ck1.read_bytes() == ck2.read_bytes()
    assert (tmp_path / "c1.json.log.jsonl").read_bytes() == (tmp_path / "c2.json.log.jsonl").read_bytes()

    bench_args = ["benchmark", "--dataset", str(data), "--split", "random", "--ckpts", str(ck1),
                  "--graph", str(kg), "--seeds", "0,1", "--seed", "0", "--steps", "30",
                  "--lr", "0.001", "--batch", "16", "--init-hidden", "16,8",
                  "--gnn-hidden", "8,8", "--eval-every", "10"]
    assert cli_main([*bench_args, "--out", str(tmp_path / "r1")]) == 0
    assert cli_main([*bench_args, "--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()
    assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()

    # the same commands in fresh interpreters: one whose BLAS would start two
    # threads, and one pinned to a single CPU, so its grid runs without workers
    src = str(Path(kgdta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    one_cpu = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "from kgdta.cli import main; sys.exit(main(sys.argv[1:]))")
    runs = {"blas2": (["-m", "kgdta.cli"], {**env, "OPENBLAS_NUM_THREADS": "2"})}
    if hasattr(os, "sched_setaffinity"):
        runs["one_cpu"] = (["-c", one_cpu], env)
    for name, (entry, run_env) in runs.items():
        other = tmp_path / name
        other.mkdir()
        ck3 = other / ck1.name  # same file name, so the report names the model alike
        for argv in ([*pre_args, "--out", str(ck3)],
                     [*bench_args, "--out", str(other / "r1")]):
            argv = [str(ck3) if a == str(ck1) else a for a in argv]
            done = subprocess.run([sys.executable, *entry, *argv], env=run_env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        assert ck3.read_bytes() == ck1.read_bytes()
        assert (other / "c1.json.log.jsonl").read_bytes() == (tmp_path / "c1.json.log.jsonl").read_bytes()
        for suffix in (".jsonl", ".txt"):
            assert (other / f"r1{suffix}").read_bytes() == (tmp_path / f"r1{suffix}").read_bytes()
    report("criterion 9: determinism",
           "pretrain and benchmark byte-identical across same-seed reruns, a subprocess "
           "under OPENBLAS_NUM_THREADS=2, and one pinned to one CPU", t0, 120)


# --- 10. split soundness -----------------------------------------------------------------------------------


def test_10_split_soundness():
    t0 = time.time()
    rng = substream(101, "datasets")
    checked = 0
    for trial in range(100):
        n_rows = int(rng.integers(30, 90))
        n_drugs = int(rng.integers(4, 10))
        n_prots = int(rng.integers(4, 10))
        rows = [
            AffinityRow(f"C{int(rng.integers(n_drugs))}", f"M{int(rng.integers(n_prots))}",
                        float(rng.normal()), float(rng.uniform()))
            for _ in range(n_rows)
        ]
        ds = AffinityDataset(f"rand{trial}", rows)
        for kind in ("drug", "target"):
            try:
                train_r, val_r, test_r = make_split(ds, SplitSpec(kind, seed=trial))
            except Exception:
                continue
            key = (lambda r: r.drug) if kind == "drug" else (lambda r: r.protein)
            assert not ({key(r) for r in train_r} & {key(r) for r in test_r})
            assert not ({key(r) for r in val_r} & {key(r) for r in test_r})
            assert len(train_r) + len(val_r) + len(test_r) == n_rows
        threshold = float(rng.uniform(0.3, 0.7))
        try:
            train_r, val_r, test_r = make_split(ds, SplitSpec("temporal", seed=trial, threshold=threshold))
        except Exception:
            continue
        assert all(r.time > threshold for r in test_r)
        assert all(r.time <= threshold for r in train_r + val_r)
        checked += 1
    report("criterion 10: split soundness", f"{checked}/100 datasets (rest infeasible by construction)",
           t0, 10)
