import multiprocessing
import os
import pickle
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import kgdta.downstream as ds_mod
from kgdta.downstream import (
    AffinityDataset,
    AffinityRow,
    BenchmarkReport,
    CheckpointProvider,
    DownstreamConfig,
    EntityIndex,
    EntityTables,
    Examples,
    SplitSpec,
    encoder_tables,
    evaluate,
    initial_tables,
    load_affinity_tsv,
    make_split,
    pearson,
    run_benchmark,
    save_affinity_tsv,
    spearman,
    train_downstream,
)
from kgdta.errors import DimMismatch, EmptyTrain, InfeasibleSplit, NonFinite, ParseError, ZeroVariance
from kgdta.gnn import infer
from kgdta.handlers import SEQUENCE_MODALITY, SMILES_MODALITY, Handler, default_registry
from kgdta.pretrain import Checkpoint, PretrainConfig, train
from kgdta.synthetic import make_planted_world
from kgdta.handlers import compute_initial_embeddings
from kgdta.util import substream


def toy_dataset(n_rows=100, n_drugs=10, n_proteins=5, seed=0, with_time=True):
    rng = substream(seed, "toyds")
    rows = []
    for i in range(n_rows):
        d = int(rng.integers(n_drugs))
        p = int(rng.integers(n_proteins))
        rows.append(
            AffinityRow(
                drug=f"CC{d}",
                protein=f"MKT{p}",
                affinity=float(rng.normal()),
                time=float(rng.uniform()) if with_time else None,
            )
        )
    return AffinityDataset("toy", rows)


def test_random_split_sizes():
    train_r, val_r, test_r = make_split(toy_dataset(100), SplitSpec("random", (0.8, 0.1, 0.1), seed=0))
    assert (len(train_r), len(val_r), len(test_r)) == (80, 10, 10)


def test_drug_split_disjoint():
    ds = toy_dataset(200)
    train_r, val_r, test_r = make_split(ds, SplitSpec("drug", seed=1))
    train_drugs = {r.drug for r in train_r}
    test_drugs = {r.drug for r in test_r}
    val_drugs = {r.drug for r in val_r}
    assert not (train_drugs & test_drugs)
    assert not (train_drugs & val_drugs)
    assert not (val_drugs & test_drugs)


def test_target_split_disjoint():
    ds = toy_dataset(200)
    train_r, _, test_r = make_split(ds, SplitSpec("target", seed=2))
    assert not ({r.protein for r in train_r} & {r.protein for r in test_r})


def test_temporal_split_ordering():
    ds = toy_dataset(150)
    spec = SplitSpec("temporal", seed=3, threshold=0.7)
    train_r, val_r, test_r = make_split(ds, spec)
    assert all(r.time > 0.7 for r in test_r)
    assert all(r.time <= 0.7 for r in train_r + val_r)


def test_temporal_requires_time():
    ds = toy_dataset(50, with_time=False)
    with pytest.raises(InfeasibleSplit):
        make_split(ds, SplitSpec("temporal", seed=0, threshold=0.5))


def test_drug_split_infeasible_with_one_drug():
    rows = [AffinityRow("CCO", f"M{i}", float(i)) for i in range(10)]
    with pytest.raises(InfeasibleSplit):
        make_split(AffinityDataset("one-drug", rows), SplitSpec("drug", seed=0))


def test_split_deterministic():
    ds = toy_dataset(120)
    a = make_split(ds, SplitSpec("random", seed=9))
    b = make_split(ds, SplitSpec("random", seed=9))
    assert a == b


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(30, 120))
def test_split_soundness_property(seed, n_rows):
    ds = toy_dataset(n_rows=n_rows, n_drugs=8, n_proteins=6, seed=seed)
    for kind in ("drug", "target"):
        try:
            train_r, val_r, test_r = make_split(ds, SplitSpec(kind, seed=seed))
        except InfeasibleSplit:
            continue
        key = (lambda r: r.drug) if kind == "drug" else (lambda r: r.protein)
        assert not ({key(r) for r in train_r} & {key(r) for r in test_r})
        assert len(train_r) + len(val_r) + len(test_r) == n_rows
    try:
        train_r, val_r, test_r = make_split(ds, SplitSpec("temporal", seed=seed, threshold=0.5))
    except InfeasibleSplit:
        return
    assert all(r.time > 0.5 for r in test_r)


# --- metrics ----------------------------------------------------------------------


def test_pearson_hand_derived_cases():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance():
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVariance):
        pearson([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])


def test_metrics_match_scipy_on_random_vectors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if rng.random() < 0.3:
            y[: n // 2] = y[0]  # inject ties
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0], abs=1e-12)


def test_pearson_scale_shift_invariance():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=20), rng.normal(size=20)
    base = pearson(x, y)
    assert pearson(3.5 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)


# --- training ------------------------------------------------------------------------


class LatentProvider:
    """Oracle provider: hands the model the exact latent factors."""

    def __init__(self, drug_latents: dict, protein_latents: dict):
        self.drug_latents = drug_latents
        self.protein_latents = protein_latents

    def drug(self, smiles):
        return self.drug_latents[smiles]

    def protein(self, seq):
        return self.protein_latents[seq]


def latent_examples(provider, rows, gnn_dim=None):
    """The latent factors as initial tables; with `gnn_dim`, all-zero encoder
    tables of that width, else none (the baseline)."""
    index = EntityIndex(rows)
    zeros = None if gnn_dim is None else EntityTables(np.zeros((len(index.drugs), gnn_dim)),
                                                      np.zeros((len(index.proteins), gnn_dim)))
    return Examples(*index.rows(rows), np.array([r.affinity for r in rows]),
                    encoder_tables(provider, index), zeros)


def dense(tables, drug_row, protein_row):
    """Per row, its drug and protein vectors concatenated."""
    return np.concatenate([tables.drug[drug_row], tables.protein[protein_row]], axis=1)


def realizable_dataset(seed=0, n_drugs=12, n_proteins=8, dim=4):
    rng = substream(seed, "realizable")
    drugs = {f"C{i}": rng.normal(size=dim) for i in range(n_drugs)}
    prots = {f"M{j}": rng.normal(size=dim) for j in range(n_proteins)}
    rows = [
        AffinityRow(d, p, float(np.dot(dv, pv)))
        for d, dv in drugs.items()
        for p, pv in prots.items()
    ]
    return AffinityDataset("realizable", rows), LatentProvider(drugs, prots)


def test_realizable_target_reaches_tiny_train_mse():
    ds, provider = realizable_dataset()
    cfg = DownstreamConfig(
        lr=3e-3, steps=1500, batch=64, seed=0, init_hidden=(64, 32), eval_every=250
    )
    data = latent_examples(provider, ds.rows)
    model = train_downstream(data, None, cfg)
    preds = model.predict(data)
    assert float(np.mean((preds - data.y) ** 2)) < 1e-3


def test_vanilla_baseline_has_single_branch():
    ds, provider = realizable_dataset()
    cfg = DownstreamConfig(lr=1e-3, steps=10, batch=16, seed=0, init_hidden=(8, 4))
    model = train_downstream(latent_examples(provider, ds.rows[:50]), latent_examples(provider, ds.rows[50:60]), cfg)
    assert all(name.startswith("init/") for name in model.params)
    assert model.gnn_stats is None
    assert model.predict(latent_examples(provider, ds.rows[:3])).shape == (3,)


def test_downstream_training_reproducible():
    ds, provider = realizable_dataset()
    cfg = DownstreamConfig(lr=1e-3, steps=40, batch=32, seed=5, init_hidden=(16, 8))
    train_ex, val_ex = latent_examples(provider, ds.rows[:60]), latent_examples(provider, ds.rows[60:80])
    m1 = train_downstream(train_ex, val_ex, cfg)
    m2 = train_downstream(train_ex, val_ex, cfg)
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


def test_empty_train_raises():
    with pytest.raises(EmptyTrain):
        EntityIndex([])


def test_examples_embed_each_row_once_in_row_order():
    # per row, in row order, the index points at its own drug's and protein's vectors
    ds, provider = realizable_dataset()
    rows = ds.rows[:5] + ds.rows[:3]
    index = EntityIndex(rows)
    drug_row, protein_row = index.rows(rows)
    gnn = encoder_tables(provider, index)
    assert gnn.drug.shape == (1, 4) and gnn.protein.shape == (5, 4)
    x_gnn = dense(gnn, drug_row, protein_row)
    assert x_gnn.shape == (8, 8)
    for i, r in enumerate(rows):
        expected = np.concatenate([provider.drug_latents[r.drug], provider.protein_latents[r.protein]])
        assert np.array_equal(x_gnn[i], expected)

    registry, embedded = default_registry(sequence_dim=8, fingerprint_dim=16), []
    for modality in (SMILES_MODALITY, SEQUENCE_MODALITY):
        handler = registry.get(modality)
        registry.register(Handler(modality, handler.dim,
                                  lambda v, embed=handler.embed: embedded.append(v) or embed(v)))
    init = initial_tables(registry, index)
    calls = list(embedded)
    assert init.drug.shape == (1, 16) and init.protein.shape == (5, 8)
    x_init = dense(init, drug_row, protein_row)
    for i, r in enumerate(rows):
        expected = np.concatenate([registry.get(SMILES_MODALITY).embed(r.drug),
                                   registry.get(SEQUENCE_MODALITY).embed(r.protein)])
        assert np.array_equal(x_init[i], expected)
    # every distinct value once, in first-appearance order
    assert calls == list(dict.fromkeys(r.drug for r in rows)) + list(dict.fromkeys(r.protein for r in rows))


@pytest.mark.parametrize("modality", [SMILES_MODALITY, SEQUENCE_MODALITY])
def test_initial_tables_check_every_handler_vector(modality):
    rows = toy_dataset(n_rows=6).rows
    registry = default_registry(sequence_dim=8, fingerprint_dim=16)
    dim = registry.get(modality).dim
    registry.register(Handler(modality, dim, lambda v: np.zeros(dim + 1)))
    with pytest.raises(DimMismatch):
        initial_tables(registry, EntityIndex(rows))
    registry.register(Handler(modality, dim, lambda v: np.full(dim, np.nan)))
    with pytest.raises(NonFinite):
        initial_tables(registry, EntityIndex(rows))


def test_evaluate_metrics_keys():
    ds, provider = realizable_dataset()
    cfg = DownstreamConfig(lr=2e-3, steps=200, batch=32, seed=0, init_hidden=(32, 16))
    model = train_downstream(latent_examples(provider, ds.rows[:70]), latent_examples(provider, ds.rows[70:80]), cfg)
    test = latent_examples(provider, ds.rows[80:])
    metrics = evaluate(model.predict(test), test.y)
    assert set(metrics) == {"pearson", "spearman", "mse"}
    assert -1.0 <= metrics["pearson"] <= 1.0


def test_two_branch_model_gradients_pass_finite_differences():
    from kgdta import numerics as nm
    from kgdta.util import substream

    ds, provider = realizable_dataset(n_drugs=4, n_proteins=3)
    cfg = DownstreamConfig(lr=1e-3, steps=1, batch=4, seed=2,
                           init_hidden=(6, 4), gnn_hidden=(5, 4))
    data = latent_examples(provider, ds.rows[:8], gnn_dim=4)
    # repeated drugs and proteins: the split first layer scatters into shared entity rows
    assert len(np.unique(data.drug_row)) < 8 and len(np.unique(data.protein_row)) < 8
    model = train_downstream(data, None, cfg)
    assert {"init/w1_drug", "init/w1_protein", "gnn/w1_drug", "gnn/w1_protein"} <= set(model.params)
    rng = substream(3, "jitter")
    for p in model.params.values():
        p.data = p.data + rng.normal(size=p.data.shape) * 0.2
    tables = model._scaled(data)

    def objective(params):
        return nm.mse(model._forward(tables, data.drug_row, data.protein_row), data.y)

    assert nm.grad_check(objective, model.params) < 1e-4


@pytest.mark.parametrize("rows", [[0, 1, 0, 2, 1, 0, 3], [2]])
def test_branch_forward_and_scale_on_entity_tables_equal_the_dense_forms(rows):
    # the first layer per distinct entity, gathered back to batch order, is the
    # concatenated input times the whole first layer
    rng = substream(6, "factorised")
    tables = EntityTables(rng.normal(size=(4, 40)), rng.normal(size=(5, 12)))
    drug_row = np.array(rows)
    protein_row = np.array(rows[::-1]) + 1
    params = ds_mod._branch_params("init", tables, (16, 8), rng)
    for p in params.values():
        p.data = p.data + rng.normal(size=p.data.shape) * 0.1
    got = ds_mod._branch_forward(params, "init", tables, drug_row, protein_row).data

    w = {k.split("/")[1]: p.data for k, p in params.items()}
    w1 = np.concatenate([w["w1_drug"], w["w1_protein"]])
    h = np.maximum(dense(tables, drug_row, protein_row) @ w1 + w["b1"], 0.0)
    h = np.maximum(h @ w["w2"] + w["b2"], 0.0)
    want = (h @ w["w3"]).sum(axis=1) + w["b3"]
    assert got.shape == (len(rows),)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the scale is the mean norm of the batch's concatenated rows, repeats counted
    mean_norm = np.linalg.norm(dense(tables, drug_row, protein_row), axis=1).mean()
    assert ds_mod.FeatureScale.fit(tables, drug_row, protein_row).scale == pytest.approx(mean_norm, rel=1e-12)


def test_first_layer_split_is_the_glorot_draw_of_the_concatenated_input():
    tables = EntityTables(np.zeros((3, 10)), np.zeros((2, 6)))
    params = ds_mod._branch_params("gnn", tables, (7, 5), substream(1, "dsinit"))
    whole = substream(1, "dsinit")
    w1 = whole.uniform(-np.sqrt(6.0 / 23), np.sqrt(6.0 / 23), size=(16, 7))
    assert np.array_equal(np.concatenate([params["gnn/w1_drug"].data, params["gnn/w1_protein"].data]), w1)
    assert np.array_equal(params["gnn/w2"].data, ds_mod.nm.glorot(whole, 7, 5))


# --- dataset io --------------------------------------------------------------------------


def test_affinity_tsv_roundtrip(tmp_path):
    ds = toy_dataset(20)
    path = tmp_path / "d.tsv"
    save_affinity_tsv(ds, str(path))
    back = load_affinity_tsv(str(path))
    assert back.rows == ds.rows


def test_affinity_tsv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\n1\t2\t3\n")
    with pytest.raises(ParseError):
        load_affinity_tsv(str(path))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ParseError):
        AffinityDataset("bad", [AffinityRow("C", "M", float("nan"))])


@pytest.mark.parametrize("bad_time", ["nan", "inf", "-inf"])
def test_affinity_tsv_rejects_nonfinite_time(tmp_path, bad_time):
    # a non-finite time fails every threshold comparison, so the temporal split would drop its row
    lines = ["smiles\tsequence\taffinity\ttime"]
    lines += [f"C{i}\tM{i}\t{float(i)}\t{t}" for i, t in enumerate(["0.1", "0.2", bad_time, "0.8", "0.9"])]
    path = tmp_path / "bad_time.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite time"):
        load_affinity_tsv(str(path))
    with pytest.raises(ParseError):
        AffinityDataset("bad", [AffinityRow("C", "M", 1.0, float(bad_time))])


# --- benchmark harness ---------------------------------------------------------------------


def small_checkpoint(world, seed=0, kind="distmult"):
    registry = default_registry(sequence_dim=8, text_dim=8, fingerprint_dim=16)
    table = compute_initial_embeddings(world.graph, registry)
    cfg = PretrainConfig(
        score_fn=kind, epochs=2, lr=1e-3, seed=seed,
        proj_dim=8, hidden_dim=8, out_dim=8, clf_hidden=8,
    )
    return Checkpoint.from_result(train(world.graph, table, cfg)), registry


def test_run_benchmark_layout_and_determinism():
    world = make_planted_world(n_drugs=10, n_proteins=6, seed=3)
    ckpt_a, registry = small_checkpoint(world, seed=0)
    ckpt_b, _ = small_checkpoint(world, seed=1, kind="transe")
    cfg = DownstreamConfig(
        lr=1e-3, steps=20, batch=16, init_hidden=(8, 4), gnn_hidden=(8, 4), eval_every=10
    )
    spec = SplitSpec("random", seed=0)
    report = run_benchmark(world.dataset, spec, [("a", ckpt_a), ("b", ckpt_b)], registry, cfg, seeds=[0, 1])
    names = [row["model"] for row in report.rows]
    assert names == ["baseline", "a", "b", "ensemble"]
    report2 = run_benchmark(world.dataset, spec, [("a", ckpt_a), ("b", ckpt_b)], registry, cfg, seeds=[0, 1])
    assert report.to_jsonl() == report2.to_jsonl()
    assert report.to_text() == report2.to_text()


def test_run_benchmark_single_checkpoint_has_no_ensemble_row():
    world = make_planted_world(n_drugs=10, n_proteins=6, seed=4)
    ckpt, registry = small_checkpoint(world)
    cfg = DownstreamConfig(lr=1e-3, steps=10, batch=16, init_hidden=(8, 4), gnn_hidden=(8, 4), eval_every=5)
    report = run_benchmark(world.dataset, SplitSpec("random", seed=0), [("only", ckpt)], registry, cfg, seeds=[0])
    assert [row["model"] for row in report.rows] == ["baseline", "only"]


@pytest.fixture(scope="module")
def two_checkpoints():
    world = make_planted_world(n_drugs=10, n_proteins=6, seed=5)
    ckpt_a, registry = small_checkpoint(world, seed=0)
    ckpt_b, _ = small_checkpoint(world, seed=1, kind="transe")
    return world, [("a", ckpt_a), ("b", ckpt_b)], registry


GRID_CFG = DownstreamConfig(lr=1e-3, steps=12, batch=16, init_hidden=(8, 4), gnn_hidden=(8, 4), eval_every=5)


def test_empty_ensemble(two_checkpoints):
    world, _, registry = two_checkpoints
    report = run_benchmark(world.dataset, SplitSpec("random", seed=0), [], registry, GRID_CFG, seeds=[0])
    assert [row["model"] for row in report.rows] == ["baseline"]


def test_ensemble_identity_and_mean(two_checkpoints):
    # the mean of one model's predictions taken twice is those predictions, bit for bit
    world, ckpts, registry = two_checkpoints
    twice = [("a", ckpts[0][1]), ("a2", ckpts[0][1])]
    report = run_benchmark(world.dataset, SplitSpec("random", seed=0), twice, registry, GRID_CFG,
                           seeds=[0, 1], graph=world.graph)
    rows = {row["model"]: {k: v for k, v in row.items() if k != "model"} for row in report.rows}
    assert rows["ensemble"] == rows["a"] == rows["a2"]


def test_ensemble_matches_loop_oracle(two_checkpoints):
    """A plain loop over (model, seed) cells, each embedding its own tables for the
    dataset's entities, with the ensemble as the mean of the members' test
    predictions, writes the same report, with and without the pretraining graph."""
    world, ckpts, registry = two_checkpoints
    spec, seeds = SplitSpec("random", seed=0), [0, 1]
    parts = make_split(world.dataset, spec)
    true = np.array([r.affinity for r in parts[2]])
    index = EntityIndex(world.dataset.rows)

    def oracle(graph):
        expected = BenchmarkReport(world.dataset.name, spec.kind)

        def add_row(name, preds):
            per_seed = {seed: evaluate(preds[seed], true) for seed in seeds}
            means = {k: float(np.mean([per_seed[s][k] for s in seeds])) for k in ("pearson", "spearman", "mse")}
            expected.rows.append({"model": name, **means, "per_seed": {str(s): per_seed[s] for s in seeds}})

        def embed(provider, rows):
            gnn = None if provider is None else encoder_tables(provider, index)
            return Examples(*index.rows(rows), np.array([r.affinity for r in rows]),
                            initial_tables(registry, index), gnn)

        models = [("baseline", None)]
        initial = None if graph is None else compute_initial_embeddings(graph, registry)
        models += [(name, CheckpointProvider(ckpt, registry, graph=graph, initial=initial))
                   for name, ckpt in ckpts]
        member_preds = []
        for name, provider in models:
            preds = {}
            for seed in seeds:
                train_ex, val_ex, test_ex = (embed(provider, rows) for rows in parts)
                model = train_downstream(train_ex, val_ex, replace(GRID_CFG, seed=seed))
                preds[seed] = model.predict(test_ex)
            add_row(name, preds)
            if provider is not None:
                member_preds.append(preds)
        add_row("ensemble", {s: sum(p[s] for p in member_preds) / len(member_preds) for s in seeds})
        return expected.to_jsonl()

    for graph in (None, world.graph):
        report = run_benchmark(world.dataset, spec, ckpts, registry, GRID_CFG, seeds=seeds, graph=graph)
        assert report.to_jsonl() == oracle(graph)


def test_initial_features_match_graph_and_infer_initial_vectors(two_checkpoints):
    # every model shares one initial table per entity; each provider used to carry
    # its own copy, from the graph's table or from `infer`, with these exact bits
    world, ckpts, registry = two_checkpoints
    rows = world.dataset.rows
    index = EntityIndex(rows)
    x_init = dense(initial_tables(registry, index), *index.rows(rows))
    table = compute_initial_embeddings(world.graph, registry)
    by_value = {}
    for i, node_id in enumerate(world.graph.index().node_ids):
        node = world.graph.nodes[node_id]
        if node.modality in (SMILES_MODALITY, SEQUENCE_MODALITY):
            by_value[node.modality, node.value] = table.matrices[node.modality][table.row[i]]
    params, policy = ckpts[0][1].params, ckpts[0][1].policy
    for i, r in enumerate(rows):
        for modality, value, part in ((SMILES_MODALITY, r.drug, x_init[i, :16]),
                                      (SEQUENCE_MODALITY, r.protein, x_init[i, 16:])):
            assert np.array_equal(part, infer(params, policy, value, modality, registry)[0])
            if (modality, value) in by_value:
                assert np.array_equal(part, by_value[modality, value])
    assert by_value, "no dataset value is in the graph: the graph comparison would be vacuous"


def _captured_fits(monkeypatch, dataset, ckpts, registry, seeds):
    """The (train, val, cfg) arguments of every fit of one in-process run_benchmark
    (one CPU: a forked worker's calls would never reach the list), with the
    tables built for it."""
    monkeypatch.setattr(ds_mod, "_available_cpus", lambda: 1)
    initial, encoded, fits = [], [], []

    def counting_initial(registry, index):
        initial.append(index)
        return initial_tables(registry, index)

    def counting_encoder(provider, index):
        encoded.append(provider)
        return encoder_tables(provider, index)

    def counting_train(*args):
        fits.append(args)
        return train_downstream(*args)

    monkeypatch.setattr(ds_mod, "initial_tables", counting_initial)
    monkeypatch.setattr(ds_mod, "encoder_tables", counting_encoder)
    monkeypatch.setattr(ds_mod, "train_downstream", counting_train)
    run_benchmark(dataset, SplitSpec("random", seed=0), ckpts, registry, GRID_CFG, seeds=seeds)
    return initial, encoded, fits


@pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
def test_run_benchmark_embeds_each_entity_once_per_provider(two_checkpoints, monkeypatch, seeds):
    world, ckpts, registry = two_checkpoints
    initial, encoded, fits = _captured_fits(monkeypatch, world.dataset, ckpts, registry, seeds)
    assert len(initial) == 1
    assert len(encoded) == len(ckpts)
    assert len({id(p) for p in encoded}) == len(ckpts)
    assert len(fits) == len(seeds) * (1 + len(ckpts))
    # every model's train split holds the one shared index array and initial table
    assert len({id(train.drug_row) for train, _, _ in fits}) == 1
    assert len({id(train.init) for train, _, _ in fits}) == 1
    # and a model's splits share its tables
    assert all(train.init is val.init and train.gnn is val.gnn for train, val, _ in fits)


def test_split_features_hold_no_row_sized_float_array(two_checkpoints, monkeypatch):
    # many rows over few entities: every float feature array is per entity
    world, ckpts, registry = two_checkpoints
    dataset = toy_dataset(n_rows=400, n_drugs=5, n_proteins=4, seed=2, with_time=False)
    _, _, fits = _captured_fits(monkeypatch, dataset, ckpts, registry, [0])
    assert len(fits) == 1 + len(ckpts)
    for train, val, _ in fits:
        for ex in (train, val):
            for name in ("drug_row", "protein_row"):
                assert getattr(ex, name).dtype.kind == "i" and len(getattr(ex, name)) == len(ex.y)
            tables = [ex.init] + ([ex.gnn] if ex.gnn is not None else [])
            for table in tables:
                assert table.drug.shape[0] == 5 and table.protein.shape[0] == 4
            assert ex.gnn is None or ex.gnn.drug.shape[1] == 8


@pytest.mark.parametrize("with_graph", [False, True])
def test_run_benchmark_builds_one_initial_table_for_every_provider(two_checkpoints, monkeypatch, with_graph):
    monkeypatch.setattr(ds_mod, "_available_cpus", lambda: 1)
    world, ckpts, registry = two_checkpoints
    tables = []

    def counting_table(graph, registry):
        tables.append(compute_initial_embeddings(graph, registry))
        return tables[-1]

    monkeypatch.setattr(ds_mod, "compute_initial_embeddings", counting_table)
    graph = world.graph if with_graph else None
    run_benchmark(world.dataset, SplitSpec("random", seed=0), ckpts, registry, GRID_CFG, seeds=[0], graph=graph)
    assert len(ckpts) == 2 and len(tables) == (1 if with_graph else 0)


def test_checkpoint_provider_takes_the_graph_with_its_initial_table(two_checkpoints):
    world, ckpts, registry = two_checkpoints
    with pytest.raises(ValueError, match="initial="):
        CheckpointProvider(ckpts[0][1], registry, graph=world.graph)
    with pytest.raises(ValueError, match="initial="):
        CheckpointProvider(ckpts[0][1], registry, initial=compute_initial_embeddings(world.graph, registry))


# --- forked worker pool -------------------------------------------------------------------


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool needs fork")


@pytest.fixture
def forks(monkeypatch):
    """The worker processes started while the test runs."""
    started = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    return started


@needs_fork
@pytest.mark.parametrize("with_graph", [False, True])
def test_pool_report_equals_in_process_report(two_checkpoints, monkeypatch, forks, with_graph):
    world, ckpts, registry = two_checkpoints

    def refuse(self):
        raise AssertionError("a worker must inherit its feature arrays, not unpickle them")

    tables = EntityTables(np.zeros((1, 1)), np.zeros((1, 1)))
    for holder, value in ((Examples, Examples(np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp),
                                              np.zeros(1), tables)),
                          (EntityTables, tables)):
        monkeypatch.setattr(holder, "__reduce__", refuse)
        with pytest.raises(AssertionError, match="inherit"):  # the guard is live
            pickle.dumps(value)
    graph = world.graph if with_graph else None
    reports = []
    for cpus in (1, 2):  # in this process, then on two workers even on one CPU
        monkeypatch.setattr(ds_mod, "_available_cpus", lambda n=cpus: n)
        reports.append(run_benchmark(world.dataset, SplitSpec("random", seed=0), ckpts, registry,
                                     GRID_CFG, seeds=[0, 1], graph=graph).to_jsonl())
    assert len(forks) == 2
    assert reports[0] == reports[1]


@needs_fork
def test_worker_error_reraises_with_its_type_and_no_worker_outlives_the_run(two_checkpoints, monkeypatch, forks):
    world, ckpts, registry = two_checkpoints
    monkeypatch.setattr(ds_mod, "_available_cpus", lambda: 2)
    spec = SplitSpec("random", seed=0)
    run_benchmark(world.dataset, spec, ckpts, registry, GRID_CFG, seeds=[0, 1])
    assert len(forks) == 2
    assert multiprocessing.active_children() == []

    def diverging(*args):
        raise NonFinite("planted divergence")

    monkeypatch.setattr(ds_mod, "train_downstream", diverging)
    with pytest.raises(NonFinite, match="planted divergence"):
        run_benchmark(world.dataset, spec, ckpts, registry, GRID_CFG, seeds=[0, 1])
    assert len(forks) == 4
    assert multiprocessing.active_children() == []


@needs_fork
def test_cpus_beyond_the_cells_start_one_worker_per_cell(two_checkpoints, monkeypatch, forks):
    world, _, registry = two_checkpoints
    monkeypatch.setattr(ds_mod, "_available_cpus", lambda: 8)
    # no checkpoints: the baseline's two seeds are the only cells
    run_benchmark(world.dataset, SplitSpec("random", seed=0), [], registry, GRID_CFG, seeds=[0, 1])
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def test_another_thread_keeps_the_fits_in_process(two_checkpoints, monkeypatch, forks):
    # forking a process that runs other threads can deadlock the child
    world, ckpts, registry = two_checkpoints
    monkeypatch.setattr(ds_mod, "_available_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        threaded = run_benchmark(world.dataset, SplitSpec("random", seed=0), ckpts, registry,
                                 GRID_CFG, seeds=[0, 1]).to_jsonl()
    finally:
        release.set()
        other.join()
    assert forks == []
    if hasattr(os, "fork"):
        pooled = run_benchmark(world.dataset, SplitSpec("random", seed=0), ckpts, registry,
                               GRID_CFG, seeds=[0, 1]).to_jsonl()
        assert len(forks) == 2 and pooled == threaded
