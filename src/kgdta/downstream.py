"""Drug-target binding affinity regression with knowledge-enhanced embeddings.

Two parallel branches — one over concatenated initial embeddings, one over
concatenated encoder embeddings — each a two-hidden-layer relu MLP; their outputs
sum to the predicted affinity. Inputs are stored once per distinct drug and
protein, and each branch's first layer is split into a drug block and a protein
block, computed per distinct entity of a batch. Examples without encoder tables
give the vanilla baseline. Models from several pretrained checkpoints combine into an equal-weight
ensemble of their predictions. Metrics are Pearson and Spearman correlation plus MSE.

Datasets are TSV files with a `smiles\tsequence\taffinity[\ttime]` header. Splits:
random, cold-drug, cold-target (entity-disjoint), or temporal (test strictly after
a time threshold).
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .errors import EmptyTrain, InfeasibleSplit, NonFinite, ParseError, ZeroVariance
from .gnn import build_mp, encode_layers, infer
from .handlers import SEQUENCE_MODALITY, SMILES_MODALITY, HandlerRegistry, compute_initial_embeddings, embedding_matrix
from .numerics import Tensor
from .util import average_ranks, read_utf8, substream


@dataclass(frozen=True)
class AffinityRow:
    drug: str
    protein: str
    affinity: float
    time: float | None = None


@dataclass
class AffinityDataset:
    name: str
    rows: list[AffinityRow]

    def __post_init__(self):
        if not self.rows:
            raise ParseError(f"dataset {self.name!r} is empty")
        for row in self.rows:
            if not math.isfinite(row.affinity):
                raise ParseError(f"dataset {self.name!r}: non-finite affinity for {row.drug!r}")
            if row.time is not None and not math.isfinite(row.time):
                raise ParseError(f"dataset {self.name!r}: non-finite time for {row.drug!r}")


def load_affinity_tsv(path: str, name: str | None = None) -> AffinityDataset:
    lines = [ln for ln in read_utf8(path, ParseError, "dataset").split("\n") if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty dataset file")
    header = [c.strip() for c in lines[0].split("\t")]
    required = ["smiles", "sequence", "affinity"]
    if header[: len(required)] != required:
        raise ParseError(f"{path}: header must start with smiles, sequence, affinity")
    has_time = len(header) > 3 and header[3] == "time"
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            affinity = float(cells[2])
            time_val = float(cells[3]) if has_time and cells[3] != "" else None
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric affinity/time") from None
        rows.append(AffinityRow(cells[0], cells[1], affinity, time_val))
    return AffinityDataset(name or path, rows)


def save_affinity_tsv(dataset: AffinityDataset, path: str):
    has_time = any(r.time is not None for r in dataset.rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("smiles\tsequence\taffinity" + ("\ttime" if has_time else "") + "\n")
        for r in dataset.rows:
            line = f"{r.drug}\t{r.protein}\t{r.affinity!r}"
            if has_time:
                line += f"\t{r.time!r}" if r.time is not None else "\t"
            fh.write(line + "\n")


# --- splits -------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    kind: str  # "random" | "drug" | "target" | "temporal"
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("random", "drug", "target", "temporal"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if not all(math.isfinite(f) and f >= 0 for f in self.fractions) or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must be finite, non-negative and sum to 1, got {self.fractions}")
        if self.kind == "temporal" and (self.threshold is None or not math.isfinite(self.threshold)):
            raise ValueError(f"temporal split needs a finite threshold, got {self.threshold}")


def _check_parts(parts, spec) -> tuple[list[AffinityRow], list[AffinityRow], list[AffinityRow]]:
    names = ("train", "val", "test")
    for name, part in zip(names, parts):
        if not part:
            raise InfeasibleSplit(f"{spec.kind} split leaves the {name} part empty")
    return parts


def make_split(dataset: AffinityDataset, spec: SplitSpec):
    """Partition rows into (train, val, test) per the spec; deterministic by seed."""
    rows = dataset.rows
    rng = substream(spec.seed, "split", spec.kind)
    f_train, f_val, _ = spec.fractions

    if spec.kind == "random":
        perm = rng.permutation(len(rows))
        n_train = int(f_train * len(rows))
        n_val = int(f_val * len(rows))
        train = [rows[int(i)] for i in perm[:n_train]]
        val = [rows[int(i)] for i in perm[n_train : n_train + n_val]]
        test = [rows[int(i)] for i in perm[n_train + n_val :]]
        return _check_parts((train, val, test), spec)

    if spec.kind in ("drug", "target"):
        key = (lambda r: r.drug) if spec.kind == "drug" else (lambda r: r.protein)
        entities = sorted({key(r) for r in rows})
        if len(entities) < 3:
            raise InfeasibleSplit(f"{spec.kind} split needs >= 3 distinct entities, have {len(entities)}")
        perm = rng.permutation(len(entities))
        n_train = max(1, int(f_train * len(entities)))
        n_val = max(1, int(f_val * len(entities)))
        if n_train + n_val >= len(entities):
            n_train = len(entities) - n_val - 1
            if n_train < 1:
                raise InfeasibleSplit(f"{spec.kind} split cannot fill all three parts")
        chosen = [entities[int(i)] for i in perm]
        train_e = set(chosen[:n_train])
        val_e = set(chosen[n_train : n_train + n_val])
        train = [r for r in rows if key(r) in train_e]
        val = [r for r in rows if key(r) in val_e]
        test = [r for r in rows if key(r) not in train_e and key(r) not in val_e]
        return _check_parts((train, val, test), spec)

    # temporal
    if any(r.time is None for r in rows):
        raise InfeasibleSplit("temporal split requires a time value on every row")
    test = [r for r in rows if r.time > spec.threshold]
    rest = [r for r in rows if r.time <= spec.threshold]
    if not rest or not test:
        raise InfeasibleSplit("temporal threshold leaves train or test empty")
    perm = rng.permutation(len(rest))
    ratio = f_train / (f_train + f_val) if (f_train + f_val) > 0 else 1.0
    n_train = int(round(ratio * len(rest)))
    n_train = min(max(n_train, 1), len(rest) - 1) if len(rest) > 1 else 1
    train = [rest[int(i)] for i in perm[:n_train]]
    val = [rest[int(i)] for i in perm[n_train:]]
    return _check_parts((train, val, test), spec)


# --- metrics ------------------------------------------------------------------------


def pearson(pred, true) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    dp = pred - pred.mean()
    dt = true - true.mean()
    sp = float(np.sqrt((dp * dp).sum()))
    st = float(np.sqrt((dt * dt).sum()))
    if sp == 0.0 or st == 0.0:
        raise ZeroVariance("correlation undefined for constant predictions or labels")
    return float((dp * dt).sum() / (sp * st))


def spearman(pred, true) -> float:
    return pearson(average_ranks(pred), average_ranks(true))


# --- features -------------------------------------------------------------------------


class CheckpointProvider:
    """Knowledge-enhanced encoder vectors from a pretrained checkpoint.

    Given the pretraining graph, entities whose smiles/sequence attribute matches a
    requested value are embedded with their full graph context (the release
    protocol: benchmark entities already in the KG keep their pretrained
    neighborhood). Unknown values fall back to the inductive two-node inference
    path, which is all a truly novel entity has. `graph` comes with its initial
    table `initial`, as `compute_initial_embeddings` returns it. Inferred vectors
    are not kept: `EntityIndex` asks for each value once.
    """

    def __init__(self, checkpoint, registry: HandlerRegistry, graph=None, initial=None):
        self.checkpoint = checkpoint
        self.registry = registry
        # (modality, value) -> encoder vector of the first entity pointing at it
        self._known: dict[tuple[str, str], np.ndarray] = {}
        if (graph is None) != (initial is None):
            raise ValueError("pass graph= together with its initial= table")
        if graph is not None:
            initial.check_aligned(graph)
            mp = build_mp(graph, None, checkpoint.policy)
            final = encode_layers(mp, initial, checkpoint.params)[-1].data
            gi = graph.index()
            literal = ~gi.is_entity & np.isin(gi.modalities, [SMILES_MODALITY, SEQUENCE_MODALITY])[gi.modality]
            for s, _, t in gi.triples[literal[gi.triples[:, 2]]].tolist():  # insertion order: the first wins
                node = gi.nodes[t]
                self._known.setdefault((node.modality, node.value), final[mp.row[s]])

    def _embed(self, modality: str, value: str) -> np.ndarray:
        hit = self._known.get((modality, value))
        if hit is None:
            _, hit = infer(self.checkpoint.params, self.checkpoint.policy, value, modality, self.registry)
        return hit

    def drug(self, smiles: str) -> np.ndarray:
        return self._embed(SMILES_MODALITY, smiles)

    def protein(self, sequence: str) -> np.ndarray:
        return self._embed(SEQUENCE_MODALITY, sequence)


@dataclass
class EntityTables:
    """One branch's input per distinct entity: row k of `drug` is the vector of
    drug k of an `EntityIndex`, row k of `protein` that of its protein k."""

    drug: np.ndarray
    protein: np.ndarray


class EntityIndex:
    """The distinct drugs and proteins of some affinity rows, each numbered by its
    first appearance; a table built on the index has one row per number."""

    def __init__(self, rows: list[AffinityRow]):
        if not rows:
            raise EmptyTrain("no affinity rows to embed")
        self.drugs = {d: k for k, d in enumerate(dict.fromkeys(r.drug for r in rows))}
        self.proteins = {p: k for k, p in enumerate(dict.fromkeys(r.protein for r in rows))}

    def rows(self, rows: list[AffinityRow]) -> tuple[np.ndarray, np.ndarray]:
        """Each row's drug number and protein number, in row order."""
        return (np.array([self.drugs[r.drug] for r in rows], dtype=np.intp),
                np.array([self.proteins[r.protein] for r in rows], dtype=np.intp))


def initial_tables(registry: HandlerRegistry, index: EntityIndex) -> EntityTables:
    """The initial-branch input: each entity's SMILES or sequence handler vector,
    embedded once and checked by `embedding_matrix`."""
    drugs, proteins = list(index.drugs), list(index.proteins)
    smiles, sequence = registry.get(SMILES_MODALITY), registry.get(SEQUENCE_MODALITY)
    return EntityTables(embedding_matrix(smiles, drugs, map(smiles.embed, drugs), "dataset drugs"),
                        embedding_matrix(sequence, proteins, map(sequence.embed, proteins), "dataset proteins"))


def encoder_tables(provider, index: EntityIndex) -> EntityTables:
    """The encoder-branch input: each entity's encoder vector from `provider`
    (anything with `drug(smiles)` and `protein(sequence)` returning a vector, such
    as a `CheckpointProvider`)."""
    return EntityTables(np.array([provider.drug(d) for d in index.drugs], dtype=np.float64),
                        np.array([provider.protein(p) for p in index.proteins], dtype=np.float64))


@dataclass
class Examples:
    """One split's affinity rows by entity: row i pairs drug `drug_row[i]` with
    protein `protein_row[i]` of the per-entity tables `init` (initial branch) and
    `gnn` (encoder branch, None for the baseline), and has label `y[i]`. Every
    model's `Examples` of a split share its index arrays and labels, and each
    model's splits share its tables."""

    drug_row: np.ndarray
    protein_row: np.ndarray
    y: np.ndarray
    init: EntityTables
    gnn: EntityTables | None = None


# --- model ------------------------------------------------------------------------------


@dataclass
class DownstreamConfig:
    lr: float = 5e-4
    steps: int = 10000
    batch: int = 256
    seed: int = 0
    init_hidden: tuple[int, int] = (1024, 512)
    gnn_hidden: tuple[int, int] = (1024, 1024)
    eval_every: int = 100

    def __post_init__(self):
        sizes = (self.steps, self.batch, self.eval_every, *self.init_hidden, *self.gnn_hidden)
        if min(sizes) < 1:
            raise ValueError(f"steps, batch, eval_every and hidden sizes must be >= 1, got {sizes}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def _branch_params(prefix: str, tables: EntityTables, hidden: tuple[int, int], rng) -> dict[str, Tensor]:
    """One Glorot draw for the first layer over the concatenated (drug, protein)
    input, kept as its drug block and its protein block."""
    h1, h2 = hidden
    d_drug = tables.drug.shape[1]
    w1 = nm.glorot(rng, d_drug + tables.protein.shape[1], h1)
    return {
        f"{prefix}/w1_drug": nm.param(w1[:d_drug]),
        f"{prefix}/w1_protein": nm.param(w1[d_drug:]),
        f"{prefix}/b1": nm.param(np.zeros(h1)),
        f"{prefix}/w2": nm.param(nm.glorot(rng, h1, h2)),
        f"{prefix}/b2": nm.param(np.zeros(h2)),
        f"{prefix}/w3": nm.param(nm.glorot(rng, h2, 1)),
        f"{prefix}/b3": nm.param(np.zeros(1)),
    }


def _per_entity(table: np.ndarray, rows: np.ndarray, w: Tensor) -> Tensor:
    """`table[rows] @ w`, multiplying each distinct row of `table` once."""
    distinct, back = np.unique(rows, return_inverse=True)
    return nm.gather_rows(nm.matmul(nm.constant(table[distinct]), w), back)


def _branch_forward(params: dict[str, Tensor], prefix: str, tables: EntityTables,
                    drug_row: np.ndarray, protein_row: np.ndarray) -> Tensor:
    z = nm.add(_per_entity(tables.drug, drug_row, params[f"{prefix}/w1_drug"]),
               _per_entity(tables.protein, protein_row, params[f"{prefix}/w1_protein"]))
    h = nm.relu(nm.add(z, params[f"{prefix}/b1"]))
    h = nm.relu(nm.add(nm.matmul(h, params[f"{prefix}/w2"]), params[f"{prefix}/b2"]))
    return nm.add(nm.rowsum(nm.matmul(h, params[f"{prefix}/w3"])), params[f"{prefix}/b3"])


@dataclass
class FeatureScale:
    """Branch input scaling fitted on the train split: divides by the mean norm of
    its rows' concatenated (drug, protein) vectors, so encoder outputs and hashed
    fingerprints land on comparable scales. A row's squared norm is the sum of its
    two entities' squared norms."""

    scale: float

    @staticmethod
    def fit(tables: EntityTables, drug_row: np.ndarray, protein_row: np.ndarray) -> "FeatureScale":
        sq_drug = (tables.drug * tables.drug).sum(axis=1)
        sq_protein = (tables.protein * tables.protein).sum(axis=1)
        norms = np.sqrt(sq_drug[drug_row] + sq_protein[protein_row])
        return FeatureScale(max(float(norms.mean()), 1e-12))

    def apply(self, tables: EntityTables) -> EntityTables:
        return EntityTables(tables.drug / self.scale, tables.protein / self.scale)


@dataclass
class DownstreamModel:
    params: dict[str, Tensor]
    init_stats: FeatureScale
    gnn_stats: FeatureScale | None = None  # None for the baseline (no encoder branch)
    best_val_mse: float | None = None

    def _scaled(self, ex: Examples) -> tuple[EntityTables, EntityTables | None]:
        gnn = self.gnn_stats.apply(ex.gnn) if self.gnn_stats is not None else None
        return self.init_stats.apply(ex.init), gnn

    def _forward(self, tables: tuple[EntityTables, EntityTables | None],
                 drug_row: np.ndarray, protein_row: np.ndarray) -> Tensor:
        init, gnn = tables
        out = _branch_forward(self.params, "init", init, drug_row, protein_row)
        if gnn is not None:
            out = nm.add(out, _branch_forward(self.params, "gnn", gnn, drug_row, protein_row))
        return out

    def predict(self, ex: Examples) -> np.ndarray:
        return self._forward(self._scaled(ex), ex.drug_row, ex.protein_row).data


def train_downstream(train: Examples, val: Examples | None, cfg: DownstreamConfig) -> DownstreamModel:
    """Minimize MSE with Adam; returns the parameters at best validation loss
    (best train-batch loss when `val` is None). The encoder branch exists when
    `train` has encoder tables."""
    rng_init = substream(cfg.seed, "dsinit")
    params = _branch_params("init", train.init, cfg.init_hidden, rng_init)
    gnn_stats = None
    if train.gnn is not None:
        params.update(_branch_params("gnn", train.gnn, cfg.gnn_hidden, rng_init))
        gnn_stats = FeatureScale.fit(train.gnn, train.drug_row, train.protein_row)
    init_stats = FeatureScale.fit(train.init, train.drug_row, train.protein_row)
    model = DownstreamModel(params, init_stats, gnn_stats)
    tables = model._scaled(train)
    if val is not None:
        val_tables = model._scaled(val)

    rng_batch = substream(cfg.seed, "batch")
    state = None
    best = {name: p.data.copy() for name, p in params.items()}
    best_val = math.inf
    n = len(train.y)
    for step in range(1, cfg.steps + 1):
        idx = rng_batch.integers(0, n, size=min(cfg.batch, n))
        pred = model._forward(tables, train.drug_row[idx], train.protein_row[idx])
        loss = nm.mse(pred, train.y[idx])
        if not np.isfinite(loss.data):
            raise NonFinite(f"downstream loss diverged at step {step}")
        nm.backward(loss)
        state = nm.adam_step(params, state, cfg.lr)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            if val is not None:
                val_pred = model._forward(val_tables, val.drug_row, val.protein_row)
                val_mse = float(nm.mse(val_pred, val.y).data)
            else:
                val_mse = float(loss.data)
            if val_mse < best_val:
                best_val = val_mse
                best = {name: p.data.copy() for name, p in params.items()}
    for name, p in params.items():
        p.data = best[name]
    model.best_val_mse = best_val
    return model


def evaluate(preds: np.ndarray, true: np.ndarray) -> dict[str, float]:
    if not np.isfinite(preds).all():
        raise NonFinite("non-finite predictions")
    return {
        "pearson": pearson(preds, true),
        "spearman": spearman(preds, true),
        "mse": float(np.mean((preds - true) ** 2)),
    }


# --- benchmark harness -----------------------------------------------------------------------


@dataclass
class BenchmarkReport:
    dataset: str
    split: str
    rows: list[dict] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in self.rows)

    def to_text(self) -> str:
        lines = [f"dataset: {self.dataset}   split: {self.split}"]
        header = f"{'model':<24}{'pearson':>10}{'spearman':>10}{'mse':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                f"{row['model']:<24}{row['pearson']:>10.4f}{row['spearman']:>10.4f}{row['mse']:>12.4f}"
            )
        return "\n".join(lines) + "\n"


def _mean_metrics(per_seed: dict[int, dict[str, float]]) -> dict[str, float]:
    keys = ("pearson", "spearman", "mse")
    return {k: float(np.mean([m[k] for m in per_seed.values()])) for k in keys}


def _fit_cell(splits: tuple[Examples, Examples, Examples], cfg: DownstreamConfig):
    """One (model, seed) cell of the benchmark grid: fit on the train split with
    validation selection. Returns the test predictions and the best validation MSE."""
    train, val, test = splits
    model = train_downstream(train, val, cfg)
    return model.predict(test), model.best_val_mse


_worker_cells: list = []  # the grid, in a forked worker only


def _adopt_cells(cells: list):
    global _worker_cells
    _worker_cells = cells


def _fit_cell_at(index: int):
    return _fit_cell(*_worker_cells[index])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fit_cells(cells: list) -> list:
    """`_fit_cell` over every (splits, cfg) cell, results in cell order.

    The cells run on `min(available CPUs, cells)` processes forked after every
    cell's arrays exist: a worker inherits them and adopts the cell list through
    the pool initializer, so a task is a cell index and only results are pickled.
    One worker, no `fork` on the platform, or another thread running in this
    process (forking it could deadlock the child) runs the cells here instead. A
    worker's exception re-raises here with its type once the cells not yet
    started are cancelled and every worker has exited.
    """
    workers = min(_available_cpus(), len(cells))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_fit_cell(*cell) for cell in cells]
    import multiprocessing as mp  # here, so importing kgdta does not load the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                               initializer=_adopt_cells, initargs=(cells,))
    try:
        return list(pool.map(_fit_cell_at, range(len(cells))))
    finally:
        pool.shutdown(cancel_futures=True)


def run_benchmark(
    dataset: AffinityDataset,
    split_spec: SplitSpec,
    checkpoints: list[tuple[str, object]],
    registry: HandlerRegistry,
    cfg: DownstreamConfig,
    seeds=range(6),
    graph=None,
) -> BenchmarkReport:
    """Train and evaluate the vanilla baseline, one model per checkpoint, and the
    equal-weight ensemble, averaging metrics over the given seeds.

    The dataset's distinct drugs and proteins are numbered once; each split is
    their index arrays and labels, and the initial-branch tables and the graph's
    initial table are built once and shared by every model. Each checkpoint adds
    its encoder tables, one row per entity.
    The (model, seed) fits then run on `min(available CPUs, fits)` forked workers
    (in this process while another thread runs here), and the ensemble averages the
    members' stored test predictions. The report does not depend on the worker
    count. Pass the pretraining graph to embed dataset entities that appear in it
    with their graph context; without it, every entity goes through pure inference.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_benchmark needs at least one seed")
    split_rows = make_split(dataset, split_spec)
    index = EntityIndex(dataset.rows)
    entity_rows = [index.rows(rows) for rows in split_rows]
    labels = [np.array([r.affinity for r in rows]) for rows in split_rows]
    init = initial_tables(registry, index)

    def splits(gnn: EntityTables | None) -> tuple[Examples, Examples, Examples]:
        return tuple(Examples(d, p, y, init, gnn) for (d, p), y in zip(entity_rows, labels))

    models = [("baseline", splits(None))]
    initial = compute_initial_embeddings(graph, registry) if graph is not None and checkpoints else None
    for name, ckpt in checkpoints:
        provider = CheckpointProvider(ckpt, registry, graph=graph, initial=initial)
        models.append((name, splits(encoder_tables(provider, index))))
    cells = [(examples, replace(cfg, seed=seed)) for _, examples in models for seed in seeds]
    results = iter(_fit_cells(cells))

    report = BenchmarkReport(dataset.name, split_spec.kind)

    def record(name: str, preds: dict[int, np.ndarray]):
        per_seed = {seed: evaluate(preds[seed], labels[2]) for seed in seeds}
        row = {"model": name, **_mean_metrics(per_seed)}
        row["per_seed"] = {str(s): per_seed[s] for s in sorted(per_seed)}
        report.rows.append(row)

    members = []
    for name, examples in models:
        preds = {seed: next(results)[0] for seed in seeds}
        record(name, preds)
        if examples[0].gnn is not None:
            members.append(preds)
    if len(members) >= 2:
        record("ensemble", {seed: np.stack([m[seed] for m in members]).mean(axis=0) for seed in seeds})
    return report
