"""Drug-target binding affinity regression with knowledge-enhanced embeddings.

Two parallel branches — one over concatenated initial embeddings, one over
concatenated encoder embeddings — each a two-hidden-layer relu MLP; their outputs
sum to the predicted affinity. Disabling the encoder branch gives the vanilla
baseline. Models from several pretrained checkpoints combine into an equal-weight
ensemble. Metrics are Pearson and Spearman correlation plus MSE.

Datasets are TSV files with a `smiles\tsequence\taffinity[\ttime]` header. Splits:
random, cold-drug, cold-target (entity-disjoint), or temporal (test strictly after
a time threshold).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .errors import (
    EmptyEnsemble,
    EmptyTrain,
    InfeasibleSplit,
    NonFinite,
    ParseError,
    ZeroVariance,
)
from .gnn import encode, infer
from .handlers import SEQUENCE_MODALITY, SMILES_MODALITY, HandlerRegistry
from .numerics import Tensor
from .util import average_ranks, substream


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
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
        if abs(sum(self.fractions) - 1.0) > 1e-9 or any(f < 0 for f in self.fractions):
            raise ValueError(f"fractions must be non-negative and sum to 1, got {self.fractions}")
        if self.kind == "temporal" and self.threshold is None:
            raise ValueError("temporal split needs a threshold")


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


# --- embedding providers ---------------------------------------------------------------


class HandlerProvider:
    """Vanilla representation: handler vectors only; encoder vectors are zeros."""

    def __init__(self, registry: HandlerRegistry, gnn_dim: int = 128):
        self.registry = registry
        self.gnn_dim = gnn_dim
        self._cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    def _embed(self, modality: str, value: str):
        key = (modality, value)
        hit = self._cache.get(key)
        if hit is None:
            init = self.registry.get(modality).embed(value)
            hit = (np.asarray(init, dtype=np.float64), np.zeros(self.gnn_dim))
            self._cache[key] = hit
        return hit

    def drug(self, smiles: str):
        return self._embed(SMILES_MODALITY, smiles)

    def protein(self, sequence: str):
        return self._embed(SEQUENCE_MODALITY, sequence)


class CheckpointProvider:
    """Knowledge-enhanced representation from a pretrained checkpoint.

    Given the pretraining graph, entities whose smiles/sequence attribute matches a
    requested value are embedded with their full graph context (the release
    protocol: benchmark entities already in the KG keep their pretrained
    neighborhood). Unknown values fall back to the inductive two-node inference
    path, which is all a truly novel entity has.
    """

    def __init__(self, checkpoint, registry: HandlerRegistry, graph=None, initial=None):
        self.checkpoint = checkpoint
        self.registry = registry
        self._cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._graph_lookup: dict[tuple[str, str], np.ndarray] = {}
        if graph is not None:
            from .graph import NodeKind
            from .handlers import compute_initial_embeddings

            if initial is None:
                initial = compute_initial_embeddings(
                    graph, registry, entity_dim=checkpoint.params.proj_dim
                )
            embeddings = encode(graph, initial, checkpoint.params, checkpoint.policy)
            for triple in graph.triples():
                target = graph.nodes[triple.target]
                if target.kind is not NodeKind.ATTRIBUTE:
                    continue
                if target.modality not in (SMILES_MODALITY, SEQUENCE_MODALITY):
                    continue
                key = (target.modality, target.value)
                self._graph_lookup.setdefault(key, embeddings[triple.source])

    def _embed(self, modality: str, value: str):
        key = (modality, value)
        hit = self._cache.get(key)
        if hit is None:
            contextual = self._graph_lookup.get(key)
            if contextual is not None:
                init = np.asarray(self.registry.get(modality).embed(value), dtype=np.float64)
                hit = (init, contextual.copy())
            else:
                hit = infer(
                    self.checkpoint.params, self.checkpoint.policy, value, modality, self.registry
                )
            self._cache[key] = hit
        return hit

    def drug(self, smiles: str):
        return self._embed(SMILES_MODALITY, smiles)

    def protein(self, sequence: str):
        return self._embed(SEQUENCE_MODALITY, sequence)


# --- model ------------------------------------------------------------------------------


@dataclass
class DownstreamConfig:
    lr: float = 5e-4
    steps: int = 10000
    batch: int = 256
    seed: int = 0
    init_hidden: tuple[int, int] = (1024, 512)
    gnn_hidden: tuple[int, int] = (1024, 1024)
    use_gnn: bool = True
    eval_every: int = 100

    def __post_init__(self):
        sizes = (self.steps, self.batch, self.eval_every, *self.init_hidden, *self.gnn_hidden)
        if min(sizes) < 1:
            raise ValueError(f"steps, batch, eval_every and hidden sizes must be >= 1, got {sizes}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def _branch_params(prefix: str, d_in: int, hidden: tuple[int, int], rng) -> dict[str, Tensor]:
    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    h1, h2 = hidden
    return {
        f"{prefix}/w1": nm.param(glorot(d_in, h1)),
        f"{prefix}/b1": nm.param(np.zeros(h1)),
        f"{prefix}/w2": nm.param(glorot(h1, h2)),
        f"{prefix}/b2": nm.param(np.zeros(h2)),
        f"{prefix}/w3": nm.param(glorot(h2, 1)),
        f"{prefix}/b3": nm.param(np.zeros(1)),
    }


def _branch_forward(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    h = nm.relu(nm.add(nm.matmul(x, params[f"{prefix}/w1"]), params[f"{prefix}/b1"]))
    h = nm.relu(nm.add(nm.matmul(h, params[f"{prefix}/w2"]), params[f"{prefix}/b2"]))
    return nm.add(nm.rowsum(nm.matmul(h, params[f"{prefix}/w3"])), params[f"{prefix}/b3"])


@dataclass
class FeatureScale:
    """Branch input scaling fitted on the train split: divides by the mean row
    norm so encoder outputs and hashed fingerprints land on comparable scales."""

    scale: float

    @staticmethod
    def fit(x: np.ndarray) -> "FeatureScale":
        return FeatureScale(max(float(np.linalg.norm(x, axis=1).mean()), 1e-12))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x / self.scale


@dataclass
class DownstreamModel:
    params: dict[str, Tensor]
    cfg: DownstreamConfig
    provider: object
    init_stats: FeatureScale | None = None
    gnn_stats: FeatureScale | None = None
    best_val_mse: float | None = None

    def _features(self, rows: list[AffinityRow]) -> tuple[np.ndarray, np.ndarray | None]:
        init_feats, gnn_feats = [], []
        for r in rows:
            d_init, d_gnn = self.provider.drug(r.drug)
            p_init, p_gnn = self.provider.protein(r.protein)
            init_feats.append(np.concatenate([d_init, p_init]))
            if self.cfg.use_gnn:
                gnn_feats.append(np.concatenate([d_gnn, p_gnn]))
        return np.stack(init_feats), (np.stack(gnn_feats) if self.cfg.use_gnn else None)

    def _standardized(self, rows: list[AffinityRow]) -> tuple[np.ndarray, np.ndarray | None]:
        x_init, x_gnn = self._features(rows)
        if self.init_stats is not None:
            x_init = self.init_stats.apply(x_init)
        if x_gnn is not None and self.gnn_stats is not None:
            x_gnn = self.gnn_stats.apply(x_gnn)
        return x_init, x_gnn

    def _forward(self, x_init: np.ndarray, x_gnn: np.ndarray | None) -> Tensor:
        out = _branch_forward(self.params, "init", nm.constant(x_init))
        if self.cfg.use_gnn:
            out = nm.add(out, _branch_forward(self.params, "gnn", nm.constant(x_gnn)))
        return out

    def predict_rows(self, rows: list[AffinityRow]) -> np.ndarray:
        x_init, x_gnn = self._standardized(rows)
        return self._forward(x_init, x_gnn).data.copy()


def train_downstream(
    train_rows: list[AffinityRow],
    val_rows: list[AffinityRow],
    provider,
    cfg: DownstreamConfig,
) -> DownstreamModel:
    """Minimize MSE with Adam; returns the parameters at best validation loss."""
    if not train_rows:
        raise EmptyTrain("no downstream training rows")
    rng_init = substream(cfg.seed, "dsinit")
    probe_d = provider.drug(train_rows[0].drug)
    probe_p = provider.protein(train_rows[0].protein)
    d_init = len(probe_d[0]) + len(probe_p[0])
    params = _branch_params("init", d_init, cfg.init_hidden, rng_init)
    if cfg.use_gnn:
        d_gnn = len(probe_d[1]) + len(probe_p[1])
        params.update(_branch_params("gnn", d_gnn, cfg.gnn_hidden, rng_init))

    model = DownstreamModel(params, cfg, provider)
    x_train, g_train = model._features(train_rows)
    model.init_stats = FeatureScale.fit(x_train)
    x_train = model.init_stats.apply(x_train)
    if g_train is not None:
        model.gnn_stats = FeatureScale.fit(g_train)
        g_train = model.gnn_stats.apply(g_train)
    y_train = np.array([r.affinity for r in train_rows])
    if val_rows:
        x_val, g_val = model._standardized(val_rows)
        y_val = np.array([r.affinity for r in val_rows])

    rng_batch = substream(cfg.seed, "batch")
    state = None
    best = {name: p.data.copy() for name, p in params.items()}
    best_val = math.inf
    n = len(train_rows)
    for step in range(1, cfg.steps + 1):
        idx = rng_batch.integers(0, n, size=min(cfg.batch, n))
        pred = model._forward(x_train[idx], g_train[idx] if g_train is not None else None)
        loss = nm.mse(pred, y_train[idx])
        if not np.isfinite(loss.data):
            raise NonFinite(f"downstream loss diverged at step {step}")
        nm.zero_grads(params)
        nm.backward(loss)
        _, state = nm.adam_step(params, nm.collect_grads(params), state, cfg.lr)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            if val_rows:
                val_pred = model._forward(x_val, g_val)
                val_mse = float(nm.mse(val_pred, y_val).data)
            else:
                val_mse = float(loss.data)
            if val_mse < best_val:
                best_val = val_mse
                best = {name: p.data.copy() for name, p in params.items()}
    for name, p in params.items():
        p.data = best[name]
    model.best_val_mse = best_val
    return model


def evaluate(model_or_ensemble, test_rows: list[AffinityRow]) -> dict[str, float]:
    if not test_rows:
        raise EmptyTrain("no test rows to evaluate")
    preds = model_or_ensemble.predict_rows(test_rows)
    if not np.isfinite(preds).all():
        raise NonFinite("non-finite predictions")
    true = np.array([r.affinity for r in test_rows])
    return {
        "pearson": pearson(preds, true),
        "spearman": spearman(preds, true),
        "mse": float(np.mean((preds - true) ** 2)),
    }


# --- ensembling ---------------------------------------------------------------------------


@dataclass
class Ensemble:
    members: list[DownstreamModel]

    def predict_rows(self, rows: list[AffinityRow]) -> np.ndarray:
        return ensemble_predict(self, rows)


def ensemble_predict(ensemble: Ensemble, rows: list[AffinityRow]) -> np.ndarray:
    """Equal-weight average of member predictions."""
    if not ensemble.members:
        raise EmptyEnsemble("ensemble has no members")
    preds = np.stack([m.predict_rows(rows) for m in ensemble.members])
    return preds.mean(axis=0)


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

    Pass the pretraining graph to embed dataset entities that appear in it with
    their graph context; without it, every entity goes through pure inference.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_benchmark needs at least one seed")
    train_rows, val_rows, test_rows = make_split(dataset, split_spec)
    report = BenchmarkReport(dataset.name, split_spec.kind)

    def record(name: str, per_seed: dict[int, dict[str, float]]):
        row = {"model": name, **_mean_metrics(per_seed)}
        row["per_seed"] = {str(s): per_seed[s] for s in sorted(per_seed)}
        report.rows.append(row)

    vanilla_provider = HandlerProvider(registry)
    baseline_metrics = {}
    for seed in seeds:
        seed_cfg = replace(cfg, seed=seed, use_gnn=False)
        model = train_downstream(train_rows, val_rows, vanilla_provider, seed_cfg)
        baseline_metrics[seed] = evaluate(model, test_rows)
    record("baseline", baseline_metrics)

    members_by_seed: dict[int, list[DownstreamModel]] = {seed: [] for seed in seeds}
    for name, ckpt in checkpoints:
        provider = CheckpointProvider(ckpt, registry, graph=graph)
        metrics = {}
        for seed in seeds:
            seed_cfg = replace(cfg, seed=seed, use_gnn=True)
            model = train_downstream(train_rows, val_rows, provider, seed_cfg)
            metrics[seed] = evaluate(model, test_rows)
            members_by_seed[seed].append(model)
        record(name, metrics)

    if len(checkpoints) >= 2:
        ensemble_metrics = {}
        for seed in seeds:
            ensemble_metrics[seed] = evaluate(Ensemble(members_by_seed[seed]), test_rows)
        record("ensemble", ensemble_metrics)
    return report
