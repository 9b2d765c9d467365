"""Workload generation and measurement for the kgdta benchmark.

Two subcommands, each run by `run.py` in a fresh process:

    python3 perfbench/workloads.py generate --workload NAME --seed N --out DIR
    python3 perfbench/workloads.py measure --workload NAME --inputs DIR --out DIR \
        --seconds S --trace 0|1 --result FILE

`generate` writes the workload's input files from the seed. `measure` reads only those
files, runs the workload as a closed loop with one caller, checks its outputs and
writes the raw samples as JSON. The program's own seeds (pretraining, splits,
downstream fits) are fixed constants, as a user's config would be; only the inputs
depend on the benchmark seed.

Untraced, `measure` repeats whole passes (set-up plus body) until `--seconds` have
passed, at least one, and sets up at least `SETUP_SAMPLES` times and for at least
`SETUP_MIN_S` seconds in all. Traced, it runs exactly one set-up and one body, so
that call counts are exact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

import numpy as np

from kgdta import downstream, gnn, handlers, pretrain, schema, synthetic
from kgdta import graph as kg

SCORERS = ("distmult", "transe", "classifier")
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.0  # tiny set-ups repeat until this much time is sampled
INFER_RECHECKS = 20  # values embedded a second time to check bit-identical vectors
REFERENCE_EVERY = 50  # infer calls between two reference samples
REFERENCE_LOCAL = 5  # latest reference samples whose median is stored with a latency
REPORT_ROWS = ("baseline", *SCORERS, "ensemble")

SIZES = {
    # the criterion-6 pipeline on the 60x40 planted world, shortened to fit a run
    "dta-grid": {
        "drugs": 60, "proteins": 40, "epochs": 40, "steps": 300, "fit_seeds": 1,
        "loads": 3, "infers": 4000,
    },
    # the 240x160 planted world (400 entities, 400 attribute nodes) trained in 8 partitions
    "kg-partitioned": {
        "drugs": 240, "proteins": 160, "partitions": 8, "epochs": 1,
        "loads": 4, "infers": 1500,
    },
    # a schema-built KG, a short pretrain, then checkpoint loads and single inferences
    "cold-infer": {
        "drugs": 120, "proteins": 80, "interactions": 400, "epochs": 4,
        "loads": 8, "infers": 3000,
    },
}

SMILES_ALPHABET = "CNOPSFcno123456()=#[]+-"
AA_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- input generation -------------------------------------------------------------


def _random_string(rng, alphabet: str, low: int, high: int) -> str:
    length = int(rng.integers(low, high + 1))
    return "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))


def _unseen_values(rng, count: int, seen: set[str]) -> list[tuple[str, str]]:
    """Alternating SMILES-like and sequence-like strings absent from `seen`."""
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            modality, value = "smiles", _random_string(rng, SMILES_ALPHABET, 16, 40)
        else:
            modality, value = "protein_sequence", _random_string(rng, AA_ALPHABET, 40, 120)
        if value not in seen:
            seen.add(value)
            out.append((modality, value))
    return out


def _write_unseen(path: Path, values):
    path.write_text("".join(f"{m}\t{v}\n" for m, v in values), encoding="utf-8")


def generate(workload: str, seed: int, out: Path, sizes: dict | None = None):
    size = {**SIZES[workload], **(sizes or {})}
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x70E7])
    if workload in ("dta-grid", "kg-partitioned"):
        world = synthetic.make_planted_world(n_drugs=size["drugs"], n_proteins=size["proteins"], seed=seed)
        (out / "graph.nt").write_text(schema.to_ntriples(world.graph), encoding="utf-8", newline="\n")
        if workload == "dta-grid":
            downstream.save_affinity_tsv(world.dataset, str(out / "affinity.tsv"))
        seen = {*world.drug_values.values(), *world.protein_values.values()}
    else:
        seen = _write_schema_sources(rng, size, out)
    _write_unseen(out / "unseen.tsv", _unseen_values(rng, size["infers"], seen))


def _write_schema_sources(rng, size: dict, out: Path) -> set[str]:
    """Proteins as TSV, drugs and interactions as JSON lines. Some interactions name
    the drug by its ChEMBL alias, which the build resolves through sameAs. Node and
    triple counts do not depend on the seed: sequence lengths, labels and
    interaction pairs are distinct by construction."""
    seen: set[str] = set()

    def fresh(alphabet, low, high):
        while True:
            value = _random_string(rng, alphabet, low, high)
            if value not in seen:
                seen.add(value)
                return value

    n_drugs, n_proteins = size["drugs"], size["proteins"]
    families = ["kinase", "protease", "GPCR", "ion channel", "nuclear receptor"]
    lengths = rng.choice(np.arange(40, 40 + max(81, n_proteins)), size=n_proteins, replace=False)
    with open(out / "proteins.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\tseq\tlabel\tlength\n")
        for j in range(n_proteins):
            seq = fresh(AA_ALPHABET, int(lengths[j]), int(lengths[j]))
            label = f"{families[int(rng.integers(len(families)))]} {j}"
            length = "NA" if j % 20 == 7 else str(len(seq))  # some null cells
            fh.write(f"P{j:05d}\t{seq}\t{label}\t{length}\n")
    drugs = []
    with open(out / "drugs.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n_drugs):
            # every row carries every key (null when absent): the first row is the header
            row = {"id": f"DB{i:05d}", "smiles": fresh(SMILES_ALPHABET, 16, 40),
                   "mass": round(float(rng.uniform(100.0, 600.0)), 3),
                   "chembl": f"CHEMBL{100000 + i}" if i % 2 == 0 else None}
            drugs.append(row)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    pairs = rng.choice(n_drugs * n_proteins, size=size["interactions"], replace=False)
    with open(out / "interactions.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for pair in pairs:
            drug = drugs[int(pair) // n_proteins]
            protein = f"P{int(pair) % n_proteins:05d}"
            if drug["chembl"] is not None and rng.random() < 0.3:
                row = {"drug": None, "chembl": drug["chembl"], "protein": protein}
            else:
                row = {"drug": drug["id"], "chembl": None, "protein": protein}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    spec = {
        "sources": [
            {"name": "proteins", "path": "proteins.tsv", "format": "delimited",
             "delimiter": "\t", "null_markers": ["", "NA"]},
            {"name": "drugs", "path": "drugs.jsonl", "format": "jsonl"},
            {"name": "interactions", "path": "interactions.jsonl", "format": "jsonl"},
        ],
        "namespaces": {"chembl": "drug"},
        "entity_types": [
            {"name": "protein", "source": "proteins", "namespace": "uniprot", "id_column": "id",
             "modality": "protein",
             "data_properties": [
                 {"relation": "sequence", "column": "seq", "modality": "protein_sequence"},
                 {"relation": "label", "column": "label", "modality": "text"},
                 {"relation": "length", "column": "length", "modality": "number"}]},
            {"name": "drug", "source": "drugs", "namespace": "drugbank", "id_column": "id",
             "modality": "drug",
             "data_properties": [
                 {"relation": "smiles", "column": "smiles", "modality": "smiles"},
                 {"relation": "mass", "column": "mass", "modality": "number"}],
             "same_as_links": [
                 {"source_column": "id", "target_namespace": "chembl", "target_column": "chembl"}]},
            {"name": "interaction", "source": "interactions", "namespace": "drugbank",
             "id_column": "drug", "modality": "drug",
             "object_properties": [
                 {"relation": "binding_to", "target_namespace": "uniprot", "target_column": "protein"}]},
            {"name": "interaction_alias", "source": "interactions", "namespace": "chembl",
             "id_column": "chembl", "modality": "drug",
             "object_properties": [
                 {"relation": "binding_to", "target_namespace": "uniprot", "target_column": "protein"}]},
        ],
    }
    (out / "schema.json").write_text(json.dumps(spec, indent=1, sort_keys=True), encoding="utf-8")
    return seen


# --- measurement --------------------------------------------------------------------


class Reference:
    """A fixed piece of work that calls nothing in kgdta: JSON parsing into a numpy
    array, a chain of small numpy products and plain Python arithmetic, the kinds of
    work the workloads do. Its time tracks the speed of the machine while it runs.
    `run.py` scales each latency by the reference time stored with it and the other
    times by the median of all reference samples of the run.
    """

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self.doc = json.dumps(rng.normal(size=(100, 64)).tolist())
        self.a = rng.normal(size=(64, 64)) * 0.1
        self.x = rng.normal(size=(8, 64))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.asarray(json.loads(self.doc))
        x = self.x
        for _ in range(60):
            x = np.tanh(x @ self.a)
        total = 0.0
        for i in range(6000):
            total += i * 0.5
        return time.perf_counter() - t0


class Run:
    """Samples, output checks and operation tallies of one measured run.

    An operation is a KG build, a train call, a downstream fit, a checkpoint load or
    an infer call. It fails when it raises or when a check of its output fails.
    """

    def __init__(self, reference: Reference | None = None):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.values: dict[str, float] = {}
        self.reference = reference
        self.reference_s = 0.0  # spent in reference units, kept out of total_s
        self.train_s = 0.0  # spent in train calls since the last `pretrain_s` sample
        self.recent_ref_ms: deque[float] = deque(maxlen=REFERENCE_LOCAL)

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def sample_latency(self, name: str, ms: float):
        """A latency, with the median of the latest reference samples beside it in
        `<name>_ref`, as the machine's speed at the time it was taken."""
        self.sample(name, ms)
        self.sample(f"{name}_ref", statistics.median(self.recent_ref_ms))

    def calibrate(self):
        seconds = self.reference()
        self.sample("ref_ms", seconds * 1e3)
        self.recent_ref_ms.append(seconds * 1e3)
        self.reference_s += seconds

    def ops(self, count: int, failed: int = 0):
        self.attempted += count
        self.failed += failed

    def fail(self, count: int, problem: str):
        self.failed += count
        self.problems.append(problem)


def _pretrain_config(kind: str, epochs: int, partitions: int = 1):
    return pretrain.PretrainConfig(
        score_fn=kind, epochs=epochs, lr=2e-3, partitions=partitions,
        link_filter=pretrain.LinkFilter.restricted(["binding_to"]),
        policy=gnn.FlowPolicy.controlled(), seed=0,
    )


def _train(run: Run, graph, table, cfg):
    run.ops(1)
    t0 = time.perf_counter()
    result = pretrain.train(graph, table, cfg)
    run.train_s += time.perf_counter() - t0
    return result


def _save(run: Run, result, path: Path):
    ckpt = pretrain.Checkpoint.from_result(result)
    pretrain.save_checkpoint(ckpt, str(path))
    run.digests[path.name] = sha256_file(path)
    return ckpt


def _graph_setup(inputs: Path, run: Run):
    run.ops(1)  # the KG build
    text = (inputs / "graph.nt").read_text(encoding="utf-8")
    graph = schema.parse_ntriples(text)
    table = handlers.compute_initial_embeddings(graph, handlers.default_registry(), entity_dim=64)
    return {"text": text, "graph": graph, "table": table}


def _check_ntriples_round_trip(run: Run, graph, text: str):
    if schema.to_ntriples(graph) != text:
        run.fail(1, "N-Triples round trip changed the graph text")


def setup_dta_grid(inputs: Path, size: dict, run: Run, out: Path):
    state = _graph_setup(inputs, run)
    # named explicitly: the default name is the path, which the report would then
    # carry, so the report bytes would depend on where the checkout lives
    state["dataset"] = downstream.load_affinity_tsv(str(inputs / "affinity.tsv"), name="affinity.tsv")
    return state


def setup_kg_partitioned(inputs: Path, size: dict, run: Run, out: Path):
    return _graph_setup(inputs, run)


def setup_cold_infer(inputs: Path, size: dict, run: Run, out: Path):
    """Build the KG from schema sources, embed it, pretrain briefly and save."""
    run.ops(1)  # the KG build
    spec = schema.parse_schema((inputs / "schema.json").read_text(encoding="utf-8"), base_dir=inputs)
    graph, report = schema.build_graph(spec, base_dir=inputs)
    graph = kg.resolve_same_as(graph)
    table = handlers.compute_initial_embeddings(graph, handlers.default_registry(), entity_dim=64)
    result = _train(run, graph, table, _pretrain_config("distmult", size["epochs"]))
    _save(run, result, out / "cold.ckpt.json")
    return {"graph": graph, "report": report, "ckpts": [out / "cold.ckpt.json"]}


def body_dta_grid(state, size: dict, run: Run, out: Path, serve: Serve):
    """Each checkpoint is served once it is saved and all three again after the
    downstream fits, so that load and infer samples are spread over the pass."""
    _check_ntriples_round_trip(run, state["graph"], state["text"])
    registry = handlers.default_registry()
    checkpoints, paths = [], []
    share = len(serve.values) // (len(SCORERS) + 1)
    for kind in SCORERS:
        cfg = _pretrain_config(kind, size["epochs"])
        result = _train(run, state["graph"], state["table"], cfg)
        path = out / f"{kind}.ckpt.json"
        checkpoints.append((kind, _save(run, result, path)))
        paths.append(path)
        serve([path], share)

    ds_cfg = downstream.DownstreamConfig(
        lr=1e-3, steps=size["steps"], batch=128,
        init_hidden=(64, 32), gnn_hidden=(64, 64), eval_every=100,
    )
    fits = size["fit_seeds"] * (1 + len(SCORERS))
    run.ops(fits)
    t0 = time.perf_counter()
    report = downstream.run_benchmark(
        state["dataset"], downstream.SplitSpec("random", seed=0), checkpoints, registry,
        ds_cfg, seeds=range(size["fit_seeds"]), graph=state["graph"],
    )
    run.sample("downstream_s", time.perf_counter() - t0)
    for name, text in (("report.jsonl", report.to_jsonl()), ("report.txt", report.to_text())):
        (out / name).write_text(text, encoding="utf-8", newline="\n")
        run.digests[name] = sha256_file(out / name)
    _check_report(run, report, size["fit_seeds"])
    serve(paths)


def _check_report(run: Run, report, fit_seeds: int):
    rows = {r["model"]: r for r in report.rows}
    missing = [name for name in REPORT_ROWS if name not in rows]
    if missing:
        run.fail(fit_seeds * (1 + len(SCORERS)), f"report lacks rows {missing}")
        return
    for name in REPORT_ROWS:
        if not all(math.isfinite(rows[name][k]) for k in ("pearson", "spearman", "mse")):
            run.fail(fit_seeds, f"report row {name} has non-finite metrics")
    baseline = rows["baseline"]["pearson"]
    if not rows["ensemble"]["pearson"] > baseline:
        run.fail(fit_seeds * len(SCORERS), "the ensemble does not beat the baseline")
    gains = {k: rows[k]["pearson"] - baseline for k in SCORERS}
    run.values.update({f"gain_{k}": g for k, g in gains.items()})
    run.values["pearson_gain"] = min(gains.values())


def body_kg_partitioned(state, size: dict, run: Run, out: Path, serve: Serve):
    _check_ntriples_round_trip(run, state["graph"], state["text"])
    cfg = _pretrain_config("distmult", size["epochs"], partitions=size["partitions"])
    result = _train(run, state["graph"], state["table"], cfg)
    path = out / "partitioned.ckpt.json"
    _save(run, result, path)
    log = "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.log)
    (out / "train_log.jsonl").write_text(log, encoding="utf-8", newline="\n")
    run.digests["train_log.jsonl"] = sha256_file(out / "train_log.jsonl")
    expected = {(e, p) for e in range(size["epochs"]) for p in range(size["partitions"])}
    keys = [(row["epoch"], row["partition"]) for row in result.log]
    if len(keys) != len(expected) or set(keys) != expected:
        run.fail(1, f"training log has {len(keys)} rows, expected one per (epoch, partition)")
    bad = [k for k, row in zip(keys, result.log)
           if not all(isinstance(row[f], float) and math.isfinite(row[f]) for f in ("train_loss", "val_loss"))]
    if bad:
        run.fail(1, f"training log rows {bad[:3]} lack finite losses")
    serve([path])


def body_cold_infer(state, size: dict, run: Run, out: Path, serve: Serve):
    if state["report"].errors:
        run.fail(1, f"schema build reported row errors: {state['report'].errors[:2]}")
    if not state["graph"].aliases:
        run.fail(1, "sameAs resolution collapsed nothing")
    text = schema.to_ntriples(state["graph"])
    (out / "graph.nt").write_text(text, encoding="utf-8", newline="\n")
    run.digests["graph.nt"] = sha256_file(out / "graph.nt")
    _check_ntriples_round_trip(run, schema.parse_ntriples(text), text)
    serve(state["ckpts"])


class Serve:
    """Reload checkpoints and embed unseen values, one call at a time.

    Each call serves the next `count` values (all that are left by default). Loads
    and `gnn.infer` calls alternate (a load, then the next share of values with the
    checkpoint just loaded), so both kinds of sample span the stage and not one
    short stretch of it. The first load of each checkpoint must serialise back to
    the saved bytes, and in `finish` the first values are embedded a second time
    and must give bit-identical vectors.
    """

    def __init__(self, run: Run, values: list[tuple[str, str]], loads_each: int):
        self.run, self.values, self.loads_each = run, values, loads_each
        self.registry = handlers.default_registry()
        self.digest = hashlib.sha256()
        self.served = 0
        self.checked: set[Path] = set()
        self.recheck = None

    def __call__(self, paths: list[Path], count: int | None = None):
        run = self.run
        end = len(self.values) if count is None else self.served + count
        values, self.served = self.values[self.served:end], end
        n_loads = self.loads_each * len(paths)
        for i in range(n_loads):
            path = paths[i % len(paths)]
            run.calibrate()
            run.ops(1)
            t0 = time.perf_counter()
            try:
                ckpt = pretrain.load_checkpoint(str(path))
            except Exception as exc:  # a failed load is counted, the stage goes on
                run.fail(1, f"load_checkpoint({path.name}) raised {exc!r}")
                continue
            run.sample_latency("ckpt_load_ms", (time.perf_counter() - t0) * 1e3)
            if path not in self.checked:
                self.checked.add(path)
                if pretrain.checkpoint_to_json(ckpt) != path.read_text(encoding="utf-8"):
                    run.fail(1, f"{path.name} does not re-serialise to the saved bytes")
            share = values[i * len(values) // n_loads:(i + 1) * len(values) // n_loads]
            outputs = _infer_each(run, ckpt, share, self.registry, self.digest)
            if self.recheck is None:
                self.recheck = (ckpt, share[:INFER_RECHECKS], outputs[:INFER_RECHECKS])

    def finish(self):
        if self.recheck is not None:
            ckpt, share, outputs = self.recheck
            for (modality, value), first in zip(share, outputs):
                self.run.ops(1)
                again = gnn.infer(ckpt.params, ckpt.policy, value, modality, self.registry)
                if first is None or any(a.tobytes() != b.tobytes() for a, b in zip(again, first)):
                    self.run.fail(1, f"infer({modality}) is not bit-identical on a repeated value")
        self.run.digests["infer_vectors"] = self.digest.hexdigest()


def _infer_each(run: Run, ckpt, values, registry, digest) -> list:
    outputs = []
    for i, (modality, value) in enumerate(values):
        if i % REFERENCE_EVERY == REFERENCE_EVERY - 1:
            run.calibrate()
        run.ops(1)
        t0 = time.perf_counter()
        try:
            out = gnn.infer(ckpt.params, ckpt.policy, value, modality, registry)
        except Exception as exc:  # a failed call is counted, the stream goes on
            run.fail(1, f"infer({modality}) raised {exc!r}")
            outputs.append(None)
            continue
        run.sample_latency("infer_ms", (time.perf_counter() - t0) * 1e3)
        if not all(np.isfinite(v).all() for v in out):
            run.fail(1, f"infer({modality}) returned non-finite values")
        for v in out:
            digest.update(v.tobytes())
        outputs.append(out)
    return outputs


SETUPS = {"dta-grid": setup_dta_grid, "kg-partitioned": setup_kg_partitioned, "cold-infer": setup_cold_infer}
BODIES = {"dta-grid": body_dta_grid, "kg-partitioned": body_kg_partitioned, "cold-infer": body_cold_infer}


def one_pass(workload: str, inputs: Path, out: Path, size: dict, run: Run):
    """Set-up then body; returns (set-up seconds, whole-pass seconds). The pass
    takes a reference sample before it starts, before each checkpoint load and
    after every `REFERENCE_EVERY` infer calls; those inside it are left out of its
    time."""
    values = [tuple(line.split("\t", 1)) for line in
              (inputs / "unseen.tsv").read_text(encoding="utf-8").splitlines()]
    run.calibrate()
    run.reference_s = 0.0
    t0 = time.perf_counter()
    state = SETUPS[workload](inputs, size, run, out)
    t_setup = time.perf_counter() - t0
    serve = Serve(run, values, size["loads"])
    BODIES[workload](state, size, run, out, serve)
    serve.finish()
    t_pass = time.perf_counter() - t0 - run.reference_s
    run.sample("pretrain_s", run.train_s)
    run.train_s = 0.0
    return t_setup, t_pass


def measure(workload: str, inputs: Path, out: Path, seconds: float,
            sizes: dict | None = None, tracer=None) -> dict:
    """Run the workload and return its raw samples, checks and digests. With a
    tracer installed, run one set-up and one body and add the layer figures."""
    traced = tracer is not None
    size = {**SIZES[workload], **(sizes or {})}
    out.mkdir(parents=True, exist_ok=True)
    run = Run(Reference())
    passes: list[dict[str, str]] = []
    t_start = time.perf_counter()
    while True:
        run.digests = {}
        t_setup, t_pass = one_pass(workload, inputs, out, size, run)
        run.sample("setup_s", t_setup)
        run.sample("total_s", t_pass)
        passes.append(run.digests)
        elapsed = time.perf_counter() - t_start
        if traced or elapsed + t_pass > seconds:
            break
    while not traced and (len(run.samples["setup_s"]) < SETUP_SAMPLES
                          or sum(run.samples["setup_s"]) < SETUP_MIN_S):
        extra = Run()  # a set-up on its own, timed like the one in a pass
        t0 = time.perf_counter()
        SETUPS[workload](inputs, size, extra, out)
        run.sample("setup_s", time.perf_counter() - t0)
        if extra.train_s:
            extra.sample("pretrain_s", extra.train_s)
        for name, values in extra.samples.items():
            run.samples.setdefault(name, []).extend(values)
        run.ops(extra.attempted, extra.failed)
        run.problems.extend(extra.problems)
        if any(passes[0].get(name) != digest for name, digest in extra.digests.items()):
            run.fail(1, "a repeated set-up wrote different bytes")
    for i, digests in enumerate(passes[1:], start=2):
        if digests != passes[0]:
            run.fail(1, f"pass {i} produced different bytes than pass 1")
    result = {
        "workload": workload,
        "passes": len(passes),
        "samples": run.samples,
        "values": run.values,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digests": passes[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if traced:
        result["layers"] = tracer.layers()
        result["counters"] = dict(tracer.counters)
        result["infer_durations_ms"] = [d * 1e3 for d in tracer.durations("gnn.infer")]
    return result


def environment() -> dict:
    blas = None
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True, choices=sorted(SIZES))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    mea = sub.add_parser("measure")
    mea.add_argument("--workload", required=True, choices=sorted(SIZES))
    mea.add_argument("--inputs", required=True)
    mea.add_argument("--out", required=True)
    mea.add_argument("--seconds", type=float, required=True)
    mea.add_argument("--trace", type=int, choices=(0, 1), required=True)
    mea.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if args.command == "generate":
        generate(args.workload, args.seed, Path(args.out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.workload).install(extra_modules=[sys.modules[__name__]])
    try:
        result = measure(args.workload, Path(args.inputs), Path(args.out), args.seconds,
                         tracer=tracer)
    except Exception:  # reported to run.py, which fails the run
        result = {"workload": args.workload, "error": traceback.format_exc()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(Path(args.out) / "trace.jsonl")
    Path(args.result).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
