"""Tests for the benchmark's layer timer and its agreement with BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import inspect
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import kgdta  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED_MODULES, Tracer  # noqa: E402

TINY_DTA = {"epochs": 3, "steps": 5, "fit_seeds": 1, "loads": 1, "infers": 4}


@pytest.fixture(scope="module")
def dta_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("dta-inputs")
    workloads.generate("dta-grid", 5, inputs, TINY_DTA)
    return inputs


def _traced_measure(workload, inputs, out, sizes):
    tracer = Tracer(workload).install(extra_modules=[workloads])
    try:
        result = workloads.measure(workload, inputs, out, 0.0, sizes, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def test_build_mp_calls_on_dta_grid(dta_inputs, tmp_path):
    tracer, _ = _traced_measure("dta-grid", dta_inputs, tmp_path, TINY_DTA)
    calls = [i for i, span in enumerate(tracer.spans) if span[0] == "gnn.build_mp"]
    by_caller = {"pretrain.train": 0, "downstream.CheckpointProvider": 0, "gnn.infer": 0}
    for i in calls:
        for name in _ancestors(tracer.spans, i):
            if name in by_caller:
                by_caller[name] += 1
                break
    scorers = len(workloads.SCORERS)
    # one build per epoch's validation plus the partition build, per scorer
    assert by_caller["pretrain.train"] == scorers * (TINY_DTA["epochs"] + 1)
    assert by_caller["downstream.CheckpointProvider"] == scorers
    # every value once, plus a second pass over the values served after the first
    # load, which follows the first pretrain
    first_share = TINY_DTA["infers"] // (scorers + 1) // TINY_DTA["loads"]
    rechecks = min(workloads.INFER_RECHECKS, first_share)
    assert by_caller["gnn.infer"] == TINY_DTA["infers"] + rechecks
    assert tracer.calls["gnn.build_mp"] == len(calls) == sum(by_caller.values())


def test_every_import_site_binding_is_wrapped():
    traced_modules = {f"kgdta.{m}" for m in TRACED_MODULES}
    sites = [kgdta, workloads, *(m for n, m in sys.modules.items() if n.startswith("kgdta."))]

    def unwrapped():
        found = []
        for site in sites:
            for attr, obj in vars(site).items():
                if (inspect.isfunction(obj) and obj.__module__ in traced_modules
                        and not obj.__name__.startswith("_")
                        and not hasattr(obj, "__traced_name__")):
                    found.append(f"{site.__name__}.{attr}")
        return found

    assert unwrapped(), "nothing to wrap: the check would pass vacuously"
    tracer = Tracer("test").install(extra_modules=[workloads])
    try:
        assert unwrapped() == []
        assert kgdta.pretrain.build_mp.__traced_name__ == "gnn.build_mp"
        assert kgdta.gnn.build_mp.__traced_name__ == "gnn.build_mp"
        assert kgdta.train.__traced_name__ == "pretrain.train"
        assert kgdta.downstream.CheckpointProvider.__init__.__traced_name__ == (
            "downstream.CheckpointProvider")
    finally:
        tracer.uninstall()
    assert not hasattr(kgdta.pretrain.build_mp, "__traced_name__")
    assert not hasattr(kgdta.downstream.CheckpointProvider.__init__, "__traced_name__")


def test_outputs_identical_with_and_without_tracing(dta_inputs, tmp_path):
    plain = workloads.measure("dta-grid", dta_inputs, tmp_path / "plain", 0.0, TINY_DTA)
    _, traced = _traced_measure("dta-grid", dta_inputs, tmp_path / "traced", TINY_DTA)
    names = {f"{k}.ckpt.json" for k in workloads.SCORERS} | {"report.jsonl", "report.txt"}
    assert names <= set(plain["digests"])
    assert traced["digests"] == plain["digests"]
    # one reference sample before the pass and one before each of its 6 loads (too
    # few infer calls per load for more)
    assert len(plain["samples"]["ref_ms"]) == 7 * plain["passes"]


def test_outputs_do_not_depend_on_where_the_inputs_live(dta_inputs, tmp_path):
    moved = tmp_path / "elsewhere" / "inputs"
    shutil.copytree(dta_inputs, moved)
    here = workloads.measure("dta-grid", dta_inputs, tmp_path / "here", 0.0, TINY_DTA)
    there = workloads.measure("dta-grid", moved, tmp_path / "there", 0.0, TINY_DTA)
    assert there["digests"] == here["digests"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_times_are_scaled_by_the_reference_and_memory_is_not():
    ref = run.REFERENCE_MS
    plain = {"peak_rss_mb": 100.0, "samples": {
        "setup_s": [1.0], "pretrain_s": [2.0], "total_s": [4.0],
        "ckpt_load_ms": [8.0, 8.0, 8.0], "ckpt_load_ms_ref": [ref, 2 * ref, 2 * ref],
        "infer_ms": [1.0, 1.0, 1.0], "infer_ms_ref": [2 * ref, 4 * ref, 4 * ref],
        "ref_ms": [2 * ref, 2 * ref, 4 * ref]}}
    e2e = run.end_to_end(plain)
    assert set(e2e) == set(run.END_TO_END)
    # run-level scale 1/2; each latency scaled by the reference time stored with it
    assert (e2e["setup_s"], e2e["pretrain_s"], e2e["total_s"], e2e["ckpt_load_ms"]) == (0.5, 1.0, 2.0, 4.0)
    assert (e2e["infer_p50_ms"], e2e["infer_p90_ms"]) == (0.25, pytest.approx(0.45))
    assert e2e["peak_rss_mb"] == 100.0


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert run.percentile(values, 50.0) == 3.5
    assert run.percentile(values, 90.0) == pytest.approx(7.5)
    assert run.percentile([2.0], 99.0) == 2.0
