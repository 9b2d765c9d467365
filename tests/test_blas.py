"""Importing kgdta pins numpy's bundled OpenBLAS to one thread, whatever
OPENBLAS_NUM_THREADS says, and forked workers inherit the pin."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgdta
from kgdta import blas

pytestmark = pytest.mark.skipif(blas.threads() is None,
                                reason="numpy uses a BLAS other than its bundled OpenBLAS")

CHILD = """
import multiprocessing
import kgdta


def threads(_):
    return kgdta.blas.threads()


if __name__ == "__main__":
    with multiprocessing.get_context("fork").Pool(1) as pool:
        print(threads(None), pool.map(threads, [None])[0])
"""


def test_import_pins_one_thread():
    assert blas.threads() == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_pin_overrides_the_environment_and_reaches_forked_workers():
    src = str(Path(kgdta.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]
