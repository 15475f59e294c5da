import os
import subprocess
import sys
from pathlib import Path

import pytest

import wmhseg

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(wmhseg.__file__).resolve().parents[1])

# import the package before numpy, run one GEMM, then report the thread
# count and the BLAS variables
PROBE = """
import os, wmhseg, numpy as np
a = np.ones((300, 300))
a @ a
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0)
print(*(os.environ[v] for v in {vars!r}))
"""


def probe(**env_vars) -> tuple[int, list[str]]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(vars=BLAS_VARS)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    return int(out[0]), out[1].split()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_one_blas_thread_by_default():
    threads, values = probe()
    assert values == ["1", "1", "1"]
    assert threads == 1


def test_explicit_blas_threads_win():
    _, values = probe(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
    assert values == ["2", "1", "3"]
