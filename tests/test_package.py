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


# import every command module, then touch the KD-tree name, then compare
# H95 on two small masks with the value scipy's cKDTree gives directly
SCIPY_PROBE = """
import sys
import numpy as np
import wmhseg.cli
from wmhseg import metrics
from wmhseg.acceptance import oracle_border
from wmhseg.volume_io import BinaryMask3D
print(any(name.split(".")[0] == "scipy" for name in sys.modules))
print(hasattr(metrics, "cKDTree"), "scipy" in sys.modules)
from scipy.spatial import cKDTree
print(metrics.cKDTree is cKDTree)
spacing = (1.0, 2.0, 3.0)
a, b = np.zeros((2, 6, 7, 5), dtype=np.uint8)
a[1:4, 1:5, 1:3] = 1
b[2:6, 2:7, 2:5] = 1
b[0, 0, 0] = 1
pa, pb = (oracle_border(m.astype(bool)) * spacing for m in (a, b))
def directed(src, dst):
    d = np.sort(cKDTree(dst).query(src)[0])
    return d[(19 * len(d) + 19) // 20 - 1]
print(repr(metrics.h95(BinaryMask3D(data=a, spacing=spacing),
                       BinaryMask3D(data=b, spacing=spacing))))
print(repr(float(max(directed(pa, pb), directed(pb, pa)))))
"""


def test_scipy_loads_on_first_kdtree_access():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split("\n")
    assert out[0] == "False"  # no command module imports scipy
    assert out[1] == "True True"
    assert out[2] == "True"
    assert float(out[3]) > 0 and out[3] == out[4]
