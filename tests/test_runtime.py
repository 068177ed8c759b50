"""The package needs numpy alone at run time, its numbers do not depend on
how many threads numpy's BLAS runs, and a large construction's peak memory
stays bounded.  Each is checked in a fresh interpreter, since an import, a
BLAS thread count or a peak RSS is fixed per process."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, **env) -> str:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src,
               **env)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())

import numpy as np
import intricacy, intricacy.cli
from intricacy import (ConstructionSpec, SystemLaw, entropy_profile_exact,
                       entropy_profile_sampled, expected_subset_entropy,
                       sample_sparse_system)
from intricacy.construction import expected_subset_entropy_detail
from intricacy.laws import _lattice_entropies

law = sample_sparse_system(ConstructionSpec(2, 10, 5, seed=1))
entropy_profile_exact(law).validate()
expected_subset_entropy(2, 12, 6, 3)                  # the whole of 0..n
assert expected_subset_entropy_detail(2, 40, 24, 10).truncated_tail_mass < 1e-12
small = expected_subset_entropy_detail(2, 60, 30, 39)  # mean 2^-9
assert small.truncated_tail_mass < 1e-30
assert abs(small.value - 29.998047666318755) < 1e-12
dense = SystemLaw.dense(3, 4, np.random.default_rng(0).dirichlet(np.ones(81)))
H = _lattice_entropies(dense)
assert abs(H[0]) <= 1e-15 < H[-1]
wide = sample_sparse_system(ConstructionSpec(2, 70, 6, seed=3))
entropy_profile_sampled(wide, [1, 35, 69], 4, seed=0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_without_scipy():
    assert run_python(WITHOUT_SCIPY).strip() == "[]"


THREAD_PROBE = """
from intricacy import (ConstructionSpec, coefficient_table, est_measure,
                       expected_subset_entropy, intricacy_defn,
                       maximizer_search, sample_sparse_system)

law = sample_sparse_system(ConstructionSpec(2, 16, 8, seed=0))
print(repr(intricacy_defn(law, coefficient_table(est_measure(), 16))))
for k in range(23):
    print(repr(expected_subset_entropy(2, 22, 16, k)))
search = maximizer_search(2, 10, coefficient_table(est_measure(), 10),
                          restarts=1, iterations=20, seed=5)
print(repr(search.intricacy))
print(repr(search.law.probs.tolist()))
"""


def test_numbers_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot over more than 10^4 terms across its threads,
    # so a BLAS dot over 2^16 terms, or a BLAS product of the search's
    # 3^5 x 2^5 lattice factors, moves in the last bits with the count
    one = run_python(THREAD_PROBE, OPENBLAS_NUM_THREADS="1")
    two = run_python(THREAD_PROBE, OPENBLAS_NUM_THREADS="2")
    assert one.count("\n") == 26
    assert one == two


MEMORY_PROBE = """
import resource, sys
from intricacy import ConstructionSpec, sample_sparse_system
from intricacy.experiments import threshold_census

law = sample_sparse_system(ConstructionSpec(2, 40, 20, seed=0))
report = threshold_census(law, 0.5, 0.5, 0.1, 20, seed=1)
assert report.samples == 20
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
# kilobytes on Linux, bytes on macOS
print(peak // (1 << 20) if sys.platform == "darwin" else peak // 1024)
"""


def test_large_construction_peak_memory():
    # a (2,40,20) construct and a 20-mask census: 2^20 draws of 40 symbols
    # (40 MB) and their grouped rows, with key words packed one column at
    # a time.  An (n, 40) uint64 copy of the rows would add 320 MB
    pytest.importorskip("resource")
    # the probe is a child of a small interpreter: a process started from
    # this one would count this one's RSS, which Linux carries over fork
    # and exec into ru_maxrss
    launcher = ("import subprocess, sys\n"
                f"subprocess.run([sys.executable, '-c', {MEMORY_PROBE!r}], "
                "check=True)")
    assert int(run_python(launcher)) < 260
