"""Pin BLAS to one thread before numpy loads, so test timings do not depend on
how many cores are idle (OpenBLAS threads spin when the cores are shared)."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sbmlab.model import Graph  # noqa: E402


@pytest.fixture
def parse_edge_list():
    """Parse the documented edge-list text: an 'n m' header, then m rows 'u v'.

    The edges go through `Graph`, which checks their order, u < v and
    duplicates; the row count must match the header.
    """

    def parse(path) -> Graph:
        rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
        (n, m), edges = rows[0], rows[1:]
        assert edges.shape == (m, 2)
        return Graph(int(n), edges)

    return parse
