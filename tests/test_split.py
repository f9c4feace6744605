import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmlab.model import Graph, SbmParams, edge_prob_matrix, sample_er, sample_ssbm
from sbmlab.seeds import stream_rng
from sbmlab.split import (
    EdgeSplit,
    decouple,
    decoupling_diagnostics,
    subsample_edges,
    write_edge_split,
)


def one_edge_graph():
    return Graph(2, np.array([[0, 1]]))


def split_from_bits(y1_bit, y2_bit, eta=0.5):
    e = np.array([[0, 1]])
    empty = np.empty((0, 2), dtype=np.int64)
    return EdgeSplit(
        Graph(2, e if y1_bit else empty),
        Graph(2, e if y2_bit else empty),
        eta,
    )


def test_subsample_rejects_bad_eta():
    with pytest.raises(ValueError):
        subsample_edges(one_edge_graph(), 0.0, seed=1)
    with pytest.raises(ValueError):
        subsample_edges(one_edge_graph(), 1.0, seed=1)


def test_subsample_partition_identity():
    g, _ = sample_ssbm(SbmParams(200, 6.0, eps=0.5, k=2), seed=4)
    sp = subsample_edges(g, 0.3, seed=9)
    assert sp.y1.edge_count + sp.y2.edge_count == g.edge_count
    merged = np.vstack([sp.y1.edges, sp.y2.edges])
    merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
    assert np.array_equal(merged, g.edges)


@pytest.mark.parametrize(
    "g", [sample_er(300, 10.0, seed=6), Graph(30, np.empty((0, 2), dtype=np.int64))], ids=["er", "edgeless"]
)
def test_subsample_halves_are_the_masked_rows(g):
    # y1 and y2 are the rows edges[keep] and edges[~keep] of the split's stream, in order
    sp = subsample_edges(g, 0.2, seed=11)
    keep = stream_rng(11, "edge-split").random(g.edge_count) < 1.0 - 0.2
    assert np.array_equal(sp.y1.edges, g.edges[keep])
    assert np.array_equal(sp.y2.edges, g.edges[~keep])


def test_subsample_single_edge_frequency():
    # Bernoulli oracle: edge kept in y1 with probability 1 - eta = 0.5
    g = one_edge_graph()
    trials = 10_000
    kept = sum(subsample_edges(g, 0.5, seed=s).y1.edge_count for s in range(trials))
    sigma = math.sqrt(trials * 0.25)
    assert abs(kept - trials * 0.5) <= 4 * sigma


def test_subsample_thinning_density():
    # thinning of independent Bernoullis: y1 ~ G(n, (1 - eta) d/n)
    n, d, eta = 1500, 8.0, 0.3
    npairs = n * (n - 1) // 2
    total = 0
    draws = 10
    for s in range(draws):
        g = sample_er(n, d, seed=s)
        total += subsample_edges(g, eta, seed=s).y1.edge_count
    p1 = (1 - eta) * d / n
    sigma = math.sqrt(draws * npairs * p1 * (1 - p1))
    assert abs(total - draws * npairs * p1) <= 4 * sigma


def test_decouple_hand_values():
    # p = 0.1, eta = 0.5, edge kept in y1: Y2 = 0 forced, Ytilde2 = 0.05
    p = np.array([[0.0, 0.1], [0.1, 0.0]])
    yt = decouple(split_from_bits(1, 0), p)
    assert yt[0, 1] == pytest.approx(0.05, abs=1e-15)

    # p = 0.1, eta = 0.5, no edge in y1: E[Y2|Y1=0] = 0.05/0.95
    cond = 0.05 / 0.95
    yt = decouple(split_from_bits(0, 0), p)
    assert yt[0, 1] == pytest.approx(0.05 - cond, abs=1e-12)
    yt = decouple(split_from_bits(0, 1), p)
    assert yt[0, 1] == pytest.approx(1.0 + 0.05 - cond, abs=1e-12)

    # p = 0: nothing to decouple
    yt = decouple(split_from_bits(0, 0), np.zeros((2, 2)))
    assert yt[0, 1] == 0.0


def test_decouple_rejects_p_one():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        decouple(split_from_bits(0, 0), p)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.0, 0.95),
    st.floats(0.05, 0.95),
    st.sampled_from([(1, 0), (0, 1), (0, 0)]),
)
def test_decouple_moment_and_gap_bounds(p_val, eta, bits):
    """Analytic check over the three reachable (Y1, Y2) outcomes."""
    p = np.array([[0.0, p_val], [p_val, 0.0]])
    yt = decouple(split_from_bits(*bits, eta=eta), p)[0, 1]
    y2 = float(bits[1])
    # pointwise gap bound from the formula itself
    bound = eta * p_val / (1.0 - (1.0 - eta) * p_val)
    assert abs(yt - y2) <= bound + 1e-12
    if p_val <= 0.5:
        assert abs(yt - y2) <= 2 * eta * p_val + 1e-12


def test_decouple_exact_mean_identity():
    # E[Ytilde2] = eta * p to 1e-12, summing the three reachable outcomes
    for p_val in (0.01, 0.1, 0.4, 0.9):
        for eta in (0.1, 0.5, 0.9):
            p = np.array([[0.0, p_val], [p_val, 0.0]])
            probs = {
                (1, 0): p_val * (1 - eta),
                (0, 1): p_val * eta,
                (0, 0): 1 - p_val,
            }
            mean = sum(
                w * decouple(split_from_bits(*bits, eta=eta), p)[0, 1]
                for bits, w in probs.items()
            )
            assert mean == pytest.approx(eta * p_val, abs=1e-12)
            # conditional means match eta * p as well (uncorrelated with Y1)
            mean_given_y1_0 = (
                probs[(0, 1)] * decouple(split_from_bits(0, 1, eta=eta), p)[0, 1]
                + probs[(0, 0)] * decouple(split_from_bits(0, 0, eta=eta), p)[0, 1]
            ) / (probs[(0, 1)] + probs[(0, 0)])
            assert mean_given_y1_0 == pytest.approx(eta * p_val, abs=1e-12)


def test_decoupling_diagnostics_bounds():
    params = SbmParams(150, 6.0, eps=0.5, k=2, eta=0.2)
    rep = decoupling_diagnostics(params, trials=120, seed=0)
    # mean gap is 0 by construction; SE of the pooled mean is dominated by
    # the Bernoulli(eta p) fluctuation of Y2 entries
    se = math.sqrt(params.eta * params.p_in / rep.n_entries)
    assert abs(rep.mean_gap) <= 4 * se
    p_max = 2 * params.d / params.n
    assert rep.var_gap <= 10 * params.eta**2 * p_max**3
    assert abs(rep.corr_with_y1) <= 4 / math.sqrt(rep.n_entries)


def test_decoupling_diagnostics_adjacent_masters_draw_disjoint_graphs(monkeypatch):
    # seeding trial t with master + t made masters s and s + 1 share 99 of 100 draws
    import sbmlab.model as model
    import sbmlab.split as split

    seen = []

    def spy(params, seed, *args, **kwargs):
        seen.append(seed)
        return sample_ssbm(params, seed, *args, **kwargs)

    monkeypatch.setattr(model, "sample_ssbm", spy)
    monkeypatch.setattr(split, "sample_ssbm", spy, raising=False)
    draws = {}
    for master in (5, 6):
        seen.clear()
        decoupling_diagnostics(SbmParams(30, 3.0, eps=0.5, k=2, eta=0.2), trials=100, seed=master)
        draws[master] = set(seen)
    assert len(draws[5]) == len(draws[6]) == 100
    assert not draws[5] & draws[6]


def test_diagnostics_requires_enough_trials():
    with pytest.raises(ValueError):
        decoupling_diagnostics(SbmParams(50, 3.0), trials=10, seed=0)


def test_split_serialization_roundtrip(tmp_path, parse_edge_list):
    g, _ = sample_ssbm(SbmParams(80, 5.0, eps=0.4, k=2), seed=21)
    sp = subsample_edges(g, 0.25, seed=42)
    paths = (tmp_path / "y1.txt", tmp_path / "y2.txt", tmp_path / "meta.txt")
    write_edge_split(sp, *paths, seed=42)
    assert paths[2].read_text() == "eta=0.25 seed=42\n"
    for path, part in zip(paths[:2], (sp.y1, sp.y2)):
        g2 = parse_edge_list(path)
        assert g2.n == 80 and np.array_equal(g2.edges, part.edges)


def test_decouple_on_a_split_is_symmetric():
    from sbmlab.model import SbmParams, edge_prob_matrix, sample_ssbm

    p = SbmParams(40, 5.0, eps=0.5, k=2)
    g, lab = sample_ssbm(p, seed=2)
    sp = subsample_edges(g, 0.2, seed=3)
    yt = decouple(sp, edge_prob_matrix(p, lab))
    assert yt.shape == (p.n, p.n)
    assert np.array_equal(yt, yt.T)
    assert not np.any(np.diag(yt))
