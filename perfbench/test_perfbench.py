"""Tests for the benchmark's own arithmetic: python -m pytest perfbench"""

import math
import tracemalloc

import pytest

import summary
from summary import Trial
from tracer import Recorder, Span


def _span(name, start, end, parent=None, trial=0, arm="P", **attrs):
    return Span(name, start, end, parent, trial, arm, attrs=attrs)


def test_self_time_of_nested_spans():
    spans = [
        _span("trial", 0.0, 10.0),             # 0: children cover [1, 4] and [5, 9]
        _span("reduce", 1.0, 4.0, parent=0),   # 1: children cover [1.5, 2] and [2.5, 3.5]
        _span("split", 1.5, 2.0, parent=1),
        _span("project", 2.5, 3.5, parent=1),
        _span("model", 5.0, 9.0, parent=0),
    ]
    assert summary.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("trial", 0.0, 10.0), _span("a", 1.0, 6.0, parent=0),
             _span("b", 4.0, 8.0, parent=0), _span("c", 9.0, 12.0, parent=0)]
    # children cover [1, 8] and [9, 10] of the parent's interval
    assert summary.self_times(spans)[0] == pytest.approx(2.0)


def test_layers_account_for_trial_wall():
    spans = [
        _span("trial", 0.0, 1.0, trial=3, arm="Q"),
        _span("model", 0.1, 0.2, parent=0, trial=3, arm="Q"),
        _span("reduce", 0.25, 0.95, parent=0, trial=3, arm="Q"),
        _span("project", 0.3, 0.8, parent=2, trial=3, arm="Q"),
        _span("reduce.score", 0.85, 0.9, parent=2, trial=3, arm="Q"),
    ]
    row = summary.trial_layer_ms(spans)[("Q", 3)]
    assert row["wall"] == pytest.approx(1000.0)
    assert row["bench"] == pytest.approx(200.0)
    assert row["reduce"] == pytest.approx(200.0)  # pipeline self 150 + score 50
    assert row["project"] == pytest.approx(500.0)
    assert summary.accounting_problems(spans) == []


def test_recorder_nests_spans_and_records_exceptions():
    rec = Recorder()

    def boom():
        raise ValueError("no")

    with rec.span("trial", trial=7, arm="Q"):
        rec.wrap("split", lambda: 1)()
        with pytest.raises(ValueError):
            rec.wrap("project", boom)()
    root, split, project = rec.spans
    assert root.parent is None and split.parent == 0 and project.parent == 0
    assert (split.trial, split.arm) == (7, "Q")
    assert project.attrs == {"raised": "ValueError"}
    assert root.start <= split.start <= split.end <= project.start <= project.end <= root.end


def test_recorder_self_peak_excludes_children():
    rec = Recorder()
    tracemalloc.start()
    try:
        with rec.span("trial", trial=0, arm="P"):
            with rec.span("model"):
                big = bytearray(8 << 20)
                del big
            small = bytearray(1 << 20)
            del small
    finally:
        tracemalloc.stop()
    root, model = rec.spans
    assert model.peak_bytes >= 8 << 20
    assert (1 << 20) <= root.peak_bytes < 4 << 20


def _trials():
    return [
        Trial("P", 0, 0.30, 900.0, False, 0.5),
        Trial("Q", 0, 1.20, -50.0, False),
        Trial("P", 1, 0.20, 1000.0, False, 0.6),
        Trial("Q", 1, 0.10, 0.0, True),
        Trial("P", 2, 0.40, 1100.0, False, 0.55),
        Trial("Q", 2, 0.70, 20.0, False),
    ]


def test_arm_medians_and_throughput():
    trials = _trials()
    assert summary.median_ms(trials, "P") == pytest.approx(300.0)
    assert summary.median_ms(trials, "Q") == pytest.approx(700.0)
    assert summary.trials_per_s(trials, "P") == pytest.approx(3 / 0.9)
    assert summary.trials_per_s(trials, "Q") == pytest.approx(3 / 2.0)


def test_raised_trials_leave_the_timings():
    trials = _trials() + [Trial("P", 3, 50.0, math.nan, False, raised="RuntimeError: x")]
    assert summary.median_ms(trials, "P") == pytest.approx(300.0)
    assert summary.trials_per_s(trials, "P") == pytest.approx(3 / 0.9)


def test_output_check_accepts_good_trials():
    assert summary.check_outputs(_trials(), delta=0.1, two_arm=True) == []


@pytest.mark.parametrize("bad, expect", [
    (Trial("P", 1, 0.2, math.inf, False, 0.6), "not finite"),
    (Trial("P", 1, 0.2, 1000.0, False, 0.05), "below delta"),
    (Trial("Q", 1, 0.1, 1e-300, True), "expected 0"),
    (Trial("P", 1, 0.2, math.nan, False, raised="ValueError: x"), "raised"),
])
def test_output_check_rejects_a_bad_trial(bad, expect):
    trials = [bad if (t.arm, t.index) == (bad.arm, bad.index) else t for t in _trials()]
    problems = summary.check_outputs(trials, delta=0.1, two_arm=False)
    assert len(problems) == 1 and expect in problems[0]


def test_output_check_rejects_weak_separation():
    trials = [Trial("P", i, 0.1, float(i), False) for i in range(4)]
    trials += [Trial("Q", i, 0.1, float(i) + 0.5, False) for i in range(4)]
    problems = summary.check_outputs(trials, delta=0.1, two_arm=True)
    assert problems and "separation" in problems[0]


def test_replay_check_rejects_a_perturbed_statistic():
    g = 713.2303598796731
    assert summary.replay_problem(g, float(repr(g))) is None
    assert summary.replay_problem(math.nextafter(g, math.inf), g) is not None
    assert summary.replay_problem(-0.0, 0.0) is not None


def test_per_layer_counts_only_the_head():
    spans = []

    def trial(t, arm, sweeps=None, raised=None, degenerate=False):
        root = len(spans)
        spans.append(_span("trial", 10.0 * t, 10.0 * t + 4.0, trial=t, arm=arm, degenerate=degenerate))
        attrs = {"raised": raised} if raised else {"sweeps": sweeps, "backend": "subspace"}
        spans.append(_span("project", 10.0 * t + 1.0, 10.0 * t + 3.0, parent=root, trial=t, arm=arm, **attrs))

    trial(0, "P", sweeps=16)
    trial(0, "Q", raised="ProjectionInfeasibleError", degenerate=True)
    trial(1, "P", sweeps=2)
    trial(1, "Q", sweeps=800)
    trial(2, "Q", raised="ProjectionDidNotConverge", degenerate=True)  # beyond the head
    m = summary.per_layer(spans, [], head=2, overhead_frac=0.01)
    assert m["project.P.sweeps"] == 18.0 and m["project.Q.sweeps"] == 800.0
    assert m["project.infeasible"] == 1.0 and m["project.no_convergence"] == 0.0
    assert m["project.ok_ratio"] == pytest.approx(3 / 4)
    assert m["trial.degenerate_frac"] == pytest.approx(1 / 4)
    assert m["project.share"] == pytest.approx(0.5)
    assert m["project.ms_per_sweep"] == pytest.approx(3 * 2000.0 / 818)
    assert m["bench.ms"] == pytest.approx(2000.0)
