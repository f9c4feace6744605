"""Arithmetic of the benchmark: trial aggregates, the output check, layer metrics.

Kept apart from run.py so that its tests run without the program.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

MIB = 1024.0 * 1024.0

# Layers whose self time is charged per trial; "bench" is the root span's own
# remainder (seed derivation, bookkeeping), so the layers account for the whole
# traced wall time of a trial.
LAYERS = ("model", "split", "recover", "learn", "project", "reduce", "bench")
_SPAN_LAYER = {"trial": "bench", "reduce.score": "reduce"}


@dataclass(frozen=True)
class Trial:
    """One closed-loop trial: the draw plus the pipeline call."""

    arm: str  # "P" planted, "Q" null
    index: int
    wall_s: float
    statistic: float
    degenerate: bool  # the report carries the `error` side channel (g = 0)
    recovery_rate: float | None = None
    raised: str | None = None  # exception text when the trial raised


def median_ms(trials, arm: str) -> float:
    walls = [t.wall_s for t in trials if t.arm == arm and t.raised is None]
    return 1000.0 * statistics.median(walls) if walls else 0.0


def trials_per_s(trials, arm: str) -> float:
    """Completed trials of one arm per second of their own wall time."""
    sel = [t for t in trials if t.arm == arm and t.raised is None]
    total = sum(t.wall_s for t in sel)
    return len(sel) / total if total > 0 else 0.0


def arm_z(trials) -> float:
    """Separation z of the P and Q statistics of the trials that did not raise."""
    return separation_z(*([t.statistic for t in trials if t.arm == a and t.raised is None]
                          for a in ("P", "Q")))


def separation_z(p_stats, q_stats) -> float:
    """(mean P - mean Q) / standard error, the bound the learning separation test uses."""
    if len(p_stats) < 2 or len(q_stats) < 2:
        return math.nan
    se = math.sqrt(statistics.variance(p_stats) / len(p_stats)
                   + statistics.variance(q_stats) / len(q_stats))
    gap = statistics.fmean(p_stats) - statistics.fmean(q_stats)
    if se == 0.0:
        return math.inf if gap > 0 else -math.inf
    return gap / se


def trial_problem(t: Trial, delta: float) -> str | None:
    """Why one trial fails the output check, or None when it passes."""
    if t.raised is not None:
        return f"raised {t.raised}"
    if not math.isfinite(t.statistic):
        return f"statistic {t.statistic!r} is not finite"
    if t.degenerate and t.statistic != 0.0:
        return f"degenerate report with statistic {t.statistic!r} (expected 0)"
    if not t.degenerate and t.recovery_rate is not None and not t.recovery_rate >= delta:
        return f"recovery rate {t.recovery_rate!r} below delta {delta}"
    return None


def check_outputs(trials, delta: float, two_arm: bool, min_z: float = 3.0) -> list[str]:
    """Every problem found, per trial and across arms; empty means correct."""
    problems = []
    for t in trials:
        why = trial_problem(t, delta)
        if why is not None:
            problems.append(f"{t.arm}[{t.index}]: {why}")
    if two_arm:
        z = arm_z(trials)
        if not z >= min_z:
            problems.append(f"P-vs-Q separation z = {z:.3f} below {min_z}")
    return problems


def replay_problem(traced: float, untraced: float) -> str | None:
    """The same trial's statistic must agree bit for bit with and without tracing."""
    if traced.hex() != untraced.hex():
        return f"traced statistic {traced!r} != untraced {untraced!r}"
    return None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def trial_layer_ms(spans) -> dict[tuple[str, int], dict[str, float]]:
    """Per trial (arm, index): self milliseconds summed by layer, plus the root's wall."""
    table: dict[tuple[str, int], dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault((s.arm, s.trial), dict.fromkeys(LAYERS, 0.0))
        row[_SPAN_LAYER.get(s.name, s.name)] += 1000.0 * own
        if s.parent is None:
            row["wall"] = 1000.0 * s.duration
    return table


def accounting_problems(spans, rel_tol: float = 1e-9) -> list[str]:
    """Layer self times must add up to each trial's traced wall time."""
    problems = []
    for (arm, index), row in sorted(trial_layer_ms(spans).items()):
        total = sum(row[layer] for layer in LAYERS)
        if abs(total - row["wall"]) > rel_tol * max(row["wall"], 1.0):
            problems.append(f"{arm}[{index}]: layers sum to {total} ms of {row['wall']} ms")
    return problems


def per_layer(spans, memory_spans, head: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the traced trials.

    Times are means per traced trial (per arm where the name says so); shares
    are a layer's self time over the traced wall time of the trials.  Counts
    are taken over the first `head` trials of each arm only, which every run
    completes, so at a fixed seed they repeat exactly.  Memory peaks come from
    `memory_spans`, a separate pass recorded under tracemalloc.
    """
    rows = trial_layer_ms(spans)
    own = self_times(spans)
    every = list(rows.values())
    by_arm = {a: [r for (arm, _), r in rows.items() if arm == a] for a in ("P", "Q")}

    def named(name, head_only=False):
        return [(s, o) for s, o in zip(spans, own)
                if s.name == name and (not head_only or s.trial < head)]

    def ms_per_trial(name):
        return 1000.0 * sum(o for _, o in named(name)) / len(every) if every else 0.0

    def share(layer, selected):
        wall = sum(r["wall"] for r in selected)
        return sum(r[layer] for r in selected) / wall if wall > 0 else 0.0

    def peak_mib(*names):
        return max((s.peak_bytes for s in memory_spans if s.name in names), default=0) / MIB

    def count(name, pred):
        return float(sum(1 for s, _ in named(name, head_only=True) if pred(s)))

    def sweeps(arm):
        return float(sum(s.attrs.get("sweeps", 0) for s, _ in named("project", True) if s.arm == arm))

    calls = named("project", head_only=True)
    ok = [(s, o) for s, o in named("project") if "sweeps" in s.attrs]
    total_sweeps = sum(s.attrs["sweeps"] for s, _ in ok)
    return {
        "model.ms": ms_per_trial("model"),
        "model.edges": float(sum(s.attrs.get("edges", 0) for s, _ in named("model", True))),
        "model.peak_mib": peak_mib("model"),
        "split.ms": ms_per_trial("split"),
        "split.peak_mib": peak_mib("split"),
        "recover.share": share("recover", every),
        "recover.peak_mib": peak_mib("recover"),
        "learn.share": share("learn", every),
        "project.share": share("project", every),
        "project.P.ms": statistics.fmean(r["project"] for r in by_arm["P"]) if by_arm["P"] else 0.0,
        "project.Q.share": share("project", by_arm["Q"]),
        "project.P.sweeps": sweeps("P"),
        "project.Q.sweeps": sweeps("Q"),
        "project.ms_per_sweep": 1000.0 * sum(o for _, o in ok) / total_sweeps if total_sweeps else 0.0,
        "project.ok_ratio": count("project", lambda s: "raised" not in s.attrs) / len(calls) if calls else 0.0,
        "project.infeasible": count("project", lambda s: s.attrs.get("raised") == "ProjectionInfeasibleError"),
        "project.no_convergence": count("project", lambda s: s.attrs.get("raised") == "ProjectionDidNotConverge"),
        "project.backend.subspace": count("project", lambda s: s.attrs.get("backend") == "subspace"),
        "project.backend.dense": count("project", lambda s: s.attrs.get("backend") == "dense"),
        "project.peak_mib": peak_mib("project"),
        "reduce.score_ms": ms_per_trial("reduce.score"),
        "reduce.self_ms": ms_per_trial("reduce"),
        "reduce.peak_mib": peak_mib("reduce", "reduce.score"),
        "bench.ms": ms_per_trial("trial"),
        "trial.P.ms": statistics.median(r["wall"] for r in by_arm["P"]) if by_arm["P"] else 0.0,
        "trial.degenerate_frac": (count("trial", lambda s: s.attrs.get("degenerate", False))
                                  / len(named("trial", True)) if named("trial", True) else 0.0),
        "trace.overhead_frac": overhead_frac,
    }
