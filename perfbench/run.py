"""Trial-throughput benchmark for sbmlab's testing pipelines.

    python3 perfbench/run.py --workload recovery-c4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  Each workload is a closed loop in this one process, one trial at a
time: a trial is the draw (`sample_ssbm` for the planted arm P, `sample_er`
for the null arm Q, seeds derived as `sbmlab test --seed <seed>` derives them)
plus the pipeline call exactly as `sbmlab test` makes it.  The loop runs
rounds until `--seconds` have passed and at least the workload's head of
rounds is done.  Every round runs a planted trial; a two-arm workload also
runs a null trial in each head round, and only there.  The cost of a null
trial is fixed by its graph but spans more than an order of magnitude, so a
time-bounded null sample cannot give a steady time; a fixed number of null
trials gives counts that repeat exactly at a fixed seed instead, and the
timed metrics come from the planted arm.  OpenBLAS is pinned to one thread.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps each layer's
entry points in spans (see tracer.py), prints the per-layer metrics and
writes the spans to perfbench/out/.  Metric names and units come from
BENCHMARK.json.  Both modes check the outputs; the last stdout line is
the result object and the exit code is 1 when a check fails.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import summary  # noqa: E402
from summary import Trial  # noqa: E402
from tracer import Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seed kept out of development: claims made on development seeds are
# confirmed on this one.
CONFIRM_SEED = 104729


@dataclass(frozen=True)
class Workload:
    route: str  # "recovery" or "learning"
    n: int
    d: float
    null_arm: bool
    head: int  # rounds every run completes; counts are taken over them

    def params(self, SbmParams):
        # The gates' parameters: eps^2 d / k^2 = 4, k = 2, eta = delta = 0.1.
        return SbmParams(self.n, self.d, eps=math.sqrt(16.0 / self.d), k=2, eta=0.1, delta=0.1)


WORKLOADS = {
    # C4 point; Lanczos recovery, the subspace projection and the sampler all
    # carry a share.  No null arm: a null trial here can fall back to the
    # dense solver, up to 2000 sweeps of a 2000 x 2000 eigh, far beyond the
    # time one run may take.
    "recovery-c4": Workload("recovery", 2000, 60.0, null_arm=False, head=4),
    # Dense projection backend, a full 1000 x 1000 eigh per sweep; the draw is
    # about 3% of a trial and recovery does not run.  Null trials are capped at 300
    # sweeps (about 70 s), so the two of the head always fit in a run.
    "learning-n1000": Workload("learning", 1000, 50.0, null_arm=True, head=2),
    # The n^2 regime: sampling over all pairs and dense n x n arrays.  The
    # null arm stays out, its capped sweep runs would bury the sampler.
    "planted-n4000": Workload("recovery", 4000, 60.0, null_arm=False, head=4),
}

# Module-global names sbmlab.reduce calls, and the span (layer) each gets.
REDUCE_HOOKS = (
    ("subsample_edges", "split"),
    ("run_recovery", "recover"),
    ("corr_preserving_projection", "project"),
    ("statistic_from_m_hat", "reduce.score"),
)
_METRIC_PREFIX = {"reduce.score": "reduce.score_ms"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """The package from this checkout's src/; exit 1 when it is not there."""
    src = ROOT / "src"
    if not (src / "sbmlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sbmlab package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import sbmlab.learn
    import sbmlab.model
    import sbmlab.reduce
    import sbmlab.seeds

    if Path(sbmlab.__file__).resolve().parent != (src / "sbmlab").resolve():
        sys.exit(f"perfbench: imported sbmlab from {sbmlab.__file__}, not from {src}")
    return sbmlab


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def make_trial(sb, wl, seed, rec=None):
    """Trial function (arm, t) -> Trial; with a recorder, every call is in spans."""
    p = wl.params(sb.model.SbmParams)
    derive = sb.seeds.derive_seed
    masters = {"P": derive(seed, "cli-p"), "Q": derive(seed, "cli-q")}
    sample_ssbm, sample_er = sb.model.sample_ssbm, sb.model.sample_er
    svd_theta = sb.learn.svd_theta
    pipeline = (sb.reduce.recovery_test_statistic if wl.route == "recovery"
                else sb.reduce.learning_test_statistic)
    if rec is not None:
        sample_ssbm = rec.wrap("model", sample_ssbm, lambda s, out: s.attrs.update(edges=out[0].edge_count))
        sample_er = rec.wrap("model", sample_er, lambda s, out: s.attrs.update(edges=out.edge_count))
        svd_theta = rec.wrap("learn", svd_theta)
        pipeline = rec.wrap("reduce", pipeline)

    def learner(y1):
        return svd_theta(y1, p.k)

    def one(arm, t):
        trial_seed = derive(masters[arm], f"trial-{arm}", t)
        stat_seed = derive(masters[arm], f"trial-{arm}-stat", t)
        with rec.span("trial", trial=t, arm=arm) if rec is not None else nullcontext() as root:
            t0 = time.perf_counter()
            try:
                if arm == "P":
                    g, labels = sample_ssbm(p, trial_seed)
                else:
                    g, labels = sample_er(p.n, p.d, trial_seed), None
                if wl.route == "recovery":
                    report = pipeline(g, p, seed=stat_seed, method="spectral", labels=labels)
                else:
                    report = pipeline(g, p, learner, stat_seed)
            except Exception as exc:  # a failed trial is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                return Trial(arm, t, time.perf_counter() - t0, math.nan, False,
                             raised=f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - t0
            degenerate = "error" in report.side_channel
            if root is not None:
                root.attrs["degenerate"] = degenerate
        return Trial(arm, t, wall, report.statistic, degenerate,
                     report.side_channel.get("recovery_rate"))

    return one


def closed_loop(one, wl, seconds):
    """Rounds until `seconds` passed and the head is done; Q runs in head rounds only."""
    trials = []
    start = time.perf_counter()
    t = 0
    while t < wl.head or time.perf_counter() - start < seconds:
        trials.append(one("P", t))
        if wl.null_arm and t < wl.head:
            trials.append(one("Q", t))
        t += 1
    return trials


def _observe_projection(span, report):
    span.attrs.update(sweeps=int(report.iterations), backend=report.backend)


def install_hooks(rec, reduce_mod):
    """Wrap sbmlab.reduce's module globals; returns (originals, absent span names)."""
    saved, absent = {}, []
    for attr, name in REDUCE_HOOKS:
        fn = getattr(reduce_mod, attr, None)
        if fn is None:
            absent.append(name)
            continue
        saved[attr] = fn
        observe = _observe_projection if name == "project" else None
        setattr(reduce_mod, attr, rec.wrap(name, fn, observe))
    return saved, absent


def traced(sb, rec, fn):
    """fn() with sbmlab.reduce's entry points wrapped in rec's spans; (result, absent)."""
    saved, absent = install_hooks(rec, sb.reduce)
    try:
        return fn(), absent
    finally:
        for attr, orig in saved.items():
            setattr(sb.reduce, attr, orig)


def blas_info():
    """Version and thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": Path(path).name}
        for key, name, restype in (
            ("config", "get_config", ctypes.c_char_p),
            ("threads", "get_num_threads", ctypes.c_int),
        ):
            names = [f"{prefix}openblas_{name}{suffix}"
                     for prefix in ("scipy_", "") for suffix in ("64_", "")]
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                entry[key] = value.decode() if isinstance(value, bytes) else value
        found.append(entry)
    return found


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "workload_seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


def setup_probe(args):
    """Set-up seconds of a fresh process doing this run's imports and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    })


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    sb = import_program()
    end_to_end, per_layer = declared_metrics()
    env = environment(args.seed)
    delta = wl.params(sb.model.SbmParams).delta

    make_trial(sb, wl, sb.seeds.derive_seed(args.seed, "perfbench-warmup"))("P", 0)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print("env " + json.dumps(env, sort_keys=True))

    problems = [f"OpenBLAS {b['library']} runs {b['threads']} threads, not 1"
                for b in env["openblas"] if b.get("threads", 1) != 1]
    rec, dropped = None, set()
    if args.trace:
        rec, mem = Recorder(), Recorder()
        trials, absent = traced(sb, rec, lambda: closed_loop(
            make_trial(sb, wl, args.seed, rec), wl, args.seconds))
        # The first planted trial again untraced: the statistics must match bit
        # for bit, and the wall-time ratio is the tracing overhead.  (A null
        # trial can run for a minute, so it is not replayed.)
        first = next(t for t in trials if (t.arm, t.index) == ("P", 0))
        replay = make_trial(sb, wl, args.seed)("P", 0)
        # Once more under tracemalloc for the layers' memory peaks, kept out of
        # the timings because tracemalloc slows every allocation.
        tracemalloc.start()
        try:
            mem_first, _ = traced(sb, mem, lambda: make_trial(sb, wl, args.seed, mem)("P", 0))
        finally:
            tracemalloc.stop()
        for t in (first, mem_first):
            why = summary.replay_problem(t.statistic, replay.statistic)
            problems += [f"P[0]: {why}"] if why else []
        problems += summary.accounting_problems(rec.spans)
        overhead = first.wall_s / replay.wall_s - 1.0
        values = summary.per_layer(rec.spans, mem.spans, wl.head, overhead)
        # An entry point that is not found makes its layer absent, not zero.
        dropped = {k for k in values for name in absent
                   if k.startswith(_METRIC_PREFIX.get(name, name + "."))}
        values = {k: v for k, v in values.items() if k not in dropped}
        units = per_layer
    else:
        trials = closed_loop(make_trial(sb, wl, args.seed), wl, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [setup_probe(args) for _ in range(2)]
        values = {
            "setup_s": sorted(setups)[1],
            "p_trial_ms": summary.median_ms(trials, "P"),
            "p_trials_per_s": summary.trials_per_s(trials, "P"),
            "peak_rss_mib": peak_rss_mib,
        }
        units = end_to_end

    problems += summary.check_outputs(trials, delta, two_arm=wl.null_arm)
    failed = sum(summary.trial_problem(t, delta) is not None for t in trials)
    info = {
        "workload": args.workload,
        "trials": {a: sum(t.arm == a for t in trials) for a in ("P", "Q")},
        "q_trial_ms": summary.median_ms(trials, "Q"),
        "degenerate_frac": sum(t.degenerate for t in trials) / len(trials),
        "fail_frac": failed / len(trials),
    }
    if wl.null_arm:
        info["z"] = summary.arm_z(trials)
    print("summary " + json.dumps(info, sort_keys=True))
    if rec is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", dict(env, **info))
        if absent:
            print("absent layers (entry point not found): " + ", ".join(absent))
    problems += [f"benchmark computed no value for {k}" for k in sorted(set(units) - set(values) - dropped)]
    for p in problems:
        print("check failed: " + p)
    print(result_line(not problems, len(trials), failed, values, units))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
