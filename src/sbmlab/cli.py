"""Command-line interface: one verb per module.

Progress and logs go to stderr; data goes to stdout or --out.  Exit codes:
0 success, 1 usage error, 2 acceptance failure.  Every flag that sets a
config key overrides it in `_load_config`, where the config is checked once;
the verbs read their settings from the config alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager

import numpy as np

from .acceptance import DEFAULT_SEED, acceptance_csv, run_acceptance
from .harness import (
    _CONFIG_KEYS,
    ExperimentConfig,
    check_spectral_concentration,
    parse_config,
    parse_snr_grid,
    run_two_arms,
    sweep_phase,
    write_sweep_csv,
)
from .learn import frob_error_sq, svd_theta, write_graphon
from .ldlr import exact_ldlr_norm, write_ldlr_csv
from .model import (
    BlockGraphon,
    map_trials,
    sample_er,
    sample_ssbm,
    write_edge_list,
    write_labels,
)
from .project import (
    ProjectionDidNotConverge,
    ProjectionInfeasibleError,
    corr_preserving_projection,
)
from .recover import METHODS, membership_factors, recovery_rate, run_recovery
from .reduce import projection_outcome, projection_spec, write_trial_csv
from .seeds import derive_seed
from .split import subsample_edges, write_edge_split


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _log(msg):
    print(msg, file=sys.stderr)


# flag name (its argparse dest) -> the config key it overrides
_GLOBAL_FLAGS = {
    "seed": "seed", "trials": "trials",
    **{name: f"params.{name}" for name in ("n", "d", "eps", "k", "eta", "delta")},
}
_FLAG_KEYS = {**_GLOBAL_FLAGS, "method": "recovery.method", "ell": "ldlr.ell"}


def _add_global_flags(p, default):
    p.add_argument("--config", default=default, help="flat key=value config file")
    p.add_argument("--out", default=default, help="output path (default stdout)")
    for name, key in _GLOBAL_FLAGS.items():
        p.add_argument(f"--{name}", type=_CONFIG_KEYS[key][1], default=default, help=f"overrides {key}")


def build_parser() -> _Parser:
    """Global flags are valid before and after the verb.

    Each verb's parser carries copies of the global flags defaulting to
    SUPPRESS, so a flag given before the verb is not reset by the verb's
    parser; given on both sides, the one after the verb wins.
    """
    p = _Parser(prog="sbmlab", description="SBM testing / recovery / learning laboratory")
    _add_global_flags(p, None)
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_flags(shared, argparse.SUPPRESS)

    sub = p.add_subparsers(dest="command", required=True)
    add_verb = functools.partial(sub.add_parser, parents=[shared])

    sp = add_verb("sample", help="draw one graph and write its edge list")
    sp.add_argument("--null", action="store_true", help="draw from G(n, d/n) instead")
    sp.add_argument("--labels-out", default=None)

    sp = add_verb("split", help="subsample a fresh draw into kept/held-out parts")
    sp.add_argument("--prefix", required=True, help="writes <prefix>.y1 <prefix>.y2 <prefix>.meta")

    sp = add_verb("recover", help="run a recovery baseline against the truth")
    sp.add_argument("--method", choices=METHODS, help="recovery baseline (overrides config)")

    sp = add_verb("project", help="recovery plus correlation-preserving projection")
    sp.add_argument("--method", choices=METHODS, help="recovery baseline (overrides config)")

    sp = add_verb("test", help="two-arm testing trials, per-trial CSV")
    sp.add_argument("--no-timing", action="store_true", help="zero wall times (byte-stable)")

    sp = add_verb("learn", help="rank-k estimator error trials")
    sp.add_argument("--graphon-out", default=None, help="also write the first estimate as a graphon")

    sp = add_verb("ldlr", help="exact low-degree likelihood ratio norm CSV")
    sp.add_argument("--ell", type=int, help="degree bound (overrides config)")

    sp = add_verb("sweep", help="phase sweep over an SNR grid")
    sp.add_argument("--grid", required=True, help="comma-separated SNR values")
    sp.add_argument("--no-timing", action="store_true")

    sp = add_verb("check", help="spectral concentration report")

    sp = add_verb("accept", help="run the acceptance battery")
    sp.add_argument("--suite", default="full", help="full | fast (canonical seed unless --seed given)")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    return p


def _load_config(args) -> ExperimentConfig:
    """The --config file's keys (or none) with every given flag applied, checked once."""
    text = ""
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    flags = {key: getattr(args, dest, None) for dest, key in _FLAG_KEYS.items()}
    return parse_config(text, {key: value for key, value in flags.items() if value is not None})


@contextmanager
def _open_out(args):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w") as fh:
            yield fh


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:
        _log(f"sbmlab: {exc}")
        return 1
    try:
        return _run_verb(args, cfg)
    except (ValueError, OSError) as exc:
        _log(f"{args.command}: {exc}")
        return 1


def _run_verb(args, cfg: ExperimentConfig) -> int:
    p = cfg.params
    cmd = args.command

    if cmd == "sample":
        if args.null:
            g = sample_er(p.n, p.d, cfg.seed)
            labels = None
        else:
            g, labels = sample_ssbm(p, cfg.seed)
        with _open_out(args) as fh:
            write_edge_list(g, fh)
        if args.labels_out and labels is not None:
            write_labels(labels, args.labels_out)
        _log(f"sampled graph with {g.edge_count} edges")
        return 0

    if cmd == "split":
        g, _ = sample_ssbm(p, cfg.seed)
        sp = subsample_edges(g, p.eta, derive_seed(cfg.seed, "cli-split"))
        write_edge_split(
            sp, f"{args.prefix}.y1", f"{args.prefix}.y2", f"{args.prefix}.meta", seed=cfg.seed
        )
        _log(f"split {g.edge_count} edges into {sp.y1.edge_count} + {sp.y2.edge_count}")
        return 0

    if cmd in ("recover", "project"):
        g, labels = sample_ssbm(p, cfg.seed)
        truth = membership_factors(labels)
        m0 = run_recovery(g, p, method=cfg.recovery_method, seed=cfg.seed, labels=labels)
        rate_before = recovery_rate(m0, truth)
        if cmd == "recover":
            with _open_out(args) as fh:
                fh.write(f"method,rate\n{cfg.recovery_method},{rate_before!r}\n")
            return 0
        try:
            rep = corr_preserving_projection(m0, projection_spec(p))
        except (ProjectionInfeasibleError, ProjectionDidNotConverge) as exc:
            _log(f"project: {exc}")
            solved, status = ",,,,", projection_outcome(exc)["status"]
        else:
            rate_after = recovery_rate(rep.estimate, truth)
            solved = f"{rate_after!r},{rep.iterations},{rep.max_violation!r},{rep.n_norm!r},{rep.backend}"
            status = "ok"
        with _open_out(args) as fh:
            fh.write("method,rate_before,rate_after,iterations,max_violation,n_norm,backend,status\n")
            fh.write(f"{cfg.recovery_method},{rate_before!r},{solved},{status}\n")
        return 0

    if cmd == "test":
        tau, (rows_p,), rows_q = run_two_arms(
            cfg, derive_seed(cfg.seed, "cli-q"), [(p.eps, derive_seed(cfg.seed, "cli-p"))]
        )
        with _open_out(args) as fh:
            write_trial_csv(rows_p + rows_q, fh, timing=not args.no_timing)
        _log(f"threshold {tau}: the {cfg.threshold_quantile} quantile of {len(rows_q)} null statistics")
        return 0

    if cmd == "learn":
        first = derive_seed(cfg.seed, "cli-learn-stat", 0)  # trial 0's stat seed

        def error(g, s, labels):
            theta_hat = svd_theta(g, p.k)
            if args.graphon_out and s == first:
                # the one n x n array: graphon values lie in [0, 1], so the write clips
                write_graphon(BlockGraphon(np.clip(theta_hat.dense(), 0.0, 1.0)), args.graphon_out)
            return frob_error_sq(theta_hat, p, labels)

        errors = map_trials(error, p, "P", cfg.trials, cfg.seed, "cli-learn")
        with _open_out(args) as fh:
            fh.write("trial,frob_error_sq,ratio_to_kd\n")
            for t, err in enumerate(errors):
                fh.write(f"{t},{err!r},{err / (p.k * p.d)!r}\n")
        return 0

    if cmd == "ldlr":
        res = exact_ldlr_norm(p, cfg.ell)
        with _open_out(args) as fh:
            write_ldlr_csv(res, fh)
        return 0

    if cmd == "sweep":
        points = sweep_phase(cfg, parse_snr_grid(args.grid))
        with _open_out(args) as fh:
            write_sweep_csv(points, cfg.trials, fh, timing=not args.no_timing)
        return 0

    if cmd == "check":
        rep = check_spectral_concentration(p, trials=cfg.trials, seed=cfg.seed)
        with _open_out(args) as fh:
            fh.write("max_norm,mean_norm,bound,max_ratio,trials\n")
            fh.write(
                f"{rep.max_norm!r},{rep.mean_norm!r},{rep.bound!r},{rep.max_ratio!r},{rep.trials}\n"
            )
        return 0

    if cmd == "accept":
        results = run_acceptance(args.suite, cfg.seed if args.seed is not None else DEFAULT_SEED)
        with _open_out(args) as fh:
            if args.json:
                import json

                fh.write(json.dumps(
                    [
                        {
                            "criterion": r.cid,
                            "passed": r.passed,
                            "metrics": {k: float(v) for k, v in r.metrics.items()},
                            "elapsed_s": r.elapsed_s,
                            # an unbounded budget is null: JSON has no infinity
                            "budget_s": None if math.isinf(r.budget_s) else r.budget_s,
                        }
                        for r in results
                    ],
                    indent=2, sort_keys=True,
                ) + "\n")
            else:
                fh.write(acceptance_csv(results))
        return 0 if all(r.passed and r.within_budget for r in results) else 2

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
