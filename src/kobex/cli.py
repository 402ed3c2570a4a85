"""kobex command line: run bundled verification scenarios and poke at the
geometric primitives directly.

    kobex list
    kobex explain <scenario>
    kobex run <scenario> [--seed N] [--tol X] [--out DIR] [--csv]
    kobex distance <domain> --at Z [--method auto|generic|reinhardt]
    kobex distance <domain> --at Z --dir V [--phases K]
    kobex metric <domain> --at Z --dir V [--method graham|inscribed|exact]
    kobex extend [--seed N] [--tol X] [--out DIR]

Exit codes: 0 all verdicts pass, 2 a verdict failed or a solver did not
converge, 3 configuration error (such as a tol no ladder rung certifies).
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import domains, extension, metrics, scenarios


def _parse_point(text):
    try:
        return domains.cpoint(*[complex(tok) for tok in text.split(",")])
    except ValueError as exc:  # malformed token, or DomainError from cpoint
        raise domains.DomainError("bad point %r: %s" % (text, exc))


def _get_domain(name):
    if name.endswith(".kx") or "/" in name:
        from . import textspec
        doms = textspec.load(name)
        if len(doms) != 1:
            raise domains.DomainError("file %r must define exactly one domain" % name)
        return next(iter(doms.values()))
    return domains.bundled_domain(name)


def cmd_list(args):
    for name in scenarios.list_scenarios():
        print(name)
    return 0


def cmd_explain(args):
    if args.scenario not in scenarios.EXPLAIN:
        raise domains.DomainError("unknown scenario %r" % args.scenario)
    print(args.scenario)
    for stage, anchor in scenarios.EXPLAIN[args.scenario]:
        print("  %-34s %s" % (stage, anchor))
    return 0


def cmd_run(args):
    report = scenarios.run_scenario(args.scenario, seed=args.seed, tol=args.tol,
                                    out_dir=args.out, csv=args.csv)
    print(report.summary())
    print("wall clock: %.2f s" % report.wall_clock)
    if args.out:
        print("report written to %s/%s.jsonl" % (args.out, args.scenario))
    return 0 if report.passed else 2


cmd_extend = cmd_run    # with extend's parser defaults: extension-oracle, CSVs beside --out


def cmd_distance(args):
    D = _get_domain(args.domain)
    z = _parse_point(args.at)
    if args.dir is not None:
        if args.method is not None:
            raise domains.DomainError("--method chooses the search for delta(z); "
                                      "it does not apply with --dir")
        v = _parse_point(args.dir)
        kw = {} if args.phases is None else {"n_phases": args.phases}
        val = domains.directional_distance(D, z, v, **kw)
        print("directional distance delta(z; v) = %.12g" % val)
    else:
        if args.phases is not None:
            raise domains.DomainError("--phases applies only with --dir")
        zs = domains._interior_rows(D, domains.as_point(z, D.dim))
        t, xi = domains._boundary(D, zs, args.method or "auto", nearest=True)
        print("boundary distance delta(z) = %.12g" % t[0])
        print("nearest boundary point: %s" % np.array2string(xi[0], precision=10))
    return 0


def cmd_metric(args):
    D = _get_domain(args.domain)
    z = domains.as_point(_parse_point(args.at), D.dim)
    v = domains.as_point(_parse_point(args.dir), D.dim)
    if args.method == "exact":
        if args.domain.lower() != "ball2":
            raise domains.DomainError("exact values exist only for the ball")
        print("exact ball metric k(z; v) = %.12g"
              % metrics.kob_metric_ball_exact(z, v))
        return 0
    if args.method == "inscribed":
        b = metrics.inscribed_ball_upper_bound(D, z, v)
        print("upper bound (inscribed ball) = %.12g" % b.value)
        return 0
    lo, hi = metrics.graham_bounds(D, z, v)
    print("lower bound |v|/(2 delta(z;v)) = %.12g" % lo.value)
    print("upper bound |v|/delta(z;v)    = %.12g" % hi.value)
    return 0


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="kobex", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled scenarios")

    sp = sub.add_parser("explain", help="show per-stage formula anchors")
    sp.add_argument("scenario")

    sp = sub.add_parser("run", help="run a scenario and report verdicts")
    sp.add_argument("scenario")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None,
                    help="tolerance of ball-sandwich and extension-oracle")
    sp.add_argument("--out", default=None, help="directory for jsonl/csv output")
    sp.add_argument("--csv", action="store_true", help="also emit csv tables")

    sp = sub.add_parser("distance", help="boundary / directional distance")
    sp.add_argument("domain", help="bundled name or a .kx definition file")
    sp.add_argument("--at", required=True, help="point, e.g. 0.5,0")
    sp.add_argument("--dir", default=None, help="direction for delta(z;v)")
    sp.add_argument("--method", default=None, choices=["auto", "generic", "reinhardt"],
                    help="search for delta(z) (default auto)")
    sp.add_argument("--phases", type=int, default=None,
                    help="sampled phases of delta(z;v) (default 256)")

    sp = sub.add_parser("metric", help="one-sided metric bounds at (z, v)")
    sp.add_argument("domain")
    sp.add_argument("--at", required=True)
    sp.add_argument("--dir", required=True)
    sp.add_argument("--method", default="graham",
                    choices=["graham", "inscribed", "exact"])

    sp = sub.add_parser("extend", help="run the boundary-extension pipeline")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=2.5e-7)
    sp.add_argument("--out", default=None)
    sp.set_defaults(scenario="extension-oracle", csv=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
            raise domains.DomainError("--tol must be finite and nonnegative, got %r" % tol)
        if getattr(args, "seed", 0) < 0:
            raise domains.DomainError("--seed must be nonnegative, got %d" % args.seed)
        # the handler is looked up when called, not when the cached parser
        # was built, so a wrapper later set on a cmd_* function is used
        return globals()["cmd_" + args.command](args)
    except (domains.DomainError, extension.TailBoundError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except domains.ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
