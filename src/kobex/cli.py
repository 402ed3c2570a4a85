"""kobex command line: run bundled verification scenarios and poke at the
geometric primitives directly.

    kobex list
    kobex explain <scenario>
    kobex run <scenario> [--seed N] [--tol X] [--out DIR] [--csv]
    kobex distance <domain> --at Z [--dir V] [--method auto|generic|reinhardt]
    kobex metric <domain> --at Z --dir V [--method graham|inscribed|exact]
    kobex extend [--grid N] [--tol X] [--out DIR]

Exit codes: 0 all verdicts pass, 2 a verdict failed, 3 configuration error.
"""

import argparse
import math
import sys

import numpy as np

from . import domains, metrics, scenarios


def _parse_point(text):
    try:
        return domains.cpoint(*[complex(tok) for tok in text.split(",")])
    except ValueError as exc:  # malformed token, or DomainError from cpoint
        raise domains.DomainError("bad point %r: %s" % (text, exc))


def _get_domain(name):
    try:
        if name.endswith(".kx") or "/" in name:
            from . import textspec
            objs = textspec.load(name)
            doms = {k: v for k, v in objs.items()
                    if isinstance(v, domains.DomainSpec)}
            if len(doms) != 1:
                raise SystemExit("file %r must define exactly one domain" % name)
            return next(iter(doms.values()))
        return domains.bundled_domain(name)
    except (domains.DomainError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(3)


def cmd_list(args):
    for name in scenarios.list_scenarios():
        print(name)
    return 0


def cmd_explain(args):
    if args.scenario not in scenarios.EXPLAIN:
        print("error: unknown scenario %r" % args.scenario, file=sys.stderr)
        return 3
    print(args.scenario)
    for stage, anchor in scenarios.EXPLAIN[args.scenario]:
        print("  %-34s %s" % (stage, anchor))
    return 0


def cmd_run(args):
    try:
        report = scenarios.run_scenario(args.scenario, seed=args.seed,
                                        tol=args.tol, out_dir=args.out,
                                        csv=args.csv)
    except KeyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    print(report.summary())
    print("wall clock: %.2f s" % report.wall_clock)
    if args.out:
        print("report written to %s/%s.jsonl" % (args.out, args.scenario))
    elif args.print_report:
        sys.stdout.write(report.to_jsonl())
    return 0 if report.passed else 2


def cmd_distance(args):
    D = _get_domain(args.domain)
    z = _parse_point(args.at)
    if args.dir is not None:
        v = _parse_point(args.dir)
        val = domains.directional_distance(D, z, v, n_phases=args.phases)
        print("directional distance delta(z; v) = %.12g" % val)
    else:
        val = domains.boundary_distance(D, z, method=args.method)
        print("boundary distance delta(z) = %.12g" % val)
        xi = domains.nearest_boundary_point(D, z, method=args.method)
        print("nearest boundary point: %s" % np.array2string(xi, precision=10))
    return 0


def cmd_metric(args):
    D = _get_domain(args.domain)
    z = _parse_point(args.at)
    v = _parse_point(args.dir)
    if args.method == "exact":
        if not args.domain.startswith("ball"):
            print("error: exact values exist only for the ball", file=sys.stderr)
            return 3
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


def cmd_extend(args):
    report = scenarios.run_scenario("extension-oracle", seed=args.seed,
                                    tol=args.tol, out_dir=args.out,
                                    csv=args.out is not None)
    print(report.summary())
    print("wall clock: %.2f s" % report.wall_clock)
    return 0 if report.passed else 2


def build_parser():
    p = argparse.ArgumentParser(prog="kobex", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list bundled scenarios")
    sp.set_defaults(fn=cmd_list)

    sp = sub.add_parser("explain", help="show per-stage formula anchors")
    sp.add_argument("scenario")
    sp.set_defaults(fn=cmd_explain)

    sp = sub.add_parser("run", help="run a scenario and report verdicts")
    sp.add_argument("scenario")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None,
                    help="tolerance of ball-sandwich and extension-oracle")
    sp.add_argument("--out", default=None, help="directory for jsonl/csv output")
    sp.add_argument("--csv", action="store_true", help="also emit csv tables")
    sp.add_argument("--print-report", action="store_true",
                    help="dump the jsonl report to stdout")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("distance", help="boundary / directional distance")
    sp.add_argument("domain", help="bundled name or a .kx definition file")
    sp.add_argument("--at", required=True, help="point, e.g. 0.5,0")
    sp.add_argument("--dir", default=None, help="direction for delta(z;v)")
    sp.add_argument("--method", default="auto",
                    choices=["auto", "generic", "reinhardt"])
    sp.add_argument("--phases", type=int, default=256)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("metric", help="one-sided metric bounds at (z, v)")
    sp.add_argument("domain")
    sp.add_argument("--at", required=True)
    sp.add_argument("--dir", required=True)
    sp.add_argument("--method", default="graham",
                    choices=["graham", "inscribed", "exact"])
    sp.set_defaults(fn=cmd_metric)

    sp = sub.add_parser("extend", help="run the boundary-extension pipeline")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=2.5e-7)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_extend)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
            raise domains.DomainError("--tol must be finite and nonnegative, got %r" % tol)
        return args.fn(args)
    except domains.DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
