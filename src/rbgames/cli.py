"""Command line front end.

Exit codes: 0 when an equilibrium is found (PNE or MNE), 2 when the
solver proves there is none, 3 on time limit, 4 when a player's
feasible set is empty, 5 on numerical failure, 1 for usage or
document errors, for an instance that cannot be read or an output that
cannot be written, and for a game the chosen algorithm cannot take (a
player with a continuous variable under fullenum, an unbounded player).
"""

import argparse
import math
import sys

from .cutplay import Algorithm, SolverOptions
from .errors import DocumentError, NumericalFailure, UnsupportedGame
from .game import EqStatus
from .model import load_instance, save_result
from .numerics import DEVIATION_EPS

_EXIT_BY_STATUS = {
    EqStatus.PNE: 0,
    EqStatus.MNE: 0,
    EqStatus.NO_EQUILIBRIUM_FOUND: 2,
    EqStatus.TIME_LIMIT: 3,
    EqStatus.INFEASIBLE: 4,
    EqStatus.NUMERICAL_FAILURE: 5,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbgames",
        description="Compute Nash equilibria of games with bilinear coupling.",
    )
    parser.add_argument("--instance", required=True, help="path to an instance JSON file")
    parser.add_argument(
        "--algorithm",
        choices=[Algorithm.CUT_AND_PLAY, Algorithm.FULL_ENUMERATION],
        default=Algorithm.CUT_AND_PLAY,
        help="solution algorithm (default: cutandplay)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEVIATION_EPS,
        help="deviation tolerance for accepting an equilibrium (default: %(default)g)",
    )
    parser.add_argument("--timelimit", type=float, default=None, help="wall clock limit in seconds")
    parser.add_argument("--output", default=None, help="write the result document to this path")
    parser.add_argument("--quiet", action="store_true", help="suppress the human-readable report")
    return parser


def _report(results, names, out):
    head = results[0]
    print(f"status: {head.status.value}", file=out)
    if head.stats.reason is not None:
        print(f"reason: {head.stats.reason}", file=out)
    shown = results if len(results) > 1 else results[:1]
    for k, res in enumerate(shown):
        if res.profile is None:
            continue
        if len(shown) > 1:
            print(f"equilibrium {k + 1}:", file=out)
        for i, name in enumerate(names):
            strat = res.profile.strategies[i]
            vec = ", ".join(f"{v:.6g}" for v in strat.barycenter)
            pay = res.payoffs[i]
            print(f"  {name}: x = [{vec}]  payoff = {pay:.6g}", file=out)
            if strat.support is not None and len(strat.support) > 1:
                for w, pt in strat.support:
                    pvec = ", ".join(f"{v:.6g}" for v in pt)
                    print(f"    {w:.6g} * [{pvec}]", file=out)
    stats = head.stats
    print(
        f"iterations: {stats.iterations}  cuts: {stats.cuts}  lemke pivots: {stats.lcp_nodes}"
        f"  warm rounds: {stats.warm_rounds}  cold restarts: {stats.cold_restarts}  wall ms: {stats.wall_ms:.1f}",
        file=out,
    )


def _attach_values(argv):
    """``argv`` with each float option joined to the word after it by
    ``=``: argparse would take a value such as ``-inf`` or ``-1e-3`` for
    a flag, and so never reach the finite-and-positive check."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--tolerance", "--timelimit"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print("error: --tolerance must be positive and finite", file=sys.stderr)
        return 1
    if args.timelimit is not None and not (math.isfinite(args.timelimit) and args.timelimit > 0):
        print("error: --timelimit must be positive and finite", file=sys.stderr)
        return 1
    try:
        inst = load_instance(args.instance)
    except FileNotFoundError:
        print(f"error: no such file: {args.instance}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.instance}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    opts = SolverOptions(
        algorithm=args.algorithm,
        deviation_eps=args.tolerance,
        time_limit=args.timelimit,
    )
    names = [p.name for p in inst.players]
    try:
        results = inst.solve_all(opts)
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 5
    except UnsupportedGame as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.output is not None:
        try:
            save_result(results, names, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    if not args.quiet:
        _report(results, names, sys.stdout)

    code = _EXIT_BY_STATUS.get(results[0].status)
    if code is None:
        print(f"error: unexpected status {results[0].status}", file=sys.stderr)
        return 5
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
