"""rbgames benchmark: cut-and-play over the corpus, ladder and stall workloads.

    python3 bench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` beside this directory, so run it
from a source checkout; without one it exits with status 2.  See
harness.py for what a run measures and checks.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "ladder", "stall"))
    ap.add_argument("--seed", type=int, default=0, help="sets the order in which the games are solved")
    ap.add_argument("--seconds", type=int, default=20, help="solve whole passes until this many seconds pass")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--shift", type=int, default=0,
                    help="held-out game window (see workloads.py); 0 is the ROADMAP corpus and ladder")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.shift < 0:
        ap.error("--seed and --shift must be nonnegative and --seconds at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rbgames", "__init__.py")):
        print(f"error: no rbgames sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rbgames

    if not os.path.abspath(rbgames.__file__).startswith(SRC + os.sep):
        print(f"error: rbgames was imported from {rbgames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
