"""One benchmark run: set up, solve, check, report.

Set-up is timed three times each way: a fresh interpreter importing the
program, and generating the workload's games (on ``corpus`` this
includes the nondegenerate-seed scan).  ``setup_s`` is the sum of the
two medians.  With ``--trace 0`` the games are then solved with
tracing off, in whole passes until ``--seconds`` have gone by.  ``--trace
1`` instead makes one pass that solves each game twice, untraced and
then with the solver's public functions wrapped (spans.py), and reports
per-layer metrics.  Every answer is checked afterwards, outside the
timed region (check.py).

A game fails when it raises, ends with a status other than PNE, MNE or
TimeLimit, or fails the check.  TimeLimit is the solver's honest answer
to its limit, so it lowers ``solved_share`` but is not a failure.

End-to-end metrics (tracing off), timed by the benchmark's own clock
because SolveStats.wall_ms is 0 on some exit paths:
  setup_s       median import time plus median game-generation time
  wall_s        sum over games of each game's median wall time: the time
                to solve the workload once
  solved_share  share of games whose every solve ended PNE or MNE and
                passed the check
  peak_rss_mb   peak resident memory of the benchmark process

Per-game rows, the environment stamp and the set-up times go to
bench/out/<workload>-seed<n>-trace<t>.json; a traced run also writes its
spans to the matching -spans.jsonl.
"""

import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import check
import spans
import workloads
from rbgames import SolverOptions, cutplay, full_enumeration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def environment():
    """Interpreter, numpy and BLAS versions, usable cores and BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads():
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def solve(game, o):
    """(result, error, wall s) of one timed cut-and-play solve."""
    t = time.perf_counter()
    try:
        res, err = cutplay.cut_and_play(game, o), None
    except Exception as exc:  # a game that raises is counted as failed, not fatal
        res, err = None, f"{type(exc).__name__}: {exc}"
    return res, err, time.perf_counter() - t


def measure(pairs, opts, seconds):
    """Per-game lists of solves: whole passes, tracing off, until ``seconds`` have gone by."""
    answers = [[] for _ in pairs]
    t0 = time.perf_counter()
    while not answers[0] or time.perf_counter() - t0 < seconds:
        for (case, game), solves in zip(pairs, answers):
            solves.append(solve(game, opts[case.time_limit]))
    return answers


def import_seconds():
    """Wall time of a fresh interpreter that imports the program and exits."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import rbgames"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def judge(game, res, err, points, refs):
    """(solved, problems) for one answer; any problem makes the game failed."""
    if err is not None:
        return False, [err]
    status = res.status.value
    if status == "TimeLimit":
        return False, []
    if status not in check.SOLVED:
        return False, [f"status {status}"]
    problems = check.verify(game, res, workloads.DEVIATION_EPS, points, refs)
    return not problems, problems


def run(args):
    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        pairs = workloads.build(args.workload, args.seed, args.shift)
        build_s.append(time.perf_counter() - t)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    opts = {c.time_limit: SolverOptions(deviation_eps=workloads.DEVIATION_EPS, time_limit=c.time_limit)
            for c, _ in pairs}

    tracer = traced = None
    if args.trace:
        # each game untraced then traced, back to back, so host-speed drift
        # barely enters the tracing overhead
        tracer = spans.Tracer()
        answers, traced = [], []
        for case, game in pairs:
            answers.append([solve(game, opts[case.time_limit])])
            with tracer:
                traced.append(solve(game, opts[case.time_limit]))
    else:
        answers = measure(pairs, opts, args.seconds)

    points = [[check.pure_points(p) for p in game.players] for _, game in pairs]
    refs = [None] * len(pairs)
    if args.workload == "corpus":
        refs = [[np.concatenate(e.profile.barycenters()) for e in full_enumeration(game)] for _, game in pairs]
    attempted = failed = solved = 0
    problems = [set() for _ in pairs]
    for k, (_, game) in enumerate(pairs):
        verdicts = [judge(game, res, err, points[k], refs[k])
                    for res, err, _ in answers[k] + ([traced[k]] if traced else [])]
        attempted += len(verdicts)
        failed += sum(bool(found) for _, found in verdicts)
        solved += all(ok for ok, _ in verdicts)
        for _, found in verdicts:
            problems[k].update(found)

    per_game = [statistics.median(w for _, _, w in a) for a in answers]
    wall_s = sum(per_game)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "solved_share": (solved / len(pairs), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = spans.layer_metrics(tracer)
        reported = sum(res.stats.lcp_nodes for res, _, _ in traced if res is not None)
        metrics["stats.lcp_nodes"] = (reported, "count")
        metrics["stats.lcp_nodes_unreported"] = (metrics["lcp.nodes"][0] - reported, "count")
        metrics["trace.overhead_s"] = (sum(w for _, _, w in traced) - wall_s, "s")

    rows = game_rows(args.workload, pairs, answers, per_game, problems, tracer, traced)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.shift:
        stem += f"-shift{args.shift}"
    os.makedirs(OUT, exist_ok=True)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "shift": args.shift, "seconds": args.seconds,
            "environment": environment(), "import_s": import_s, "build_s": build_s,
            "metrics": {k: v for k, (v, _) in metrics.items()}, "games": rows,
        }, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    counts = dict(Counter(r["status"] for r in rows))
    print(f"{args.workload}: {len(pairs)} games, {attempted} solves, statuses {counts}, wall_s {wall_s:.3f}")
    for r in rows:
        if r["problems"]:
            print(f"FAILED {r['shape']} seed {r['seed']}: {'; '.join(r['problems'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def game_rows(workload, pairs, answers, per_game, problems, tracer, traced):
    """One row per game in canonical (shape, seed) order.

    A traced run adds the traced solve's LCP node count as SolveStats
    reports it and as its spans count it.
    """
    nodes = spans.nodes_per_root(tracer) if tracer is not None else None
    rows = []
    for k, (case, _) in enumerate(pairs):
        first = answers[k][0][0]
        statuses = {res.status.value if res is not None else "error" for res, _, _ in answers[k]}
        row = {
            "workload": workload,
            "shape": case.shape,
            "seed": case.seed,
            "time_limit": case.time_limit,
            "status": "/".join(sorted(statuses)),
            "wall_ms": per_game[k] * 1000.0,
            "solves": len(answers[k]),
            "rounds": first.stats.iterations if first is not None else None,
            "digest": check.digest(first) if first is not None else None,
            "stats_wall_ms": first.stats.wall_ms if first is not None else None,
            "stats_lcp_nodes": first.stats.lcp_nodes if first is not None else None,
            "problems": sorted(problems[k]),
        }
        if traced is not None:
            res = traced[k][0]
            row["traced_lcp_nodes"] = {"stats": res.stats.lcp_nodes if res is not None else None,
                                       "spans": int(nodes[k])}
        rows.append(row)
    rows.sort(key=lambda r: (r["shape"], r["seed"]))
    return rows
