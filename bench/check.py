"""Output check for cut-and-play results, independent of the solver.

Best responses are found by scanning every integer point of a player's
box, so the check shares no code path with ``solve_ip`` or the
enumeration module.  Corpus games are also matched against
``full_enumeration``, which lists every equilibrium of a nondegenerate
game, so a pointwise match is meaningful there.
"""

import hashlib
import itertools

import numpy as np

SOLVED = ("PNE", "MNE")
_FEAS_TOL = 1e-7
_MATCH_TOL = 1e-6


def pure_points(program):
    """All integer-feasible points of a purely integer, bounded program."""
    m = program.nvars
    if tuple(program.integers) != tuple(range(m)):
        raise ValueError(f"player {program.name} has continuous variables")
    axes = [range(int(np.ceil(lo)), int(np.floor(hi)) + 1) for lo, hi in zip(program.lb, program.ub)]
    grid = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, m)
    A = program.A.to_dense()
    if A.size:
        grid = grid[np.all(grid @ A.T <= program.b + _FEAS_TOL, axis=1)]
    return grid


def _opponents(points, i):
    parts = [p for j, p in enumerate(points) if j != i]
    return np.concatenate(parts) if parts else np.zeros(0)


def verify(game, result, eps, points=None, references=None):
    """Problems found in a PNE/MNE result; an empty list means correct.

    ``points`` caches ``pure_points`` per player.  ``references`` is a
    list of flat barycenter vectors the profile must match within 1e-6.
    """
    points = points if points is not None else [pure_points(p) for p in game.players]
    profile = result.profile
    if profile is None or len(profile.strategies) != len(game.players):
        return ["no profile for every player"]
    problems = []
    bary = [np.asarray(s.barycenter, dtype=float) for s in profile.strategies]
    all_pure = True
    for i, (p, s, pts) in enumerate(zip(game.players, profile.strategies, points)):
        x = bary[i]
        if not s.support:
            problems.append(f"player {i}: empty support")
            continue
        weights = np.array([w for w, _ in s.support])
        atoms = np.array([a for _, a in s.support], dtype=float)
        if np.any(weights < -_FEAS_TOL) or abs(weights.sum() - 1.0) > _MATCH_TOL:
            problems.append(f"player {i}: support weights are not a distribution")
        if np.max(np.abs(weights @ atoms - x)) > _MATCH_TOL:
            problems.append(f"player {i}: support does not average to the barycenter")
        for a in atoms:
            if np.min(np.max(np.abs(pts - a), axis=1)) > _MATCH_TOL:
                problems.append(f"player {i}: support atom {a.tolist()} is not a feasible pure strategy")
        all_pure &= np.min(np.max(np.abs(pts - x), axis=1)) <= _MATCH_TOL
        cost = p.c + p.C.to_dense().T @ _opponents(bary, i)
        gain = float(cost @ x - np.min(pts @ cost))
        if gain > eps:
            problems.append(f"player {i}: best response improves by {gain:.3e}")
    if result.status.value != ("PNE" if all_pure else "MNE"):
        problems.append(f"status {result.status.value} does not match the profile")
    if references is not None:
        flat = np.concatenate(bary)
        gap = min((float(np.linalg.norm(flat - r)) for r in references), default=np.inf)
        if gap > _MATCH_TOL:
            problems.append(f"profile is {gap:.3e} from every enumerated equilibrium")
    return problems


def digest(result):
    """Short hash of the barycenters rounded to 6 decimals, or None."""
    if result.profile is None:
        return None
    flat = np.concatenate([s.barycenter for s in result.profile.strategies])
    text = ",".join(f"{v:.6f}" for v in np.round(flat, 6) + 0.0)
    return hashlib.sha1(text.encode()).hexdigest()[:12]
