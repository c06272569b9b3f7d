import numpy as np
import pytest

from rbgames import LinearProgram, LPStatus, solve_lp, seeded_rng

import rbgames.lp as lp_module

from oracles import pivot_out_reference, scipy_lp

_VAL_TOL = 1e-7


def _lp(c, A, b, lb, ub):
    return LinearProgram(
        np.asarray(c, dtype=float),
        np.asarray(A, dtype=float).reshape(len(b), len(c)) if len(b) else np.zeros((0, len(c))),
        np.asarray(b, dtype=float),
        np.asarray(lb, dtype=float),
        np.asarray(ub, dtype=float),
    )


def test_knapsack_relaxation_vertex():
    # min -x1 - 2 x2 over 3 x1 + 4 x2 <= 5, x in [0,1]^2
    lp = _lp([-1.0, -2.0], [[3.0, 4.0]], [5.0], [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert np.allclose(res.x, [1.0 / 3.0, 1.0], atol=1e-9)
    assert abs(res.value - (-1.0 / 3.0 - 2.0)) < _VAL_TOL


def test_pure_box_problem():
    lp = _lp([2.0, -3.0], [], [], [-1.0, -1.0], [4.0, 5.0])
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert np.allclose(res.x, [-1.0, 5.0])
    assert abs(res.value - (-17.0)) < _VAL_TOL


def test_infeasible():
    lp = _lp([1.0], [[1.0]], [-2.0], [0.0], [1.0])
    res = solve_lp(lp)
    assert res.status is LPStatus.INFEASIBLE


def test_unbounded():
    lp = _lp([-1.0], [], [], [0.0], [np.inf])
    res = solve_lp(lp)
    assert res.status is LPStatus.UNBOUNDED


def test_free_variable_equality_pair():
    # x1 + x2 <= 1 and -(x1 + x2) <= -1 pins the sum; x2 free
    lp = _lp([0.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0],
             [0.0, -np.inf], [np.inf, np.inf])
    res = solve_lp(lp)
    assert res.status is LPStatus.UNBOUNDED  # x2 -> -inf with x1 = 1 - x2


def test_duals_on_knapsack_vertex():
    lp = _lp([-1.0, -2.0], [[3.0, 4.0]], [5.0], [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(lp)
    # row dual: lowering b by 1 unit raises the optimum by lambda
    lam = res.row_duals[0]
    assert lam >= -1e-9
    bumped = solve_lp(_lp([-1.0, -2.0], [[3.0, 4.0]], [4.0], [0.0, 0.0], [1.0, 1.0]))
    assert abs((bumped.value - res.value) - lam) < 1e-6
    # weak duality certificate matches the primal value at optimality
    assert abs(res.dual_value(lp) - res.value) < 1e-6


def _check_optimal(lp, res, val, trial):
    """An optimal result against the reference optimum val: the value,
    primal feasibility, dual signs, complementary slackness and strong
    duality."""
    tol = 1e-6 * (1 + abs(val))
    assert abs(res.value - val) < tol, (trial, res.value, val)
    if lp.nrows:
        slack = lp.b - lp.A @ res.x
        assert np.all(slack >= -1e-7) and np.all(np.abs(slack[lp.eq]) <= 1e-7), trial
        y = res.row_duals
        assert np.all(y[~lp.eq] >= -1e-9), trial
        assert np.all(np.abs(y * slack) <= 1e-6), trial
    assert np.all(res.x >= lp.lb - 1e-9) and np.all(res.x <= lp.ub + 1e-9), trial
    d = res.reduced_costs
    # a reduced cost past 1e-9 holds its variable at the matching bound
    assert np.all(np.abs(d * np.where(d > 1e-9, res.x - lp.lb, 0.0)) <= 1e-6), trial
    assert np.all(np.abs(d * np.where(d < -1e-9, lp.ub - res.x, 0.0)) <= 1e-6), trial
    assert abs(res.dual_value(lp) - res.value) < tol, (trial, res.dual_value(lp), res.value)


def test_random_lps_match_reference():
    # every other trial states up to three rows as equalities, most of
    # them met by an integral point of the box
    rng = seeded_rng(11)
    solved = [0, 0]
    for trial in range(600):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, 7))
        c = np.round(rng.normal(size=n) * 5)
        A = np.round(rng.normal(size=(k, n)) * 3)
        b = np.round(rng.normal(size=k) * 4 + 2)
        lb = np.where(rng.random(n) < 0.8, 0.0, -np.inf)
        ub = np.where(rng.random(n) < 0.8, rng.integers(1, 5, size=n).astype(float), np.inf)
        ub = np.maximum(ub, lb)
        eq = np.zeros(k, dtype=bool)
        if trial % 2:
            eq[: int(rng.integers(0, 4))] = True
            x0 = np.clip(rng.integers(-1, 4, size=n).astype(float), lb, ub)
            met = eq & (rng.random(k) < 0.8)
            b[met] = A[met] @ x0
        lp = LinearProgram(c, A.reshape(k, n), b, lb, ub, eq=eq)
        res = solve_lp(lp)
        status, val, _ = scipy_lp(c, lp.A, b, lb, ub, eq=eq)
        if status == "infeasible":
            assert res.status is LPStatus.INFEASIBLE, trial
        elif status == "unbounded":
            assert res.status is LPStatus.UNBOUNDED, trial
        else:
            assert res.status is LPStatus.OPTIMAL, (trial, res.status)
            _check_optimal(lp, res, val, trial)
            solved[int(eq.any())] += 1
    # the generator must exercise plenty of optimal cases of both kinds
    assert solved[0] > 150 and solved[1] > 60, solved


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinearProgram(np.zeros(2), np.zeros((1, 3)), np.zeros(1), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        LinearProgram(np.zeros(2), np.zeros((1, 2)), np.zeros(1), np.ones(2), np.zeros(2))  # lb > ub
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.nan, 0.0]), np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2))


def test_duals_are_computed_only_when_read(monkeypatch):
    calls = {"inv": 0, "solve": 0, "duals": 0}
    for name in ("inv", "solve"):
        def counting(*args, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(np.linalg, name, counting)
    real_duals = lp_module._Simplex.duals

    def duals(sx):
        calls["duals"] += 1
        return real_duals(sx)

    monkeypatch.setattr(lp_module._Simplex, "duals", duals)
    lp = _lp([-1.0, -2.0], [[3.0, 4.0]], [5.0], [0.0, 0.0], [1.0, 1.0])
    res = solve_lp(lp)
    # one re-inversion at the end, and no solve at all
    assert calls == {"inv": 1, "solve": 0, "duals": 0}
    assert res.row_duals[0] > 0 and res.reduced_costs.shape == (2,)
    # the duals are y = c_B B^-1, read off the kept inverse
    assert calls == {"inv": 1, "solve": 0, "duals": 1}
    assert abs(res.dual_value(lp) - res.value) < 1e-9
    assert calls == {"inv": 1, "solve": 0, "duals": 1}
    # from the slack basis with nothing to improve, no basis is inverted
    assert solve_lp(_lp([1.0, 2.0], [[3.0, 4.0]], [5.0], [0.0, 0.0], [1.0, 1.0])).value == 0.0
    assert calls == {"inv": 1, "solve": 0, "duals": 1}


def _phase1_lps(rng, count):
    """LPs with equality rows, some of them repeated, stated as
    equalities on odd trials and as pairs of <= rows on even ones: phase
    1 ends with artificials still basic at zero."""
    for trial in range(count):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        E = np.round(rng.normal(size=(k, n)) * 2)
        if trial % 3 == 0:
            E = np.vstack([E, 2.0 * E[:1]])
        x0 = rng.integers(0, 3, size=n).astype(float)
        G = np.round(rng.normal(size=(2, n)) * 2)
        g = G @ x0 + rng.integers(0, 2, size=2)
        ub = np.where(rng.random(n) < 0.7, 3.0, np.inf)
        c = np.round(rng.normal(size=n) * 3)
        if trial % 2:
            eq = np.arange(E.shape[0] + 2) < E.shape[0]
            yield LinearProgram(c, np.vstack([E, G]), np.concatenate([E @ x0, g]), np.zeros(n), ub, eq=eq)
        else:
            A, b = np.vstack([E, -E, G]), np.concatenate([E @ x0, -(E @ x0), g])
            yield LinearProgram(c, A, b, np.zeros(n), ub)


def test_vectorized_pivot_out_matches_the_column_loop(monkeypatch):
    calls = [0]
    real = lp_module._Simplex.pivot_out

    def counting(sx, r, forbidden):
        calls[0] += 1
        return real(sx, r, forbidden)

    lps = list(_phase1_lps(seeded_rng(5), 400))
    monkeypatch.setattr(lp_module._Simplex, "pivot_out", counting)
    fast = [solve_lp(lp) for lp in lps]
    monkeypatch.setattr(lp_module._Simplex, "pivot_out", pivot_out_reference)
    slow = [solve_lp(lp) for lp in lps]
    assert calls[0] >= 400
    for trial, (a, b) in enumerate(zip(fast, slow)):
        assert a.status is b.status and a.iterations == b.iterations, trial
        if a.status is LPStatus.OPTIMAL:
            assert a.x.tobytes() == b.x.tobytes(), trial
            assert a.row_duals.tobytes() == b.row_duals.tobytes(), trial
            assert a.reduced_costs.tobytes() == b.reduced_costs.tobytes(), trial

