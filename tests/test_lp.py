import numpy as np
import pytest

from rbgames import LinearProgram, LPStatus, solve_lp, seeded_rng, support_from_points

import rbgames.lp as lp_module

from oracles import scipy_lp

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


def test_artificials_left_basic_after_phase_1_keep_the_answer_and_its_dual():
    # phase 1 ends with an artificial still basic at 0 on many of these
    # LPs; phase 2 fixes it there, so a degenerate pivot removes it or,
    # on a redundant row, it stays with row dual 0.  Every verdict and
    # optimal value matches scipy's, and the dual value the optimum
    def relative(a, b):
        return abs(a - b) <= 1e-6 * max(1.0, abs(b))

    optimal = kept = 0
    for trial, lp in enumerate(_phase1_lps(seeded_rng(5), 400)):
        res = solve_lp(lp)
        status, value, _ = scipy_lp(lp.c, lp.A, lp.b, lp.lb, lp.ub, eq=lp.eq)
        assert res.status.value.lower() == status, trial
        if res.status is LPStatus.OPTIMAL:
            optimal += 1
            kept += bool((res._state.basis >= lp.nvars + lp.nrows).any())
            assert relative(res.value, value), trial
            assert relative(res.dual_value(lp), res.value), trial
    assert optimal >= 350 and kept >= 200, (optimal, kept)



# an oracle LP of random_knapsack_game(1, 2, 40), cut down to 60 of its
# 624 points and 39 of its 40 coordinates: one 0/1 point per hex word,
# first coordinate first, and sigma, whose "f" entries are the fractions
_ORACLE_POINTS = """
73cc4e58ad 53ce4e5023 72ce0a582f 72de0e58af 73ce0e58af 73ce4e588b 32ca0e588f 62ca8e488e 738e0e008f 628e4e188f
13c64c188f 32c64e188f 12ce4e588f 72c64e488f 720e4c588e 52424c5887 52084c1887 53cc4c188f 708c4e588f 73044e488f
71464c480d 71444c000f 318e4c480f 218e4c580d 32ce4e5885 73ce4e588f 61cf0658a3 72c70e58ab 71cf4e58ab 524f0a588b
42cf0c588b 73c780488b 734b0b188b 13470e4889 534f0a088b 334706488a 33cf0e588b 73cf0e588b 23554258ab 12494648ab
13494a50aa 13414e582a 124d4658aa 32494458ab 734d44582b 73594458ab 73d94a50ab 63c54a582b 634f4e58ab 63c942582b
734348502a 73434650ab 734d4058aa 63834050aa 73cb4058aa 43c74058aa 538f4e58ab 238b4a58ab 03cf4a58ab 33c94848aa
"""
_ORACLE_SIGMA = "11100111100111f0f0011100101100010f01f11"
_ORACLE_FRACTIONS = [0.3724194880264734, 0.8490916597853257, 0.27931461601973934, 0.04232039636667879]


def test_a_degenerate_oracle_lp_keeps_its_basis_nonsingular():
    # the L1-distance LP of the separation oracle over these 0/1 points:
    # a pivot tolerance of 1e-11 that ignores the entering column's scale
    # admitted a pivot on rounding noise, and the basis went singular at
    # the next refresh; relative to the column's largest entry, the LP
    # ends Optimal at the distance that HiGHS finds, and its cut is as
    # deep as that distance
    P = np.array([[float(c) for c in format(int(w, 16), "039b")] for w in _ORACLE_POINTS.split()])
    sigma = np.array([float(c) if c != "f" else np.nan for c in _ORACLE_SIGMA])
    sigma[np.isnan(sigma)] = _ORACLE_FRACTIONS
    K, m = P.shape
    rows = np.vstack([np.hstack([P.T, np.eye(m), -np.eye(m)]), np.concatenate([np.ones(K), np.zeros(2 * m)])])
    n = K + 2 * m
    _, want, _ = scipy_lp(np.concatenate([np.zeros(K), np.ones(2 * m)]), rows, np.append(sigma, 1.0),
                          np.zeros(n), np.full(n, np.inf), eq=np.ones(m + 1, dtype=bool))
    support, pi = support_from_points(P, sigma)
    assert support is None and want > 0.1
    assert abs(float(pi @ sigma - (P @ pi).max()) - want) <= 1e-7
