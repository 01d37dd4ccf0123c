"""Independent oracles for the benchmark's outputs.

Nothing here imports ``rifs``: step functions arrive as plain ``(t0, t1, v)``
piece lists and every quantity is recomputed with numpy closed forms, scipy
quadrature and root/minimum finders, or exact ``fractions.Fraction``
arithmetic.  The oracles run outside the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.optimize import brentq, minimize_scalar


# ------------------------------------------------------------ step functions

def as_arrays(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = np.asarray(pieces, dtype=float).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def values_at(pieces, ts: np.ndarray) -> np.ndarray:
    """Evaluate a step function (sorted disjoint pieces) at the points ts."""
    t0, t1, v = as_arrays(pieces)
    out = np.zeros_like(ts)
    if len(t0) == 0:
        return out
    k = np.searchsorted(t0, ts, side="right") - 1
    inside = (k >= 0) & (ts < t1[np.clip(k, 0, None)])
    out[inside] = v[k[inside]]
    return out


def common_cells(*piece_lists) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Cells of the common refinement and each function's value on them."""
    edges = np.unique(np.concatenate(
        [np.asarray(p, dtype=float).reshape(-1, 3)[:, :2].ravel() for p in piece_lists]))
    lo, hi = edges[:-1], edges[1:]
    mids = 0.5 * (lo + hi)
    return lo, hi, [values_at(p, mids) for p in piece_lists]


def star_of(pieces):
    """x* as (right edges T_k, values v_k), sorting |v| with the piece lengths."""
    t0, t1, v = as_arrays(pieces)
    keep = v != 0.0
    mag = np.abs(v[keep])
    order = np.argsort(-mag, kind="stable")
    return np.cumsum((t1 - t0)[keep][order]), mag[order]


def starstar_coeffs(T: np.ndarray, v: np.ndarray):
    """x** = B_k + A_k / t on (T_{k-1}, T_k); returns (left edges, A, B, mass)."""
    left = np.concatenate([[0.0], T[:-1]])
    F_left = np.concatenate([[0.0], np.cumsum(v * np.diff(np.concatenate([[0.0], T])))[:-1]])
    A = F_left - v * left
    mass = float(np.sum(v * (T - left)))
    return left, A, v.copy(), mass


def F_at(T: np.ndarray, v: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``F(t) = integral_0^t x*`` at the points ts."""
    left = np.concatenate([[0.0], T[:-1]])
    F_edges = np.concatenate([[0.0], np.cumsum(v * (T - left))])
    edges = np.concatenate([[0.0], T])
    return np.interp(ts, edges, F_edges)


# ------------------------------------------------------------------ weights

def _power_antider(c: float, a: float, t: np.ndarray) -> np.ndarray:
    if a == -1.0:
        return c * np.log(t)
    return c * t ** (a + 1.0) / (a + 1.0)


def _power_integral(c: float, a: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``integral_lo^hi c t^a dt`` elementwise; lo may be 0 when a > -1, hi may be inf when a < -1."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(np.isinf(hi), 0.0, _power_antider(c, a, np.where(np.isinf(hi), 1.0, hi)))
        lower = np.where(lo == 0.0, 0.0, _power_antider(c, a, np.where(lo == 0.0, 1.0, lo)))
    return upper - lower


def _powlog_tail(c: float, a: float, b: float, lo: float, hi: float) -> float:
    """``integral_lo^hi c t^a log(e+t)^b dt`` by scipy quad (hi may be inf)."""
    if b == 0.0:
        return float(_power_integral(c, a, np.array([lo]), np.array([hi]))[0])
    val, _ = quad(lambda t: c * t ** a * math.log(math.e + t) ** b, lo, hi,
                  epsabs=0.0, epsrel=1e-13, limit=500)
    return val


def _cells_numeric(A, B, p, c, a, b, lo, hi) -> np.ndarray:
    """``integral_lo^hi (B + A/t)^p c t^a log(e+t)^b dt`` per cell by
    ``scipy.integrate.quad_vec`` in the variable u = log t on each cell."""
    llo, lhi = np.log(lo), np.log(hi)
    span = lhi - llo

    def f(s: float) -> np.ndarray:
        t = np.exp(llo + s * span)
        return (B + A / t) ** p * c * t ** a * np.log(np.e + t) ** b * t * span

    val, _ = quad_vec(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, norm="max", limit=2000)
    return np.asarray(val)


def gamma_norm(pieces, p: float, weight) -> float:
    """``( integral (x**)^p w )^(1/p)`` for a weight given as (t0, t1, c, a, b) pieces."""
    T, v = star_of(pieces)
    if len(T) == 0:
        return 0.0
    left, A, B, mass = starstar_coeffs(T, v)
    total = 0.0
    for w0, w1, c, a, b in weight:
        if c == 0.0:
            continue
        # x** cells clipped to this weight piece
        lo = np.maximum(left, w0)
        hi = np.minimum(T, w1)
        ok = hi > lo
        lo, hi, Ak, Bk = lo[ok], hi[ok], A[ok], B[ok]
        if len(lo):
            closed = (Ak == 0.0) & (b == 0.0)
            if closed.any():
                total += float(np.sum(Bk[closed] ** p * _power_integral(c, a, lo[closed], hi[closed])))
            rest = ~closed
            if p == 2.0 and b == 0.0 and rest.any():
                Ar, Br, l, h = Ak[rest], Bk[rest], lo[rest], hi[rest]
                total += float(np.sum(Br * Br * _power_integral(c, a, l, h)
                                      + 2.0 * Ar * Br * _power_integral(c, a - 1.0, l, h)
                                      + Ar * Ar * _power_integral(c, a - 2.0, l, h)))
            elif rest.any():
                total += float(np.sum(_cells_numeric(Ak[rest], Bk[rest], p, c, a, b,
                                                     lo[rest], hi[rest])))
        # beyond the support x** = mass / t
        end = float(T[-1])
        if w1 > end:
            total += mass ** p * _powlog_tail(c, a - p, b, max(w0, end), w1)
    return total ** (1.0 / p)


def lambda_norm(pieces, p: float, c: float, a: float) -> float:
    """``( integral (x*)^p c t^a )^(1/p)`` in closed form."""
    T, v = star_of(pieces)
    left = np.concatenate([[0.0], T[:-1]])
    return float(np.sum(v ** p * _power_integral(c, a, left, T))) ** (1.0 / p)


# ------------------------------------------------------------------- Orlicz

def psi_exp(u: np.ndarray) -> np.ndarray:
    return np.expm1(np.abs(u))


def psi_table(points, u: np.ndarray) -> np.ndarray:
    """Convex piecewise-linear Young function through (0, 0) and the points,
    continued linearly beyond the last point."""
    ts = np.array([0.0] + [t for t, _ in points])
    vs = np.array([0.0] + [v for _, v in points])
    u = np.abs(u)
    slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
    return np.where(u <= ts[-1], np.interp(u, ts, vs), vs[-1] + slope * (u - ts[-1]))


def luxemburg_norm(pieces, psi) -> float:
    """Root of ``rho(x / lam) = 1`` by scipy brentq; psi maps |u| arrays to values."""
    t0, t1, v = as_arrays(pieces)
    if len(v) == 0:
        return 0.0
    lens, mags = t1 - t0, np.abs(v)

    def excess(lam: float) -> float:
        return float(np.sum(lens * psi(mags / lam))) - 1.0

    lo = hi = float(np.sum(lens * mags)) or 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    while excess(lo) <= 0.0:
        lo *= 0.5
    return brentq(excess, lo, hi, xtol=1e-15 * hi, rtol=4 * np.finfo(float).eps, maxiter=500)


def amemiya_power_norm(pieces, p: float, coef: float = 1.0) -> float:
    """``inf_k (1 + rho(k x)) / k`` for psi = coef |u|^p by scipy minimize_scalar."""
    t0, t1, v = as_arrays(pieces)
    S = coef * float(np.sum((t1 - t0) * np.abs(v) ** p))

    def h(logk: float) -> float:
        k = math.exp(logk)
        return (1.0 + k ** p * S) / k

    guess = -math.log(S) / p
    res = minimize_scalar(h, bracket=(guess - 3.0, guess + 3.0), method="brent",
                          options={"xtol": 1e-12})
    return float(res.fun)


# ---------------------------------------------------------------- domination

def hlp_dominates(x_pieces, y_pieces, rel_margin: float = 1e-9) -> bool | None:
    """x** <= y** everywhere?  None when the closest approach lies within
    rel_margin of equality, where either answer is within rounding.

    F = integral of the rearrangement is piecewise linear, so comparing
    x** = F/t at every breakpoint of either x* and at t -> 0+ is exact.
    """
    Tx, vx = star_of(x_pieces)
    Ty, vy = star_of(y_pieces)
    ts = np.unique(np.concatenate([Tx, Ty]))
    if len(ts) == 0:
        return True
    top_x = float(vx[0]) if len(vx) else 0.0
    top_y = float(vy[0]) if len(vy) else 0.0
    gaps = (F_at(Ty, vy, ts) - F_at(Tx, vx, ts)) / ts
    worst = min(float(np.min(gaps)), top_y - top_x)
    if abs(worst) <= rel_margin * max(1.0, top_y):
        return None
    return worst > 0.0


def rel_close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol


# ------------------------------------------------------------ exact classes

def in_D_p(weight, p: Fraction) -> bool:
    """Exact D_p membership on (0, inf) for weight pieces with Fraction fields.

    W(s) finite needs the first piece integrable at 0 (a > -1 when c > 0);
    W_p(s) finite needs ``integral^inf t^(a-p) log(e+t)^b`` to converge on the
    tail piece: a - p < -1, or a - p = -1 and b < -1.
    """
    _, _, c0, a0, _ = weight[0]
    if c0 > 0 and a0 <= -1:
        return False
    _, _, c, a, b = weight[-1]
    if c > 0:
        e = a - p
        if e > -1 or (e == -1 and b >= -1):
            return False
    return True
