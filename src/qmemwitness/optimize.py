"""Bounded one-dimensional minimizers run over arrays of brackets.

Both run one search per bracket, the searches advancing in lockstep so
that each round makes one objective call. `brent_bounded` refines the
witness times: Brent's bounded method needs function values only.
`safeguarded_newton` serves the lossy-witness minimization, whose slope
and its derivative are closed form and whose one minimum in r lets a
single search span the whole range: Newton steps converge
quadratically and cost array operations only.
"""

import math

import numpy as np

# the constants of scipy.optimize.minimize_scalar(method="bounded"), so
# that each search takes its steps bit for bit
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def safeguarded_newton(f, a, b, xtol: float):
    """Minimum on every bracket [a_i, b_i] at once, from the slope.

    `f(x, idx)` returns the slope g and its derivative g' at the points x
    of the searches idx (an index array into the brackets). Both ends take
    one `f` call; a search ends there at a if g(a) >= 0, else at b if
    g(b) <= 0. The others keep [lo, hi] with g(lo) < 0 <= g(hi) and, from
    the midpoint on, take the Newton step where it stays in the bracket
    and is at most half the step before last, else bisect (rtsafe of
    Numerical Recipes), until a step is shorter than xtol; its point is
    returned unprobed. Every two steps halve the step or the bracket, so
    each search ends; those running share one `f` call per round.
    """
    a, b = (np.array(v, dtype=float, ndmin=1) for v in (a, b))
    n = a.size
    g, _ = f(np.concatenate((a, b)), np.tile(np.arange(n), 2))
    final = np.where(g[:n] >= 0, a, b)
    idx = np.flatnonzero((g[:n] < 0) & (g[n:] > 0))
    lo, hi = a[idx], b[idx]
    step_old = step = hi - lo
    x = lo + 0.5 * step
    while idx.size:
        g, dg = f(x, idx)
        lo, hi = np.where(g < 0, x, lo), np.where(g < 0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):   # a NaN step bisects
            newton = g / dg
        take = (lo <= x - newton) & (x - newton <= hi) & (2.0 * abs(newton) <= abs(step_old))
        step_old, step = step, np.where(take, newton, 0.5 * (hi - lo))
        x = np.where(take, x - newton, lo + step)
        done = abs(step) < xtol
        final[idx[done]] = x[done]
        idx, x, lo, hi, step, step_old = (v[~done] for v in (idx, x, lo, hi, step, step_old))
    return final


def _brent_steps(a: float, b: float, xatol: float):
    """Brent's bounded minimization on [a, b] as a generator.

    Yields each probe and is sent its objective value; returns the best
    probe and its value. The steps are those of scipy's
    `minimize_scalar(method="bounded")` without its iteration cap: a
    parabolic step through the three best points when it falls inside
    the bracket and shrinks, else a golden step into the larger part,
    never closer than tol1 = sqrt(eps)|x| + xatol/3 to the best point.
    It stops once |x - m| <= 2 tol1 - (b - a)/2 around the midpoint m,
    so the final bracket is at most 4 tol1 wide. Every step moves an end
    of the bracket by at least tol1 > 0, so the search ends.
    """
    x = v = w = a + _GOLDEN_MEAN * (b - a)
    fx = fv = fw = yield x
    d = e = 0.0
    m = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    while abs(x - m) > 2.0 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:   # try a parabola through x, w and v
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = (p + 0.0) / q
                u = x + d
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    d = tol1 if m >= x else -tol1
            else:
                golden = True
        if golden:
            e = (a if x >= m else b) - x
            d = _GOLDEN_MEAN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = yield u
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    return x, fx


def brent_bounded(f, a, b, xatol: float):
    """Brent's bounded minimization on every bracket [a_i, b_i] at once.

    `f(x, idx)` returns the objective at the points x of the searches idx
    (an index array into the brackets). Each search takes the steps of
    scipy's `minimize_scalar(method="bounded", options={"xatol": xatol})`;
    every round makes one `f` call on the next probes of the searches
    still running, so there are as many calls as the longest search has
    probes. Returns the arrays (x, f(x)) of each search's best probe.
    """
    searches = [_brent_steps(float(lo), float(hi), xatol) for lo, hi in zip(a, b)]
    idx = np.arange(len(searches))
    probes = np.array([next(s) for s in searches])
    best = np.empty((2, len(searches)))
    while idx.size:
        running, nxt = [], []
        for i, value in zip(idx, f(probes, idx)):
            try:
                nxt.append(searches[i].send(float(value)))
                running.append(i)
            except StopIteration as stop:
                best[:, i] = stop.value
        idx, probes = np.array(running, dtype=int), np.array(nxt)
    return best[0], best[1]
