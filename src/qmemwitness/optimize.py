"""Bounded one-dimensional minimizers run over arrays of brackets.

`brent_bounded` refines the witness times: Brent's bounded method, one
search per bracket, the searches advancing in lockstep so that each
round makes one objective call. `golden_section` serves the lossy-witness
minimization, where the per-step cost of the cheap vectorized objective
is the bookkeeping and golden section's array steps are cheaper than
Brent's scalar ones.
"""

import math

import numpy as np

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the constants of scipy.optimize.minimize_scalar(method="bounded"), so
# that each search takes its steps bit for bit
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def golden_section(f, a, b, tol: float):
    """Golden-section search for a minimum on every bracket [a_i, b_i] at once.

    `f(x, idx)` returns the objective at the points x of the searches idx
    (an index array into the brackets). Each search shrinks its bracket
    until b - a <= tol and takes exactly the steps of a scalar search:
    keep [a, d] when f(c) < f(d), else [c, b], one new probe per step.
    All searches still running share one `f` call per step. Returns the
    final arrays (a, b, c, d, f(c), f(d)).

    The lossy-witness minimization uses it: its numpy steps cost less
    than the scalar steps of `brent_bounded` when the objective is cheap
    and the brackets many, while the witness-time refinement, whose
    objective calls dominate, takes `brent_bounded` for its fewer rounds.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    width = b - a
    c, d = b - INV_GOLDEN * width, a + INV_GOLDEN * width
    idx = np.arange(a.size)
    fc, fd = f(c, idx), f(d, idx)
    final = np.empty((6, a.size))
    while True:
        run = width > tol
        if not run.all():   # set the finished searches aside
            final[:, idx[~run]] = a[~run], b[~run], c[~run], d[~run], fc[~run], fd[~run]
            idx, a, b, c, d, fc, fd = (v[run] for v in (idx, a, b, c, d, fc, fd))
        if not idx.size:
            return tuple(final)
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        step = INV_GOLDEN * width
        new = np.where(left, b - step, a + step)
        f_new = f(new, idx)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)


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

    `f(x, idx)` returns the objective at the points x of the searches idx,
    as for `golden_section`. Each search takes exactly the steps of
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
