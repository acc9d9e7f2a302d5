"""Golden-section search shared by the witness-time refinement and the
lossy-witness minimization, run elementwise over arrays of brackets."""

import math

import numpy as np

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, a, b, tol: float):
    """Golden-section search for a minimum on every bracket [a_i, b_i] at once.

    `f(x, idx)` returns the objective at the points x of the searches idx
    (an index array into the brackets). Each search shrinks its bracket
    until b - a <= tol and takes exactly the steps of a scalar search:
    keep [a, d] when f(c) < f(d), else [c, b], one new probe per step.
    All searches still running share one `f` call per step. Returns the
    final arrays (a, b, c, d, f(c), f(d)).
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
