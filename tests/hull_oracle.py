"""Reference certification in rational arithmetic, used as a test oracle.

This is the direct reading of the definitions: hull membership is decided
by enumerating subsets and solving each barycentric system with
`fractions.Fraction` Gaussian elimination, and the certification report
makes one such decision per condition (the whole set for Siegel, every
2m-subset for weak hyperbolicity, every deletion for indispensability).
It is slow and independent of the one-pass integer enumeration in
`lvmkit.config_geometry`, which the tests compare against it.
"""

import itertools
from fractions import Fraction

from lvmkit.config_geometry import ConfigReport, real_points


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fraction.

    Returns the unique solution of ``matrix @ t = rhs`` if the matrix has
    full column rank and the system is consistent, otherwise None.  The
    caller enumerates subsets, so uniqueness (affine independence) is all
    we need: by Caratheodory some affinely independent subset witnesses
    hull membership whenever any convex combination does.
    """
    rows = len(matrix)
    cols = len(matrix[0])
    aug = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    pivot_row = 0
    pivot_cols = []
    for col in range(cols):
        pr = None
        for r in range(pivot_row, rows):
            if aug[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        aug[pivot_row], aug[pr] = aug[pr], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    if len(pivot_cols) < cols:
        return None  # rank-deficient subset: skip, a smaller subset covers it
    # consistency: remaining rows must be zero
    for r in range(pivot_row, rows):
        if aug[r][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for i, col in enumerate(pivot_cols):
        sol[col] = aug[i][cols]
    return sol


def oracle_minimal_captures(points, target):
    """Yield every affinely independent subset, smallest first and in
    `itertools.combinations` order, whose barycentric coordinates of
    ``target`` are all positive."""
    pts = [[Fraction(x) for x in p] for p in points]
    rhs = [Fraction(x) for x in target] + [Fraction(1)]
    dim = len(target)
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            matrix = [[pts[i][d] for i in subset] for d in range(dim)]
            matrix.append([Fraction(1)] * size)
            sol = _solve_exact(matrix, rhs)
            if sol is not None and all(t > 0 for t in sol):
                yield subset


def _in_hull_exact(points, target):
    # by Caratheodory, target is in the hull iff a minimal capture exists
    return next(oracle_minimal_captures(points, target), None) is not None


def oracle_report(config):
    """The certification report, one hull enumeration per condition."""
    pts = real_points(config).tolist()
    origin = [0.0] * (2 * config.m)
    siegel = _in_hull_exact(pts, origin)
    hyperbolic = not any(
        _in_hull_exact([pts[i] for i in subset], origin)
        for subset in itertools.combinations(range(config.n), 2 * config.m))
    indispensable = frozenset()
    triple = None
    if siegel:
        indispensable = frozenset(
            j + 1 for j in range(config.n)
            if not _in_hull_exact(pts[:j] + pts[j + 1:], origin))
        if hyperbolic:
            triple = (config.m, config.n, len(indispensable))
    return ConfigReport(siegel, hyperbolic, indispensable, triple)
