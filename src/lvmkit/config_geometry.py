"""Certification of vector configurations in C^2.

A configuration is an ordered tuple of n vectors in C^m (here m=2, n=6).
The certification pipeline decides three geometric conditions on the
associated point set in R^{2m}:

* the origin lies in the convex hull of all vectors ("Siegel"),
* no subset of exactly 2m vectors contains the origin in its hull
  ("weak hyperbolicity"),
* which single vectors cannot be removed without losing the first
  condition (the "indispensable" indices).

All three are read off one enumeration of the *minimal captures*: the
affinely independent subsets of at most 2m+1 vectors whose barycentric
coordinates of the origin are all positive.  By Caratheodory, the origin
lies in the hull of a set of vectors iff some subset of it is a minimal
capture, so

* Siegel holds iff a minimal capture exists,
* weak hyperbolicity holds iff no minimal capture has 2m or fewer vectors,
* index j is indispensable iff j lies in every minimal capture.

The enumeration is exact and carries no tolerance.  It reads the signs of
one table of leading minors, each expanded from those one size smaller.  A
floating-point filter computes the table and decides where every 2m x 2m
determinant clears an error bound derived from that expansion (Fortune and
Van Wyk 1996, Shewchuk 1997).  Elsewhere, as every finite float is a dyadic
rational, the points are scaled by one power of two to integers and the
table is computed again exactly; only a subset whose leading minor vanishes
is solved by fraction-free integer elimination (Bareiss 1968).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .resonance import _integer

_BLOCK = 1024  # (2m+1)-subsets per array block of `_simplex_captures`


class NotLVMError(Exception):
    """Raised when a configuration fails Siegel or weak hyperbolicity."""

    def __init__(self, failed_condition):
        self.failed_condition = failed_condition
        super().__init__("configuration is not admissible: %s fails" % failed_condition)


@dataclass(frozen=True)
class Configuration:
    m: int
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("ambient dimension m", self.m))
        if self.m < 1:
            raise ValueError("ambient dimension m must be >= 1")
        vecs = tuple(tuple(complex(c) for c in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if len(vecs) < 2 * self.m + 1:
            raise ValueError("need at least 2m+1 vectors")
        for v in vecs:
            if len(v) != self.m:
                raise ValueError("every vector must have m coordinates")
            if not np.isfinite(v).all():
                raise ValueError("vector coordinates must be finite")

    @property
    def n(self):
        return len(self.vectors)


@dataclass(frozen=True)
class ConfigReport:
    is_siegel: bool
    is_weakly_hyperbolic: bool
    indispensable: frozenset
    type_triple: tuple or None


def real_points(config):
    """Return the configuration as an (n, 2m) array of reals."""
    return np.array(config.vectors, dtype=complex).view(float)


def _integer_columns(points, target):
    """Return ``points - target`` as exact integer vectors.

    Every finite float is p / 2^e, so multiplying all coordinates by the
    largest denominator that occurs makes them integers without rounding,
    and the subtraction is then exact as well.  Barycentric coordinates do
    not change under this common positive scaling.
    """
    ratios = [[x.as_integer_ratio() for x in p] for p in points]
    shift = [x.as_integer_ratio() for x in target]
    scale = max((den for row in ratios + [shift] for _, den in row),
                default=1)
    shift = [num * (scale // den) for num, den in shift]
    return [[num * (scale // den) - t for (num, den), t in zip(row, shift)]
            for row in ratios]


def _captures_origin(columns, dim):
    """True iff the integer vectors are affinely independent and the origin
    is a convex combination of them with every weight positive.  Only asked
    of subsets whose leading minor vanishes (see ``_minimal_captures``).

    The barycentric system is the row of ones with right-hand side 1 and
    one row per coordinate with right-hand side 0.  It is solved by
    fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor of the system, each division is exact, and at the end
    the pivot rows read ``D * t_i = r_i`` with one common determinant D.
    """
    k = len(columns)
    rows = [[1] * (k + 1)]
    rows += [[c[d] for c in columns] + [0] for d in range(dim)]
    pivots = []
    prev = 1
    for col in range(k):
        for r, row in enumerate(rows):
            if row[col]:
                break
        else:
            return False  # affinely dependent: a smaller subset covers it
        prow = rows.pop(r)
        pivot = prow[col]
        for row in pivots + rows:
            f = row[col]
            for j in range(col + 1, k + 1):
                row[j] = (pivot * row[j] - f * prow[j]) // prev
        pivots.append(prow)
        prev = pivot
    if any(row[k] for row in rows):
        return False  # inconsistent: the origin is off the affine hull
    return all(row[k] * prev > 0 for row in pivots)


def _indexed(subsets, rank):
    """The k-subsets listed, in order; index arrays (k, count) of their
    points, last first, and of the ``rank`` of their faces without them;
    and the signs +1, -1, ... that the expansion gives those terms."""
    k = len(subsets[0])
    faces = map(itertools.combinations, subsets, itertools.repeat(k - 1))
    points, faces = np.fromiter(itertools.chain(
        itertools.chain.from_iterable(map(reversed, subsets)),
        map(rank.get, itertools.chain.from_iterable(faces))),
        np.intp).reshape(2, -1, k).transpose(0, 2, 1).copy()
    return subsets, points, faces, np.resize([1, -1], k)


def _ranks(n, k):
    """The rank of each k-subset of range(n) in order."""
    return dict(zip(itertools.combinations(range(n), k), itertools.count()))


_level = functools.lru_cache(maxsize=None)(lambda n, k: _indexed(
    list(itertools.combinations(range(n), k)), _ranks(n, k - 1)))


def _leading_minors(x):
    """Yield the table of leading minors of the columns of x (dim, n), in
    floats or exact integers: for k = 1 .. min(n, dim), the k-subsets in
    order and their minors over the first k rows, each expanded along its
    last row from the level below."""
    dim, n = x.shape
    for k in range(1, min(n, dim) + 1):
        subsets, points, faces, signs = _level(n, k)
        minors = (signs @ (x[k - 1].take(points) * minors.take(faces))
                  if k > 1 else x[0])
        yield subsets, minors


def _simplex_captures(minors, n, dim):
    """Yield the (dim+1)-subsets of range(n), in order, whose cofactors
    along the row of ones, from the dim-``minors`` of their faces, share one
    strict sign.  They stream in blocks of _BLOCK; one block is `_level`'s."""
    if math.comb(n, dim + 1) <= _BLOCK:
        blocks = [_level(n, dim + 1)]
    else:
        rank = _ranks(n, dim)
        stream = itertools.combinations(range(n), dim + 1)
        blocks = (_indexed(chunk, rank) for chunk in iter(
            lambda: list(itertools.islice(stream, _BLOCK)), []))
    for subsets, _, faces, _ in blocks:
        faced = minors.take(faces)  # the faces without s_dim, ..., s_0
        yield from itertools.compress(subsets, np.logical_and.reduce(
            faced[1:] * faced[:-1] < 0).tolist())


def _filtered_captures(points, target):
    """The minimal captures, or None if n <= dim, dim > 8 (where the bound
    starts to defer generic points) or the sign of a dim-subset's
    determinant D is in doubt.  No capture has dim points or fewer if every
    D != 0, and a (dim+1)-subset is a capture iff the signed D of its faces
    share one strict sign."""
    n, dim = len(points), len(target)
    if not 0 < dim < min(n, 9):
        return None
    # Scaling a point by a power of two changes no sign that decides a
    # capture; each is put in [1/2, 1), rounding only what underflows.
    with np.errstate(over="ignore"):
        x = np.subtract(points, target, dtype=float)
    top = abs(x).max(1)
    if not np.isfinite(top).all():
        return None  # the subtraction overflowed
    x = np.ldexp(x, -np.frexp(top)[1][:, None]).T
    # D is expanded as the exact path expands it: a minor of size k sums, in
    # any order, k products of an entry, rounded once in the subtraction,
    # and a minor of size k-1.  So D is off by at most gamma_c P = c u P /
    # (1 - c u), u = 2^-53, c = 1 + sum_{k=2..dim} (k + 1), 13 for m = 2
    # (Higham, Accuracy and Stability, sec. 3.1), P the permanent of the
    # absolute entries.  They are below 1, so P < dim^dim, and 2 c u dim^dim
    # covers gamma_c P and the at most dim dim! 2^-1073 that underflow adds.
    bound = (dim * (dim + 1) + 2 * dim - 2) * dim ** dim * 2.0 ** -53
    *_, (_, minors) = _leading_minors(x)
    if not (abs(minors) > bound).all():
        return None
    return list(_simplex_captures(minors, n, dim))


def _minimal_captures(points, target):
    """Yield, smallest first, every minimal capture of ``target``: an
    affinely independent subset (tuple of indices) of at most dim+1 points
    that has ``target`` strictly inside, with all barycentric coordinates
    positive.  By Caratheodory, ``target`` lies in the convex hull of a set
    of points iff some subset of them is a minimal capture.  They are taken
    from `_filtered_captures` where it decides, else read exactly off the
    same table of leading minors, in integers:

    A subset S of k <= dim points with a nonzero leading minor (over the
    first k coordinates) is independent, so it misses the origin; only
    where that minor is 0 does ``_captures_origin`` decide.  S of dim+1
    points is a capture iff its cofactors (-1)^i minor(S - s_i), whose sum
    D is the barycentric determinant and cofactor / D the weights, are all
    nonzero with one sign.
    """
    captures = _filtered_captures(points, target)
    if captures is not None:
        yield from captures
        return
    columns = _integer_columns(points, target)
    n, dim = len(columns), len(target)
    minors = np.ones(1, object)  # the empty minor, for dim = 0
    for subsets, minors in _leading_minors(np.array(columns, object).T):
        for i in np.flatnonzero(minors == 0):
            if _captures_origin([columns[j] for j in subsets[i]], dim):
                yield subsets[i]
    if n > dim:
        yield from _simplex_captures(minors, n, dim)


def _certify(config):
    """(Siegel, weakly hyperbolic, indispensable) from one enumeration."""
    captures = [set(s) for s in _minimal_captures(real_points(config),
                                                  [0.0] * 2 * config.m)]
    hyperbolic = all(len(s) > 2 * config.m for s in captures)
    common = set.intersection(*captures) if captures else ()
    # 1-based, matching the Lambda numbering
    return bool(captures), hyperbolic, frozenset(j + 1 for j in common)


def in_convex_hull(points, target):
    """Decide whether target is a convex combination of the given points.

    The decision is tolerance-free: floating point decides it where a
    derived error bound allows, integer arithmetic over the binary values
    of the inputs everywhere else.
    """
    points = [tuple(float(x) for x in p) for p in points]
    target = tuple(float(x) for x in target)
    if not points:
        raise ValueError("point list must be non-empty")
    if any(len(p) != len(target) for p in points):
        raise ValueError("dimension mismatch between points and target")
    if not np.isfinite(points + [target]).all():
        raise ValueError("point and target coordinates must be finite")
    return next(_minimal_captures(points, target), None) is not None


def check_siegel(config):
    """True iff the origin lies in the hull of all configuration vectors."""
    return in_convex_hull(real_points(config), [0.0] * 2 * config.m)


def check_weak_hyperbolicity(config):
    """True iff no subset of exactly 2m vectors captures the origin."""
    return _certify(config)[1]


def indispensable_points(config):
    """Indices whose removal breaks the Siegel condition."""
    siegel, _, indispensable = _certify(config)
    if not siegel:
        raise ValueError("indispensable_points requires a Siegel configuration")
    return set(indispensable)


def classify_type(config):
    """Return the triple (m, n, k) or raise NotLVMError."""
    siegel, hyperbolic, indispensable = _certify(config)
    if not siegel:
        raise NotLVMError("Siegel")
    if not hyperbolic:
        raise NotLVMError("weak hyperbolicity")
    return (config.m, config.n, len(indispensable))


def config_report(config):
    siegel, hyperbolic, indispensable = _certify(config)
    triple = None
    if siegel and hyperbolic:
        triple = (config.m, config.n, len(indispensable))
    return ConfigReport(siegel, hyperbolic, indispensable, triple)


def normalize_affine(config):
    """Apply the unique affine map sending the first m+1 vectors to
    e_1, ..., e_m, 0 and return the transformed configuration."""
    m = config.m
    vecs = np.array(config.vectors, dtype=complex)
    # solve for M (m x m) and b: M @ v_i + b = e_i, and = 0 for i = m
    lhs = np.hstack([vecs[:m + 1], np.ones((m + 1, 1))])  # rows (v_i, 1)
    try:
        coeffs = np.linalg.solve(lhs, np.eye(m + 1, m))  # [M^T; b^T]
    except np.linalg.LinAlgError:  # a zero pivot
        raise ValueError("first m+1 vectors are affinely degenerate") from None
    return Configuration(m, tuple(map(tuple, vecs @ coeffs[:m] + coeffs[m])))
