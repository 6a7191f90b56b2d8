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

The enumeration is exact and carries no tolerance.  A floating-point
filter decides it where every 2m x 2m determinant clears an error bound
derived from its expansion (Fortune and Van Wyk 1996, Shewchuk 1997).
Elsewhere, as every finite float is a dyadic rational, the points are
scaled by one power of two to integers.  A table of integer leading
minors, each expanded from those one size smaller, decides almost every
subset by the signs of minors and cofactors; only a subset whose leading
minor vanishes is solved by fraction-free integer elimination (Bareiss 1968).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .resonance import _integer

_BLOCK = 1024  # (2m+1)-subsets per array block of `_filtered_captures`


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
            for c in v:
                if not np.isfinite(c.real) or not np.isfinite(c.imag):
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


@functools.lru_cache(maxsize=None)
def _expansion(dim):
    """Index arrays (2, C, k+1), k = 1 .. dim-1, expanding each (k+1)-minor
    of a (dim+1) x dim matrix along column k: its rows, last first, and the
    ranks of its faces without them."""
    levels, rows = [], [(i,) for i in range(dim + 1)]
    for k in range(1, dim):
        rank = dict(zip(rows, itertools.count()))
        rows = list(itertools.combinations(range(dim + 1), k + 1))
        faces = map(itertools.combinations, rows, itertools.repeat(k))
        levels.append(np.fromiter(itertools.chain(
            itertools.chain.from_iterable(map(reversed, rows)),
            map(rank.get, itertools.chain.from_iterable(faces))),
            np.intp).reshape(2, -1, k + 1))
    return levels


def _subset_blocks(n, dim):
    """Blocks of at most _BLOCK (dim+1)-subsets of range(n), in order, each
    a list and its (dim+1, block) indices.  `_one_block` keeps a lone block
    (252 subsets at n = 10, m = 2); more are streamed, so memory stays low."""
    subsets = itertools.combinations(range(n), dim + 1)
    for chunk in iter(lambda: list(itertools.islice(subsets, _BLOCK)), []):
        yield chunk, np.fromiter(itertools.chain.from_iterable(chunk),
                                 np.intp).reshape(-1, dim + 1).T


_one_block = functools.lru_cache(maxsize=None)(
    lambda n, dim: tuple(_subset_blocks(n, dim)))


def _filtered_captures(points, target):
    """The minimal captures, or None if n <= dim, dim > 8 (where a block
    peaks above 20 MB and the bound starts to defer generic points) or the
    sign of a dim-subset's determinant D is in doubt.  No capture has dim
    points or fewer if every D != 0, and a (dim+1)-subset is a capture iff
    the signed D of its faces share one strict sign."""
    n, dim = len(points), len(target)
    if not 0 < dim < min(n, 9):
        return None
    # Scaling a point by a power of two changes no sign that decides a
    # capture; each is put in [1/2, 1), rounding only what underflows.
    x = []
    for point in points:
        point = [p - t for p, t in zip(point, target)]
        top = max(map(abs, point))
        if not math.isfinite(top):
            return None  # the subtraction overflowed
        x.append([math.ldexp(v, -math.frexp(top)[1]) for v in point])
    x = np.array(x).T
    # D is expanded as the exact path expands it: a minor of size k sums, in
    # any order, k products of an entry, rounded once in the subtraction,
    # and a minor of size k-1.  So D is off by at most gamma_c P = c u P /
    # (1 - c u), u = 2^-53, c = 1 + sum_{k=2..dim} (k + 1), 13 for m = 2
    # (Higham, Accuracy and Stability, sec. 3.1), P the permanent of the
    # absolute entries.  They are below 1, so P < dim^dim, and 2 c u dim^dim
    # covers gamma_c P and the at most dim dim! 2^-1073 that underflow adds.
    bound = (dim * (dim + 1) + 2 * dim - 2) * dim ** dim * 2.0 ** -53
    signs = np.array([1.0, -1.0] * dim)
    blocks = _one_block if math.comb(n, dim + 1) <= _BLOCK else _subset_blocks
    captures = []
    for chunk, subsets in blocks(n, dim):
        entries = x.take(subsets, 1)
        minors = entries[0]  # (dim + 1 subsets of rows, block)
        for k, (rows, faces) in enumerate(_expansion(dim), 1):
            minors = signs[:k + 1] @ (entries[k].take(rows, 0)
                                      * minors.take(faces, 0))
        if np.count_nonzero(abs(minors) > bound) < minors.size:
            return None
        # D of the faces without row dim, ..., 0 alternate in sign
        captures += itertools.compress(chunk, map(all, zip(
            *(minors[1:] * minors[:-1] < 0).tolist())))
    return captures


def _minimal_captures(points, target):
    """Yield, smallest first, every minimal capture of ``target``: an
    affinely independent subset (tuple of indices) of at most dim+1 points
    that has ``target`` strictly inside, with all barycentric coordinates
    positive.  By Caratheodory, ``target`` lies in the convex hull of a set
    of points iff some subset of them is a minimal capture.  They are taken
    from `_filtered_captures` where it decides, else found exactly:

    A subset S of k <= dim points with a nonzero leading minor (over the
    first k coordinates) is independent, so it misses the origin.  S of
    dim+1 points is a capture iff its cofactors (-1)^i minor(S - s_i), whose
    sum D is the barycentric determinant and cofactor / D the weights, are
    all nonzero with one sign.  Minors are expanded along their last row
    from those one size smaller; ``_captures_origin`` decides the rest.
    """
    captures = _filtered_captures(points, target)
    if captures is not None:
        yield from captures
        return
    columns = _integer_columns(points, target)
    dim = len(target)
    minors = {(): 1}
    for size in range(1, min(len(columns), dim + 1) + 1):
        last_row = [c[size - 1] for c in columns] if size <= dim else None
        level = {}
        for subset in itertools.combinations(range(len(columns)), size):
            # last-row cofactors (ones row at size dim+1), s_{size-1}..s_0
            cofactors = [minors[face]
                         for face in itertools.combinations(subset, size - 1)]
            cofactors[1::2] = [-c for c in cofactors[1::2]]
            if size > dim:
                if min(cofactors) > 0 or max(cofactors) < 0:
                    yield subset
                continue
            minor = sum(last_row[s] * c
                        for s, c in zip(reversed(subset), cofactors))
            level[subset] = minor
            if not minor and _captures_origin(
                    [columns[i] for i in subset], dim):
                yield subset
        minors = level


def _certify(config):
    """(Siegel, weakly hyperbolic, indispensable) from one enumeration."""
    real = [[x for c in v for x in (c.real, c.imag)] for v in config.vectors]
    captures = [set(s) for s in _minimal_captures(real, [0.0] * 2 * config.m)]
    hyperbolic = all(len(s) > 2 * config.m for s in captures)
    if not captures:
        return False, hyperbolic, frozenset()
    common = set.intersection(*captures)
    # 1-based, matching the Lambda numbering
    return True, hyperbolic, frozenset(j + 1 for j in common)


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
    dim = len(target)
    for p in points:
        if len(p) != dim:
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
