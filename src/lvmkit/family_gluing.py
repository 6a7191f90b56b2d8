"""Gluing maps between the parameter charts of the deformation families.

Three charts are in play, each a space of commuting matrix pairs acting
on V = C* x (C^2 \\ {0}):

* "T"    -- pairs of block-lower-triangular matrices with one shear entry
            each, plus a free parameter lambda; the pair acts linearly.
* "T_pq" -- same matrix shape and lambda, indexed by (p, q) with q >= 2;
            the action twists the shear by the monomial xi1^p xi2^q.
* "S_p"  -- pairs with a full lower-right 2x2 block and no lambda; the
            action twists the off-diagonal block entries by xi1^{+-p}.

``glue_psi_p`` maps T-points into the S_p chart, ``glue_phi_pq`` maps
T_pq-points into the T chart; both are equivariant for the corresponding
Z^2 actions and are inverted by ``invert_psi_p`` / ``invert_phi_pq``.
Membership of a candidate point in its chart is decided clause by clause
by ``check_condition``; clauses quantified over all integer exponent
pairs are evaluated over a bounded window whose bound is recorded in the
report.

The maps work on stacked chart data (``*_many``: matrices (N, 3, 3),
lambdas and points of V) in numpy's arithmetic, and decide refusals from
the rows they compute: each raises the error of the first refused point,
found by validating that point's own output.  The scalar maps call them
on one point, as ``check_condition`` calls ``_paired_eigendata``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .holonomy import HolonomyPair, validate_holonomy, holonomy_pair
from .resonance import (DEFAULT_BOUND, ResonanceClass, _is_integer,
                        _log_residual, _power_residual, _screened)
from .resonant_group import (IllConditioned, NotInImage, _invertible,
                             _null_vector, _overflow, _points_ok, _power,
                             _to_point, _twisted_roots, apply_many,
                             compose_many, power_many, replay)
from .rep_variety import _double_equations, _single_equation

DENOM_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

_TRIANGULAR_ZEROS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))
_BLOCK_ZEROS = ((0, 1), (0, 2), (1, 0), (2, 0))


def _frozen(mat):
    out = np.array(mat, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FamilyPoint:
    """A candidate point of one of the charts "T", "T_pq" or "S_p".

    Only the shape invariants (zero patterns, invertibility, presence of
    lambda and of the indices p, q) are enforced here; the full
    membership conditions are evaluated by ``check_condition``.
    """

    space: str
    amat: np.ndarray
    bmat: np.ndarray
    lam: Optional[complex] = None
    p: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        if self.space not in ("T", "T_pq", "S_p"):
            raise ValueError("space must be one of 'T', 'T_pq', 'S_p'")
        amat = _frozen(self.amat)
        bmat = _frozen(self.bmat)
        if amat.shape != (3, 3) or bmat.shape != (3, 3):
            raise ValueError("matrices must be 3x3")
        replay(*_shape_checks(self.space, amat[None], bmat[None]))
        object.__setattr__(self, "amat", amat)
        object.__setattr__(self, "bmat", bmat)
        if self.space == "S_p":
            if self.lam is not None:
                raise ValueError("S_p points carry no lambda")
            if self.q is not None:
                raise ValueError("S_p points carry no index q")
        else:
            if self.lam is None:
                raise ValueError("%s points need a lambda" % self.space)
            object.__setattr__(self, "lam", complex(self.lam))
        if self.space != "T" and not _is_integer(self.p):
            raise ValueError("%s points need an integer index p" % self.space)
        if self.space == "T_pq" and not (_is_integer(self.q) and self.q >= 2):
            raise ValueError("T_pq points need an integer index q >= 2")
        if self.space == "T" and (self.p is not None or self.q is not None):
            raise ValueError("T points carry no indices")

    def diagonals(self):
        """(alpha1, alpha2, alpha3, beta1, beta2, beta3)."""
        a, b = self.amat, self.bmat
        return (a[0, 0], a[1, 1], a[2, 2], b[0, 0], b[1, 1], b[2, 2])

    def blocks(self):
        """The lower-right 2x2 blocks of both matrices."""
        return self.amat[1:, 1:], self.bmat[1:, 1:]


def _shape_checks(space, amat, bmat):
    """The `replay` checks of the shape clauses of `FamilyPoint` on stacked
    matrices (N, 3, 3), in its order: finite entries of A, then of B; then
    the zero pattern of the space, a nonzero (1, 1) entry and an invertible
    lower-right block, of A, then of B."""
    zeros = _BLOCK_ZEROS if space == "S_p" else _TRIANGULAR_ZEROS

    def vanish(nonzero):
        raise ValueError("entry (%d, %d) must vanish in the %s shape"
                         % (*zeros[np.argmax(nonzero)], space))
    checks = [(np.isfinite(m).all(axis=(1, 2)), _not_finite) for m in (amat, bmat)]
    for m in (amat, bmat):
        nonzero = m[:, [i for i, _ in zeros], [j for _, j in zeros]] != 0
        checks += [(~nonzero.any(axis=1), vanish, nonzero),
                   ((m[:, 0, 0] != 0) & _invertible(m[:, 1:, 1:]), _singular)]
    return checks


def _not_finite():
    raise ValueError("matrix entries must be finite")


def _singular():
    raise ValueError("matrices must be invertible")


def _paired_eigendata(amat, bmat, p):
    """Eigen-data (alpha_1..3, beta_1..3) of stacked S_p candidates,
    matrices (N, 3, 3), as six arrays (N,).

    A root r of det(X L - M) represents the multiplier alpha2' directly
    when its eigenvector plays the first fiber role, and the multiplier
    alpha3' = r * alpha1^p when it plays the second.  Of the two possible
    assignments the one satisfying |alpha2'| > |alpha3'| is preferred;
    each beta is read off along the matching eigenvector of the second
    block (the balance equations make the eigenvectors common).
    """
    a1, b1 = amat[:, 0, 0], bmat[:, 0, 0]
    if not a1.all():
        raise ValueError("alpha must be nonzero")
    ap = _power(a1, p, "S_p chart", "alpha1")
    bp = _power(b1, p, "S_p chart", "beta1")
    roots = _twisted_roots(ap, amat[:, 1:, 1:])
    # the assignment (r0, r1) unless only (r1, r0) is modulus-ordered
    r0, r1 = roots.T
    swap = (abs(r0) <= abs(r1 * ap)) & (abs(r1) > abs(r0 * ap))
    roots = np.where(swap[:, None], roots[:, ::-1], roots)
    n = np.repeat(amat[:, None, 1:, 1:], 2, axis=1)  # M - r L for each root
    n[..., 0, 0] -= roots
    n[..., 1, 1] -= roots * ap[:, None]
    v = _null_vector(n)
    lv = v[..., 1] * bp[:, None]
    bv = (bmat[:, None, 1:, 1:] @ v[..., None])[..., 0]
    first = abs(v[..., 0]) >= abs(lv)
    betas = (np.where(first, bv[..., 0], bv[..., 1])
             / np.where(first, v[..., 0], lv))
    return (a1, roots[:, 0], roots[:, 1] * ap, b1, betas[:, 0], betas[:, 1] * bp)


def _no_clash_window(a1, a2, a3, bound, tol, excluded=None):
    """True iff a3 != a1^r a2^s for every (r, s) in the window, s >= 1.

    The window is screened as the resonance search screens its box, with
    j = 3 and p3 = 0; the screened words, if any, are decided by one array
    residual call on the same logs.
    """
    lg = np.log(np.array([[a1, a2, a3]], dtype=complex))
    words = _screened(lg, (3,), np.arange(1, bound + 1), np.zeros(1, int), tol,
                      bound)[:, 1:3]
    words = words if excluded is None else words[(words != excluded).any(1)]
    return not (len(words) and (_log_residual(lg[0, :2], lg[0, 2], words) <= tol).any())


@dataclass(frozen=True)
class MembershipReport:
    condition: str
    clauses: tuple  # of (name, bool)
    bound: int
    tol: float

    @property
    def satisfied(self):
        return all(ok for _, ok in self.clauses)

    def clause(self, name):
        for n, ok in self.clauses:
            if n == name:
                return ok
        raise KeyError(name)


def _eigen_admissible(eigendata, config, tol):
    """Proxy for "the eigenvalues come from an admissible configuration".

    The necessary holonomy constraints are always tested; when an
    explicitly certified configuration is supplied as a witness, its
    holonomy must reproduce the eigen-data as well.
    """
    a1, a2, a3, b1, b2, b3 = eigendata
    try:
        pair = HolonomyPair((a1, a2, a3), (b1, b2, b3))
    except ValueError:
        return False
    if validate_holonomy(pair):
        return False
    if config is not None:
        ref = holonomy_pair(config)
        got = np.array([a1, a2, a3, b1, b2, b3])
        want = np.concatenate([ref.alpha, ref.beta])
        scale = 1 + np.max(np.abs(want))
        if np.max(np.abs(got - want)) > tol * scale:
            return False
    return True


def check_condition(point, config=None, sharp=False, tol=MEMBERSHIP_TOL,
                    bound=DEFAULT_BOUND):
    """Clause-by-clause membership verdicts for the point's chart.

    Each chart supplies its head clauses, eigen-data and excluded word,
    and one tail of clauses follows.  The infinite exponent quantifiers
    are evaluated over |r| <= bound, 1 <= s <= bound; the bound used is
    recorded in the report.  With ``sharp=True`` the exact-relation
    clauses of the sharp variants of the conditions are appended.
    """
    if point.space == "S_p":
        condition, word = "C_p", (point.p, 1)
        a, b = point.amat, point.bmat
        scale = 1 + max(np.max(np.abs(a)), np.max(np.abs(b)))
        clauses = [(name, abs(value) <= tol * scale) for name, value in
                   _double_equations(complex(a[0, 0]), a[1:, 1:],
                                     complex(b[0, 0]), b[1:, 1:], point.p)]
        data = tuple(complex(d[0])
                     for d in _paired_eigendata(a[None], b[None], point.p))
    else:
        data = a1, a2, a3, b1, b2, b3 = point.diagonals()
        condition, word = (("C", None) if point.space == "T" else
                           ("K_pq", (point.p, point.q)))
        r = _single_equation(a1, a2, a3, point.amat[2, 1], b1, b2, b3,
                             point.bmat[2, 1], *(word or (0, 1)))
        scale = 1 + max(abs(v) for v in data)
        clauses = [("modulus-ordering", abs(a2) > abs(a3)),
                   ("shear-compatibility", abs(r) <= tol * scale)]
    clauses.append(("eigen-admissibility", _eigen_admissible(data, config, tol)))
    clauses.append(("no-extra-resonance",
                    _no_clash_window(*data[:3], bound, tol, word)))
    if sharp:
        if word is None:
            raise ValueError("the plain condition C has no sharp variant")
        condition += "^S"
        alpha, beta = _power_residual([data[:2], data[3:5]], data[2::3], word) <= tol
        clauses += [("resonant-alpha", alpha), ("resonant-beta", beta)]
    return MembershipReport(condition, tuple(clauses), bound, tol)


def _chart_regime(space, p, q):
    """The regime of the transformations of an S_p or T_pq chart."""
    if space == "S_p":
        return ResonanceClass("Double", p=p)
    return ResonanceClass("Single", p=p, q=q)


def _generator_rows(space, mat):
    """Parameter rows (N, k) of the transformations of V attached to
    stacked S_p or T_pq matrices (N, 3, 3)."""
    if space == "S_p":
        return np.concatenate([mat[:, :1, 0], mat[:, 1:, 1:].reshape(-1, 4)],
                              axis=1)
    return np.stack([mat[:, 0, 0], mat[:, 1, 1], mat[:, 2, 2], mat[:, 2, 1]],
                    axis=1)


def _finite_check(y):
    """The `replay` check refusing each non-finite row of y (N, k)."""
    return np.isfinite(y).all(axis=1), _overflow


def family_action_many(space, amat, bmat, word, x, p=None, q=None):
    """`family_action` for stacked points of one chart, matrices (N, 3, 3)
    with indices p, q, on the points x (N, 3): the images (N, 3)."""
    r, s = word
    replay((_points_ok(x), _to_point, x))
    if space != "T":
        regime = _chart_regime(space, p, q)
        rows = np.stack([_generator_rows(space, m) for m in (amat, bmat)])
        hr, hs = power_many(regime, rows, np.array([[r], [s]]))
        return apply_many(regime, compose_many(regime, hr, hs), x)
    with np.errstate(all="ignore"):
        a = np.linalg.matrix_power(amat if r >= 0 else np.linalg.inv(amat),
                                   abs(r))
        b = np.linalg.matrix_power(bmat if s >= 0 else np.linalg.inv(bmat),
                                   abs(s))
        y = (a @ b @ x[..., None])[..., 0]
        replay((_points_ok(y), _to_point, y), _finite_check(y))
    return y


def family_action(point, word, x):
    """Image of x under the (r, s) word of the point's Z^2 action."""
    y = family_action_many(point.space, point.amat[None], point.bmat[None],
                           word, _to_point(x).array()[None], point.p, point.q)
    return _to_point(y[0])


def _shear(lam):
    """I + lam E_23 for each lam (N,)."""
    out = np.zeros((len(lam), 3, 3), dtype=complex)
    out[:, [0, 1, 2], [0, 1, 2]] = 1
    out[:, 1, 2] = lam
    return out


def _shear_denominators(amat, p, q):
    """(a3 - a2, a3 - a1^p a2^q) of stacked T or T_pq matrices, and the
    check (mask, replay) refusing with IllConditioned the rows where
    either is negligible against the eigenvalues."""
    a1, a2, a3 = amat[:, 0, 0], amat[:, 1, 1], amat[:, 2, 2]
    d_plain = a3 - a2
    d_twist = a3 - a1 ** p * a2 ** q
    tiny = DENOM_TOL * (1 + np.maximum(np.abs(a2), np.abs(a3)))
    ok = (np.abs(d_plain) >= tiny) & (np.abs(d_twist) >= tiny)
    return d_plain, d_twist, (ok, _collision, d_plain, d_twist)


def _collision(d_plain, d_twist):
    raise IllConditioned("eigenvalue collision: denominators %.3e and %.3e"
                         % (abs(d_plain), abs(d_twist)))


def glue_psi_p_many(amat, bmat, lam, x, p):
    """`glue_psi_p` for stacked T points, matrices (N, 3, 3) and lambdas
    (N,), and points x (N, 3): (amat, bmat, x) of the images."""
    a1, b1, b2, b3 = amat[:, 0, 0], bmat[:, 0, 0], bmat[:, 1, 1], bmat[:, 2, 2]
    eps = amat[:, 2, 1]
    with np.errstate(all="ignore"):
        d_plain, d_twist, denominators = _shear_denominators(amat, p, 1)
        btilde = bmat.copy()
        btilde[:, 2, 1] = eps * (b3 - b1 ** p * b2) / d_twist
        aout = _shear(lam * a1 ** -p) @ amat @ _shear(-lam)
        bout = _shear(lam * b1 ** -p) @ btilde @ _shear(-lam)
        xi1, xi2, xi3 = x.T
        eta3 = xi3 + eps / d_plain * xi2 - eps / d_twist * xi1 ** p * xi2
        y = np.stack([xi1, xi2 + lam * xi1 ** -p * eta3, eta3], axis=1)
        replay((_points_ok(x), _to_point, x), denominators,
               (_points_ok(y), _to_point, y),
               *_shape_checks("S_p", aout, bout), _finite_check(y))
    return aout, bout, y


def glue_psi_p(point, x, p):
    """Chart change T -> S_p: conjugation by unipotent shears.

    The matrices are conjugated by I + lambda * alpha1^{-p} E_23 on the
    left and I - lambda E_23 on the right (beta1 for the second matrix,
    whose shear entry is first rebalanced), and the point picks up the
    matching polynomial shear in (xi2, xi3).
    """
    if point.space != "T":
        raise ValueError("glue_psi_p expects a T point")
    aout, bout, y = glue_psi_p_many(point.amat[None], point.bmat[None],
                                    np.array([point.lam]),
                                    _to_point(x).array()[None], p)
    return FamilyPoint("S_p", aout[0], bout[0], p=int(p)), _to_point(y[0])


def invert_psi_p_many(amat, bmat, x, p):
    """`invert_psi_p` for stacked S_p points, matrices (N, 3, 3), and
    points x (N, 3): (amat, bmat, lam, x) of the preimages."""
    a2e, eps1, eps2 = amat[:, 1, 1], amat[:, 2, 1], amat[:, 1, 2]
    tol = MEMBERSHIP_TOL
    with np.errstate(all="ignore"):
        a1, a2, a3, b1, b2, b3 = _paired_eigendata(amat, bmat, p)
        scale = 1 + np.maximum(np.abs(a2), np.abs(a3))
        unordered = np.abs(a2) <= np.abs(a3)
        resonant = _power_residual(np.stack([a1, a2], axis=1), a3, (p, 1)) <= tol
        shear = np.abs(eps1) > tol * scale
        forced = ~shear & (np.abs(a2e - a2) > tol * scale)
        # unique lam making (lam, 1) a twisted eigenvector for a3; the raw
        # root representing a3 is a3 * a1^{-p}
        lam = np.where(shear, (a3 - amat[:, 2, 2]) / eps1,
                       eps2 / (a3 * a1 ** -p - a2e))
        amat_t = _diagonal(a1, a2, a3, eps1)
        bmat_t = _diagonal(b1, b2, b3, eps1 * (b3 - b2) / (a3 - a2))
        xi1, xi2p, eta3 = x.T
        xi2 = xi2p - lam * xi1 ** -p * eta3
        xi3 = (eta3 - eps1 / (a3 - a2) * xi2
               + eps1 / (a3 - a1 ** p * a2) * xi1 ** p * xi2)
        y = np.stack([xi1, xi2, xi3], axis=1)
        replay((_points_ok(x), _to_point, x),
               (~(unordered | resonant | forced), _not_in_image, unordered,
                resonant),
               *_shape_checks("T", amat_t, bmat_t),
               (_points_ok(y), _to_point, y),
               _finite_check(np.column_stack([lam, y])))
    return amat_t, bmat_t, lam, y


def _not_in_image(unordered, resonant):
    raise NotInImage(
        "twisted eigenvalues are not modulus-ordered" if unordered else
        "twisted eigenvalues satisfy a3' = a1^p a2'" if resonant else
        "vanishing lower shear forces alpha2 = alpha2'")


def _diagonal(d1, d2, d3, shear):
    """Stacked diag(d1, d2, d3) with the (2, 1) entry set to shear."""
    out = np.zeros((len(d1), 3, 3), dtype=complex)
    out[:, 0, 0], out[:, 1, 1], out[:, 2, 2], out[:, 2, 1] = d1, d2, d3, shear
    return out


def invert_psi_p(point, x, p):
    """Inverse chart change S_p -> T, defined on the image of glue_psi_p.

    The image is cut out by three clauses on the twisted eigenvalues
    (alpha2', alpha3') of the first block, |alpha2'| > |alpha3'| among
    them; violations raise NotInImage.
    """
    if point.space != "S_p" or point.p != p:
        raise ValueError("invert_psi_p expects an S_p point with matching p")
    amat, bmat, lam, y = invert_psi_p_many(point.amat[None], point.bmat[None],
                                           _to_point(x).array()[None], p)
    return FamilyPoint("T", amat[0], bmat[0], lam=lam[0]), _to_point(y[0])


def glue_phi_pq_many(amat, bmat, x, p, q, invert=False):
    """`glue_phi_pq` (or with ``invert`` `invert_phi_pq`) for stacked
    points, matrices (N, 3, 3), and points x (N, 3): (amat, bmat, x) of
    the images; the lambdas pass through unchanged."""
    b1, b2, b3 = bmat[:, 0, 0], bmat[:, 1, 1], bmat[:, 2, 2]
    eps = amat[:, 2, 1]
    with np.errstate(all="ignore"):
        d_plain, d_twist, denominators = _shear_denominators(amat, p, q)
        bout = bmat.copy()
        if invert:
            bout[:, 2, 1] = eps * (b3 - b1 ** p * b2 ** q) / d_twist
        else:
            bout[:, 2, 1] = eps * (b3 - b2) / d_plain
        xi1, xi2, xi3 = x.T
        plain = eps / d_plain * xi2
        twist = eps / d_twist * xi1 ** p * xi2 ** q
        y = x.copy()
        y[:, 2] = xi3 + plain - twist if invert else xi3 - plain + twist
        replay((_points_ok(x), _to_point, x), denominators,
               *_shape_checks("T_pq" if invert else "T", amat, bout),
               (_points_ok(y), _to_point, y),
               _finite_check(y))
    return amat.copy(), bout, y


def glue_phi_pq(point, x, p, q):
    """Chart change T_pq -> T: rebalance the second shear entry and
    straighten the twisted part of the action by a polynomial shear.

    lambda is carried through unchanged as the extra T coordinate; it
    does not act on the point.
    """
    if point.space != "T_pq" or point.p != p or point.q != q:
        raise ValueError("glue_phi_pq expects a T_pq point with matching "
                         "indices")
    amat, bmat, y = glue_phi_pq_many(point.amat[None], point.bmat[None],
                                     _to_point(x).array()[None], p, q)
    return FamilyPoint("T", amat[0], bmat[0], lam=point.lam), _to_point(y[0])


def invert_phi_pq(point, x, p, q):
    """Inverse of glue_phi_pq: restore the shear entry compatible with
    the twisted action and negate the polynomial point shear."""
    if point.space != "T":
        raise ValueError("invert_phi_pq expects a T point")
    amat, bmat, y = glue_phi_pq_many(point.amat[None], point.bmat[None],
                                     _to_point(x).array()[None], p, q,
                                     invert=True)
    return (FamilyPoint("T_pq", amat[0], bmat[0], lam=point.lam,
                        p=int(p), q=int(q)), _to_point(y[0]))
