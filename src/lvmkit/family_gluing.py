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
Membership of a candidate point in its chart is checked clause by clause
by ``check_condition``; clauses quantified over all integer exponent
pairs are evaluated over a bounded window whose bound is recorded in the
report.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .holonomy import HolonomyPair, validate_holonomy, holonomy_pair
from .resonance import (DEFAULT_BOUND, ResonanceClass, _log_screen,
                        _power_residual)
from .resonant_group import (GroupElement, IllConditioned, PointV, _l_matrix,
                             _null_vector, apply, compose, identity, inverse,
                             p_eigenvalues)
from .rep_variety import variety_residual

DENOM_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

_TRIANGULAR_ZEROS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0))
_BLOCK_ZEROS = ((0, 1), (0, 2), (1, 0), (2, 0))


class NotInImage(Exception):
    """The point violates the clauses cutting out the image of the glue map."""


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
        for mat in (amat, bmat):
            if mat.shape != (3, 3):
                raise ValueError("matrices must be 3x3")
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix entries must be finite")
        zeros = _BLOCK_ZEROS if self.space == "S_p" else _TRIANGULAR_ZEROS
        for mat in (amat, bmat):
            for i, j in zeros:
                if mat[i, j] != 0:
                    raise ValueError(
                        "entry (%d, %d) must vanish in the %s shape"
                        % (i, j, self.space))
            if mat[0, 0] == 0 or np.linalg.det(mat[1:, 1:]) == 0:
                raise ValueError("matrices must be invertible")
        object.__setattr__(self, "amat", amat)
        object.__setattr__(self, "bmat", bmat)
        if self.space == "S_p":
            if self.lam is not None:
                raise ValueError("S_p points carry no lambda")
            if self.q is not None:
                raise ValueError("S_p points carry no index q")
            if not isinstance(self.p, (int, np.integer)):
                raise ValueError("S_p points need an integer index p")
        else:
            if self.lam is None:
                raise ValueError("%s points need a lambda" % self.space)
            object.__setattr__(self, "lam", complex(self.lam))
        if self.space == "T_pq":
            if not isinstance(self.p, (int, np.integer)):
                raise ValueError("T_pq points need an integer index p")
            if not isinstance(self.q, (int, np.integer)) or self.q < 2:
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

    def as_dict(self):
        def pairs(mat):
            return [[float(z.real), float(z.imag)] for z in mat.ravel()]
        out = {"space": self.space,
               "amat": pairs(self.amat), "bmat": pairs(self.bmat)}
        if self.lam is not None:
            out["lambda"] = [float(self.lam.real), float(self.lam.imag)]
        if self.p is not None:
            out["p"] = int(self.p)
        if self.q is not None:
            out["q"] = int(self.q)
        return out


def family_point_from_dict(doc):
    def mat(entries):
        flat = [complex(re, im) for re, im in entries]
        if len(flat) != 9:
            raise ValueError("expected 9 row-major [re, im] entries")
        return np.array(flat).reshape(3, 3)
    lam = doc.get("lambda")
    return FamilyPoint(doc["space"], mat(doc["amat"]), mat(doc["bmat"]),
                       lam=None if lam is None else complex(lam[0], lam[1]),
                       p=doc.get("p"), q=doc.get("q"))


def _paired_eigendata(point):
    """Eigen-data (alpha_1..3, beta_1..3) of an S_p candidate.

    A root r of det(X L - M) represents the multiplier alpha2' directly
    when its eigenvector plays the first fiber role, and the multiplier
    alpha3' = r * alpha1^p when it plays the second.  Of the two possible
    assignments the one satisfying |alpha2'| > |alpha3'| is preferred;
    each beta is read off along the matching eigenvector of the second
    block (the balance equations make the eigenvectors common).
    """
    a1, _, _, b1, _, _ = point.diagonals()
    ablock, bblock = point.blocks()
    p = point.p
    roots = p_eigenvalues(a1, ablock, p)
    raw_betas = []
    for val in roots:
        v = _null_vector(ablock - val * _l_matrix(a1, p))
        lv = _l_matrix(b1, p) @ v
        k = int(np.argmax(np.abs(lv)))
        raw_betas.append(complex((bblock @ v)[k] / lv[k]))
    candidates = []
    for (i, j) in ((0, 1), (1, 0)):
        candidates.append((a1, roots[i], roots[j] * a1 ** p,
                           b1, raw_betas[i], raw_betas[j] * b1 ** p))
    for cand in candidates:
        if abs(cand[1]) > abs(cand[2]):
            return cand
    return candidates[0]


def _no_clash_window(a1, a2, a3, bound, tol, excluded=None):
    """True iff a3 != a1^r a2^s for every (r, s) in the window, s >= 1.

    The whole window is screened at once; each screened word is then
    decided by the scalar residual.
    """
    r = np.arange(-bound, bound + 1)[:, None]
    s = np.arange(1, bound + 1)[None, :]
    z = r * np.log(complex(a1)) + s * np.log(complex(a2)) - np.log(complex(a3))
    for i, k in np.argwhere(_log_screen(z, tol)):
        word = (int(r[i, 0]), int(s[0, k]))
        if word != excluded and _power_residual((a1, a2), a3, word) <= tol:
            return False
    return True


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

    The necessary holonomy constraints are always checked; when an
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

    The infinite exponent quantifiers are evaluated over |r| <= bound,
    1 <= s <= bound; the bound used is recorded in the report.  With
    ``sharp=True`` the extra exact-relation clauses of the sharp variants
    of the conditions are appended.
    """
    a1, a2, a3, b1, b2, b3 = point.diagonals()
    clauses = []
    if point.space in ("T", "T_pq"):
        eps = point.amat[2, 1]
        delta = point.bmat[2, 1]
        scale = 1 + max(abs(v) for v in point.diagonals())
        clauses.append(("modulus-ordering", abs(a2) > abs(a3)))
        if point.space == "T":
            condition = "C"
            r = eps * (b3 - b2) - delta * (a3 - a2)
            excluded = None
        else:
            condition = "K_pq"
            p, q = point.p, point.q
            r = (eps * (b3 - b1 ** p * b2 ** q)
                 - delta * (a3 - a1 ** p * a2 ** q))
            excluded = (p, q)
        clauses.append(("shear-compatibility", abs(r) <= tol * scale))
        clauses.append(("eigen-admissibility",
                        _eigen_admissible(point.diagonals(), config, tol)))
        clauses.append(("no-extra-resonance",
                        _no_clash_window(a1, a2, a3, bound, tol, excluded)))
        if sharp:
            if point.space == "T":
                raise ValueError("the plain condition C has no sharp variant")
            condition = "K_pq^S"
            clauses.append(("resonant-alpha",
                            _power_residual((a1, a2), a3, (p, q)) <= tol))
            clauses.append(("resonant-beta",
                            _power_residual((b1, b2), b3, (p, q)) <= tol))
        return MembershipReport(condition, tuple(clauses), bound, tol)
    # S_p candidate
    condition = "C_p"
    p = point.p
    cls = ResonanceClass("Double", p=p)
    pair = (GroupElement(cls, (a1, point.blocks()[0])),
            GroupElement(cls, (b1, point.blocks()[1])))
    res = variety_residual(pair, cls)
    scale = 1 + max(np.max(np.abs(point.amat)), np.max(np.abs(point.bmat)))
    for name, value in res.equations:
        clauses.append((name, abs(value) <= tol * scale))
    data = _paired_eigendata(point)
    clauses.append(("eigen-admissibility", _eigen_admissible(data, config, tol)))
    clauses.append(("no-extra-resonance",
                    _no_clash_window(data[0], data[1], data[2], bound, tol,
                                     excluded=(p, 1))))
    if sharp:
        condition = "C_p^S"
        clauses.append(("resonant-alpha",
                        _power_residual(data[:2], data[2], (p, 1)) <= tol))
        clauses.append(("resonant-beta",
                        _power_residual(data[3:5], data[5], (p, 1)) <= tol))
    return MembershipReport(condition, tuple(clauses), bound, tol)


def _group_power(f, n):
    out = identity(f.regime)
    step = f if n >= 0 else inverse(f)
    for _ in range(abs(n)):
        out = compose(out, step)
    return out


def _chart_generators(point):
    """The two commuting transformations of V attached to the point."""
    a1, _, _, b1, _, _ = point.diagonals()
    ablock, bblock = point.blocks()
    if point.space == "S_p":
        cls = ResonanceClass("Double", p=point.p)
        return (GroupElement(cls, (a1, ablock)),
                GroupElement(cls, (b1, bblock)))
    if point.space == "T_pq":
        cls = ResonanceClass("Single", p=point.p, q=point.q)
        a = point.diagonals()
        return (GroupElement(cls, (a[0], a[1], a[2], point.amat[2, 1])),
                GroupElement(cls, (a[3], a[4], a[5], point.bmat[2, 1])))
    return None  # "T" acts linearly; handled directly in family_action


def family_action(point, word, x):
    """Image of x under the (r, s) word of the point's Z^2 action."""
    r, s = word
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    if point.space == "T":
        a = np.linalg.matrix_power(
            point.amat if r >= 0 else np.linalg.inv(point.amat), abs(r))
        b = np.linalg.matrix_power(
            point.bmat if s >= 0 else np.linalg.inv(point.bmat), abs(s))
        return PointV(tuple(a @ b @ x.array()))
    f, g = _chart_generators(point)
    h = compose(_group_power(f, r), _group_power(g, s))
    return apply(h, x)


def _shear(lam):
    out = np.eye(3, dtype=complex)
    out[1, 2] = lam
    return out


def _shear_denominators(point, p, q):
    """(a3 - a2, a3 - a1^p a2^q) of a T or T_pq point, refused with
    IllConditioned when either is negligible against the eigenvalues."""
    a1, a2, a3 = point.diagonals()[:3]
    d_plain = a3 - a2
    d_twist = a3 - a1 ** p * a2 ** q
    scale = 1 + max(abs(a2), abs(a3))
    if abs(d_plain) < DENOM_TOL * scale or abs(d_twist) < DENOM_TOL * scale:
        raise IllConditioned("eigenvalue collision: denominators %.3e and "
                             "%.3e" % (abs(d_plain), abs(d_twist)))
    return d_plain, d_twist


def glue_psi_p(point, x, p):
    """Chart change T -> S_p: conjugation by unipotent shears.

    The matrices are conjugated by I + lambda * alpha1^{-p} E_23 on the
    left and I - lambda E_23 on the right (beta1 for the second matrix,
    whose shear entry is first rebalanced), and the point picks up the
    matching polynomial shear in (xi2, xi3).
    """
    if point.space != "T":
        raise ValueError("glue_psi_p expects a T point")
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    a1, _, _, b1, b2, b3 = point.diagonals()
    eps = point.amat[2, 1]
    lam = point.lam
    d_plain, d_twist = _shear_denominators(point, p, 1)
    delta1 = eps * (b3 - b1 ** p * b2) / d_twist
    btilde = np.array(point.bmat)
    btilde[2, 1] = delta1
    aout = _shear(lam * a1 ** (-p)) @ point.amat @ _shear(-lam)
    bout = _shear(lam * b1 ** (-p)) @ btilde @ _shear(-lam)
    xi1, xi2, xi3 = x.array()
    eta3 = xi3 + eps / d_plain * xi2 - eps / d_twist * xi1 ** p * xi2
    out_x = PointV((xi1, xi2 + lam * xi1 ** (-p) * eta3, eta3))
    return FamilyPoint("S_p", aout, bout, p=int(p)), out_x


def invert_psi_p(point, x, p):
    """Inverse chart change S_p -> T, defined on the image of glue_psi_p.

    The image is cut out by three clauses on the twisted eigenvalues
    (alpha2', alpha3') of the first block, |alpha2'| > |alpha3'| among
    them; violations raise NotInImage.
    """
    if point.space != "S_p" or point.p != p:
        raise ValueError("invert_psi_p expects an S_p point with matching p")
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    a2e = point.amat[1, 1]
    ablock = point.blocks()[0]
    eps1 = point.amat[2, 1]
    eps2 = point.amat[1, 2]
    a1, a2, a3, b1, b2, b3 = _paired_eigendata(point)
    tol = MEMBERSHIP_TOL
    scale = 1 + max(abs(a2), abs(a3))
    if abs(a2) <= abs(a3):
        raise NotInImage("twisted eigenvalues are not modulus-ordered")
    if _power_residual((a1, a2), a3, (p, 1)) <= tol:
        raise NotInImage("twisted eigenvalues satisfy a3' = a1^p a2'")
    if abs(eps1) <= tol * scale and abs(a2e - a2) > tol * scale:
        raise NotInImage("vanishing lower shear forces alpha2 = alpha2'")
    # unique lam making (lam, 1) a twisted eigenvector for a3; the raw
    # root representing a3 is a3 * a1^{-p}
    if abs(eps1) > tol * scale:
        lam = (a3 - ablock[1, 1]) / eps1
    else:
        lam = eps2 / (a3 * a1 ** (-p) - a2e)
    eps = eps1
    delta = eps * (b3 - b2) / (a3 - a2)
    amat = np.diag([a1, a2, a3]).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag([b1, b2, b3]).astype(complex)
    bmat[2, 1] = delta
    out = FamilyPoint("T", amat, bmat, lam=lam)
    xi1, xi2p, xi3p = x.array()
    eta3 = xi3p
    xi2 = xi2p - lam * xi1 ** (-p) * eta3
    xi3 = (eta3 - eps / (a3 - a2) * xi2
           + eps / (a3 - a1 ** p * a2) * xi1 ** p * xi2)
    return out, PointV((xi1, xi2, xi3))


def glue_phi_pq(point, x, p, q):
    """Chart change T_pq -> T: rebalance the second shear entry and
    straighten the twisted part of the action by a polynomial shear.

    lambda is carried through unchanged as the extra T coordinate; it
    does not act on the point.
    """
    if point.space != "T_pq" or point.p != p or point.q != q:
        raise ValueError("glue_phi_pq expects a T_pq point with matching "
                         "indices")
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    _, _, _, _, b2, b3 = point.diagonals()
    eps = point.amat[2, 1]
    d_plain, d_twist = _shear_denominators(point, p, q)
    bout = np.array(point.bmat)
    bout[2, 1] = eps * (b3 - b2) / d_plain
    xi1, xi2, xi3 = x.array()
    xi3out = (xi3 - eps / d_plain * xi2
              + eps / d_twist * xi1 ** p * xi2 ** q)
    return (FamilyPoint("T", np.array(point.amat), bout, lam=point.lam),
            PointV((xi1, xi2, xi3out)))


def invert_phi_pq(point, x, p, q):
    """Inverse of glue_phi_pq: restore the shear entry compatible with
    the twisted action and negate the polynomial point shear."""
    if point.space != "T":
        raise ValueError("invert_phi_pq expects a T point")
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    _, _, _, b1, b2, b3 = point.diagonals()
    eps = point.amat[2, 1]
    d_plain, d_twist = _shear_denominators(point, p, q)
    bout = np.array(point.bmat)
    bout[2, 1] = eps * (b3 - b1 ** p * b2 ** q) / d_twist
    xi1, xi2, xi3 = x.array()
    xi3out = (xi3 + eps / d_plain * xi2
              - eps / d_twist * xi1 ** p * xi2 ** q)
    return (FamilyPoint("T_pq", np.array(point.amat), bout, lam=point.lam,
                        p=int(p), q=int(q)),
            PointV((xi1, xi2, xi3out)))
