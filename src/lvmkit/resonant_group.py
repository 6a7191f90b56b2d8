"""The identity-component group G of resonant transformations of
V = C* x (C^2 \\ {0}), in its three regime-dependent normal forms.

NonResonant elements are diagonal maps (a1, a2, a3).  Single{p, q}
elements are (a1, a2, a3, eps) acting by

    (x1, x2, x3) -> (a1 x1, a2 x2, a3 x3 + eps x1^p x2^q),

and Double{p} elements are pairs (a1, M) of a scalar and an invertible
2x2 matrix acting through the twisted conjugation tau_p:

    (x1, x2, x3) -> (a1 x1, tau_p(x1)(M) (x2, x3)^T),
    tau_p(z)(M)  = L_{z,p} M L_{z,p}^{-1},   L_{z,p} = diag(1, z^p).

The Double regime untwists to the direct product C* x GL(2, C) through
N = L_{a1,p}^{-1} M, which is how exp/log and normal forms are computed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .resonance import ResonanceClass

TOL_SEP = 1e-8


class IllConditioned(Exception):
    """Normal form does not exist / is numerically meaningless here."""


class BranchDomain(Exception):
    """Argument outside the principal-branch domain of exp/log."""


@dataclass(frozen=True)
class PointV:
    xi: tuple

    def __post_init__(self):
        xi = tuple(complex(x) for x in self.xi)
        if len(xi) != 3:
            raise ValueError("a point of V has three coordinates")
        if xi[0] == 0:
            raise ValueError("xi_1 must be nonzero")
        if xi[1] == 0 and xi[2] == 0:
            raise ValueError("(xi_2, xi_3) must be nonzero")
        object.__setattr__(self, "xi", xi)

    def array(self):
        return np.asarray(self.xi, dtype=complex)


@dataclass(frozen=True)
class GroupElement:
    regime: ResonanceClass
    data: tuple

    def __post_init__(self):
        tag = self.regime.tag
        if tag == "NonResonant":
            d = tuple(complex(x) for x in self.data)
            if len(d) != 3 or any(x == 0 for x in d):
                raise ValueError("NonResonant element needs three nonzero scalars")
        elif tag == "Single":
            d = tuple(complex(x) for x in self.data)
            if len(d) != 4 or any(x == 0 for x in d[:3]):
                raise ValueError("Single element needs (a1, a2, a3, eps), a_i != 0")
        else:
            a1, mat = self.data
            a1 = complex(a1)
            mat = np.asarray(mat, dtype=complex)
            if a1 == 0 or mat.shape != (2, 2) or np.linalg.det(mat) == 0:
                raise ValueError("Double element needs a1 != 0 and invertible M")
            mat = mat.copy()
            mat.setflags(write=False)
            d = (a1, mat)
        object.__setattr__(self, "data", d)

    def params(self):
        """Flat complex parameter vector (interchange / distance measure)."""
        if self.regime.tag == "Double":
            a1, mat = self.data
            return np.concatenate([[a1], mat.ravel()])
        return np.asarray(self.data, dtype=complex)


def identity(regime):
    if regime.tag == "NonResonant":
        return GroupElement(regime, (1, 1, 1))
    if regime.tag == "Single":
        return GroupElement(regime, (1, 1, 1, 0))
    return GroupElement(regime, (1, np.eye(2)))


def element_from_params(regime, params):
    """Inverse of GroupElement.params."""
    params = [complex(x) for x in params]
    if regime.tag == "Double":
        return GroupElement(regime, (params[0],
                                     np.array(params[1:5]).reshape(2, 2)))
    return GroupElement(regime, tuple(params))


def _l_matrix(z, p):
    return np.array([[1, 0], [0, complex(z) ** p]], dtype=complex)


def tau(z, p, mat):
    """Twisted conjugation: scales the off-diagonal entries by z^{-+p}."""
    z = complex(z)
    out = np.array(mat, dtype=complex)
    out[0, 1] *= z ** (-p)
    out[1, 0] *= z ** p
    return out


def apply(f, x):
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    xi = x.array()
    tag = f.regime.tag
    if tag == "NonResonant":
        out = np.asarray(f.data) * xi
    elif tag == "Single":
        a1, a2, a3, eps = f.data
        p, q = f.regime.p, f.regime.q
        out = np.array([a1 * xi[0], a2 * xi[1],
                        a3 * xi[2] + eps * xi[0] ** p * xi[1] ** q])
    else:
        a1, mat = f.data
        p = f.regime.p
        tail = tau(xi[0], p, mat) @ xi[1:]
        out = np.array([a1 * xi[0], tail[0], tail[1]])
    return PointV(tuple(out))


def compose(f, g):
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    tag = f.regime.tag
    if tag == "NonResonant":
        return GroupElement(f.regime, tuple(a * b for a, b in zip(f.data, g.data)))
    if tag == "Single":
        a1, a2, a3, eps = f.data
        b1, b2, b3, delta = g.data
        p, q = f.regime.p, f.regime.q
        return GroupElement(f.regime, (a1 * b1, a2 * b2, a3 * b3,
                                       a3 * delta + eps * b1 ** p * b2 ** q))
    a1, amat = f.data
    b1, bmat = g.data
    return GroupElement(f.regime, (a1 * b1, tau(b1, f.regime.p, amat) @ bmat))


def inverse(f):
    tag = f.regime.tag
    if tag == "NonResonant":
        return GroupElement(f.regime, tuple(1 / a for a in f.data))
    if tag == "Single":
        a1, a2, a3, eps = f.data
        p, q = f.regime.p, f.regime.q
        return GroupElement(f.regime, (1 / a1, 1 / a2, 1 / a3,
                                       -eps / (a3 * a1 ** p * a2 ** q)))
    a1, mat = f.data
    return GroupElement(f.regime, (1 / a1,
                                   tau(1 / a1, f.regime.p, np.linalg.inv(mat))))


def conjugate(h, f):
    """h^{-1} f h."""
    return compose(inverse(h), compose(f, h))


def commutation_residual(f, g):
    """Parameter-space distance between f g and g f (0 iff they commute)."""
    d = compose(f, g).params() - compose(g, f).params()
    return float(np.max(np.abs(d)))


def _null_vector(mat):
    """Unit vector spanning the (numerical) kernel of a 2x2 matrix."""
    _, _, vh = np.linalg.svd(mat)
    return vh[-1].conj()


def p_eigenvalues(alpha, mat, p):
    """The two roots of det(X L_{alpha,p} - M), multiplicity kept:
    alpha^p X^2 - (m11 alpha^p + m22) X + det M = 0.

    Ordered lexicographically on (re, im), larger first, so repeated
    calls are reproducible.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    mat = np.asarray(mat, dtype=complex)
    ap = alpha ** p
    roots = np.roots([ap, -(mat[0, 0] * ap + mat[1, 1]), np.linalg.det(mat)])
    r = sorted(roots, key=lambda z: (z.real, z.imag), reverse=True)
    return complex(r[0]), complex(r[1])


def triangularize(f, tol=1e-10):
    """Conjugate a Double element to lower-triangular form.

    Returns (h, t) with h = (1, P) and t = h^{-1} f h whose matrix has
    zero upper-right entry.  The triangular eigenvalue is the first of
    ``p_eigenvalues``, so conjugators are reproducible.
    """
    a1, mat = f.data
    p = f.regime.p
    if abs(mat[0, 1]) <= tol:
        return identity(f.regime), f
    lam = p_eigenvalues(a1, mat, p)[0]
    y = _null_vector(mat - lam * _l_matrix(a1, p))
    # complete y to a basis: put the better-conditioned unit vector first
    x = np.array([1, 0], dtype=complex) if abs(y[1]) >= abs(y[0]) \
        else np.array([0, 1], dtype=complex)
    pmat = np.column_stack([x, y])
    h = GroupElement(f.regime, (1, pmat))
    t = conjugate(h, f)
    return h, t


def simultaneous_triangularize(f, g, tol=1e-8):
    """Common lower-triangular form of a commuting Double pair."""
    if commutation_residual(f, g) > tol * (1 + max(np.max(np.abs(f.params())),
                                                   np.max(np.abs(g.params())))):
        raise ValueError("elements do not commute within tolerance")
    a1, amat = f.data
    b1, bmat = g.data
    p = f.regime.p
    la, lb = _l_matrix(a1, p), _l_matrix(b1, p)

    candidates = [_null_vector(amat - lam * la)
                  for lam in p_eigenvalues(a1, amat, p)]
    # if f is central (scalar multiple of L), its kernel carries no
    # information; eigenvectors of the untwisted g matrix then decide
    _, eigvecs = np.linalg.eig(np.linalg.inv(lb) @ bmat)
    for i in range(2):
        candidates.append(eigvecs[:, i])

    best = None
    for y in candidates:
        ra = _eigen_residual(amat, la, y)
        rb = _eigen_residual(bmat, lb, y)
        score = max(ra, rb)
        if best is None or score < best[0]:
            best = (score, y)
    y = best[1]
    x = np.array([1, 0], dtype=complex) if abs(y[1]) >= abs(y[0]) \
        else np.array([0, 1], dtype=complex)
    h = GroupElement(f.regime, (1, np.column_stack([x, y])))
    return h, conjugate(h, f), conjugate(h, g)


def _eigen_residual(mat, lmat, y):
    """Distance of y from being a generalized eigenvector M y = lam L y."""
    w = np.linalg.solve(lmat, mat @ y)
    lam = (y.conj() @ w) / (y.conj() @ y)
    return float(np.linalg.norm(w - lam * y))


def diagonalize_pair(f, g, tol_sep=TOL_SEP):
    """Simultaneous linear-diagonal form of a commuting Single pair.

    The conjugator is h: x3 -> x3 + c x1^p x2^q with
    c = -eps / (a3 - a1^p a2^q); when that denominator (relative to the
    element scale) is below tol_sep the pair is genuinely resonant and no
    diagonalization exists.
    """
    a1, a2, a3, eps = f.data
    p, q = f.regime.p, f.regime.q
    gap = a3 - a1 ** p * a2 ** q
    if abs(gap) <= tol_sep * (1 + abs(a3)):
        raise IllConditioned("linear part is resonant: |a3 - a1^p a2^q| too small")
    c = -eps / gap
    h = GroupElement(f.regime, (1, 1, 1, c))
    d_f = conjugate(h, f)
    d_g = conjugate(h, g)
    return h, d_f, d_g


def untwist(f):
    """Isomorphism Double -> C* x GL(2,C): (a1, M) -> (a1, L_{a1,p}^{-1} M)."""
    a1, mat = f.data
    return a1, np.linalg.solve(_l_matrix(a1, f.regime.p), mat)


def twist(regime, a1, n):
    return GroupElement(regime, (a1, _l_matrix(a1, regime.p) @ np.asarray(n)))


@dataclass(frozen=True)
class AlgebraElement:
    """Tangent vector at the identity, in the same layout as GroupElement.

    NonResonant: (x1, x2, x3); Single: (x1, x2, x3, e);
    Double: (x1, K) with K the untwisted 2x2 generator.
    """
    regime: ResonanceClass
    data: tuple

    def scaled(self, t):
        if self.regime.tag == "Double":
            x1, k = self.data
            return AlgebraElement(self.regime, (t * x1, t * np.asarray(k)))
        return AlgebraElement(self.regime, tuple(t * x for x in self.data))


def _flow_factor(x3, mu):
    """(exp(mu) - exp(x3)) / (mu - x3): eps(1) = e * factor for the Single
    one-parameter subgroup with generator (x1, x2, x3, e), where
    mu = p x1 + q x2."""
    d = mu - x3
    if abs(d) < 1e-8:
        # exp(x3) * (exp(d) - 1)/d, stable near d = 0
        return np.exp(x3) * (1 + d / 2 + d * d / 6)
    return (np.exp(mu) - np.exp(x3)) / d


def group_exp(x):
    tag = x.regime.tag
    if tag == "NonResonant":
        return GroupElement(x.regime, tuple(np.exp(v) for v in x.data))
    if tag == "Single":
        x1, x2, x3, e = x.data
        mu = x.regime.p * x1 + x.regime.q * x2
        return GroupElement(x.regime, (np.exp(x1), np.exp(x2), np.exp(x3),
                                       e * _flow_factor(x3, mu)))
    x1, k = x.data
    n = scipy.linalg.expm(np.asarray(k, dtype=complex))
    return twist(x.regime, np.exp(x1), n)


def group_log(f):
    tag = f.regime.tag
    if tag == "NonResonant":
        return AlgebraElement(f.regime, tuple(np.log(a) for a in f.data))
    if tag == "Single":
        a1, a2, a3, eps = f.data
        x1, x2, x3 = np.log(a1), np.log(a2), np.log(a3)
        factor = _flow_factor(x3, f.regime.p * x1 + f.regime.q * x2)
        if abs(factor) < 1e-14:
            if abs(eps) < 1e-14:
                return AlgebraElement(f.regime, (x1, x2, x3, 0))
            raise BranchDomain("a1^p a2^q = a3 with incompatible principal "
                               "logs: no preimage under exp on this branch")
        return AlgebraElement(f.regime, (x1, x2, x3, eps / factor))
    a1, n = untwist(f)
    k = scipy.linalg.logm(n)
    if np.linalg.norm(scipy.linalg.expm(k) - n) > 1e-8 * (1 + np.linalg.norm(n)):
        raise BranchDomain("matrix log round-trip failed")
    return AlgebraElement(f.regime, (np.log(a1), k))


def group_dim(cls):
    return {"NonResonant": 3, "Single": 4, "Double": 5}[cls.tag]
