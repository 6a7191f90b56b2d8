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
N = L_{a1,p}^{-1} M, which is how exp/log and normal forms are computed;
the 2x2 exp and log are closed forms in the eigenvalues.

`compose_many`, `inverse_many` and `apply_many` evaluate the group laws
on stacked parameter rows in numpy's own arithmetic, so a row agrees
with the scalar function to rounding, not to the bit.  Each returns,
with its rows, the checks that decide its refusals from those rows
alone: a power that leaves the float range, an output that
`GroupElement` or `PointV` refuses, a non-finite output.  `replay`
raises the error of the first refused row.  The scalar `compose`,
`inverse` and `apply` refuse a non-finite result as the arrays do.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .resonance import ResonanceClass

TOL_SEP = 1e-8
# relative commutation residual up to which elements count as commuting
COMMUTE_TOL = 1e-8


class IllConditioned(Exception):
    """Normal form does not exist / is numerically meaningless here."""


class BranchDomain(Exception):
    """Argument outside the principal-branch domain of exp/log."""


def _power_check(z, n):
    """z ** n for each z, by numpy's power, and the `replay` checks that
    refuse each finite z whose power is not a float, as Python refuses
    complex(z) ** n: ZeroDivisionError where n < 0 and z is 0, or z ** -n
    is 0 with |n| <= 100 (below its exp-log power), OverflowError
    otherwise."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        out = z ** n
    return out, [(np.isfinite(out) | ~np.isfinite(z),
                  functools.partial(_refuse_power, n=n), z)]


def _refuse_power(z, n):
    with np.errstate(all="ignore"):
        if n < 0 and (z == 0 or abs(n) <= 100 and z ** -n == 0):
            raise ZeroDivisionError("0.0 to a negative or complex power")
    raise OverflowError("complex exponentiation")


def _power(z, n):
    """z ** n for each z, raising the refusal of the first z refused."""
    return accepted(_power_check(z, n))


def replay(*checks):
    """Raise the error of the first row that fails a check.  Each check is
    (ok, fn, *rows) with ok a mask over the rows; for the first row k that
    fails any check, fn(*(r[k] for r in rows)) of each check it fails
    runs, in the order given, and raises the refusal of that row."""
    bad = ~passed(checks).ravel()
    if not bad.any():
        return
    k = np.argmax(bad)
    with np.errstate(all="ignore"):
        for ok, fn, *rows in checks:
            if not ok.flat[k]:
                fn(*(np.reshape(r, (ok.size,) + np.shape(r)[ok.ndim:])[k]
                     for r in rows))


def passed(checks):
    """The rows that pass every check of a list of `replay` checks (all
    rows, for no check)."""
    return functools.reduce(np.logical_and, [check[0] for check in checks],
                            np.True_)


def accepted(result):
    """The output of an array form that returns (output, checks), once
    `replay` has found no refused row."""
    out, checks = result
    replay(*checks)
    return out


def _finite_check(out):
    """The check refusing each non-finite output row (..., k) with
    OverflowError."""
    return np.isfinite(out).all(axis=-1), _overflow, out


def _overflow(out):
    raise OverflowError("result leaves the float range")


def _zero_division(den):
    raise ZeroDivisionError("complex division by zero")


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


def _points_ok(x):
    """Points (..., 3) that pass the `PointV` checks."""
    return (x[..., 0] != 0) & ((x[..., 1] != 0) | (x[..., 2] != 0))


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
            with np.errstate(all="ignore"):
                singular = mat.shape != (2, 2) or np.linalg.det(mat) == 0
            if a1 == 0 or singular:
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


def _l_matrices(z, p):
    """`_l_matrix` for each z (N,)."""
    out = np.zeros((len(z), 2, 2), dtype=complex)
    out[:, 0, 0] = 1
    out[:, 1, 1] = _power(z, p)
    return out


def tau(z, p, mat):
    """Twisted conjugation: scales the off-diagonal entries by z^{-+p}."""
    z = complex(z)
    out = np.array(mat, dtype=complex)
    out[0, 1] *= z ** (-p)
    out[1, 0] *= z ** p
    return out


def _finite(x):
    """x, a `GroupElement` or `PointV`, refused by `_finite_check`."""
    ok, refuse, row = _finite_check(x.array() if isinstance(x, PointV)
                                    else x.params())
    if not ok:
        refuse(row)
    return x


def apply(f, x):
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    xi = x.array()
    tag = f.regime.tag
    with np.errstate(all="ignore"):
        if tag == "NonResonant":
            out = np.asarray(f.data) * xi
        elif tag == "Single":
            a1, a2, a3, eps = f.data
            p, q = f.regime.p, f.regime.q
            out = np.array([a1 * xi[0], a2 * xi[1],
                            a3 * xi[2] + eps * xi[0] ** p * xi[1] ** q])
        else:
            a1, mat = f.data
            tail = tau(xi[0], f.regime.p, mat) @ xi[1:]
            out = np.array([a1 * xi[0], tail[0], tail[1]])
    return _finite(PointV(tuple(out)))


def _compose_data(regime, fdata, gdata):
    """The data of `compose` from the data of its factors, not validated."""
    tag = regime.tag
    if tag == "NonResonant":
        return tuple(a * b for a, b in zip(fdata, gdata))
    if tag == "Single":
        a1, a2, a3, eps = fdata
        b1, b2, b3, delta = gdata
        return (a1 * b1, a2 * b2, a3 * b3,
                a3 * delta + eps * b1 ** regime.p * b2 ** regime.q)
    (a1, amat), (b1, bmat) = fdata, gdata
    return a1 * b1, tau(b1, regime.p, amat) @ bmat


def compose(f, g):
    """f g; a product that leaves the float range is refused."""
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    with np.errstate(all="ignore"):
        h = _compose_data(f.regime, f.data, g.data)
    return _finite(GroupElement(f.regime, h))


def _inverse_data(regime, data):
    """The data of `inverse` from the data of an element, not validated."""
    if regime.tag == "NonResonant":
        return tuple(1 / a for a in data)
    if regime.tag == "Single":
        a1, a2, a3, eps = data
        return (1 / a1, 1 / a2, 1 / a3,
                -eps / (a3 * a1 ** regime.p * a2 ** regime.q))
    a1, mat = data
    return 1 / a1, tau(1 / a1, regime.p, np.linalg.inv(mat))


def inverse(f):
    """f^-1; an inverse that leaves the float range is refused."""
    with np.errstate(all="ignore"):
        h = _inverse_data(f.regime, f.data)
    return _finite(GroupElement(f.regime, h))


def _to_point(xi):
    return PointV(tuple(xi))


def _element_check(regime, h):
    """The check refusing the rows h (..., k) that `GroupElement` refuses."""
    if regime.tag == "Double":
        ok = (h[..., 0] != 0) & (np.linalg.det(
            h[..., 1:].reshape(h.shape[:-1] + (2, 2))) != 0)
    else:
        ok = (h[..., :3] != 0).all(axis=-1)
    return ok, functools.partial(element_from_params, regime), h


def compose_many(regime, a, b):
    """`compose` on parameter rows (`GroupElement.params`) a, b (N, k),
    in numpy's arithmetic: the rows of the products and the `replay`
    checks that refuse a row, in this order where a power leaves the
    float range, where `GroupElement` refuses the product and where the
    product is not finite."""
    tag = regime.tag
    checks = []
    with np.errstate(all="ignore"):
        h = a * b
        if tag == "Single":
            x, cx = _power_check(b[:, 0], regime.p)
            y, cy = _power_check(b[:, 1], regime.q)
            checks = cx + cy
            h[:, 3] = a[:, 2] * b[:, 3] + a[:, 3] * x * y
        elif tag == "Double":  # tau(b1, p, M): b1^-p above, b1^p below
            x, cx = _power_check(b[:, 0], -regime.p)
            y, cy = _power_check(b[:, 0], regime.p)
            checks = cx + cy
            t = a[:, 1:].reshape(-1, 2, 2).copy()
            t[:, 0, 1] *= x
            t[:, 1, 0] *= y
            h[:, 1:] = (t @ b[:, 1:].reshape(-1, 2, 2)).reshape(-1, 4)
        return h, checks + [_element_check(regime, h), _finite_check(h)]


def inverse_many(regime, a):
    """`inverse` on parameter rows a (N, k), with checks as in
    `compose_many`, after one refusing the rows of a that are no group
    elements; the Single regime's quotient by a3 a1^p a2^q refuses a
    denominator that is 0, as Python's complex division does."""
    tag = regime.tag
    with np.errstate(all="ignore"):
        checks = [_element_check(regime, a)]
        h = 1 / a
        if tag == "Single":
            x, cx = _power_check(a[:, 0], regime.p)
            y, cy = _power_check(a[:, 1], regime.q)
            den = a[:, 2] * x * y
            checks += cx + cy + [(den != 0, _zero_division, den)]
            h[:, 3] = -a[:, 3] / den
        elif tag == "Double":
            t = np.linalg.inv(np.where(checks[0][0][:, None, None],
                                       a[:, 1:].reshape(-1, 2, 2), np.eye(2)))
            x, cx = _power_check(h[:, 0], -regime.p)
            y, cy = _power_check(h[:, 0], regime.p)
            checks += cx + cy
            t[:, 0, 1] *= x
            t[:, 1, 0] *= y
            h[:, 1:] = t.reshape(-1, 4)
        return h, checks + [_element_check(regime, h), _finite_check(h)]


def _images(regime, h, x):
    """The images of `apply_many`, and the `replay` checks on the powers
    of the points x alone that it refuses (xi1^-p and xi1^p of the Double
    regime's tau)."""
    checks = []
    with np.errstate(all="ignore"):
        y = h[..., :3] * x
        if regime.tag == "Single":
            y[..., 2] += (h[..., 3] * x[..., 0] ** regime.p
                          * x[..., 1] ** regime.q)
        elif regime.tag == "Double":
            u, cu = _power_check(x[..., 0], -regime.p)
            v, cv = _power_check(x[..., 0], regime.p)
            checks = cu + cv
            t = np.broadcast_to(h[..., 1:], y.shape[:-1] + (4,)).reshape(
                y.shape[:-1] + (2, 2)).copy()
            t[..., 0, 1] *= u
            t[..., 1, 0] *= v
            y[..., 1:] = (t @ x[..., 1:, None])[..., 0]
    return y, checks


def apply_many(regime, h, x):
    """`apply` of the parameter rows h (..., k) to the points x (..., 3),
    broadcast against each other, in numpy's arithmetic: the images and
    the `replay` checks over them that refuse, in this order, a row h
    that is no group element, a power of a point that leaves the float
    range, an image off V and a non-finite image."""
    y, powers = _images(regime, h, x)
    with np.errstate(all="ignore"):
        checks = [_element_check(regime, h)] + powers + [
            (_points_ok(y), _to_point, y), _finite_check(y)]
    shape = y.shape[:-1]
    return y, [(np.broadcast_to(ok, shape), fn,
                *(np.broadcast_to(r, shape + r.shape[ok.ndim:]) for r in rows))
               for ok, fn, *rows in checks]


def conjugate(h, f):
    """h^{-1} f h."""
    return compose(inverse(h), compose(f, h))


def commutation_residual(f, g):
    """Parameter-space distance between f g and g f (0 iff they commute)."""
    d = compose(f, g).params() - compose(g, f).params()
    return float(np.max(np.abs(d)))


def _null_vector(mat):
    """Unit vector spanning the (numerical) kernel of a 2x2 matrix, or of
    each matrix of a stack (..., 2, 2)."""
    _, _, vh = np.linalg.svd(mat)
    return vh[..., -1, :].conj()


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


def p_eigenvalues_many(alpha, mat, p):
    """`p_eigenvalues` of the rows alpha (N,), M (N, 2, 2): the roots
    (N, 2), in its order.  The quadratic is solved as np.roots solves it,
    by the eigenvalues of its companion matrix; a row with a zero or
    non-finite coefficient is handed to np.roots itself."""
    if np.any(alpha == 0):
        raise ValueError("alpha must be nonzero")
    ap = _power(alpha, p)
    coef = np.stack([ap, -(mat[:, 0, 0] * ap + mat[:, 1, 1]),
                     np.linalg.det(mat)], axis=1)
    plain = np.isfinite(coef).all(axis=1) & (coef[:, 0] != 0) & (coef[:, 2] != 0)
    comp = np.zeros((len(ap), 2, 2), dtype=complex)
    comp[:, 1, 0] = 1
    comp[plain, 0] = -coef[plain, 1:] / coef[plain, :1]
    roots = np.linalg.eigvals(comp)
    r0, r1 = roots.T
    up = (r1.real > r0.real) | ((r1.real == r0.real) & (r1.imag > r0.imag))
    roots = np.where(up[:, None], roots[:, ::-1], roots)
    for k in np.flatnonzero(~plain):
        r = sorted(np.roots(coef[k]), key=lambda z: (z.real, z.imag), reverse=True)
        roots[k] = r[0], r[1]
    return roots


def triangularize(f):
    """Conjugate a Double element to lower-triangular form.

    Returns (h, t) with h = (1, P) and t = h^{-1} f h whose matrix has
    zero upper-right entry; an element whose upper-right entry is at
    most 1e-10 counts as triangular already.  The triangular eigenvalue is
    the first of ``p_eigenvalues``, so conjugators are reproducible.
    """
    a1, mat = f.data
    p = f.regime.p
    if abs(mat[0, 1]) <= 1e-10:
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


def simultaneous_triangularize(f, g):
    """Common lower-triangular form of a commuting Double pair."""
    scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
    if commutation_residual(f, g) > COMMUTE_TOL * scale:
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


def diagonalize_pair(f, g):
    """Simultaneous linear-diagonal form of a commuting Single pair.

    The conjugator is h: x3 -> x3 + c x1^p x2^q with
    c = -eps / (a3 - a1^p a2^q); when that denominator (relative to the
    element scale) is at most TOL_SEP the pair is genuinely resonant and no
    diagonalization exists.
    """
    a1, a2, a3, eps = f.data
    p, q = f.regime.p, f.regime.q
    gap = a3 - a1 ** p * a2 ** q
    if abs(gap) <= TOL_SEP * (1 + abs(a3)):
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


def _eig2(k):
    """(m, s^2, K - m I) of 2x2 matrices K (..., 2, 2), whose eigenvalues
    are m +- s: m = tr K / 2, s^2 = ((k11 - k22) / 2)^2 + k12 k21."""
    k = np.asarray(k, dtype=complex)
    m = (k[..., 0, 0] + k[..., 1, 1]) / 2
    d = (k[..., 0, 0] - k[..., 1, 1]) / 2
    c = k.copy()
    c[..., 0, 0] -= m
    c[..., 1, 1] -= m
    return m, d * d + k[..., 0, 1] * k[..., 1, 0], c


def _combine2(f0, f1, c):
    """f0 I + f1 C for scalars f0, f1 (...) and matrices C (..., 2, 2)."""
    out = f1[..., None, None] * c
    out[..., 0, 0] += f0
    out[..., 1, 1] += f0
    return out


def _expm2(k):
    """exp of 2x2 matrices (..., 2, 2) in closed form (Higham, Functions
    of Matrices, 10.2): exp(K) = e^m (cosh s I + sinh(s)/s (K - m I)).

    Both coefficients are even in s, so a series in s^2 covers small |s|,
    where K is confluent or defective.
    """
    m, s2, c = _eig2(k)
    s = np.sqrt(s2)
    s4 = s2 * s2
    small = np.abs(s) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        ch = np.where(small, 1 + s2 / 2 + s4 / 24, np.cosh(s))
        sh = np.where(small, 1 + s2 / 6 + s4 / 120, np.sinh(s) / s)
    e = np.exp(m)
    return _combine2(e * ch, e * sh, c)


def _logm2(n):
    """Principal log of 2x2 matrices (..., 2, 2) in closed form (Higham,
    Functions of Matrices, 11.2): log N = (l1 + l2)/2 I + D (N - m I), with
    l1, l2 the logs of the eigenvalues m +- s and D their divided
    difference.  For close eigenvalues D = (atanh(s/m) + i pi U)/s with
    the unwinding number U, and 1/m when they coincide.

    The logs of the eigenvalues are numpy's principal ones, with argument
    pi on the negative real axis.  Raises BranchDomain where the log is
    undefined (a zero eigenvalue) or ill-conditioned (eigenvalues within
    1e-8 of each other, relatively, on either side of the branch cut,
    where D grows like 1/s).
    """
    m, s2, c = _eig2(n)
    s = np.sqrt(s2)
    lam = np.stack([m + s, m - s])
    if np.any(lam == 0):
        raise BranchDomain("singular matrix: no matrix log")
    l1, l2 = np.log(lam)
    close = np.abs(s) <= np.abs(m) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        at = np.arctanh(np.where(close, s / m, 0))
        turns = np.round((l1 - l2 - 2 * at).imag / (2 * np.pi))
        dd = np.where(close, np.where(s == 0, 1 / m, (at + 1j * np.pi * turns) / s),
                      (l1 - l2) / (2 * s))
    if np.any((turns != 0) & (np.abs(s) < 1e-8 * np.abs(m))):
        raise BranchDomain("eigenvalues within 1e-8 on either side of the "
                           "branch cut: the principal matrix log is "
                           "ill-conditioned")
    return _combine2((l1 + l2) / 2, dd, c)


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
    return twist(x.regime, np.exp(x1), _expm2(k))


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
    k = _logm2(n)
    if np.linalg.norm(_expm2(k) - n) > 1e-8 * (1 + np.linalg.norm(n)):
        raise BranchDomain("matrix log round-trip failed")
    return AlgebraElement(f.regime, (np.log(a1), k))


def group_dim(cls):
    return {"NonResonant": 3, "Single": 4, "Double": 5}[cls.tag]
