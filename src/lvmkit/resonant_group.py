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
on stacked parameter rows in numpy's own arithmetic, and `compose`,
`inverse` and `apply` are their one-row calls.  Each law computes its
rows and one mask, and raises for the first refused row only, by one
rule: an input that is no group element raises `GroupElement`'s
ValueError; a finite base whose power is not finite raises
OverflowError naming the law, the power and the row; an output that is
no group element or point of V raises `GroupElement`'s or `PointV`'s
ValueError; any other output that is not finite raises OverflowError.
`power_many` takes f^r for rows and exponents broadcast together, as
the chain f, f f, (f f) f, ... of the products `compose` takes.  All
laws read a 2x2 matrix as invertible where m11 m22 != m12 m21
(`_invertible`) and invert it without raising where it is (`_inverse2`).
The twisted eigenvalues and their kernels are closed forms on stacks,
`_twisted_roots` (a double root exactly, and at any scale: a quadratic
whose terms could leave the normal range is first rescaled by powers of
two) and `_null_vector`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .resonance import ResonanceClass

TOL_SEP = 1e-8
# relative commutation residual up to which elements count as commuting
COMMUTE_TOL = 1e-8
# d^2 + e of `_twisted_roots` rounds within (3 + 3 sqrt 5) u of its terms to
# first order, a complex product within sqrt(5) u (Brent, Percival and
# Zimmermann, Math. Comp. 76, 2007) and a sum within u; 10 u bounds it all
DISC_ROUNDING = 10 * 2.0 ** -53


class IllConditioned(Exception):
    """Normal form does not exist / is numerically meaningless here."""


class BranchDomain(Exception):
    """Argument outside the principal-branch domain of exp/log."""


# the refusals of rep_variety and family_gluing, defined here so that the
# CLI catches them without importing those layers
class NoConvergence(Exception):
    """A projection Psi of rep_variety refused its input: the solution
    leaves the branch-anchor neighborhood, a projected multiplier is not
    finite and nonzero, or the resonant scaling Newton solve failed."""


class NotInImage(Exception):
    """The point violates the clauses cutting out the image of the glue map."""


def _first(ok):
    """The index of the first row where the mask ok fails."""
    return np.unravel_index(np.argmin(ok), ok.shape)


def _overflow():
    raise OverflowError("result leaves the float range")


def _power(z, n, law, name):
    """z ** n for each z (...), by numpy's power, refusing the first finite
    z whose power is not finite as name^n of law."""
    with np.errstate(all="ignore"):
        out = z ** n
        bad = np.isfinite(z) & ~np.isfinite(out)
    if bad.any():
        raise OverflowError("%s: %s^%d leaves the float range (row %s)" % (
            law, name, n, ", ".join(map(str, _first(~bad)))))
    return out


def replay(*checks):
    """Raise the error of the first row that fails a check.  Each check is
    (ok, fn, *rows): a mask (N,) and rows of N entries each.  For the
    first row k that fails any check, the checks it fails raise, in order,
    by fn(*(r[k] for r in rows))."""
    ok = np.logical_and.reduce([check[0] for check in checks])
    if ok.all():
        return
    k = np.argmin(ok)
    with np.errstate(all="ignore"):
        for c, fn, *rows in checks:
            if not c[k]:
                fn(*(r[k] for r in rows))


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
            mat = np.array(mat, dtype=complex)
            singular = mat.shape != (2, 2) or not _invertible(mat[None])[0]
            if a1 == 0 or singular:
                raise ValueError("Double element needs a1 != 0 and invertible M")
            mat.setflags(write=False)
            d = (a1, mat)
        object.__setattr__(self, "data", d)

    def params(self):
        """Flat complex parameter vector (interchange / distance measure)."""
        if self.regime.tag == "Double":
            a1, mat = self.data
            return np.concatenate([[a1], mat.ravel()])
        return np.asarray(self.data, dtype=complex)


@functools.lru_cache(maxsize=None)
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


def _regime(*elements):
    """The regime of the elements, which must share it."""
    if any(e.regime != elements[0].regime for e in elements):
        raise ValueError("cannot compose elements of different regimes")
    return elements[0].regime


def compose(f, g):
    """f g, the one row of `compose_many`."""
    regime = _regime(f, g)
    return element_from_params(regime, compose_many(
        regime, f.params()[None], g.params()[None])[0])


def inverse(f):
    """f^-1, the one row of `inverse_many`."""
    return element_from_params(f.regime, inverse_many(
        f.regime, f.params()[None])[0])


def apply(f, x):
    """f x, the one row of `apply_many`."""
    return _to_point(apply_many(f.regime, f.params()[None],
                                _to_point(x).array()[None])[0])


def _to_point(xi):
    """xi as a `PointV`, built from its coordinates unless it is one."""
    return xi if isinstance(xi, PointV) else PointV(tuple(xi))


def _ldexp(z, n):
    """z 2^n for complex z, exactly where no part leaves the normal range."""
    return np.ldexp(z[..., None].view(float), n[..., None]).view(complex)[..., 0]


def _determinant2(m):
    """(s, d, t) for the 2x2 matrices m (..., 2, 2): d = s11 s22 - s12 s21
    of s = m 2^t.  t is 0 where that d of m itself is finite and not 0.
    Where the products are equal or one leaves the float range, t is
    [[-e11, -e12], [e12 - k, e11 - k]], with e_ij the exponent of the
    larger part of m_ij and k = max(e11 + e22, e12 + e21): it scales both
    products by 2^-k exactly, so that neither overflows, nor underflows
    unless it is negligible beside the other.  numpy's errors are the
    caller's to ignore."""
    d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if d.all() and np.isfinite(d).all():
        return m, d, 0
    m = np.asarray(m, dtype=complex)
    parts = m[..., None].view(float)
    e = np.where(parts != 0, np.frexp(parts)[1], -3000).max(-1)
    k = np.maximum(e[..., 0, 0] + e[..., 1, 1], e[..., 0, 1] + e[..., 1, 0])
    t = np.stack([-e[..., 0, :], e[..., 0, ::-1] - k[..., None]], -2)
    redo = (d == 0) | ~np.isfinite(d)
    s = _ldexp(m, t := np.where(redo[..., None, None], t, 0))
    return s, s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0], t


def _invertible(m):
    """Where d of `_determinant2` is not 0 (a non-finite entry passes)."""
    with np.errstate(all="ignore"):
        return _determinant2(m)[1] != 0


def _inverse2(m):
    """The inverses of the 2x2 matrices m (..., 2, 2): by LU where it meets
    no zero pivot, else adj(s) / d 2^(t^T) of `_determinant2`, whose d is
    not 0 where `_invertible` holds, so that no matrix raises."""
    with np.errstate(all="ignore"):
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:  # a zero pivot: det reads 0 there
            lu = (np.linalg.det(m) != 0)[..., None, None]
        s, d, t = _determinant2(m)
        adj = s[..., ::-1, ::-1].swapaxes(-1, -2) * [[1, -1], [-1, 1]]
        t = np.broadcast_to(t, m.shape).swapaxes(-1, -2)
        return np.where(lu, np.linalg.inv(np.where(lu, m, np.eye(2))),
                        _ldexp(adj / d[..., None, None], t))


def _elements_ok(regime, h):
    """The rows h (..., k) that `GroupElement` accepts (`_invertible`);
    numpy's errors are the caller's to ignore."""
    if regime.tag == "Double":
        return (h[..., 0] != 0) & (_determinant2(_blocks(h))[1] != 0)
    return h[..., :3].all(axis=-1)


def _exponents(regime):
    """(column, n) of each power b_column^n of the rows b that a product
    with b on the right takes: b1^p and b2^q (Single), b1^-p and b1^p
    (Double), none (NonResonant)."""
    p, q = regime.p, regime.q
    return {"Single": ((0, p), (1, q)), "Double": ((0, -p), (0, p))}.get(
        regime.tag, ())


def _factor_powers(regime, b):
    """The powers of `_exponents` of the rows b (..., k), by numpy's power;
    numpy's errors are the caller's to ignore."""
    return [np.asarray(b[..., c], dtype=complex) ** n
            for c, n in _exponents(regime)]


def _check(law, regime, ok, base=None, name="", inputs=None, out=None,
           point=False, divisor=False, row=None):
    """Raise the refusal of the first row k where the mask ok fails, from
    law's arrays broadcast to ok, by the module's rule: a row of inputs
    that is no group element; a finite entry of the rows base whose power
    (`_exponents`) is not finite, name formatting its column, or (with
    divisor) a Single divisor base3 x y of its powers x, y that is 0; a
    row of out that is no group element (or point of V); any other row.
    The message names the row k, or row."""
    if ok.all():
        return
    k = _first(ok)
    where = "%s: %%s (row %s)" % (law, ", ".join(map(str, row or k)))
    if inputs is not None:
        element_from_params(regime, np.broadcast_to(
            inputs, ok.shape + inputs.shape[-1:])[k])
    if base is not None:
        base = np.broadcast_to(base, ok.shape + base.shape[-1:])
        powers = _factor_powers(regime, base)
        for (c, n), w in zip(_exponents(regime), powers):
            if np.isfinite(base[k + (c,)]) and not np.isfinite(w[k]):
                raise OverflowError(where % ("%s^%d leaves the float range"
                                             % (name % (c + 1), n)))
        if divisor and (base[..., 2] * powers[0] * powers[1])[k] == 0:
            raise OverflowError(where % ("a3 a1^%d a2^%d rounds to 0"
                                         % (regime.p, regime.q)))
    if out is not None:
        _to_point(out[k]) if point else element_from_params(regime, out[k])
    raise OverflowError(where % "result leaves the float range")


def _shear(a3, eps, b4, x, y):
    """The shear of a product of Single rows a, b: a3 delta + eps x y, for
    the powers x, y of b of `_factor_powers`."""
    return a3 * b4 + eps * x * y


def _tau(m, x, y):
    """tau(z, p, M) for Double blocks M (..., 2, 2), x, y = z^-p, z^p."""
    m = m.copy()
    m[..., 0, 1] *= x
    m[..., 1, 0] *= y
    return m


def _twisted(m, n, x, y):
    """tau(b1, p, M) N for Double blocks M, N (..., 2, 2) and the powers
    x, y of b1 of `_factor_powers`, each entry a sum of two products."""
    m = _tau(m, x, y)
    return m[..., :1] * n[..., :1, :] + m[..., 1:] * n[..., 1:, :]


def _blocks(h):
    """The Double blocks (..., 2, 2) of the rows h (..., 5)."""
    return h[..., 1:].reshape(h.shape[:-1] + (2, 2))


def _product(regime, a, b, x=None, y=None):
    """The rows a b of `compose_many` unchecked, for rows a, b (..., k) and
    the powers x, y of b that `_factor_powers` takes; numpy's errors are
    the caller's to ignore."""
    h = a * b
    if regime.tag == "Single":
        h[..., 3] = _shear(a[..., 2], a[..., 3], b[..., 3], x, y)
    elif regime.tag == "Double":
        h[..., 1:] = _twisted(_blocks(a), _blocks(b), x, y).reshape(
            h.shape[:-1] + (4,))
    return h


def _compose_rows(regime, a, b):
    """The rows of `compose_many` unchecked."""
    return _product(regime, a, b, *_factor_powers(regime, b))


def compose_many(regime, a, b):
    """`compose` on parameter rows (`GroupElement.params`) a, b (N, k) in
    numpy's arithmetic: the rows of `_compose_rows`.  The first refused
    row raises: where a power of b leaves the float range, where
    `GroupElement` refuses the row and where it is not finite, in this
    order."""
    with np.errstate(all="ignore"):
        h = _compose_rows(regime, a, b)
        _check("compose", regime, _elements_ok(regime, h)
               & np.isfinite(h).all(axis=-1), b, "b%d", out=h)
    return h


def _inverse_rows(regime, a):
    """The rows of `inverse_many` on rows a (..., k) unchecked; numpy's
    errors are the caller's to ignore."""
    h = 1 / a
    if regime.tag == "Single":
        x, y = _factor_powers(regime, a)
        h[..., 3] = -a[..., 3] / (a[..., 2] * x * y)
    elif regime.tag == "Double":
        t = _tau(_inverse2(_blocks(a)), *_factor_powers(regime, h))
        h[..., 1:] = t.reshape(a.shape[:-1] + (4,))
    return h


def inverse_many(regime, a):
    """`inverse` on parameter rows a (N, k).  The first refused row
    raises, as in `compose_many`, after a row of a that is no group
    element; the Single regime's quotient by a3 a1^p a2^q refuses a
    divisor that rounds to 0 before any other non-finite row."""
    with np.errstate(all="ignore"):
        h = _inverse_rows(regime, a)
        ok = (_elements_ok(regime, a) & _elements_ok(regime, h)
              & np.isfinite(h).all(axis=-1))
        double = regime.tag == "Double"  # whose tau takes powers of 1 / a1
        _check("inverse", regime, ok, h if double else a,
               "(1/a%d)" if double else "a%d", a, h,
               divisor=regime.tag == "Single")
    return h


def _power_stages(regime, rows, r):
    """The refusals of `power_many`, then (scalars, full): the d diagonal
    columns of its rows, a running product, and full(), its rows; numpy's
    errors are the caller's to ignore."""
    rows, r = np.asarray(rows, dtype=complex), np.asarray(r)
    n, k = rows[..., 0].size, rows.shape[-1]
    double, d = regime.tag == "Double", 1 if regime.tag == "Double" else 3
    inv = _inverse_rows(regime, rows)
    # f and f^-1 of each f, first the one whose powers `_inverse_rows`
    # takes, so that the refusals come in its order
    both = np.stack([inv, rows] if double else [rows, inv],
                    -2).reshape(2 * n, k)
    powers = _factor_powers(regime, both)
    x, y = powers or (None, None)
    if powers:
        (i, _), (j, _) = _exponents(regime)
        ok = ((np.isfinite(x) | ~np.isfinite(both[:, i]))
              & (np.isfinite(y) | ~np.isfinite(both[:, j])))
        if regime.tag == "Single":  # the divisor of each f's inverse
            ok &= np.repeat(both[::2, 2] * x[::2] * y[::2] != 0, 2)
        e = np.argmin(ok)
        _check("power", regime, ok, both, "(1/a%d)" if (
            e % 2 == 0) == double else "a%d",
            divisor=regime.tag == "Single", row=(e // 2,))
    # the d columns that compose entrywise, contiguous to multiply fast
    table = np.empty((max(abs(r).max(initial=0), 1) + 1, 2 * n, d),
                     dtype=complex)
    table[0], table[1] = 1, both[:, :d]  # the identity's are all 1
    step = table[1]
    for j in range(2, len(table)):  # the scalars of `_product`
        np.multiply(table[j - 1], step, out=table[j])
    # the row of f, or of f^-1 where r < 0, that each power takes
    at = abs(r), 2 * np.arange(n).reshape(rows.shape[:-1]) + ((r < 0) ^ double)

    def full():
        out = np.empty(table.shape[:2] + (k,), dtype=complex)
        out[..., :d], out[0], out[1] = table, identity(regime).params(), both
        a3, eps = out[..., 2], out[..., -1]
        blocks = _blocks(out) if double else None
        for j in range(2, len(out)):  # the rest of `_product`
            if double:
                blocks[j] = _twisted(blocks[j - 1], blocks[1], x, y)
            else:
                eps[j] = _shear(a3[j - 1], eps[j - 1], eps[1], x, y)
        return out[at]
    return (scalars := table[at]), (lambda: scalars) if d == k else full


def power_many(regime, rows, r):
    """f^r for the parameter rows (..., k) of elements f and integers r,
    broadcast against each other, as the chain f, f f, (f f) f, ... of
    `_product` from f, or from f^-1 where r < 0, that `compose` takes: the
    rows, unchecked.  Whatever r, the first element f whose f or f^-1
    takes a power (`_factor_powers`) that leaves the float range, or whose
    Single divisor (`inverse_many`) rounds to 0, raises.  The rows of r = 0
    and 1 are the identity's and f's."""
    with np.errstate(all="ignore"):
        return _power_stages(regime, rows, r)[1]()


def _images(regime, h, x):
    """The images of `apply_many` unchecked; numpy's errors are the
    caller's to ignore."""
    y = h[..., :3] * x
    if regime.tag == "Single":
        y[..., 2] += h[..., 3] * x[..., 0] ** regime.p * x[..., 1] ** regime.q
    elif regime.tag == "Double":
        u, v = _factor_powers(regime, x)
        y[..., 1] = h[..., 1] * x[..., 1] + h[..., 2] * u * x[..., 2]
        y[..., 2] = h[..., 3] * v * x[..., 1] + h[..., 4] * x[..., 2]
    return y


def apply_many(regime, h, x):
    """`apply` of the parameter rows h (..., k) to the points x (..., 3),
    broadcast against each other, in numpy's arithmetic: the images.  The
    first refused image raises: where h is no group element, where a
    power of x that the Double regime's tau takes leaves the float range,
    where the image is off V and where it is not finite, in this order."""
    with np.errstate(all="ignore"):
        y = _images(regime, h, x)
        ok = _elements_ok(regime, h)
        if not (np.isfinite(y).all() and y.all()):  # else finite points of V
            ok = ok & _points_ok(y) & np.isfinite(y).all(axis=-1)
        # tau's powers of xi1 are refused, not the Single shear's
        _check("apply", regime, ok, x if regime.tag == "Double" else None,
               "xi%d", h, y, point=True)
    return y


def conjugate(h, f):
    """h^{-1} f h."""
    return compose(inverse(h), compose(f, h))


def _commutators(pairs):
    """f g - g f in parameters (len(pairs), k) for the pairs (f, g) of one
    regime, the rows f g, g f, ... of one `compose_many` call."""
    regime = _regime(*(e for pair in pairs for e in pair))
    a = np.array([[e.params() for e in pair] for pair in pairs])
    h = compose_many(regime, a.reshape(-1, a.shape[-1]),
                     a[:, ::-1].reshape(-1, a.shape[-1]))
    return h[::2] - h[1::2]


def commutation_residual(f, g):
    """Parameter-space distance between f g and g f (0 iff they commute)."""
    return float(np.max(np.abs(_commutators([(f, g)]))))


def _null_vector(mat):
    """Unit vector spanning the kernel of a singular 2x2 matrix N, or of
    each matrix of a stack (..., 2, 2), from its larger row: (-n12, n11)
    or (n22, -n21); (0, 1) for the zero matrix."""
    n = np.asarray(mat, dtype=complex)
    rows = np.hypot(abs(n[..., 0]), abs(n[..., 1]))
    top = rows[..., :1] >= rows[..., 1:]
    w = np.where(top, n[..., 0, ::-1], -n[..., 1, ::-1]) * [-1, 1]
    size = np.maximum(rows[..., :1], rows[..., 1:])
    if not size.all():  # the zero matrix: w = 0, and (0, 1) is returned
        w[size[..., 0] == 0, 1], size[size == 0] = 1, 1
    return w / size


def _twisted_roots(ap, m):
    """The roots (..., 2) of det(X L - M) = ap X^2 - b X + det M, for
    ap = alpha^p (...), M (..., 2, 2) and b = m11 ap + m22, ordered
    lexicographically on (re, im), larger first.

    The discriminant Delta = d^2 + 4 ap m12 m21, d = m11 ap - m22, is 0 on
    diagonal and triangular blocks with a double root; within
    DISC_ROUNDING (|d| (|m11 ap| + |m22|) + |4 ap m12 m21|), its rounding
    from the given floats, it counts as 0 and both roots are b / (2 ap).
    Otherwise they are q / ap and det M / q with q = (b + s) / 2 and
    s = +-sqrt(Delta), Re(conj(b) s) >= 0, which cancel nothing (Kahan,
    "On the cost of floating-point computation without extra-precise
    arithmetic", 2004; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 1.8).

    No term leaves the normal range while the real and imaginary parts of
    ap and M are 0 or within 2^(+-200).  Otherwise the quadratic is first
    rescaled by ap -> 2^-j ap and M -> 2^(j - k) diag(1, 2^-j) D M D^-1,
    D = diag(1, 2^g), which is exact and multiplies the roots by 2^(j - k)
    (Delta by a power of two): the exponents put |ap| in [1/2, 1) and
    |m11 ap|, |m22|, |ap m12 m21| and |m12| ~ |m21| at most about 2, so
    only a term below 2^-1000 of the largest can underflow.
    """
    z = np.concatenate([np.asarray(ap)[..., None],
                        m.reshape(m.shape[:-2] + (4,))], -1)
    exps = np.frexp(z.view(float))[1]
    if abs(exps).max() < 200:
        return _quadratic_roots(ap, m)
    exps = np.where(z.view(float) != 0, exps, -3000)
    j, k11, k12, k21, k22 = np.moveaxis(
        exps.reshape(z.shape + (2,)).max(-1), -1, 0)
    k = np.maximum(np.maximum(k11 + j, k22), (j + k12 + k21 + 1) // 2)
    g = (j + k12 - k21) // 2
    z = _ldexp(z, np.stack([-j, j - k, j - k - g, g - k, -k], -1))
    r = _quadratic_roots(z[..., 0], z[..., 1:].reshape(m.shape))
    return _ldexp(r, (k - j)[..., None])


def _quadratic_roots(ap, m):
    """`_twisted_roots` where no term leaves the normal range."""
    m11, m12, m21, m22 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    t = m11 * ap
    b, d, e = t + m22, t - m22, 4 * ap * m12 * m21
    delta = d * d + e
    double = abs(delta) <= DISC_ROUNDING * (abs(d) * (abs(t) + abs(m22))
                                            + abs(e))
    s = np.sqrt(delta)
    q = np.where(double, b, np.where((b.conj() * s).real < 0, b - s, b + s)) / 2
    r = np.empty(q.shape + (2,), dtype=complex)
    r[..., 0] = q / ap
    # q is 0 only where b = Delta = 0, a double root
    r[..., 1] = np.where(double, r[..., 0], (m11 * m22 - m12 * m21)
                         / np.where(double, 1, q))
    # numpy sorts complex numbers lexicographically
    return np.sort(r)[..., ::-1]


def p_eigenvalues(alpha, mat, p):
    """The two roots of det(X L_{alpha,p} - M) by `_twisted_roots`."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    ap = _power(np.array([alpha], dtype=complex), p, "p_eigenvalues", "alpha")
    r = _twisted_roots(ap[0], np.asarray(mat, dtype=complex))
    return complex(r[0]), complex(r[1])


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
    h = GroupElement(f.regime, (1, _basis(y)))
    return h, conjugate(h, f)


def _basis(y):
    """The columns (x, y), x the unit vector that completes y best."""
    return np.column_stack([np.eye(2)[int(abs(y[1]) < abs(y[0]))], y])


def simultaneous_triangularize(f, g):
    """Common lower-triangular form of a commuting Double pair."""
    scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
    if commutation_residual(f, g) > COMMUTE_TOL * scale:
        raise ValueError("elements do not commute within tolerance")
    a1, amat = f.data
    b1, bmat = g.data
    p = f.regime.p
    la, lb = _l_matrix(a1, p), _l_matrix(b1, p)
    # the twisted kernels of f, and those of g, which decide where f is
    # central (a multiple of L) and its kernels carry no information
    candidates = [_null_vector(mat - lam * lmat)
                  for z, mat, lmat in ((a1, amat, la), (b1, bmat, lb))
                  for lam in p_eigenvalues(z, mat, p)]
    y = min(candidates, key=lambda y: max(_eigen_residual(amat, la, y),
                                          _eigen_residual(bmat, lb, y)))
    h = GroupElement(f.regime, (1, _basis(y)))
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
