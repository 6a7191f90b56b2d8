"""The group laws in Python complex arithmetic, one element at a time,
used as the tests' reference.

`lvmkit.resonant_group` computes every law in numpy's arithmetic on
stacked rows, its scalar `compose`, `inverse` and `apply` being one-row
calls of the array forms.  These are an independent reading of the
formulas: scalar products and Python's complex power, so their values
agree with the library's to rounding, not to the bit.  Python's power
raises OverflowError or ZeroDivisionError where numpy's leaves the float
range, except where its chain of products overflows to nan, which it
returns; a result that is not finite is refused as the library refuses
it.  Only the 2x2 inverse is the library's (`_inverse2`), so that both
invert a block by the same routine.
"""

import operator

import numpy as np

from lvmkit.resonant_group import (PointV, _inverse2, element_from_params,
                                   identity)


def same_outcome(got, want):
    """Whether the library's outcome got agrees with the reference's want,
    each a string, a report or an error as "Type: message": they are
    equal, except that where the reference raises an ArithmeticError (as
    Python's power and division do) the library raises OverflowError,
    whose message names the law, the quantity and the row."""
    if want.split(":")[0] in _ARITHMETIC:
        return got.startswith("OverflowError: ")
    return got == want


_ARITHMETIC = ("ArithmeticError", "FloatingPointError", "OverflowError",
               "ZeroDivisionError")


def tau(z, p, mat):
    """Twisted conjugation: scales the off-diagonal entries by z^{-+p}."""
    z = complex(z)
    out = np.array(mat, dtype=complex)
    out[0, 1] *= z ** (-p)
    out[1, 0] *= z ** p
    return out


def _finite(x):
    """x, a `GroupElement` or `PointV`, refused where not finite."""
    row = x.array() if isinstance(x, PointV) else x.params()
    if not np.isfinite(row).all():
        raise OverflowError("result leaves the float range")
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


def compose_data(regime, a, b):
    """The parameter row of `compose` from those of its factors, unchecked."""
    tag = regime.tag
    if tag == "NonResonant":
        return tuple(map(operator.mul, a, b))
    if tag == "Single":
        a1, a2, a3, eps = a
        b1, b2, b3, delta = b
        return (a1 * b1, a2 * b2, a3 * b3,
                a3 * delta + eps * b1 ** regime.p * b2 ** regime.q)
    a1, m11, m12, m21, m22 = a
    b1, n11, n12, n21, n22 = b  # tau(b1, p, M) N entry by entry
    m12, m21 = m12 * b1 ** -regime.p, m21 * b1 ** regime.p
    return (a1 * b1, m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
            m21 * n11 + m22 * n21, m21 * n12 + m22 * n22)


def compose(f, g):
    """f g; a product that leaves the float range is refused."""
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    with np.errstate(all="ignore"):
        h = compose_data(f.regime, f.params().tolist(), g.params().tolist())
    return _finite(element_from_params(f.regime, h))


def inverse_data(regime, a):
    """The parameter row of `inverse` from that of an element, unchecked."""
    if regime.tag == "NonResonant":
        return tuple(1 / x for x in a)
    if regime.tag == "Single":
        a1, a2, a3, eps = a
        return (1 / a1, 1 / a2, 1 / a3,
                -eps / (a3 * a1 ** regime.p * a2 ** regime.q))
    mat = _inverse2(np.reshape(a[1:], (1, 2, 2)))[0]
    return (1 / a[0], *tau(1 / a[0], regime.p, mat).ravel().tolist())


def inverse(f):
    """f^-1; an inverse that leaves the float range is refused."""
    with np.errstate(all="ignore"):
        h = inverse_data(f.regime, f.params().tolist())
    return _finite(element_from_params(f.regime, h))


def chain_powers(f, bound):
    """The parameter rows of f^r for r in [-bound, bound], keyed by r, by
    iterated `compose_data` from `inverse_data` on tuples of Python
    complex numbers, not validated: f^r = f^(r-1) f and f^-r =
    f^-(r-1) f^-1.  Only Python's refusal of a power raises, and the
    inverse is taken at bound 0 too."""
    row = tuple(complex(z) for z in f.params())
    data = {0: tuple(complex(z) for z in identity(f.regime).params())}
    finv = inverse_data(f.regime, row)
    for r in range(1, bound + 1):
        data[r] = compose_data(f.regime, data[r - 1], row)
        data[-r] = compose_data(f.regime, data[-(r - 1)], finv)
    return {r: np.array(v, dtype=complex) for r, v in data.items()}
