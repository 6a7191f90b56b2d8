from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lvmkit import family_gluing
from lvmkit.config_geometry import Configuration
from lvmkit.holonomy import holonomy_pair
from lvmkit.resonance import DEFAULT_BOUND, ResonanceClass, _screen_bound, _screened
from lvmkit.resonant_group import (GroupElement, IllConditioned, PointV,
                                   p_eigenvalues, triangularize)
from lvmkit.family_gluing import (
    FamilyPoint,
    NotInImage,
    _no_clash_window,
    check_condition,
    family_action,
    glue_phi_pq,
    glue_psi_p,
    invert_phi_pq,
    invert_psi_p,
)
import membership_oracle
from membership_oracle import charts_ok, no_clash_screened
from resonance_oracle import no_clash_window, window_screen

E1 = Configuration(2, (
    (1, 0),
    (1j, 0),
    (0, 1),
    (0, 1j),
    (-1 - 1j, -1 - 1j),
    (-1.1 - 1.1j, -1.1 - 1.1j),
))


def _c(rng, scale=1.0):
    return complex(rng.normal(), rng.normal()) * scale


def rand_T(rng):
    """Random T-shaped pair with commuting matrices and |a2| > |a3|."""
    a1 = 1.5 + _c(rng, 0.2)
    a2 = 2.0 + _c(rng, 0.2)
    a3 = 0.5 + _c(rng, 0.1)
    b1 = 0.8 + _c(rng, 0.2)
    b2 = 1.3 + _c(rng, 0.2)
    b3 = 0.4 + _c(rng, 0.1)
    eps = _c(rng, 0.3)
    delta = eps * (b3 - b2) / (a3 - a2)
    amat = np.diag([a1, a2, a3]).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag([b1, b2, b3]).astype(complex)
    bmat[2, 1] = delta
    return FamilyPoint("T", amat, bmat, lam=_c(rng, 0.5))


def rand_Tpq(rng, p, q):
    a1 = 1.5 + _c(rng, 0.2)
    a2 = 2.0 + _c(rng, 0.2)
    a3 = 0.5 + _c(rng, 0.1)
    b1 = 0.8 + _c(rng, 0.2)
    b2 = 1.3 + _c(rng, 0.2)
    b3 = 0.4 + _c(rng, 0.1)
    eps = _c(rng, 0.3)
    delta = eps * (b3 - b1 ** p * b2 ** q) / (a3 - a1 ** p * a2 ** q)
    amat = np.diag([a1, a2, a3]).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag([b1, b2, b3]).astype(complex)
    bmat[2, 1] = delta
    return FamilyPoint("T_pq", amat, bmat, lam=_c(rng, 0.5), p=p, q=q)


def _phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def planted_chart_point(rng, space, plant):
    """A T, T_pq or S_p point with random eigen-data, whose twisted
    eigenvalues are (a2, a3) for S_p.  With plant, a3 = a1^r a2^s and
    b3 = b1^r b2^s up to relative errors 1e-14..1e-1 for a word (r, s) of
    the window, the chart's own word half the time; every fourth point
    misses shear compatibility or, for S_p, the variety equations."""
    a1, a2, a3, b1, b2, b3 = np.exp(rng.uniform(-0.6, 0.6, size=6)) * np.exp(
        2j * np.pi * rng.uniform(size=6))
    broken = rng.uniform() < 0.25
    p, q = int(rng.integers(-2, 3)), int(rng.integers(2, 4))
    own = {"T": None, "T_pq": (p, q), "S_p": (p, 1)}[space]
    if plant:
        r, s = own if own and rng.uniform() < 0.5 else (
            int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        a3 = a1 ** r * a2 ** s * (1 + 10 ** rng.uniform(-14, -1) * _phase(rng))
        b3 = b1 ** r * b2 ** s * (1 + 10 ** rng.uniform(-14, -1) * _phase(rng))
    if space == "S_p":
        # the block diag(1, a1^p) N with N of eigenvalues a2, a3 a1^-p
        conj = np.eye(2) + 0.3 * (rng.normal(size=(2, 2))
                                  + 1j * rng.normal(size=(2, 2)))
        mats = [np.zeros((3, 3), dtype=complex) for _ in range(2)]
        for mat, (d1, d2, d3) in zip(mats, ((a1, a2, a3), (b1, b2, b3))):
            mat[0, 0] = d1
            mat[1:, 1:] = (np.diag([1, d1 ** p]) @ np.linalg.inv(conj)
                           @ np.diag([d2, d3 * d1 ** -p]) @ conj)
        mats[1][2, 1] += 0.1 * broken
        return FamilyPoint("S_p", *mats, p=p)
    u, v = own or (0, 1)
    eps = _c(rng, 0.3)
    delta = eps * (b3 - b1 ** u * b2 ** v) / (a3 - a1 ** u * a2 ** v)
    delta += 0.1 * (1 + abs(delta)) * broken
    amat, bmat = np.diag([a1, a2, a3]), np.diag([b1, b2, b3])
    amat[2, 1], bmat[2, 1] = eps, delta
    if space == "T":
        return FamilyPoint("T", amat, bmat, lam=_c(rng, 0.5))
    return FamilyPoint("T_pq", amat, bmat, lam=_c(rng, 0.5), p=p, q=q)


def rand_point(rng):
    return PointV((2 + _c(rng), _c(rng), 1 + _c(rng)))


def pair_diff(u, v):
    """Max entrywise distance between two (FamilyPoint, PointV) outputs."""
    out = max(np.max(np.abs(u[0].amat - v[0].amat)),
              np.max(np.abs(u[0].bmat - v[0].bmat)),
              np.max(np.abs(u[1].array() - v[1].array())))
    if u[0].lam is not None and v[0].lam is not None:
        out = max(out, abs(u[0].lam - v[0].lam))
    return out


class TestPEigenvalues:
    def test_p_zero_is_plain_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = sorted(p_eigenvalues(1.7 + 0.3j, mat, 0), key=abs)
            want = sorted(np.linalg.eigvals(mat), key=abs)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_swap_matrix(self):
        got = p_eigenvalues(2, [[0, 1], [1, 0]], 1)
        want = (1 / np.sqrt(2), -1 / np.sqrt(2))
        assert np.allclose(sorted(got, key=lambda z: z.real),
                           sorted(want), atol=1e-12)

    def test_diagonal_factorization(self):
        rng = np.random.default_rng(1)
        for p in (-2, 0, 1, 3):
            a, d = _c(rng) + 2, _c(rng) + 1
            alpha = _c(rng) + 1.5
            got = set()
            for v in p_eigenvalues(alpha, np.diag([a, d]), p):
                got.add(v)
            for want in (a, d * alpha ** (-p)):
                assert min(abs(v - want) for v in got) < 1e-10

    def test_ordering_deterministic(self):
        vals = p_eigenvalues(2, [[0, 1], [1, 0]], 1)
        assert vals[0].real > vals[1].real
        assert vals == p_eigenvalues(2, [[0, 1], [1, 0]], 1)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            p_eigenvalues(0, np.eye(2), 1)

    def test_invariant_under_triangularizing_conjugation(self):
        cls = ResonanceClass("Double", p=1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a1 = 2 + _c(rng, 0.5)
            f = GroupElement(cls, (a1, mat))
            _, t = triangularize(f)
            before = sorted(p_eigenvalues(a1, mat, 1),
                            key=lambda z: (z.real, z.imag))
            after = sorted(p_eigenvalues(a1, t.data[1], 1),
                           key=lambda z: (z.real, z.imag))
            assert max(abs(x - y) for x, y in zip(before, after)) < 1e-9


class TestFamilyPoint:
    def test_shape_enforced(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        bad = np.array(mat)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            FamilyPoint("T", bad, mat, lam=0.0)

    def test_lambda_rules(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(ValueError):
            FamilyPoint("T", mat, mat)  # missing lambda
        with pytest.raises(ValueError):
            FamilyPoint("S_p", mat, mat, lam=0.0, p=1)
        FamilyPoint("S_p", mat, mat, p=1)

    def test_index_rules(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(ValueError):
            FamilyPoint("T_pq", mat, mat, lam=0.0, p=1, q=1)  # q >= 2
        with pytest.raises(ValueError):
            FamilyPoint("S_p", mat, mat)  # missing p
        with pytest.raises(ValueError):
            FamilyPoint("T", mat, mat, lam=0.0, p=1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            FamilyPoint("T", np.diag([1.0, 2.0, 0.0]),
                        np.diag([1.0, 2.0, 3.0]), lam=0.0)

    @pytest.mark.parametrize("space,which,entry,value,message", [
        ("T", 0, (2, 2), np.nan, "matrix entries must be finite"),
        ("S_p", 1, (0, 0), np.inf, "matrix entries must be finite"),
        ("T", 0, (0, 1), 0.5, r"entry \(0, 1\) must vanish in the T shape"),
        ("T_pq", 1, (1, 2), 0.5,
         r"entry \(1, 2\) must vanish in the T_pq shape"),
        ("S_p", 0, (2, 0), 0.5,
         r"entry \(2, 0\) must vanish in the S_p shape"),
        ("T", 1, (0, 0), 0.0, "matrices must be invertible"),
        ("S_p", 0, (2, 2), 0.0, "matrices must be invertible")])
    def test_shape_clause_messages(self, space, which, entry, value,
                                   message):
        # each clause of the shape, alone broken, in a chart point and in
        # the rows that the array maps check
        mats = [np.diag([1.0, 2.0, 3.0]).astype(complex) for _ in range(2)]
        mats[which][entry] = value
        kwargs = {"S_p": {"p": 1}, "T": {"lam": 0},
                  "T_pq": {"lam": 0, "p": 1, "q": 2}}[space]
        with pytest.raises(ValueError, match="^%s$" % message):
            FamilyPoint(space, *mats, **kwargs)
        stacks = [np.stack([np.eye(3), m]) for m in mats]
        assert charts_ok(space, *stacks).tolist() == \
            [True, False]

    def test_shape_checked_first(self):
        with pytest.raises(ValueError, match="^matrices must be 3x3$"):
            FamilyPoint("T", np.eye(3), np.eye(2), lam=0)
        # the refusal of the first failing clause, finite entries first
        bad = np.diag([1.0, 2.0, 0.0]).astype(complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FamilyPoint("T", np.eye(3), bad, lam=0)

    @pytest.mark.parametrize("index", [True, False])
    def test_bool_index_refused(self, index):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(ValueError,
                           match="^S_p points need an integer index p$"):
            FamilyPoint("S_p", mat, mat, p=index)
        with pytest.raises(ValueError,
                           match="^T_pq points need an integer index p$"):
            FamilyPoint("T_pq", mat, mat, lam=0, p=index, q=2)
        with pytest.raises(ValueError,
                           match="^T_pq points need an integer index q >= 2$"):
            FamilyPoint("T_pq", mat, mat, lam=0, p=1, q=index)

    def test_numpy_index_accepted(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert FamilyPoint("S_p", mat, mat, p=np.int64(-2)).p == -2
        point = FamilyPoint("T_pq", mat, mat, lam=0, p=np.int64(1),
                            q=np.int64(3))
        assert (point.p, point.q) == (1, 3)


class TestCheckCondition:
    def test_diagonal_reference_pair_satisfies_C(self):
        h = holonomy_pair(E1)
        point = FamilyPoint("T", np.diag(h.alpha), np.diag(h.beta), lam=0.0)
        report = check_condition(point, config=E1, bound=16)
        assert report.condition == "C"
        assert report.satisfied

    def test_modulus_violation_fails_first_clause(self):
        rng = np.random.default_rng(4)
        point = rand_Tpq(rng, 1, 2)
        amat = np.array(point.amat)
        amat[1, 1], amat[2, 2] = amat[2, 2], amat[1, 1]  # |a2| <= |a3| now
        amat[2, 1] = 0
        bmat = np.array(point.bmat)
        bmat[2, 1] = 0
        bad = FamilyPoint("T_pq", amat, bmat, lam=point.lam, p=1, q=2)
        report = check_condition(bad)
        assert report.condition == "K_pq"
        assert not report.clause("modulus-ordering")

    def test_sharp_resonant_clause(self):
        a1, a2 = 1.2, 0.8 + 0.1j
        b1, b2 = 0.9, 1.4
        p, q = 1, 2
        amat = np.diag([a1, a2, a1 ** p * a2 ** q]).astype(complex)
        bmat = np.diag([b1, b2, b1 ** p * b2 ** q]).astype(complex)
        point = FamilyPoint("T_pq", amat, bmat, lam=0.0, p=p, q=q)
        report = check_condition(point, sharp=True)
        assert report.condition == "K_pq^S"
        assert report.clause("resonant-alpha") and report.clause("resonant-beta")

    def test_sharp_clauses_measure_target_over_power(self):
        # the clauses measure |a3 / (a1^p a2^q) - 1|: 0.1 for alpha and
        # 0.1 / 1.1 for beta, on either side of tol = 0.095
        a1, a2 = 1.2, 0.8 + 0.1j
        b1, b2 = 0.9, 1.4
        p, q = 1, 2
        amat = np.diag([a1, a2, a1 ** p * a2 ** q * 1.1]).astype(complex)
        bmat = np.diag([b1, b2, b1 ** p * b2 ** q / 1.1]).astype(complex)
        point = FamilyPoint("T_pq", amat, bmat, lam=0.0, p=p, q=q)
        report = check_condition(point, sharp=True, tol=0.095)
        assert not report.clause("resonant-alpha")
        assert report.clause("resonant-beta")

    def test_sharp_variant_of_C_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            check_condition(rand_T(rng), sharp=True)

    def test_psi_image_satisfies_balance_equations(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            point = rand_T(rng)
            out, _ = glue_psi_p(point, rand_point(rng), 1)
            report = check_condition(out)
            assert report.condition == "C_p"
            for name in ("off-diagonal-balance", "lower-shear", "upper-shear"):
                assert report.clause(name)
            assert report.clause("eigen-admissibility")

    def test_bound_recorded(self):
        rng = np.random.default_rng(7)
        assert check_condition(rand_T(rng), bound=9).bound == 9

    def test_eigen_admissibility_refused(self):
        # |alpha1| = |beta1| = 1 breaks a structural constraint of the
        # eigen-data, and an S_p block whose beta2 reads 0 gives no
        # eigen-data at all; the other clauses hold
        t = FamilyPoint("T", np.diag([1j, 2, 0.5]), np.diag([-1, 1.3, 0.4]),
                        lam=0)
        s = FamilyPoint("S_p", np.diag([1.5, 2, 0.5]),
                        np.array([[0.8, 0, 0], [0, 0, 1], [0, 1, 0]]), p=1)
        for point, head in ((t, "modulus-ordering"),
                            (s, "off-diagonal-balance")):
            report = check_condition(point)
            assert report.clause(head)
            assert not report.clause("eigen-admissibility")

    @pytest.mark.parametrize("alpha1,beta1", [
        (1e-200, 0.5), (0.5, 1e-200), (1e200, 0.5), (0.5, 1e200)],
        ids=["alpha1-small", "beta1-small", "alpha1-large", "beta1-large"])
    def test_power_beyond_float_range_refused(self, alpha1, beta1):
        # |alpha1|^2 or |beta1|^2 leaves the float range, so the variety
        # equations cannot be read; both (1e-100, 1e100) powers are floats
        def point(a1, b1):
            return FamilyPoint("S_p", np.diag([a1, 0.5, 0.25]),
                               np.diag([b1, 0.5, 0.25]), p=2)
        with pytest.raises(OverflowError,
                           match="^result leaves the float range$"):
            check_condition(point(alpha1, beta1))
        assert check_condition(point(1e-100, 1e100)).condition == "C_p"

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           space=st.sampled_from(["T", "T_pq", "S_p"]), plant=st.booleans(),
           sharp=st.booleans(), witness=st.booleans(),
           tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.095, 1.0]),
           bound=st.integers(-1, 16))
    def test_matches_two_pipeline_oracle(self, seed, space, plant, sharp,
                                         witness, tol, bound):
        # one clause list for every chart gives the report, or raises the
        # exception, of separate T/T_pq and S_p pipelines screening the
        # whole window: a sharp T point raises after its four clauses,
        # tol = 1 from the screen first
        point = planted_chart_point(np.random.default_rng(seed), space, plant)
        config = E1 if witness else None

        def outcome(check):
            try:
                report = check(point, config=config, sharp=sharp, tol=tol,
                               bound=bound)
            except ValueError as exc:
                return "ValueError: %s" % exc
            return report.condition, report.clauses, report.bound, report.tol
        got = outcome(check_condition)
        assert got == outcome(membership_oracle.check_condition)
        if space == "T" and sharp or tol >= 1:
            assert got[:11] == "ValueError:"


class TestNoClashWindow:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_tol=st.floats(-14, -1),
           moduli=st.sampled_from(["generic", "unit", "extreme"]),
           plant=st.booleans(), exclude=st.booleans())
    def test_matches_scalar_loop(self, seed, log_tol, moduli, plant, exclude):
        rng = np.random.default_rng(seed)
        tol = 10.0 ** log_tol
        bound = int(rng.integers(1, 25))
        word = (int(rng.integers(-bound, bound + 1)), int(rng.integers(1, bound + 1)))
        if moduli == "generic":
            logs = rng.uniform(-0.7, 0.7, size=3)
        elif moduli == "unit":
            logs = np.zeros(3)
        else:
            # moduli up to e^350 and down to e^-350, scaled so that a
            # planted a3 stays finite
            logs = rng.uniform(-350, 350, size=3) / (max(1, abs(word[0])), word[1], 1)
        lx = logs + 2j * np.pi * rng.uniform(size=3)
        if plant:
            # a3 / (a1^r a2^s) = 1 + rho, with |rho| in 0.5..1.5 tol
            rho = tol * rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            lx[2] = word[0] * lx[0] + word[1] * lx[1] + np.log1p(rho)
        a1, a2, a3 = np.exp(lx)
        excluded = word if exclude else None
        assert _no_clash_window(a1, a2, a3, bound, tol, excluded) \
            == no_clash_window(a1, a2, a3, bound, tol, excluded)


    @staticmethod
    def screened_words(a1, a2, a3, bound, tol, excluded):
        """The verdict of `_no_clash_window` and the words its screen
        passed."""
        seen = []

        def spy(*args):
            seen.append(_screened(*args))
            return seen[-1]
        with mock.patch.object(family_gluing, "_screened", spy):
            verdict = _no_clash_window(a1, a2, a3, bound, tol, excluded)
        rows = seen[0].tolist()
        assert all(j == 3 and p3 == 0 for j, _, _, p3 in rows)
        return verdict, {(p1, p2) for _, p1, p2, _ in rows}

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), bound=st.integers(-1, 17),
           log_tol=st.floats(-12, np.log10(0.5)),
           moduli=st.sampled_from(["generic", "unit_a1", "unit_a2",
                                   "near_one", "extreme"]),
           plant=st.booleans(), exclude=st.booleans())
    def test_screens_the_whole_window(self, seed, bound, log_tol, moduli,
                                      plant, exclude):
        # the slab screen passes exactly the words a screen of the whole
        # window passes, so the verdict is the whole-window one
        rng = np.random.default_rng(seed)
        logs = {"generic": rng.uniform(-0.7, 0.7, size=3),
                "unit_a1": np.r_[0, rng.uniform(-0.7, 0.7, size=2)],
                "unit_a2": np.r_[rng.uniform(-0.7, 0.7), 0,
                                 rng.uniform(-0.7, 0.7)],
                "near_one": rng.choice([-1, 1], size=3)
                * rng.uniform(0.5, 2, size=3) * 1e-7,
                "extreme": rng.choice([-1, 1], size=3)
                * rng.uniform(4, 6, size=3)}[moduli]
        a1, a2, a3 = np.exp(logs + 2j * np.pi * rng.uniform(size=3))
        word = (int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        if plant:
            # a relation near a word of the window, so some words pass
            a3 = a1 ** word[0] * a2 ** word[1] * (
                1 + 10 ** rng.uniform(-12, -1) * _phase(rng))
        tol = 10 ** log_tol
        excluded = word if exclude else None
        verdict, words = self.screened_words(a1, a2, a3, bound, tol, excluded)
        assert words == window_screen(a1, a2, a3, bound, tol)
        assert verdict == no_clash_screened(a1, a2, a3, bound, tol, excluded)

    @pytest.mark.parametrize("moduli", ["generic", "unit_a1", "unit_a2"])
    @pytest.mark.parametrize("seed", range(4))
    def test_screens_the_whole_window_at_chart_bound(self, seed, moduli):
        # at the bound the chart conditions are checked with by default,
        # 64, with moduli as the benchmark's chart points have them
        # (|a2| > |a3|): a1 off the unit circle (the slab intervals) or on
        # it (the phases); seeds 1 and 3 plant a relation a3 = a1^r a2^s
        rng = np.random.default_rng([64, seed])
        logs = rng.uniform(-0.6, 0.6, size=3)
        logs[1:] = logs[1] + 0.2, logs[2] - 0.2
        logs[{"generic": [], "unit_a1": [0], "unit_a2": [1]}[moduli]] = 0
        a1, a2, a3 = np.exp(logs + 2j * np.pi * rng.uniform(size=3))
        word = (int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        if seed % 2:
            a3 = a1 ** word[0] * a2 ** word[1]
        tol = 10 ** rng.uniform(-12, -6)
        verdict, words = self.screened_words(a1, a2, a3, DEFAULT_BOUND, tol, None)
        assert words == window_screen(a1, a2, a3, DEFAULT_BOUND, tol)
        assert verdict == no_clash_screened(a1, a2, a3, DEFAULT_BOUND, tol)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(535)
    @example(1594)
    @example(1619)
    def test_screens_the_whole_window_at_slab_edge(self, seed):
        # z = log a1 + log a2 - log a3, as the screen computes it, lies
        # within two ulps of the threshold, so the word (1, 1) sits on the
        # edge of its slab.  Seeds 535, 1594 and 1619 need the slab's room
        # for rounding: with neither its allowance nor its widening step,
        # the interval drops a screened word there
        rng = np.random.default_rng(seed)
        tol = 10 ** rng.uniform(-12, np.log10(0.5))
        thr = _screen_bound(tol)
        a1, a2 = np.exp(rng.uniform(-0.7, 0.7, size=2)
                        + 2j * np.pi * rng.uniform(size=2))
        for k in rng.permutation(np.arange(-64, 65)):
            a3 = a1 * a2 * np.exp(-thr) * (1 + k * 2.0 ** -53)
            re = np.log(np.array([a1, a2, a3])).real
            if abs(re[0] + re[1] - re[2] - thr) <= 2 * np.spacing(thr):
                break
        bound = int(rng.integers(1, 5))
        _, words = self.screened_words(a1, a2, a3, bound, tol, None)
        assert words == window_screen(a1, a2, a3, bound, tol)


class TestFamilyAction:
    def test_linear_chart_matches_matrix_powers(self):
        rng = np.random.default_rng(8)
        point = rand_T(rng)
        x = rand_point(rng)
        for r, s in ((1, 0), (0, 1), (2, -1), (-1, 3)):
            m = (np.linalg.matrix_power(point.amat, r) if r >= 0
                 else np.linalg.matrix_power(np.linalg.inv(point.amat), -r))
            n = (np.linalg.matrix_power(point.bmat, s) if s >= 0
                 else np.linalg.matrix_power(np.linalg.inv(point.bmat), -s))
            want = m @ n @ x.array()
            got = family_action(point, (r, s), x).array()
            assert np.max(np.abs(got - want)) < 1e-10

    def test_twisted_chart_generator_display(self):
        rng = np.random.default_rng(9)
        p, q = 1, 2
        point = rand_Tpq(rng, p, q)
        a1, a2, a3, b1, b2, b3 = point.diagonals()
        eps = point.amat[2, 1]
        x = rand_point(rng)
        xi1, xi2, xi3 = x.array()
        got = family_action(point, (1, 0), x).array()
        want = (a1 * xi1, a2 * xi2, a3 * xi3 + eps * xi1 ** p * xi2 ** q)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_block_chart_generator_display(self):
        rng = np.random.default_rng(10)
        out, _ = glue_psi_p(rand_T(rng), rand_point(rng), 1)
        a1 = out.amat[0, 0]
        a2, e2 = out.amat[1, 1], out.amat[1, 2]
        e1, a3 = out.amat[2, 1], out.amat[2, 2]
        x = rand_point(rng)
        xi1, xi2, xi3 = x.array()
        got = family_action(out, (1, 0), x).array()
        want = (a1 * xi1,
                a2 * xi2 + e2 * xi1 ** (-1) * xi3,
                a3 * xi3 + e1 * xi1 * xi2)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_word_homomorphism(self):
        rng = np.random.default_rng(11)
        point = rand_Tpq(rng, 1, 2)
        x = rand_point(rng)
        one = family_action(point, (1, 1), x)
        two = family_action(point, (0, 1), family_action(point, (1, 0), x))
        assert np.max(np.abs(one.array() - two.array())) < 1e-12


class TestGluePsiP:
    def test_trivial_input_is_fixed(self):
        amat = np.diag([1.5, 2.0, 0.5]).astype(complex)
        bmat = np.diag([0.8, 1.3, 0.4]).astype(complex)
        point = FamilyPoint("T", amat, bmat, lam=0.0)
        x = PointV((2, 1 + 1j, -0.5))
        out, y = glue_psi_p(point, x, 1)
        assert np.max(np.abs(out.amat - amat)) == 0
        assert np.max(np.abs(out.bmat - bmat)) == 0
        assert np.max(np.abs(y.array() - x.array())) == 0

    def test_lambda_zero_keeps_block_shape(self):
        rng = np.random.default_rng(12)
        base = rand_T(rng)
        point = FamilyPoint("T", base.amat, base.bmat, lam=0.0)
        out, y = glue_psi_p(point, rand_point(rng), 1)
        # matrices: only the second shear entry is rebalanced
        assert np.max(np.abs(out.amat - point.amat)) < 1e-14
        assert out.amat[1, 2] == 0 and out.bmat[1, 2] == 0
        diff = np.abs(out.bmat - point.bmat)
        diff[2, 1] = 0
        assert np.max(diff) < 1e-14

    def test_two_path_equivariance(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(50):
            point = rand_T(rng)
            x = rand_point(rng)
            out = glue_psi_p(point, x, 1)
            for word in ((1, 0), (0, 1)):
                lhs = glue_psi_p(point, family_action(point, word, x), 1)
                rhs = (out[0], family_action(out[0], word, out[1]))
                scale = 1 + np.max(np.abs(out[1].array()))
                worst = max(worst, pair_diff(lhs, rhs) / scale)
        assert worst <= 1e-10

    def test_degenerate_eigenvalues_refused(self):
        amat = np.diag([1.5, 2.0, 2.0 + 1e-14]).astype(complex)
        bmat = np.diag([0.8, 1.3, 0.4]).astype(complex)
        point = FamilyPoint("T", amat, bmat, lam=0.1)
        with pytest.raises(IllConditioned):
            glue_psi_p(point, PointV((1, 1, 0)), 1)

    def test_sampled_injectivity(self):
        rng = np.random.default_rng(14)
        x = PointV((2, 1, 1))
        points = [rand_T(rng) for _ in range(20)]
        images = [glue_psi_p(pt, x, 1) for pt in points]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                sep_in = pair_diff((points[i], x), (points[j], x))
                if sep_in >= 1e-4:
                    assert pair_diff(images[i], images[j]) >= 1e-8

    def test_wrong_space_rejected(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            glue_psi_p(rand_Tpq(rng, 1, 2), PointV((1, 1, 0)), 1)


class TestInvertPsiP:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for p in (-1, 0, 1, 2):
            for _ in range(10):
                point = rand_T(rng)
                x = rand_point(rng)
                out = glue_psi_p(point, x, p)
                back = invert_psi_p(out[0], out[1], p)
                worst = max(worst, pair_diff(back, (point, x)))
        assert worst <= 1e-10

    def test_forward_after_inverse(self):
        rng = np.random.default_rng(17)
        point = rand_T(rng)
        x = rand_point(rng)
        out = glue_psi_p(point, x, 1)
        back = invert_psi_p(out[0], out[1], 1)
        again = glue_psi_p(back[0], back[1], 1)
        assert pair_diff(again, out) <= 1e-10

    def test_lambda_zero_recovered(self):
        rng = np.random.default_rng(18)
        base = rand_T(rng)
        point = FamilyPoint("T", base.amat, base.bmat, lam=0.0)
        out = glue_psi_p(point, rand_point(rng), 1)
        back, _ = invert_psi_p(out[0], out[1], 1)
        assert abs(back.lam) <= 1e-12

    def test_modulus_ordering_violation_not_in_image(self):
        # both role assignments of the twisted eigenvalues fail the
        # ordering |a2'| > |a3'| when a1^p inflates the smaller one
        amat = np.diag([2.0, 1.0, 1.5]).astype(complex)
        bmat = np.diag([1.5, 0.7, 0.9]).astype(complex)
        point = FamilyPoint("S_p", amat, bmat, p=1)
        with pytest.raises(NotInImage):
            invert_psi_p(point, PointV((1, 1, 0)), 1)

    def test_diagonal_mismatch_not_in_image(self):
        # vanishing lower shear but the diagonal entry is not the
        # preferred twisted eigenvalue
        amat = np.diag([2.0, 0.5, 3.0]).astype(complex)
        bmat = np.diag([1.5, 0.4, 2.0]).astype(complex)
        point = FamilyPoint("S_p", amat, bmat, p=1)
        with pytest.raises(NotInImage):
            invert_psi_p(point, PointV((1, 1, 0)), 1)

    @pytest.mark.parametrize("diag, p", [
        ((1e-170, 2, 1e-170), 1), ((1e170, 1, 0.5), 1),
        ((0.5, 2, 2.0 ** -600), 600)])
    def test_far_scales(self, diag, p):
        # the twisted roots m11 and m22 / a1^p, whose discriminant under-
        # or overflows as formed, are no double root: the point maps to
        # diag(a1, m11, m22); with m22 = a1^p m11 it is refused as one
        amat = np.diag(diag).astype(complex)
        bmat = np.diag([0.9, 0.8, 0.7]).astype(complex)
        point = FamilyPoint("S_p", amat, bmat, p=p)
        back, _ = invert_psi_p(point, PointV((1, 1, 1)), p)
        assert np.allclose(np.diag(back.amat), diag, rtol=1e-12, atol=0)
        assert np.allclose(np.diag(back.bmat), np.diag(bmat), rtol=1e-12)
        if p == 1 and abs(diag[0]) < 1:
            amat[2, 2] = diag[0] * diag[1]
            with pytest.raises(NotInImage, match="a3' = a1\\^p a2'"):
                invert_psi_p(FamilyPoint("S_p", amat, bmat, p=p),
                             PointV((1, 1, 1)), p)

    def test_mismatched_index_rejected(self):
        rng = np.random.default_rng(19)
        out, y = glue_psi_p(rand_T(rng), rand_point(rng), 1)
        with pytest.raises(ValueError):
            invert_psi_p(out, y, 2)


class TestGluePhiPq:
    def test_vanishing_shear_is_identity(self):
        amat = np.diag([1.5, 2.0, 0.5]).astype(complex)
        bmat = np.diag([0.8, 1.3, 0.4]).astype(complex)
        point = FamilyPoint("T_pq", amat, bmat, lam=0.3 + 0.1j, p=1, q=2)
        x = PointV((2, 1 + 1j, -0.5))
        out, y = glue_phi_pq(point, x, 1, 2)
        assert out.space == "T"
        assert out.bmat[2, 1] == 0
        assert np.max(np.abs(out.amat - amat)) == 0
        assert np.max(np.abs(y.array() - x.array())) == 0
        assert out.lam == point.lam

    def test_lambda_passes_through(self):
        rng = np.random.default_rng(20)
        point = rand_Tpq(rng, 1, 2)
        out, _ = glue_phi_pq(point, rand_point(rng), 1, 2)
        assert out.lam == point.lam

    def test_two_path_equivariance(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(50):
            point = rand_Tpq(rng, 1, 2)
            x = rand_point(rng)
            out = glue_phi_pq(point, x, 1, 2)
            for word in ((1, 0), (0, 1)):
                lhs = glue_phi_pq(point, family_action(point, word, x), 1, 2)
                rhs = (out[0], family_action(out[0], word, out[1]))
                scale = 1 + np.max(np.abs(out[1].array()))
                worst = max(worst, pair_diff(lhs, rhs) / scale)
        assert worst <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(20):
            point = rand_Tpq(rng, 1, 2)
            x = rand_point(rng)
            out = glue_phi_pq(point, x, 1, 2)
            back = invert_phi_pq(out[0], out[1], 1, 2)
            worst = max(worst, pair_diff(back, (point, x)))
        assert worst <= 1e-10

    def test_resonant_eigenvalue_refused(self):
        a1, a2 = 1.2, 0.8
        amat = np.diag([a1, a2, a1 * a2 ** 2]).astype(complex)
        amat[2, 1] = 0.3
        bmat = np.diag([0.9, 1.4, 1.1]).astype(complex)
        point = FamilyPoint("T_pq", amat, bmat, lam=0.0, p=1, q=2)
        with pytest.raises(IllConditioned):
            glue_phi_pq(point, PointV((1, 1, 0)), 1, 2)

    def test_mismatched_indices_rejected(self):
        rng = np.random.default_rng(23)
        point = rand_Tpq(rng, 1, 2)
        with pytest.raises(ValueError):
            glue_phi_pq(point, PointV((1, 1, 0)), 1, 3)
