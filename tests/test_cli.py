import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lvmkit.action
import lvmkit.cli
import lvmkit.family_gluing
import lvmkit.resonant_group
import verify_oracle
from lvmkit.cli import main
from lvmkit.resonance import MAX_BOUND
from lvmkit.config_geometry import Configuration
from lvmkit.holonomy import holonomy_pair
from test_rep_variety import NON_FINITE_INPUT

E1_DOC = {"m": 2, "vectors": [
    [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    [[-1, -1], [-1, -1]], [[-1.1, -1.1], [-1.1, -1.1]]]}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def flat(values):
    return [[z.real, z.imag] for z in values]


def _no_constant(name):
    raise AssertionError("report is not strict JSON: it holds %s" % name)


def report_of(result):
    """The JSON report a command printed, refusing the NaN and Infinity
    tokens that strict JSON does not have."""
    return json.loads(result.output, parse_constant=_no_constant)


class TestAnalyze:
    def test_reference_document(self, runner, tmp_path):
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, ["analyze", path, "--json"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["type"] == [2, 6, 4]
        assert report["indispensable"] == [1, 2, 3, 4]
        assert report["regime"]["tag"] == "NonResonant"
        assert report["cohomology"] == [3, 6, 3, 0]
        assert report["group_dim"] == 3

    def test_five_vectors_is_math_failure(self, runner, tmp_path):
        doc = {"m": 2, "vectors": E1_DOC["vectors"][:5]}
        path = write(tmp_path, "five.json", doc)
        result = runner.invoke(main, ["analyze", path])
        assert result.exit_code == 1

    def test_parse_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2,')
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["analyze", "does-not-exist.json"])
        assert result.exit_code == 2

    def test_bad_tol(self, runner, tmp_path):
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, ["analyze", path, "--tol", "-1"])
        assert result.exit_code == 2

    def test_negative_bound(self, runner, tmp_path):
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, ["analyze", path, "--bound", "-5"])
        assert result.exit_code == 2
        assert "--bound must be non-negative, got -5" in result.output

    def test_integer_beyond_float_range_is_usage_error(self, runner,
                                                       tmp_path):
        doc = {"m": 2, "vectors": [[[10 ** 400, 0], [0, 0]]]
               + E1_DOC["vectors"][1:]}
        path = write(tmp_path, "huge.json", doc)
        result = runner.invoke(main, ["analyze", path, "--json"])
        assert result.exit_code == 2
        assert ("malformed configuration document: int too large to convert"
                " to float") in result.output

    @pytest.mark.parametrize("command", ["analyze", "resonances"])
    @pytest.mark.parametrize("m", [2.7, True, "2"],
                             ids=["fraction", "bool", "string"])
    def test_non_integer_m_refused(self, runner, tmp_path, command, m):
        # refused by name (exit 1), not truncated to an integer and run
        path = write(tmp_path, "m.json", dict(E1_DOC, m=m))
        result = runner.invoke(main, [command, path, "--json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert report_of(result)["failure"] == \
            "ambient dimension m must be an integer, got %r" % (m,)

    def test_report_scale_free(self, runner, tmp_path):
        # a common power of two leaves certification, the difference
        # matrix and the eigen-data as they are, even where 2x2 products
        # under- or overflow
        e1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                       [0, 0, 0, 1], [-1, -1, -1, -1], [-1.1] * 4])
        points = e1 + np.random.default_rng(3).uniform(-0.02, 0.02, (6, 4))
        reports = []
        for k in (0, -1000, -600, -300, 300, 600, 1000):
            doc = {"m": 2, "vectors": [[list(p[:2]), list(p[2:])]
                                       for p in (points * 2.0 ** k).tolist()]}
            path = write(tmp_path, "e1-%d.json" % k, doc)
            result = runner.invoke(main, ["analyze", path, "--json"])
            assert (result.exit_code, result.stderr) == (0, "")
            reports.append(report_of(result))
            del reports[-1]["input"]
        assert reports[0]["type"] == [2, 6, 4]
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("draw, failure", [
        (12, "difference matrix Omega rounds to singular"),
        (45, "holonomy multipliers leave the float range"),
        (2057, "holonomy multipliers leave the float range")])
    def test_holonomy_beyond_float_range_refused(self, runner, tmp_path, draw,
                                                 failure):
        # certified configurations whose vectors differ in scale by up to
        # 2^600: Lambda_2 - Lambda_1 and Lambda_3 - Lambda_1 round to one
        # row (draw 12), LU meets a zero pivot of an invertible difference
        # matrix (draw 45), alpha_1 overflows (draw 2057)
        rng = np.random.default_rng(7)
        for _ in range(draw + 1):
            points = rng.normal(size=(6, 4)) * 2.0 ** rng.integers(
                -300, 300, size=(6, 1))
        doc = {"m": 2, "vectors": [[p[:2], p[2:]] for p in points.tolist()]}
        path = write(tmp_path, "wide-%d.json" % draw, doc)
        result = runner.invoke(main, ["analyze", path, "--json"])
        assert (result.exit_code, result.stderr) == (1, "")
        report = report_of(result)
        assert report["type"] == [2, 6, 4]
        assert report["failure"] == failure

    def test_deterministic_output(self, runner, tmp_path):
        path = write(tmp_path, "e1.json", E1_DOC)
        a = runner.invoke(main, ["analyze", path, "--json"]).output
        b = runner.invoke(main, ["analyze", path, "--json"]).output
        assert a == b


class TestResonances:
    def test_eigen_data_document(self, runner, tmp_path):
        doc = {"eigen_data": [[2, 0], [0.6, 0], [0.72, 0],
                              [1, 1], [0, 0.5], [-0.25, -0.25]]}
        path = write(tmp_path, "eig.json", doc)
        result = runner.invoke(main, ["resonances", path, "--json"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["regime"] == {"tag": "Single", "p": 1, "q": 2}
        assert {"j": 3, "p": [1, 2, 0]} in report["resonances"]
        assert report["cohomology"] == [4, 8, 4, 0]

    def test_configuration_document(self, runner, tmp_path):
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, ["resonances", path, "--json"])
        assert result.exit_code == 0
        assert report_of(result)["regime"]["tag"] == "NonResonant"

    def test_configuration_certified_as_analyze_does(self, runner, tmp_path):
        # six points of R^4 = C^2 in an open half-space fail the Siegel
        # condition: resonances refuses them with analyze's failure, and
        # reports a certified configuration without the certification
        rng = np.random.default_rng([5, 0])
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        v = rng.normal(size=(6, 4))
        v += (0.1 - 2 * np.minimum(v @ u, 0))[:, None] * u
        path = write(tmp_path, "halfspace.json", {
            "m": 2, "vectors": [[p[:2], p[2:]] for p in v.tolist()]})
        reports = {}
        for command in ("analyze", "resonances"):
            result = runner.invoke(main, [command, path, "--json"])
            assert (result.exit_code, result.stderr) == (1, "")
            reports[command] = report_of(result)
            assert reports[command]["failure"] == \
                "type is undefined, expected (2, 6, 4)"
        assert reports["analyze"]["siegel"] is False
        assert "eigen_data" not in reports["resonances"]
        result = runner.invoke(main, ["resonances", write(
            tmp_path, "e1.json", E1_DOC), "--json"])
        assert sorted(report_of(result)) == [
            "bound", "cohomology", "eigen_data", "input", "regime",
            "resonances", "tol"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_eigen_data_refused(self, runner, tmp_path, token):
        # Python's json reads these tokens; the eigen-data are refused by
        # name, and the report stays strict JSON
        path = tmp_path / "eig.json"
        path.write_text('{"eigen_data": [[2, 0], [0.6, %s], [0.72, 0], '
                        '[1, 1], [0, 0.5], [-0.25, -0.25]]}' % token)
        result = runner.invoke(main, ["resonances", str(path), "--json"])
        assert result.exit_code == 1
        assert report_of(result)["failure"] == \
            "eigen-data entries must be finite"

    def test_malformed_eigen_data(self, runner, tmp_path):
        path = write(tmp_path, "eig.json", {"eigen_data": [[1, 0]]})
        result = runner.invoke(main, ["resonances", path])
        assert result.exit_code == 1

    @pytest.mark.parametrize("pairs", [5, [5] * 6, [[1, 0, 0]] * 6,
                                       [["1", 0]] * 6, [[None, 0]] * 6])
    def test_structurally_malformed_eigen_data(self, runner, tmp_path,
                                               pairs):
        # pairs that do not parse are a usage error, as malformed
        # configuration vectors are; six parsed pairs are still required
        path = write(tmp_path, "eig.json", {"eigen_data": pairs})
        result = runner.invoke(main, ["resonances", path, "--json"])
        assert result.exit_code == 2
        assert "malformed eigen-data document: " in result.output

    @pytest.mark.parametrize("doc", [5, "eigen_data", None])
    def test_non_object_document_is_usage_error(self, runner, tmp_path, doc):
        path = write(tmp_path, "scalar.json", doc)
        result = runner.invoke(main, ["resonances", path, "--json"])
        assert result.exit_code == 2
        assert "malformed configuration document: " in result.output

    def test_integer_beyond_float_range_is_usage_error(self, runner,
                                                       tmp_path):
        doc = {"eigen_data": [[10 ** 400, 0]] + [[0.5, 0]] * 5}
        path = write(tmp_path, "huge.json", doc)
        result = runner.invoke(main, ["resonances", path, "--json"])
        assert result.exit_code == 2
        assert ("malformed eigen-data document: int too large to convert to"
                " float") in result.output

    def test_negative_bound(self, runner, tmp_path):
        doc = {"eigen_data": [[2, 0], [0.6, 0], [0.72, 0],
                              [1, 1], [0, 0.5], [-0.25, -0.25]]}
        path = write(tmp_path, "eig.json", doc)
        result = runner.invoke(main, ["resonances", path, "--bound", "-5"])
        assert result.exit_code == 2
        assert "--bound must be non-negative, got -5" in result.output

    @pytest.mark.parametrize("command", ["analyze", "resonances"])
    @pytest.mark.parametrize("tol", ["1", "2.5"])
    def test_tol_without_sound_screen(self, runner, tmp_path, command, tol):
        # from tol = 1 on, a residual |x - 1| <= tol admits ratios x near
        # 0, so no log screen of the resonance search is sound
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, [command, path, "--tol", tol])
        assert result.exit_code == 2
        assert "--tol must be below 1, got %s" % tol in result.output


class TestSearchBound:
    @pytest.mark.parametrize("command", ["analyze", "resonances"])
    def test_bound_above_cap_is_usage_error(self, runner, tmp_path,
                                            monkeypatch, command):
        # refused before any search runs, so nothing is allocated
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(lvmkit.cli, "find_resonances", no_search)
        path = write(tmp_path, "e1.json", E1_DOC)
        result = runner.invoke(main, [command, path, "--bound", "2000000000"])
        assert result.exit_code == 2
        assert ("--bound must be at most %d, got 2000000000" % MAX_BOUND
                in result.output)

    def test_cap_itself_accepted(self, runner, tmp_path):
        doc = {"eigen_data": [[2, 0], [0.6, 0], [0.72, 0],
                              [1, 1], [0, 0.5], [-0.25, -0.25]]}
        path = write(tmp_path, "eig.json", doc)
        result = runner.invoke(main, ["resonances", path, "--bound",
                                      str(MAX_BOUND), "--json"])
        assert result.exit_code == 0
        assert report_of(result)["bound"] == MAX_BOUND


def test_cli_import_leaves_scipy_out():
    code = ("import sys, lvmkit.cli, lvmkit.action; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestVerify:
    def test_batched_suites_build_no_scalar_objects(self, runner, monkeypatch):
        # the group-laws, gluing and developing suites run on arrays: no
        # chart point is built and no scalar apply runs
        counts = {"FamilyPoint": 0, "apply": 0}
        init = lvmkit.family_gluing.FamilyPoint.__post_init__
        apply = lvmkit.resonant_group.apply

        def counted_init(self):
            counts["FamilyPoint"] += 1
            init(self)

        def counted_apply(*args):
            counts["apply"] += 1
            return apply(*args)
        monkeypatch.setattr(lvmkit.family_gluing.FamilyPoint, "__post_init__",
                            counted_init)
        for module in (lvmkit.resonant_group, lvmkit.action):
            monkeypatch.setattr(module, "apply", counted_apply)
        for suite in ("group-laws", "gluing", "developing"):
            result = runner.invoke(main, ["verify", suite])
            assert result.exit_code == 0
        assert counts == {"FamilyPoint": 0, "apply": 0}
        assert runner.invoke(main, ["verify", "all"]).exit_code == 0
        assert counts["FamilyPoint"] == 0


    def test_group_laws(self, runner):
        result = runner.invoke(main, ["verify", "group-laws",
                                      "--seed", "7", "--samples", "25",
                                      "--json"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["passed"]
        assert report["results"][0]["max_residual"] <= 1e-10

    def test_gluing(self, runner):
        result = runner.invoke(main, ["verify", "gluing", "--p", "1",
                                      "--samples", "20"])
        assert result.exit_code == 0

    def test_action(self, runner):
        result = runner.invoke(main, ["verify", "action", "--json"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["results"][0]["counterexample_witnessed"]
        assert report["results"][0]["probe_clean"]

    @pytest.mark.parametrize("suite", ["group-laws", "gluing", "developing",
                                       "action", "all"])
    def test_injected_fault_fails(self, runner, monkeypatch, suite):
        # one intermediate of each suite corrupted through the library
        # calls it makes: every suite run reports the failure
        verify_oracle.inject_fault(monkeypatch)
        result = runner.invoke(main, ["verify", suite, "--samples", "10",
                                      "--json"])
        assert result.exit_code == 1
        results = report_of(result)["results"]
        assert len(results) == (4 if suite == "all" else 1)
        assert not any(r["passed"] for r in results)
        assert all("failure" not in r for r in results)

    def test_refusing_suite_reports_failure(self, runner):
        # powers of the chart eigenvalues overflow at p = 2000, and the
        # chart maps refuse the non-finite matrices
        result = runner.invoke(main, ["verify", "gluing", "--p", "2000",
                                      "--json"])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        report = report_of(result)
        assert report["passed"] is False
        assert report["results"] == [{
            "name": "gluing", "passed": False,
            "failure": "ValueError: matrix entries must be finite"}]

    def test_power_refusal_named(self, runner):
        # b2^q of the T_pq charts leaves the float range at q = 10^6: the
        # refusal names the power and the row
        result = runner.invoke(main, ["verify", "gluing", "--q", "1000000",
                                      "--json"])
        assert result.exit_code == 1
        assert report_of(result)["results"] == [{
            "name": "gluing", "passed": False,
            "failure": "OverflowError: random chart: b2^1000000 leaves the "
                       "float range (row 0)"}]

    def test_unknown_suite(self, runner):
        result = runner.invoke(main, ["verify", "nonsense"])
        assert result.exit_code == 2

    def test_seeded_reports_identical(self, runner):
        args = ["verify", "group-laws", "--seed", "3", "--samples", "10",
                "--json"]
        assert runner.invoke(main, args).output == \
            runner.invoke(main, args).output

    def test_environment_knob_gone(self, runner, monkeypatch):
        # no setting is read from it: it neither fails the run nor enters
        # the report
        monkeypatch.setenv("LVMKIT_THREADS", "zero")
        result = runner.invoke(main, ["verify", "group-laws",
                                      "--samples", "5", "--json"])
        assert result.exit_code == 0
        assert sorted(report_of(result)) == [
            "passed", "results", "samples", "seed", "suite", "tol"]


class TestDeform:
    def _nonres_doc(self):
        cfg = Configuration(2, tuple(
            tuple(complex(re, im) for re, im in v) for v in E1_DOC["vectors"]))
        h = holonomy_pair(cfg)
        return {"regime": {"tag": "NonResonant"},
                "generators": [flat(h.alpha), flat(h.beta),
                               flat((1 + 1e-3, 1, 1))],
                "config": E1_DOC}

    def test_nonresonant_projection(self, runner, tmp_path):
        path = write(tmp_path, "deform.json", self._nonres_doc())
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["passed"]
        assert report["max_residual"] <= 1e-9
        assert not report["complete"]

    def test_non_finite_projection_refused(self, runner, tmp_path):
        # a subnormal alpha_3 makes the closed form read nan: refused by
        # name, and no nan reaches the report
        doc = {"regime": {"tag": "NonResonant"},
               "generators": [[list(z) for z in g]
                              for g in NON_FINITE_INPUT["generators"]],
               "config": {"m": 2, "vectors": [[list(z) for z in v] for v in
                                              NON_FINITE_INPUT["vectors"]]}}
        path = write(tmp_path, "deform.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert report_of(result)["failure"] == \
            "projected multipliers are not finite and nonzero"

    def test_identity_deformation_complete(self, runner, tmp_path):
        doc = self._nonres_doc()
        doc["generators"][2] = flat((1, 1, 1))
        path = write(tmp_path, "deform.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 0
        assert report_of(result)["complete"]

    def test_non_commuting_generators_fail(self, runner, tmp_path):
        doc = {"regime": {"tag": "Single", "p": 1, "q": 2},
               "generators": [flat((2, 0.6, 0.5, 0.1)),
                              flat((1 + 1j, 0.5j, -0.3, 0.2)),
                              flat((1, 1, 1, 0))]}
        path = write(tmp_path, "bad.json", doc)
        result = runner.invoke(main, ["deform", path])
        assert result.exit_code == 1

    def _refusal(self, runner, tmp_path, regime, generators):
        doc = {"regime": regime, "generators": [flat(g) for g in generators]}
        path = write(tmp_path, "overflow.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        return report_of(result)["failure"]

    def test_library_refusal_reported(self, runner, tmp_path):
        # commuting Single generators, and cover points whose xi2^q
        # leaves the float range for q = 2000: the developing map refuses
        # them with an OverflowError naming the power and the row, which
        # the report carries as a failure
        assert self._refusal(runner, tmp_path, {"tag": "Single", "p": 1,
                                                "q": 2000},
                             [(2, 0.6, 0.5, 0), (1 + 1j, 0.5j, -0.3 + 0.2j, 0),
                              (1.01, 1.02, 0.97, 0)]) == \
            "developing map: xi2^2000 leaves the float range (row 6)"

    def test_double_refusal_reported(self, runner, tmp_path):
        # at p = 2000 the commutation check's product g f takes b1^p of
        # the first generator, which leaves the float range
        assert self._refusal(runner, tmp_path, {"tag": "Double", "p": 2000},
                             [(2 + 0.5j, 1.3, 0, 0, 0.7 - 0.2j),
                              (0.8, 0.5j, 0, 0, 1.1),
                              (1.02, 0.99, 0, 0, 1.03)]) == \
            "compose: b1^2000 leaves the float range (row 1)"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["NaN", "Infinity"])
    def test_non_finite_generator_refused(self, runner, tmp_path, value):
        # a NaN or Infinity coefficient is refused by name, as analyze and
        # resonances refuse non-finite configurations and eigen-data
        doc = self._nonres_doc()
        doc["generators"][2][1] = [value, 0]
        path = write(tmp_path, "non_finite.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert report_of(result) == {"input": path,
                                     "failure": "generator entries must be "
                                                "finite"}

    @pytest.mark.parametrize("p", [1.5, "a", True],
                             ids=["fraction", "string", "bool"])
    def test_non_integer_regime_index_refused(self, runner, tmp_path, p):
        # no Double regime has a fractional p: the document is refused by
        # name (exit 1), neither answered nor ended in a TypeError
        doc = {"regime": {"tag": "Double", "p": p},
               "generators": [flat((2 + 0.5j, 1.3, 0, 0, 0.7 - 0.2j)),
                              flat((0.8, 0.5j, 0, 0, 1.1)),
                              flat((1.02, 0.99, 0, 0, 1.03))]}
        path = write(tmp_path, "index.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert report_of(result)["failure"] == \
            "regime index p must be an integer, got %r" % (p,)

    @pytest.mark.parametrize("regime,count,given", [
        ({"tag": "NonResonant"}, 3, 4),
        ({"tag": "Single", "p": 1, "q": 2}, 4, 3),
        ({"tag": "Double", "p": 1}, 5, 3)],
        ids=["NonResonant", "Single", "Double"])
    def test_wrong_coefficient_count_is_usage_error(self, runner, tmp_path,
                                                    regime, count, given):
        gens = [flat([1] * count), flat([1 + 1j] * given), flat([1] * count)]
        path = write(tmp_path, "count.json",
                     {"regime": regime, "generators": gens})
        result = runner.invoke(main, ["deform", path])
        assert result.exit_code == 2
        assert ("a %s generator needs %d coefficients, got %d"
                % (regime["tag"], count, given)) in result.output

    def test_missing_generators_is_usage_error(self, runner, tmp_path):
        path = write(tmp_path, "empty.json",
                     {"regime": {"tag": "Single", "p": 1, "q": 2}})
        result = runner.invoke(main, ["deform", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("where", ["generator", "config"])
    def test_integer_beyond_float_range_is_usage_error(self, runner,
                                                       tmp_path, where):
        doc = self._nonres_doc()
        if where == "generator":
            doc["generators"][2][0] = [10 ** 400, 0]
            what = "structure"
        else:
            doc["config"] = {"m": 2, "vectors": [[[0, 10 ** 400], [0, 0]]]
                             + E1_DOC["vectors"][1:]}
            what = "configuration"
        path = write(tmp_path, "huge.json", doc)
        result = runner.invoke(main, ["deform", path, "--json"])
        assert result.exit_code == 2
        assert ("malformed %s document: int too large to convert to float"
                % what) in result.output


class TestRunOptions:
    """A --tol of nan or inf would check nothing (every residual compares
    False with nan, and passes under inf), and a negative --seed seeds no
    generator: each command refuses them as usage errors, before any
    work."""

    def _args(self, tmp_path, command):
        if command == "verify":
            return ["verify", "all"]
        doc = TestDeform()._nonres_doc() if command == "deform" else E1_DOC
        return [command, write(tmp_path, "doc.json", doc)]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command",
                             ["analyze", "resonances", "verify", "deform"])
    def test_non_finite_tol(self, runner, tmp_path, command, tol):
        result = runner.invoke(main, self._args(tmp_path, command)
                               + ["--tol", tol, "--json"])
        assert result.exit_code == 2
        assert "--tol must be positive and finite, got %s" % tol \
            in result.output

    @pytest.mark.parametrize("command", ["verify", "deform"])
    def test_negative_seed(self, runner, tmp_path, command):
        result = runner.invoke(main, self._args(tmp_path, command)
                               + ["--seed", "-1", "--json"])
        assert result.exit_code == 2
        assert "Invalid value for '--seed': -1 is not in the range x>=0" \
            in result.output

    @pytest.mark.parametrize("command,option", [
        ("verify", ["--samples", "0"]), ("deform", ["--samples", "0"]),
        ("verify", ["--q", "1"])], ids=["verify-samples", "deform-samples",
                                        "verify-q"])
    def test_option_below_range(self, runner, tmp_path, command, option):
        result = runner.invoke(main, self._args(tmp_path, command) + option
                               + ["--json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert option[0] in result.stderr

    def test_two_generators_is_usage_error(self, runner, tmp_path):
        doc = TestDeform()._nonres_doc()
        del doc["generators"][2]
        result = runner.invoke(main, ["deform", write(tmp_path, "two.json",
                                                      doc), "--json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "expected exactly three generators" in result.stderr


# edge documents of every command's contract, as the text of the file;
# the names in CONTRACT_CASES that are not documents are verify suites
CONTRACT_DOCS = {name: json.dumps(doc) for name, doc in {
    "empty": {},
    "m-2.5": dict(E1_DOC, m=2.5),
    "eigen-data-5": {"eigen_data": 5},
    "unit-modulus": {"eigen_data": flat(np.exp(
        2j * np.pi * np.random.default_rng(0).random(6)))},
    "huge-eigen-data": {"eigen_data": [[1e308, 1e308]] * 6},
    # six points with positive first coordinate: not Siegel
    "half-space": {"m": 2, "vectors": [
        [[1, 0], [0, 0]], [[1, 1], [0, 0]], [[1, 0], [1, 0]],
        [[1, 0], [0, 1]], [[2, -1], [-1, -1]], [[1, 0.5], [-1, 1]]]},
    "e1": E1_DOC,
    "single-q2000": {"regime": {"tag": "Single", "p": 1, "q": 2000},
                     "generators": [flat(g) for g in (
                         (2, 0.6, 0.5, 0), (1 + 1j, 0.5j, -0.3 + 0.2j, 0),
                         (1.01, 1.02, 0.97, 0))]},
    "nonresonant-1e999": dict(TestDeform()._nonres_doc(), generators=[
        [[float("inf"), 0], [1, 0], [1, 0]]] * 3),
}.items()}
CONTRACT_DOCS["nonresonant-1e999"] = \
    CONTRACT_DOCS["nonresonant-1e999"].replace("Infinity", "1e999")
CONTRACT_CASES = (
    [(command, name, ["--bound", "24"] if command != "deform" else [])
     for name in CONTRACT_DOCS
     for command in ("analyze", "resonances", "deform")]
    + [("analyze", "e1", ["--tol", "nan"]),
       ("resonances", "e1", ["--bound", "-1"]),
       ("deform", "single-q2000", ["--tol", "nan"]),
       ("verify", "all", ["--tol", "nan"]),
       ("verify", "gluing", ["--p", "2000"])])


class TestContract:
    """Every command answers an edge input with exit 0, 1 or 2 and no
    traceback; on exit 0 or 1 it prints strict JSON, and it exits 1
    exactly when the report holds a failure or "passed": false."""

    def _run(self, runner, tmp_path, command, name, extra):
        if name in CONTRACT_DOCS:
            path = tmp_path / "doc.json"
            path.write_text(CONTRACT_DOCS[name])
            name = str(path)
        result = runner.invoke(main, [command, name, "--json"] + extra)
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit)
        if result.exit_code != 2:
            report = report_of(result)
            assert (result.exit_code == 1) == (
                "failure" in report or report.get("passed") is False)
        return result

    @pytest.mark.parametrize("command,name,extra", CONTRACT_CASES,
                             ids=["-".join([c, n] + e)
                                  for c, n, e in CONTRACT_CASES])
    def test_exit_code_follows_report(self, runner, tmp_path, command, name,
                                      extra):
        self._run(runner, tmp_path, command, name, extra)

    def test_unexpected_refusal_reported(self, runner, tmp_path,
                                         monkeypatch):
        # a library refusal no command names still leaves as a failure
        def overflow(*args, **kwargs):
            raise OverflowError("x")
        monkeypatch.setattr(lvmkit.cli, "find_resonances", overflow)
        result = self._run(runner, tmp_path, "analyze", "e1", [])
        assert result.exit_code == 1
        assert report_of(result)["failure"] == "x"


# a report holding every kind of value the commands put in one
ENCODED_REPORT = {
    "flag": np.bool_(True), "plain": False, "count": np.int64(-3),
    "value": np.float64(0.1), "z": complex(1.5, -2),
    "w": np.complex128(-0.25j), "type": (2, 6, 4),
    "eigen_data": [2 + 0j, np.complex128(0.5 - 1j)],
    "nested": [[np.int64(1), 2.5], [np.bool_(False)]],
    "rows": ({"j": np.int64(2), "p": (np.int64(1), 0, 1)}, {"j": 3, "p": []}),
    "none": None, "name": "x"}


def test_report_encoding(capsys):
    # numpy scalars print as Python ones, complex values as [re, im], and
    # tuples as lists; the text lines descend into lists of lists, of
    # dicts and of complex values
    lvmkit.cli._emit(ENCODED_REPORT, True)
    assert capsys.readouterr().out == json.dumps({
        "count": -3, "eigen_data": [[2.0, 0.0], [0.5, -1.0]], "flag": True,
        "name": "x", "nested": [[1, 2.5], [False]], "none": None,
        "plain": False, "rows": [{"j": 2, "p": [1, 0, 1]}, {"j": 3, "p": []}],
        "type": [2, 6, 4], "value": 0.1, "w": [-0.0, -0.25],
        "z": [1.5, -2.0]}, sort_keys=True, indent=2) + "\n"
    lvmkit.cli._emit(ENCODED_REPORT, False)
    assert capsys.readouterr().out.splitlines() == [
        "count.= -3",
        "eigen_data.0.= [2.0, 0.0]",
        "eigen_data.1.= [0.5, -1.0]",
        "flag.= true",
        'name.= "x"',
        "nested.0.= [1, 2.5]",
        "nested.1.= [false]",
        "none.= null",
        "plain.= false",
        "rows.0.j.= 2",
        "rows.0.p.= [1, 0, 1]",
        "rows.1.j.= 3",
        "rows.1.p.= []",
        "type.= [2, 6, 4]",
        "value.= 0.1",
        "w.= [-0.0, -0.25]",
        "z.= [1.5, -2.0]"]


def test_module_entry_point():
    # `python -m lvmkit.cli` runs the command group
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "lvmkit.cli", "verify",
                           "group-laws", "--samples", "3", "--json"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert json.loads(done.stdout)["passed"] is True
