import io
import json
import pathlib
import shutil
import subprocess
import time
from argparse import Namespace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvar.calculus
from tsvar import ConvergenceError, TimeScale, quadrature
from tsvar.cli import _gate, run
from tsvar.scales import GRID_MAX_POINTS

FIX = pathlib.Path(__file__).resolve().parent / "fixtures"

Z5 = str(FIX / "z5.json")
Z6 = str(FIX / "z6.json")
HYBRID = str(FIX / "hybrid01_2.json")
PROB_V2 = str(FIX / "prob_v2.json")
DPROB = str(FIX / "dprob_grad2.json")
DPROB_BAD = str(FIX / "dprob_bad_axis.json")
TABLE_TSQ = str(FIX / "table_tsq.json")
OVERFLOW = str(FIX / "float_overflow.json")  # {1e200, 2e200}, float


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


class TestScalarCommands:
    def test_integrate_prints_bare_value(self):
        code, text = invoke("integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3")
        assert (code, text) == (0, "3\n")

    def test_deriv_prints_bare_value(self):
        code, text = invoke("deriv", "--scale", Z6, "--fn", "t^2", "--t", "3")
        assert (code, text) == (0, "7\n")

    def test_deriv_from_tabulated_file(self):
        code, text = invoke("deriv", "--scale", Z6, "--fn", TABLE_TSQ, "--t", "3")
        assert (code, text) == (0, "7\n")

    def test_tabulated_scale_mismatch(self):
        code, _ = invoke("deriv", "--scale", Z5, "--fn", TABLE_TSQ, "--t", "3")
        assert code == 2

    def test_table_naming_a_point_twice_exits_2(self, tmp_path, capsys):
        # "4/2" and "2" name one point of z6: neither value may win silently.
        table = json.loads(pathlib.Path(TABLE_TSQ).read_text())
        table["values"]["4/2"] = "5"
        path = tmp_path / "table_twice.json"
        path.write_text(json.dumps(table))
        assert invoke("deriv", "--scale", Z6, "--fn", str(path), "--t", "3") == (2, "")
        assert capsys.readouterr().err == "tsvar: the table names 2 twice\n"

    def test_surface_table_axis_mode_mismatch(self, tmp_path):
        # Same points on both axes, but axis 2 of the table is in float mode.
        table = json.loads((FIX / "table2_sum.json").read_text())
        table["scale2"] = {"mode": "float", "pieces": [{"point": k} for k in range(5)]}
        table["values"] = [[int(v) for v in row] for row in table["values"]]
        path = tmp_path / "table2_float_axis2.json"
        path.write_text(json.dumps(table))
        assert invoke("double-el", "--problem", DPROB, "--u", str(path)) == (2, "")

    def test_classify_text(self):
        code, text = invoke("classify", "--scale", Z6, "--t", "2")
        assert code == 0
        assert "left-scattered right-scattered" in text and "sigma = 3" in text

    def test_integrate_exact_flag_tracks_arithmetic(self):
        code, text = invoke(
            "integrate", "--scale", Z6, "--fn", "t", "--a", "0", "--b", "3",
            "--format", "json",
        )
        assert code == 0 and json.loads(text)["results"]["exact"] is True
        code, text = invoke(
            "integrate", "--scale", HYBRID, "--fn", "t", "--a", "0", "--b", "1",
            "--format", "json",
        )
        assert code == 0
        rep = json.loads(text)
        assert rep["results"]["exact"] is False
        assert abs(float(rep["results"]["value"]) - 0.5) <= 1e-9


class TestJsonContract:
    def test_byte_stable_across_runs(self):
        args = ("deriv", "--scale", Z6, "--fn", "t^2", "--t", "3", "--format", "json")
        assert invoke(*args) == invoke(*args)

    def test_report_shape_and_method(self):
        _, text = invoke("deriv", "--scale", Z6, "--fn", "t^2", "--t", "3", "--format", "json")
        rep = json.loads(text)
        assert set(rep) == {"command", "inputs", "results", "findings", "status"}
        assert rep["results"]["method"] == "exact-quotient"
        assert rep["status"] == "ok"
        assert len(rep["inputs"]["digest"]) == 64

    def test_embedded_scale_reloads(self):
        _, text = invoke("classify", "--scale", Z6, "--t", "2", "--format", "json")
        rep = json.loads(text)
        again = TimeScale.from_json(rep["inputs"]["scale"])
        assert again == TimeScale.from_json(json.loads(pathlib.Path(Z6).read_text()))

    def test_out_file_matches_stream(self, tmp_path):
        target = tmp_path / "report.json"
        _, text = invoke(
            "integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3",
            "--format", "json", "--out", str(target),
        )
        assert target.read_text() == text


class TestExitCodes:
    @pytest.mark.parametrize(
        "name", ["malformed_syntax.json", "malformed_nan.json", "malformed_interval.json"]
    )
    def test_malformed_scale_files(self, name):
        code, text = invoke("classify", "--scale", str(FIX / name), "--t", "0")
        assert code == 2 and text == ""

    def test_syntax_error_reports_position(self, capsys):
        invoke("classify", "--scale", str(FIX / "malformed_syntax.json"), "--t", "0")
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_command(self):
        code, _ = invoke("bogus")
        assert code == 2

    def test_missing_required_argument(self):
        code, _ = invoke("deriv", "--scale", Z6)
        assert code == 2

    def test_help_exits_zero(self):
        code, _ = invoke("-h")
        assert code == 0

    def test_point_not_on_scale(self):
        code, _ = invoke("classify", "--scale", Z6, "--t", "99")
        assert code == 2

    def test_zero_denominator_point_exits_2(self, capsys):
        for argv in (("classify", "--scale", Z6, "--t", "1/0"),
                     ("integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "1/0"),
                     ("flcv-kernel", "--scale", Z6, "--variant", "delta", "--a", "0/0")):
            assert invoke(*argv) == (2, "")
            assert "cannot interpret" in capsys.readouterr().err

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        code, text = invoke("deriv", "--scale", Z6, "--fn", "t", "--t", "3", "--out", str(target))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith(f"tsvar: cannot write {target}: ")

    def test_a_quadrature_miss_exits_1_with_one_line(self, monkeypatch, capsys):
        def miss(*args, **kwargs):
            raise ConvergenceError("depth limit reached", estimate=0.0, error=1.0)

        monkeypatch.setattr(tsvar.calculus, "adaptive_simpson", miss)
        assert invoke("integrate", "--scale", HYBRID, "--fn", "t^2 + 1",
                      "--a", "0", "--b", "2") == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("tsvar: did not converge: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_nonpositive_tolerance(self):
        code, _ = invoke(
            "integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3",
            "--tol", "-1",
        )
        assert code == 2

    def test_oversized_polynomials_exit_2_quickly(self, tmp_path):
        problem = json.loads((FIX / "dprob_grad2.json").read_text())
        problem["lagrangian"] = "poly:(t1+t2+y0+y1+y2)^40"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        for argv in (("deriv", "--scale", Z6, "--fn", "(t+1)^2000", "--t", "1"),
                     ("double-el", "--problem", str(path), "--u", "t1"),
                     ("integrate", "--scale", Z6, "--fn", "(((2^200)^200)^200)^200",
                      "--a", "0", "--b", "3")):
            start = time.perf_counter()
            assert invoke(*argv) == (2, "")
            assert time.perf_counter() - start < 1.0

    def test_refine_above_grid_cap_exits_2_quickly(self, tmp_path, capsys):
        # el-residual samples [0, 1] of [0, 1] u {2}: --refine + 2 points.
        problem = {"scale": {"mode": "rational",
                             "pieces": [{"interval": [0, 1]}, {"point": 2}]},
                   "a": 0, "b": 2, "lagrangian": "builtin:v2"}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        for argv in (("el-residual", "--problem", str(path), "--y", "t",
                      "--refine", "100000000"),
                     # 402 points on each axis; only their product is above the cap.
                     ("double-el", "--problem", DPROB_BAD, "--u", "t1 + t2",
                      "--refine", "400")):
            start = time.perf_counter()
            assert invoke(*argv) == (2, "")
            assert time.perf_counter() - start < 1.0
            assert "above the limit" in capsys.readouterr().err

    def test_long_point_literal_is_clipped(self, capsys):
        digits = "1" * 4000
        # Not a point, not finite, not a number.
        for scale, text in ((Z6, digits), (HYBRID, digits), (Z6, "x" + digits)):
            assert invoke("classify", "--scale", scale, "--t", text) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("tsvar: ") and len(err.rstrip("\n")) < 200

    def test_huge_exponent_literal_exits_2_quickly(self, tmp_path, capsys):
        # Fraction would expand 10^10000000 in full; 10^5000 is past the
        # interpreter's integer-to-text limit.
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps({"mode": "rational",
                                     "pieces": [{"point": 0}, {"point": "1e10000000"}]}))
        for argv in (("classify", "--scale", Z6, "--t", "1e10000000"),
                     ("classify", "--scale", Z6, "--t", "1e5000"),
                     ("classify", "--scale", str(scale), "--t", "0")):
            start = time.perf_counter()
            assert invoke(*argv) == (2, "")
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.startswith("tsvar: ") and len(err.rstrip("\n")) < 200
            assert "set_int_max_str_digits" not in err

    def test_oversized_rational_point_exits_2_quickly(self, tmp_path, capsys):
        # A 5,000-digit point: from a short exponent literal, which parses,
        # and from a JSON integer literal, which json refuses to convert.
        mantissa = tmp_path / "mantissa.json"
        mantissa.write_text(json.dumps({"mode": "rational", "pieces": [
            {"point": 0}, {"point": "1" * 4000 + "e1000"}]}))
        literal = tmp_path / "literal.json"
        literal.write_text('{"mode": "rational", "pieces": [{"point": 0}, {"point": '
                           + "7" * 5000 + "}]}")
        for path in (mantissa, literal):
            start = time.perf_counter()
            assert invoke("classify", "--scale", str(path), "--t", "0") == (2, "")
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.startswith("tsvar: ") and len(err.rstrip("\n")) < 200
            assert "set_int_max_str_digits" not in err

    def test_result_past_digit_limit_exits_2(self, tmp_path, capsys):
        # Both points print, but the quotient sigma(0)^5 has a 5,000-digit
        # denominator, past the interpreter's integer-to-text limit.
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps({"mode": "rational", "pieces": [
            {"point": "0"}, {"point": f"1/{10**1000 - 1}"}]}))
        for fmt in ("text", "json"):
            argv = ("deriv", "--scale", str(scale), "--fn", "t^6", "--t", "0", "--format", fmt)
            assert invoke(*argv) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("tsvar: ") and err.count("\n") == 1
            assert len(err.rstrip("\n")) < 200 and "set_int_max_str_digits" not in err
            assert "10^-5000" in err

    def test_rational_hybrid_past_float_range_stays_exact(self, tmp_path):
        # [0, 1] and two points near 10^400: the gap sum is past the
        # largest float, and the dense piece is integrated exactly.
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps({"mode": "rational", "pieces": [
            {"interval": ["0", "1"]}, {"point": "1e400"}, {"point": "2e400"}]}))
        args = ("--scale", str(scale), "--a", "0", "--b", "2e400")
        code, text = invoke("integrate", *args, "--fn", "t")
        assert (code, text) == (0, f"{2 * 10**800 + 2 * 10**400 - 1}/2\n")
        code, text = invoke("integrate", *args, "--fn", "t", "--format", "json")
        assert code == 0 and json.loads(text)["results"]["exact"] is True
        code, text = invoke("ibp-check", *args, "--f", "t", "--g", "t^2")
        assert code == 0 and "form 1: residual = 0\nform 2: residual = 0\n" in text

    @pytest.mark.parametrize("pass_tol", ["nan", "-1", "-0.5"])
    def test_pass_tol_below_zero_or_nan_exits_2(self, pass_tol, capsys):
        args = ("el-residual", "--problem", PROB_V2, "--y", "t")
        assert invoke(*args, "--pass-tol", pass_tol) == (2, "")
        assert capsys.readouterr().err == "tsvar: --pass-tol must be a number >= 0\n"
        assert invoke(*args, "--pass-tol", "0")[0] == 0

    @pytest.mark.parametrize("boundary", ["ya", ["ya"], 3, 0, []], ids=repr)
    def test_boundary_that_is_no_object_exits_2(self, boundary, tmp_path, capsys):
        problem = json.loads((FIX / "prob_v2_bc.json").read_text())
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(problem, boundary=None)))
        assert invoke("el-residual", "--problem", str(path), "--y", "t")[0] == 0
        path.write_text(json.dumps(dict(problem, boundary=boundary)))
        assert invoke("el-residual", "--problem", str(path), "--y", "t") == (2, "")
        assert capsys.readouterr().err == "tsvar: problem 'boundary' JSON must be an object\n"

    @pytest.mark.parametrize("rows", [
        [1, 2, 3, 4, 5],
        [{str(k): "0" for k in range(5)}] * 5,
        ["01234", "12345", "23456", "34567", "45678"],  # t1 + t2, one character a value
    ], ids=["numbers", "objects", "strings"])
    def test_table_rows_that_are_no_lists_exit_2(self, rows, tmp_path, capsys):
        table = json.loads((FIX / "table2_sum.json").read_text())
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dict(table, values=rows)))
        assert invoke("double-el", "--problem", DPROB, "--u", str(path)) == (2, "")
        assert capsys.readouterr().err == "tsvar: 'values' must be a list of rows, each a list\n"

    def test_corner_off_its_axis_exits_2(self, tmp_path, capsys):
        problem = json.loads((FIX / "dprob_grad2.json").read_text())
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(problem, a2="1/2")))
        assert invoke("double-el", "--problem", str(path), "--u", "t1+t2") == (2, "")
        assert capsys.readouterr().err == "tsvar: 1/2 is not a point of the scale\n"


class TestBoundedTime:
    """Inputs whose float rounding no tolerance can beat, or past the float
    range: each ends in a typed error within one evaluation budget."""

    # Float rounding in (t+1)^30 on [0, 1] is above every leaf's share of
    # 1e-10; (t+1/3)^40 composed into L_y passes POLY_MAX_DEGREE, so each
    # dense piece goes to Simpson.
    HOSTILE = (
        ("integrate", "--scale", HYBRID, "--fn", "(t+1)^30", "--a", "0", "--b", "2"),
        ("el-residual", "--problem", str(FIX / "prob_hostile_el.json"),
         "--y", "(t+1/3)^40", "--refine", "0"),
    )

    @pytest.mark.parametrize("argv", HOSTILE, ids=["integrate", "el-residual"])
    def test_a_command_spends_one_budget_and_exits_1(self, argv, monkeypatch, capsys):
        # The spy counts each Simpson call's evaluations past its five root
        # ones: those are what the budget holds.
        real = tsvar.calculus.adaptive_simpson
        refined = [0]

        def spy(f, *args):
            calls = [0]

            def counted(x):
                calls[0] += 1
                return f(x)
            try:
                return real(counted, *args)
            finally:
                refined[0] += max(calls[0] - 5, 0)

        monkeypatch.setattr(tsvar.calculus, "adaptive_simpson", spy)
        assert invoke(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("tsvar: did not converge: ") and err.count("\n") == 1
        assert "evaluation budget" in err
        assert quadrature.QUAD_MAX_EVALS - 2 < refined[0] <= quadrature.QUAD_MAX_EVALS

    def test_a_grid_of_simpson_calls_that_converge_at_once_is_not_charged(self, tmp_path, capsys):
        # Each grid step of a float scale's dense piece is its own Simpson
        # call of L_y = 2t, exact at its root.  At the largest --refine the
        # grid cap allows, [0, 1] has GRID_MAX_POINTS points, and the calls'
        # root evaluations alone are ten times the budget.
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"scale": json.loads(pathlib.Path(HYBRID).read_text()),
                                       "a": 0, "b": 2, "lagrangian": "poly:v^2+y^2"}))
        refine = str(GRID_MAX_POINTS - 2)
        code, text = invoke("el-residual", "--problem", str(problem), "--y", "t", "--refine", refine)
        assert capsys.readouterr().err == ""
        assert f"evaluated at {GRID_MAX_POINTS} points" in text

    @pytest.mark.parametrize("argv", [
        # The Simpson sums of 1e308*t overflow: an error that is nan passes
        # no comparison with the tolerance, so it must be refused, not refined.
        ("integrate", "--scale", HYBRID, "--fn", "10^200*10^108*t", "--a", "0", "--b", "2"),
        # The coefficient fits POLY_MAX_COEFF_BITS but not a float.
        ("integrate", "--scale", HYBRID, "--fn", "10^200*10^108*(t+1)^10",
         "--a", "0", "--b", "2"),
        ("integrate", "--scale", OVERFLOW, "--fn", "t^2", "--a", "1e200", "--b", "2e200"),
        ("deriv", "--scale", OVERFLOW, "--fn", "t^2", "--t", "1e200"),
        # mu(1e200) * 1e200 is inf in the float gap sum.
        ("integrate", "--scale", OVERFLOW, "--fn", "t", "--a", "1e200", "--b", "2e200"),
        # L_y = 7y^6 passes POLY_MAX_DEGREE, so Simpson reads its exact
        # values at the nodes, and these pass the float range.
        ("el-residual", "--problem", "Y7", "--y", "10^60*(t+1/3)^40", "--refine", "0"),
    ], ids=["simpson-sum", "coefficient", "integrate-power", "deriv-power", "gap-sum",
            "exact-integrand"])
    def test_float_overflow_exits_2_with_one_line(self, argv, tmp_path, capsys):
        problem = json.loads((FIX / "prob_hostile_el.json").read_text())
        problem["lagrangian"] = "poly:y^7+v^2"
        y7 = tmp_path / "y7.json"
        y7.write_text(json.dumps(problem))
        argv = [str(y7) if a == "Y7" else a for a in argv]
        assert invoke(*argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("tsvar: ") and err.count("\n") == 1
        assert "past the float range" in err


class TestVerdictCommands:
    def test_el_residual_flags_nonstationary_trajectory(self):
        code, text = invoke("el-residual", "--problem", PROB_V2, "--y", "t^2")
        assert code == 1 and "fail" in text

    def test_el_residual_pass_tol_loosens_the_gate(self):
        code, _ = invoke(
            "el-residual", "--problem", PROB_V2, "--y", "t^2", "--pass-tol", "100"
        )
        assert code == 0

    def test_the_gate_passes_an_exact_residual_only_at_zero(self):
        tiny = Fraction(1, 10**400)  # 0.0 as a float
        default, loose = Namespace(pass_tol=None), Namespace(pass_tol=1e-9)
        assert _gate(tiny, default) == _gate(-tiny, default) == (False, [])
        assert _gate(Fraction(0), default) == _gate(0, default) == (True, [])
        assert _gate(tiny, loose) == (True, ["an exact nonzero residual passed only under --pass-tol"])
        assert _gate(Fraction(0), loose) == (True, [])
        assert _gate(Fraction(1, 10**8), loose) == (False, [])
        # A float residual keeps the 1e-9 threshold.
        assert _gate(1e-10, default) == _gate(-1e-9, default) == (True, [])
        assert _gate(2e-9, default) == (False, [])
        assert _gate(2e-9, Namespace(pass_tol=1e-8)) == (True, [])

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(st.integers(-20, 20), min_size=3, max_size=6, unique=True),
           den=st.integers(1, 5), c=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
           eps=st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 30)))
    def test_a_planted_exact_residual_fails_however_small(self, tmp_path_factory, points, den,
                                                          c, eps):
        # eps * t^2 on a linear trajectory: stationary for v^2 and grad2 only at eps = 0.
        tmp = tmp_path_factory.mktemp("planted")
        axis = {"mode": "rational",
                "pieces": [{"point": f"{k}/{den}"} for k in sorted(points)]}
        prob, dprob = tmp / "prob.json", tmp / "dprob.json"
        prob.write_text(json.dumps({"scale": axis, "a": f"{min(points)}/{den}",
                                    "b": f"{max(points)}/{den}", "lagrangian": "builtin:v2"}))
        dprob.write_text(json.dumps({"scale1": axis, "scale2": axis,
                                     "lagrangian": "builtin:grad2"}))
        planted = f"({eps[0]}/{10 ** eps[1]})"
        for argv in (("el-residual", "--problem", str(prob),
                      "--y", f"({c[0]})*t + ({c[1]}) + {planted}*t^2"),
                     ("double-el", "--problem", str(dprob),
                      "--u", f"({c[0]})*t1 + ({c[1]})*t2 + {planted}*t1^2")):
            code, text = invoke(*argv)
            assert code == 1 and "(fail)" in text
            code, text = invoke(*argv[:-1], argv[-1].replace(planted, "0"))
            assert code == 0 and "max |residual| = 0 (ok)" in text

    def test_el_residual_stationary_trajectory(self):
        code, text = invoke("el-residual", "--problem", PROB_V2, "--y", "t")
        assert code == 0
        assert "c_hat = 2" in text
        assert text.count("finding:") == 2

    def test_residual_beyond_float_range_still_reports(self, tmp_path):
        # The exact residuals are near 10^400, past the largest float; the
        # gate compares them with --pass-tol exactly.
        points = [{"point": f"{k}e400"} for k in range(4)]
        axis = {"mode": "rational", "pieces": points}
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"scale": dict(axis, pieces=points[:3]), "a": "0",
                                    "b": "2e400", "lagrangian": "builtin:v2"}))
        dprob = tmp_path / "dprob.json"
        dprob.write_text(json.dumps({"scale1": axis, "scale2": axis,
                                     "lagrangian": "builtin:grad2"}))
        for argv in (("el-residual", "--problem", str(prob), "--y", "t^2"),
                     ("double-el", "--problem", str(dprob), "--u", "t1^2*t2^2")):
            code, text = invoke(*argv)
            assert code == 1 and "max |residual| = " in text and "(fail)" in text
            code, text = invoke(*argv, "--format", "json")
            assert code == 1 and json.loads(text)["status"] == "fail"

    def test_ibp_check_exact_on_discrete(self):
        code, text = invoke(
            "ibp-check", "--scale", Z6, "--f", "t", "--g", "t^2",
            "--a", "0", "--b", "5",
        )
        assert code == 0
        assert "form 1: residual = 0" in text and "form 2: residual = 0" in text

    def test_flcv_kernel_delta(self):
        code, text = invoke("flcv-kernel", "--scale", Z6, "--variant", "delta")
        assert code == 0
        assert "unconstrained = {4}" in text
        assert "claimed domain fully constrained: True" in text

    def test_flcv_kernel_nabla_reports_failed_claim_with_exit_zero(self):
        code, text = invoke("flcv-kernel", "--scale", Z5, "--variant", "nabla")
        assert code == 0
        assert "unconstrained = {1, 5}" in text
        assert "claimed domain fully constrained: False" in text

    def test_double_el(self):
        code, text = invoke("double-el", "--problem", DPROB, "--u", "t1+t2")
        assert code == 0
        assert "evaluated at 9 points, 7 undefined" in text

    def test_double_el_findings_in_json(self):
        _, text = invoke(
            "double-el", "--problem", DPROB, "--u", "t1+t2", "--format", "json"
        )
        rep = json.loads(text)
        assert len(rep["findings"]) == 7
        assert all("left-scattered maximum" in f for f in rep["findings"])

    def test_fubini_check_hybrid(self):
        code, text = invoke(
            "fubini-check", "--scale1", HYBRID, "--scale2", HYBRID, "--fn", "t1*t2"
        )
        assert code == 0 and "ok" in text

    def test_derivation_check_discrete(self):
        code, text = invoke(
            "derivation-check", "--problem", DPROB, "--u", "t1+t2",
            "--eta", "t1*(4-t1)*t2*(4-t2)",
        )
        assert code == 0
        assert "combine: residual = 0" in text
        assert "region-split: residual = 0" in text

    def test_derivation_check_refuses_bad_axis(self, capsys):
        code, _ = invoke(
            "derivation-check", "--problem", DPROB_BAD, "--u", "t1+t2",
            "--eta", "t1*(1.5-t1)*t2*(1.5-t2)",
        )
        assert code == 2
        assert "unsupported" in capsys.readouterr().err

    def test_counterexample_confirmed(self):
        code, text = invoke("counterexample", "nabla-endpoints", "--format", "json")
        assert code == 0
        assert json.loads(text)["results"]["confirmed"] is True

    def test_counterexample_origin_flag(self):
        code, text = invoke(
            "counterexample", "nabla-endpoints", "--origin", "3", "--format", "json"
        )
        assert code == 0
        assert "{3, 4, 5, 6, 7}" == json.loads(text)["results"]["witness"]["scale"]

    def test_counterexample_bad_witness_point(self):
        code, _ = invoke("counterexample", "eta-not-c1", "--t0", "0.5")
        assert code == 2


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("tsvar")
        assert exe is not None
        proc = subprocess.run(
            [exe, "integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3\n"
