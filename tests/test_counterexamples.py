import contextlib
import io
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvar import (
    FLOAT,
    RATIONAL,
    ALL_COUNTEREXAMPLES,
    DomainError,
    PreconditionError,
    TimeScale,
    cx_eta_not_c1,
    cx_nabla_endpoints,
    cx_omega_degenerate,
    cx_sigma_discontinuity,
)
from tsvar.cli import run

FIX = pathlib.Path(__file__).resolve().parent / "fixtures"
MILLI = FIX / "witness_milli.json"  # [0, 0.001] union {0.0015}, float
HUGE = FIX / "witness_huge.json"  # [0, 1e200] union {1.5e200}, float


def details_dict(verdict):
    return dict(verdict.details)


class TestRegistry:
    def test_names(self):
        assert set(ALL_COUNTEREXAMPLES) == {
            "nabla-endpoints",
            "eta-not-c1",
            "omega-degenerate",
            "sigma-discontinuity",
        }

    def test_all_confirmed_with_defaults(self):
        for name, build in ALL_COUNTEREXAMPLES.items():
            verdict = build()
            assert verdict.confirmed, name
            assert verdict.id == name

    def test_builds_are_deterministic(self):
        for build in ALL_COUNTEREXAMPLES.values():
            assert build().to_json() == build().to_json()

    def test_to_json_is_serializable(self):
        for build in ALL_COUNTEREXAMPLES.values():
            blob = build().to_json()
            assert json.loads(json.dumps(blob)) == blob


class TestNablaEndpoints:
    def test_pairings_and_kernel(self):
        v = cx_nabla_endpoints()
        d = details_dict(v)
        assert v.confirmed
        pairings = [val for key, val in v.details if key.startswith("nabla pairing")]
        assert len(pairings) == 4 and set(pairings) == {"0"}
        assert d["f(a)"] == "1" and d["f(b)"] == "1"
        assert d["unconstrained by the pairing"] == "{1, 5}"
        assert d["pairing matrix rank"] == "3"

    def test_relabeled_origin_still_confirmed(self):
        v = cx_nabla_endpoints(origin=7)
        assert v.confirmed
        assert details_dict(v)["unconstrained by the pairing"] == "{7, 11}"

    def test_interior_override_breaks_the_claim(self):
        v = cx_nabla_endpoints(f_override={3: 1})
        assert not v.confirmed
        pairings = [val for key, val in v.details if key.startswith("nabla pairing")]
        assert any(val != "0" for val in pairings)


class TestEtaNotC1:
    def test_pinned_default_values(self):
        v = cx_eta_not_c1()
        assert v.confirmed
        d = details_dict(v)
        assert d["delta derivative at t0 (jump quotient)"] == "-0.28125"
        assert d["same value from the closed-form product rule"] == "-0.28125"
        assert d["left limit of the classical slope"] == "-0.1875"
        assert d["left-limit error estimate"] == "0.0"
        assert d["discontinuity of the derivative at t0"] == "0.09375"
        assert d["bump vanishes at support edges"] == "True"
        assert v.witness["bump support"] == "[0.25, 1.5]"

    def test_custom_scale(self):
        scale = TimeScale(((0.0, 2.0), (3.0, 3.0)), mode=FLOAT)
        v = cx_eta_not_c1(scale, u1=0.5, t0=2.0)
        assert v.confirmed
        d = details_dict(v)
        assert d["delta derivative at t0 (jump quotient)"] == "-2.25"
        assert d["discontinuity of the derivative at t0"] == "0.75"

    def test_rational_scale_is_read_as_it_is(self):
        scale = TimeScale(((0, 2), 3))
        v = cx_eta_not_c1(scale, u1=Fraction(1, 3), t0=2)
        assert v.confirmed and v.witness["bump support"] == "[1/3, 3]"
        # (2 - 1/3)^2 (3 - 2)^2 over the gap 1, and the slope
        # 2 (5/3) (1)^2 - 2 (5/3)^2 (1) of the bump at 2.
        d = details_dict(v)
        assert d["delta derivative at t0 (jump quotient)"] == repr(float(Fraction(-25, 9)))
        assert d["left limit of the classical slope"] == repr(float(Fraction(-20, 9)))

    def test_a_small_witness_is_decided_exactly(self):
        # The Richardson limit this replaced was 1 % off here, and its jump
        # fell under an absolute tolerance.
        v = cx_eta_not_c1(TimeScale.from_json(json.loads(MILLI.read_text())),
                          u1=0.00025, t0=0.001)
        assert v.confirmed
        assert details_dict(v)["left limit of the classical slope"] == "-1.8750000000000002e-10"

    def test_left_limit_is_the_float_nearest_the_exact_slope(self):
        d = details_dict(cx_eta_not_c1(u1=0.1))
        assert d["left limit of the classical slope"] == "-0.36"

    def test_a_bump_whose_slopes_agree_is_unconfirmed(self):
        # On [0, 1] union {1.5} with u1 = 0, L - u1 = 1 = 2 mu(1): the jump
        # quotient and the left slope are both -1/2.
        v = cx_eta_not_c1(u1=0)
        assert not v.confirmed
        assert details_dict(v)["discontinuity of the derivative at t0"] == "0.0"

    def test_a_value_past_the_float_range_is_refused(self):
        with pytest.raises(DomainError, match="past the float range"):
            cx_eta_not_c1(TimeScale.from_json(json.loads(HUGE.read_text())),
                          u1=2.5e199, t0=1e200)

    def test_dense_t0_rejected(self):
        with pytest.raises(PreconditionError):
            cx_eta_not_c1(t0=0.5)

    def test_bump_needs_room_below_t0(self):
        with pytest.raises(PreconditionError):
            cx_eta_not_c1(u1=1.0, t0=1.0)


class TestOmegaDegenerate:
    def test_bump_and_pairings_vanish(self):
        v = cx_omega_degenerate()
        assert v.confirmed
        d = details_dict(v)
        assert d["bump at the shifted probe (2, 2)"] == "0"
        assert d["bump vanishes at every grid point"] == "True"
        pairings = [val for key, val in v.details if key.startswith("pairing with")]
        assert len(pairings) == 3 and set(pairings) == {"0"}


class TestSigmaDiscontinuity:
    def test_pinned_default_values(self):
        v = cx_sigma_discontinuity()
        assert v.confirmed
        d = details_dict(v)
        assert d["limit of sigma from the left"] == repr(1 - 2.0**-40)
        assert d["last approach distance"] == repr(2.0**-40)
        assert d["sigma at t"] == "1.5"
        assert d["jump size mu(t)"] == "0.5"

    def test_dense_point_rejected(self):
        with pytest.raises(PreconditionError):
            cx_sigma_discontinuity(t=0.5)

    def test_custom_scale(self):
        scale = TimeScale(((0.0, 2.0), (5.0, 5.0)), mode=FLOAT)
        v = cx_sigma_discontinuity(scale, t=2.0)
        assert v.confirmed
        assert details_dict(v)["jump size mu(t)"] == "3.0"

    def test_a_huge_witness_is_decided_exactly(self):
        # The approach distance here is about 9e187, which an absolute
        # tolerance refused.
        v = cx_sigma_discontinuity(TimeScale.from_json(json.loads(HUGE.read_text())), t=1e200)
        assert v.confirmed
        assert details_dict(v)["jump size mu(t)"] == "5e+199"


def cli(*argv):
    """``(exit code, stdout, stderr)`` of one ``tsvar`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


class TestCommandLine:
    def test_witness_fixtures(self):
        assert cli("counterexample", "eta-not-c1", "--scale", str(MILLI),
                   "--t0", "0.001", "--u1", "0.00025")[0] == 0
        assert cli("counterexample", "sigma-discontinuity", "--scale", str(HUGE),
                   "--t", "1e200")[0] == 0
        assert cli("counterexample", "eta-not-c1", "--u1", "0")[0] == 1

    def test_a_huge_bump_exits_2_with_one_line(self):
        code, out, err = cli("counterexample", "eta-not-c1", "--scale", str(HUGE),
                             "--t0", "1e200", "--u1", "2.5e199")
        assert (code, out) == (2, "")
        assert err.startswith("tsvar: ") and err.count("\n") == 1
        assert "past the float range" in err and "Traceback" not in err


@st.composite
def witnesses(draw):
    """``(mode, L, isolated point, u1)`` for the scale [0, L] union {L + g},
    L and g in 1e-6 ... 1e6 and u1 in [0, L); a drawn tie puts u1 at L - 2g."""
    mode = draw(st.sampled_from((FLOAT, RATIONAL)))
    tie = draw(st.booleans())
    if mode == FLOAT:
        length, gap = (draw(st.floats(1e-6, 1e6)) for _ in range(2))
        point, u1 = length + gap, length * draw(st.floats(0, 1, exclude_max=True))
        if tie and 2 * gap < length:
            u1 = length - 2 * gap
    else:
        bounds = dict(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
        length, gap = (draw(st.fractions(**bounds)) for _ in range(2))
        point = length + gap
        u1 = length - 2 * gap if tie and 2 * gap < length else length * draw(
            st.fractions(0, 1, max_denominator=1000).filter(lambda x: x < 1))
    if not 0 <= u1 < length:
        u1 = 0 * length
    return mode, length, point, u1


@settings(max_examples=120, deadline=None)
@given(witnesses())
@example((RATIONAL, Fraction(1), Fraction(3, 2), Fraction(0)))
@example((FLOAT, 1.0, 1.5, 0.25))
def test_witnesses_on_every_scale_decide_as_the_exact_oracle(tmp_path_factory, witness):
    mode, length, point, u1 = witness
    # A float scale's JSON holds numbers, a rational one's "p/q" strings.
    text, value = (repr, float) if mode == FLOAT else (str, str)
    scale = tmp_path_factory.mktemp("w") / "scale.json"
    scale.write_text(json.dumps({"mode": mode, "pieces": [
        {"interval": [value(0), value(length)]}, {"point": value(point)}]}))

    def report(*argv):
        code, out, err = cli("counterexample", *argv, "--scale", str(scale), "--format", "json")
        assert code in (0, 1, 2) and "Traceback" not in err and err.count("\n") <= 1, err
        assert code != 2, err
        results = json.loads(out)["results"]
        assert code == (0 if results["confirmed"] else 1)
        return results

    assert report("sigma-discontinuity", "--t", text(length))["confirmed"]

    results = report("eta-not-c1", "--t0", text(length), "--u1", text(u1))
    L, g, u = Fraction(length), Fraction(point) - Fraction(length), Fraction(u1)
    assert results["confirmed"] == (L - u != 2 * g)
    # The bump (t - u)^2 (L + g - t)^2: its jump quotient at L and its slope there.
    d = dict(results["details"])
    assert d["delta derivative at t0 (jump quotient)"] == repr(float(-(L - u) ** 2 * g))
    assert d["left limit of the classical slope"] == repr(float(2 * (L - u) * g * (g - (L - u))))
