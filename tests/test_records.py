"""The package's frozen records behave as value objects.

One instance of each record, built through its public entry point, is
checked for its exact repr, equality and hashing over its compared fields
only, positional and keyword construction with the documented defaults,
pickle and copy round trips, and refusal to assign or delete a field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tsvar.calculus import DerivResult, delta_deriv
from tsvar.counterexamples import cx_nabla_endpoints
from tsvar.double import (DoubleProblem, ProductScale, SurfaceFn, derivation_chain_check,
                          double_el_residual)
from tsvar.polyfn import Poly
from tsvar.scales import FLOAT, RATIONAL, TimeScale
from tsvar.variational import (ELReport, VariationalProblem, el_residual, fl_kernel,
                               lagrangian_from_spec)

S3 = "TimeScale(pieces=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)), " \
     "(Fraction(2, 1), Fraction(2, 1))), mode='rational', eps=0.0)"
S4 = "TimeScale(pieces=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)), " \
     "(Fraction(2, 1), Fraction(2, 1)), (Fraction(3, 1), Fraction(3, 1))), mode='rational', eps=0.0)"
GAP2 = "'delta derivative undefined at the left-scattered maximum 2'"


def _variational():
    return VariationalProblem(TimeScale.discrete(range(4)), 0, 3,
                              lagrangian_from_spec("builtin:v2"), ya=None)


def _double():
    ax = TimeScale.discrete(range(3))
    return DoubleProblem(ProductScale(ax, ax), 0, 2, 0, 2,
                         Poly.parse("y1^2+y2^2", ("t1", "t2", "y0", "y1", "y2")))


def _surface(text):
    ax = TimeScale.discrete(range(3))
    return SurfaceFn.from_callable(ax, ax, Poly.parse(text, ("t1", "t2")))


# name: (entry point, compared fields in order, exact repr).  The shown
# fields are the ones the repr names.
RECORDS = {
    "PointClass": (
        lambda: TimeScale(((0, 1), 2)).classify(1),
        ("left_dense", "right_dense", "is_min", "is_max"),
        "PointClass(left_dense=True, right_dense=False, is_min=False, is_max=False)"),
    "TimeScale": (
        lambda: TimeScale(((0, 1), 2)),
        ("pieces", "mode", "eps"),
        "TimeScale(pieces=((Fraction(0, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(2, 1))), "
        "mode='rational', eps=0.0)"),
    "DerivResult": (
        lambda: delta_deriv(TimeScale.discrete(range(4)), Poly.parse("t^2", ("t",)), 1),
        ("value", "method", "est_error"),
        "DerivResult(value=Fraction(3, 1), method='exact-quotient', est_error=Fraction(0, 1))"),
    "VariationalProblem": (
        _variational,
        ("scale", "a", "b", "lagrangian", "ya", "yb"),
        f"VariationalProblem(scale={S4}, a=Fraction(0, 1), b=Fraction(3, 1), "
        "lagrangian=Poly(('t', 'y', 'v'), {(0, 0, 2): Fraction(1, 1)}), ya=None, yb=None)"),
    "ELReport": (
        lambda: el_residual(_variational(), Poly.parse("t", ("t",))),
        ("residuals", "c_hat", "max_abs_residual", "definedness_findings"),
        "ELReport(residuals=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(2, 1), Fraction(0, 1))), c_hat=Fraction(2, 1), max_abs_residual=Fraction(0, 1), "
        "definedness_findings=('b=3 is left-scattered: the velocity partial there needs the delta "
        "derivative of y at b, which is undefined at a left-scattered maximum; the integral-form "
        "condition holds only on [0, 2]', 'transversality-style conditions that evaluate the "
        "velocity partial at b are unsupported on this scale'))"),
    "KernelReport": (
        lambda: fl_kernel(TimeScale.discrete(range(4)), "delta"),
        ("variant", "a", "b", "constrained", "unconstrained", "claimed_domain", "claim_holds",
         "rank"),
        "KernelReport(variant='delta', a=Fraction(0, 1), b=Fraction(3, 1), "
        "constrained=(Fraction(0, 1), Fraction(1, 1)), unconstrained=(Fraction(2, 1),), "
        "claimed_domain=(Fraction(0, 1), Fraction(1, 1)), claim_holds=True, rank=2)"),
    "ProductScale": (
        lambda: _double().ps,
        ("scale1", "scale2"),
        f"ProductScale(scale1={S3}, scale2={S3})"),
    "DoubleProblem": (
        _double,
        ("ps", "a1", "b1", "a2", "b2", "lagrangian", "boundary", "ax1", "ax2", "audit_findings"),
        f"DoubleProblem(ps=ProductScale(scale1={S3}, scale2={S3}), a1=Fraction(0, 1), "
        "b1=Fraction(2, 1), a2=Fraction(0, 1), b2=Fraction(2, 1), "
        "lagrangian=Poly(('t1', 't2', 'y0', 'y1', 'y2'), {(0, 0, 0, 2, 0): Fraction(1, 1), "
        "(0, 0, 0, 0, 2): Fraction(1, 1)}), boundary=None)"),
    "DoubleELReport": (
        lambda: double_el_residual(_double(), _surface("t1*t2")),
        ("residuals", "gaps", "max_abs_residual"),
        "DoubleELReport(residuals=(((Fraction(0, 1), Fraction(0, 1)), Fraction(0, 1)),), "
        f"gaps=(((Fraction(0, 1), Fraction(1, 1)), {GAP2}), "
        f"((Fraction(1, 1), Fraction(0, 1)), {GAP2}), "
        f"((Fraction(1, 1), Fraction(1, 1)), {GAP2})), max_abs_residual=Fraction(0, 1))"),
    "ChainStep": (
        lambda: derivation_chain_check(_double(), _surface("t1*t2"),
                                       _surface("t1*(2-t1)*t2*(2-t2)"))[0],
        ("label", "residual"),
        "ChainStep(label='region-split', residual=Fraction(0, 1))"),
    "Verdict": (
        cx_nabla_endpoints,
        ("id", "claim", "witness", "confirmed", "details"),
        "Verdict(id='nabla-endpoints', claim='zero nabla pairing against all endpoint-vanishing "
        "variations does not force f to vanish at the interval endpoints', "
        "witness={'scale': '{1, 2, 3, 4, 5}', 'f': '1 at both endpoints, 0 at interior points'}, "
        "confirmed=True, details=(('nabla pairing with indicator at 2', '0'), "
        "('nabla pairing with indicator at 3', '0'), ('nabla pairing with indicator at 4', '0'), "
        "('nabla pairing with seeded random variation', '0'), ('f(a)', '1'), ('f(b)', '1'), "
        "('unconstrained by the pairing', '{1, 5}'), ('pairing matrix rank', '3')))"),
}

# Each constructor takes the shown fields, in repr order.
SHOWN = {"VariationalProblem": RECORDS["VariationalProblem"][1],
         "DoubleProblem": RECORDS["DoubleProblem"][1][:7]}

names = pytest.mark.parametrize("name", sorted(RECORDS))


def _shown(name):
    return SHOWN.get(name, RECORDS[name][1])


@names
def test_repr_text(name):
    build, _, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text


@names
def test_equal_on_compared_fields_only(name):
    build, compared, _ = RECORDS[name]
    record, again = build(), build()
    assert record == again and not record != again
    assert record.__eq__(object()) is NotImplemented
    assert record != tuple(getattr(record, f) for f in compared)
    for key in vars(record):
        changed = copy.copy(record)
        vars(changed)[key] = object()
        if key in compared:
            assert changed != record and not changed == record, key
        else:
            assert changed == record, key


def test_scales_with_different_lazy_state_are_equal():
    scale, fresh = TimeScale(((0.0, 1.0), 2.0), mode=FLOAT), TimeScale(((0.0, 1.0), 2.0), mode=FLOAT)
    assert 2.0 in scale and scale._gaps and scale._isolated is not None
    cut = TimeScale(((0.0, 1.0), 2.0, 3.0), mode=FLOAT).truncate_k()
    assert vars(scale).keys() != vars(fresh).keys()
    assert scale == fresh == cut and hash(scale) == hash(fresh) == hash(cut)


@names
def test_hash(name):
    build, compared, _ = RECORDS[name]
    record = build()
    if name == "Verdict":
        with pytest.raises(TypeError):
            hash(record)  # its witness is a dict
        return
    assert hash(record) == hash(build()) == hash(tuple(getattr(record, f) for f in compared))


@names
def test_positional_and_keyword_construction(name):
    record = RECORDS[name][0]()
    cls = type(record)
    values = [getattr(record, f) for f in _shown(name)]
    assert cls(*values) == record
    assert cls(**dict(zip(_shown(name), values))) == record


def test_constructor_defaults():
    pieces = ((0, 1), 2)
    assert TimeScale(pieces) == TimeScale(pieces, RATIONAL, 0.0)
    scale = TimeScale(pieces, mode=FLOAT, eps=1e-9)
    assert (scale.mode, scale.eps) == (FLOAT, 1e-9)
    assert scale == TimeScale(pieces, FLOAT, 1e-9)
    p = _variational()
    assert (p.ya, p.yb) == (None, None)
    assert VariationalProblem(p.scale, 0, 3, p.lagrangian, 1, yb=2).yb == 2
    assert VariationalProblem(p.scale, Fraction(0), 3, p.lagrangian, ya=1).ya == 1
    assert _double().boundary is None
    report = ELReport(residuals=(), c_hat=0, max_abs_residual=0, definedness_findings=())
    assert report.residuals == () and report.definedness_findings == ()
    with pytest.raises(TypeError):
        ELReport((), 0, 0)
    with pytest.raises(TypeError):
        DerivResult(1, "analytic", 0, extra=1)


@names
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name][0]()
    for other in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(other) is type(record)
        assert other == record and repr(other) == repr(record)


@names
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    for key in (*_shown(name), "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, key, 1)
        if key in vars(record):
            with pytest.raises(AttributeError):
                delattr(record, key)
    assert repr(record) == RECORDS[name][2]


def test_post_init_runs_once_per_scale_through_the_instance(monkeypatch):
    calls = []
    original = TimeScale.__post_init__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TimeScale, "__post_init__", counted)
    scale = TimeScale(((0, 1), 2))
    assert calls == [scale]
    TimeScale(((0, 1), 2), FLOAT, 0.0)
    TimeScale.discrete(range(3))
    assert len(calls) == 3
    scale.restrict(0, 1)  # a sub-scale reuses its parent's canonical pieces
    assert len(calls) == 3
