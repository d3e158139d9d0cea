import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pabi import (
    ConvexLipschitz,
    ConvexWeaklySmooth,
    IterationSpec,
    PreconditionError,
    QuadraticModulus,
    SmoothConvex,
    StronglyDissipative,
    modulus_from_class,
    stationarity_residuals,
)
from pabi.shifts import _phi as phi_steps


def _phi(c, h, delta):
    """The modulus sqrt(c delta^2 + h) as the shift code evaluates it."""
    spec = IterationSpec.uniform(1.0, 1, QuadraticModulus(c, h), 1.0)
    return float(phi_steps(spec, np.array([delta]))[0])


def test_evaluate_examples():
    assert _phi(1.0, 0.0, 3.0) == 3.0
    assert _phi(1.0, 4.0, 1.0) == pytest.approx(math.sqrt(5.0))


def test_evaluate_at_zero_is_sqrt_h():
    assert _phi(2.0, 9.0, 0.0) == 3.0
    assert _phi(2.0, 0.0, 0.0) == 0.0


def test_negative_delta_rejected():
    spec = IterationSpec.uniform(1.0, 2, QuadraticModulus(1.0, 0.0), 1.0)
    with pytest.raises(PreconditionError) as exc:
        stationarity_residuals(spec, [1.0, -1e-9, 0.0])
    assert exc.value.code == "negative_delta"


def test_invalid_parameters_rejected():
    with pytest.raises(PreconditionError):
        QuadraticModulus(-0.1, 0.0)
    with pytest.raises(PreconditionError) as exc:
        QuadraticModulus(1.0, -0.1)
    assert exc.value.code == "offset"


def test_modulus_repr_is_the_dataclass_repr():
    assert repr(QuadraticModulus(0.9, 0.5)) == "QuadraticModulus(c=0.9, h=0.5)"


def test_modulus_equality_and_hash_follow_the_fields():
    m = QuadraticModulus(c=0.9, h=0.5)
    assert m == QuadraticModulus(0.9, 0.5)
    assert hash(m) == hash(QuadraticModulus(0.9, 0.5))
    assert m != QuadraticModulus(0.9, 0.6)
    assert len({m, QuadraticModulus(0.9, 0.5), QuadraticModulus(1.0, 0.5)}) == 2
    assert [f.name for f in dataclasses.fields(m)] == ["c", "h"]


def test_modulus_is_frozen():
    m = QuadraticModulus(0.9, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.c = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del m.h
    assert (m.c, m.h) == (0.9, 0.5)


def test_modulus_replace_validates_again():
    m = QuadraticModulus(0.9, 0.5)
    assert dataclasses.replace(m, h=0.25) == QuadraticModulus(0.9, 0.25)
    with pytest.raises(PreconditionError) as exc:
        dataclasses.replace(m, h=-1.0)
    assert exc.value.code == "offset"
    with pytest.raises(PreconditionError) as exc:
        dataclasses.replace(m, c=math.inf)
    assert exc.value.code == "modulus_c"


def test_modulus_survives_pickle_and_deepcopy():
    m = QuadraticModulus(0.9, 0.5)
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert type(twin) is QuadraticModulus
        assert twin == m
        assert (twin.c, twin.h) == (0.9, 0.5)


def test_modulus_has_no_instance_dict():
    # one modulus is built per step of a long spec
    assert not hasattr(QuadraticModulus(0.9, 0.5), "__dict__")


def test_spec_refuses_a_non_modulus():
    with pytest.raises(PreconditionError) as exc:
        IterationSpec(1.0, (1.0, 1.0), (QuadraticModulus(1.0, 0.0), (1.0, 0.0)))
    assert exc.value.code == "moduli"


def test_derivative():
    # the stationarity conditions use the one-sided derivative c u / phi(u),
    # sqrt(c) at a kink; with unit noise and phi_0(1) = 1 the first
    # residual is (c_1 + 1) u_1 - phi_1'(u_1) u_2 - 1
    def first_residual(c, h, u1):
        spec = IterationSpec(1.0, (1.0,) * 3, (QuadraticModulus(1.0, 0.0),) + (QuadraticModulus(c, h),) * 2)
        return stationarity_residuals(spec, [1.0, u1, 1.0, 0.0])[0]

    assert first_residual(4.0, 0.0, 0.0) == -2.0 - 1.0
    assert first_residual(1.0, 4.0, 0.0) == -1.0
    assert first_residual(1.0, 4.0, 1.0) == pytest.approx(1.0 - 1.0 / math.sqrt(5.0))


@given(
    c=st.floats(0.01, 10.0),
    h=st.floats(0.0, 10.0),
    d1=st.floats(0.0, 100.0),
    d2=st.floats(0.0, 100.0),
)
def test_evaluate_monotone_in_delta(c, h, d1, d2):
    lo, hi = sorted((d1, d2))
    assert _phi(c, h, lo) <= _phi(c, h, hi)


@given(c=st.floats(0.01, 10.0), h=st.floats(0.0, 10.0), delta=st.floats(0.0, 100.0))
def test_evaluate_monotone_in_parameters(c, h, delta):
    base = _phi(c, h, delta)
    assert _phi(c + 1.0, h, delta) >= base
    assert _phi(c, h + 1.0, delta) >= base


def test_lipschitz_and_smooth_are_the_ends_of_the_weakly_smooth_family():
    assert ConvexLipschitz(L=1.5) == ConvexWeaklySmooth(p=0.0, M=3.0)
    assert SmoothConvex(beta=2.0) == ConvexWeaklySmooth(p=1.0, M=2.0)
    for make, code in ((ConvexLipschitz, "lipschitz"), (SmoothConvex, "smoothness")):
        with pytest.raises(PreconditionError) as exc:
            make(0.0)
        assert exc.value.code == code


def test_lipschitz_mapping():
    m = modulus_from_class(ConvexLipschitz(L=1.0), eta=1.0)
    assert (m.c, m.h) == (1.0, 4.0)


def test_weakly_smooth_p_zero_matches_lipschitz_bitwise():
    # p = 0 with M = 2L is the Lipschitz case; the mapped moduli agree exactly
    for L in (0.3, 1.0, 2.5):
        for eta in (0.05, 0.7, 1.0):
            lip = modulus_from_class(ConvexLipschitz(L=L), eta=eta)
            weak = modulus_from_class(ConvexWeaklySmooth(p=0.0, M=2.0 * L), eta=eta)
            assert weak.c == lip.c
            assert weak.h == lip.h


def test_weakly_smooth_p_one_is_smooth_case():
    m = modulus_from_class(ConvexWeaklySmooth(p=1.0, M=2.0), eta=0.9)
    assert (m.c, m.h) == (1.0, 0.0)


def test_weakly_smooth_p_one_stepsize_gate():
    with pytest.raises(PreconditionError) as exc:
        modulus_from_class(ConvexWeaklySmooth(p=1.0, M=2.0), eta=1.5)
    assert exc.value.required_value == pytest.approx(1.0)


def test_weakly_smooth_h_vanishes_as_p_tends_to_one():
    # with eta * M/2 < 1 the offset collapses toward zero
    prev = None
    for p in (0.5, 0.9, 0.99):
        m = modulus_from_class(ConvexWeaklySmooth(p=p, M=1.0), eta=0.5)
        assert m.c == 1.0
        if prev is not None:
            assert m.h < prev
        prev = m.h
    assert prev < 1e-20


def test_smooth_mapping_and_gate():
    m = modulus_from_class(SmoothConvex(beta=2.0), eta=0.5)
    assert (m.c, m.h) == (1.0, 0.0)
    with pytest.raises(PreconditionError) as exc:
        modulus_from_class(SmoothConvex(beta=2.0), eta=1.5)
    assert exc.value.required_value == pytest.approx(1.0)


def test_dissipative_mapping():
    m = modulus_from_class(StronglyDissipative(lam=0.1, kappa=1.0, beta=1.0), eta=0.5)
    assert m.c == pytest.approx(0.25)
    assert m.h == pytest.approx(0.1)


def test_dissipative_zero_offset_has_no_modulus_offset():
    # lam = 0 stays sound: |Phi x - Phi y|^2 <= c delta^2 + 2 eta lam
    m = modulus_from_class(StronglyDissipative(lam=0.0, kappa=1.0, beta=1.0), eta=0.5)
    assert (m.c, m.h) == (0.25, 0.0)


def test_dissipative_contraction_gate():
    with pytest.raises(PreconditionError) as exc:
        modulus_from_class(StronglyDissipative(lam=0.1, kappa=1.0, beta=0.5), eta=2.0)
    assert exc.value.code == "contraction_factor"


@pytest.mark.parametrize(
    "fc, eta",
    [
        (ConvexWeaklySmooth(0.5, 1.0), 1e200),  # eta**2 raises OverflowError
        (ConvexLipschitz(1e300), 1e10),  # the offset squared is inf
        (StronglyDissipative(1e308, 1.0, 2.0), 1e10),  # h = 2 eta lam is inf
        (StronglyDissipative(1.0, 1.0, 1e200), 1e200),  # c is inf
        (StronglyDissipative(1.0, 1e200, 1e200), 1e200),  # c is inf - inf
    ],
)
def test_modulus_past_float_range_is_out_of_range(fc, eta):
    # the caller passed neither c nor h, so their codes would blame the wrong input
    with pytest.raises(PreconditionError) as exc:
        modulus_from_class(fc, eta)
    assert exc.value.code == "out_of_range"


@pytest.mark.parametrize(
    "eta, M, eta_m_half",
    [
        (1e-200, 1e200, 0.5),  # eta^2 underflows to 0 and (M/2)^2 overflows: the parent refused with out_of_range
        (1e200, 1e-200, 0.5),  # eta^2 overflows
        (1e-160, 2e150, 1e-10),  # eta^2 is subnormal: the parent read h 1.2e-4 low
    ],
)
def test_weakly_smooth_offset_where_a_factor_leaves_the_normal_floats(eta, M, eta_m_half):
    # p = 1/2: h = (2 (eta M / 2)^2 sqrt(1/3))^2 = 4 (eta M / 2)^4 / 3, taken as one power of eta M / 2
    m = modulus_from_class(ConvexWeaklySmooth(0.5, M), eta)
    assert m.c == 1.0
    assert m.h == pytest.approx(4.0 * eta_m_half**4 / 3.0, rel=1e-14, abs=0.0)


def test_nonpositive_stepsize_rejected():
    with pytest.raises(PreconditionError):
        modulus_from_class(ConvexLipschitz(L=1.0), eta=0.0)


def test_unknown_class_rejected():
    with pytest.raises(TypeError):
        modulus_from_class(object(), eta=0.1)


def test_class_parameter_validation():
    with pytest.raises(PreconditionError):
        ConvexLipschitz(L=0.0)
    with pytest.raises(PreconditionError):
        ConvexWeaklySmooth(p=1.2, M=1.0)
    with pytest.raises(PreconditionError):
        ConvexWeaklySmooth(p=0.5, M=0.0)
    with pytest.raises(PreconditionError):
        SmoothConvex(beta=0.0)
    with pytest.raises(PreconditionError):
        StronglyDissipative(lam=-0.1, kappa=1.0, beta=1.0)
