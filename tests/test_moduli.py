import math

import pytest
from hypothesis import given, strategies as st

from pabi import (
    ConvexLipschitz,
    ConvexWeaklySmooth,
    PreconditionError,
    QuadraticModulus,
    SmoothConvex,
    StronglyDissipative,
    modulus_from_class,
)


def test_evaluate_examples():
    assert QuadraticModulus(1.0, 0.0).evaluate(3.0) == 3.0
    assert QuadraticModulus(1.0, 4.0).evaluate(1.0) == pytest.approx(math.sqrt(5.0))


def test_evaluate_at_zero_is_sqrt_h():
    assert QuadraticModulus(2.0, 9.0).evaluate(0.0) == 3.0
    assert QuadraticModulus(2.0, 0.0).evaluate(0.0) == 0.0


def test_call_is_evaluate():
    m = QuadraticModulus(1.5, 0.5)
    assert m(2.0) == m.evaluate(2.0)


def test_negative_delta_rejected():
    with pytest.raises(PreconditionError):
        QuadraticModulus(1.0, 0.0).evaluate(-1e-9)


def test_invalid_parameters_rejected():
    with pytest.raises(PreconditionError):
        QuadraticModulus(-0.1, 0.0)
    with pytest.raises(PreconditionError) as exc:
        QuadraticModulus(1.0, -0.1)
    assert exc.value.code == "offset"


def test_derivative():
    # at zero the one-sided derivative is sqrt(c)
    assert QuadraticModulus(4.0, 0.0).derivative(0.0) == 2.0
    assert QuadraticModulus(1.0, 4.0).derivative(0.0) == 0.0
    assert QuadraticModulus(1.0, 4.0).derivative(1.0) == pytest.approx(1.0 / math.sqrt(5.0))


@given(
    c=st.floats(0.01, 10.0),
    h=st.floats(0.0, 10.0),
    d1=st.floats(0.0, 100.0),
    d2=st.floats(0.0, 100.0),
)
def test_evaluate_monotone_in_delta(c, h, d1, d2):
    lo, hi = sorted((d1, d2))
    m = QuadraticModulus(c, h)
    assert m.evaluate(lo) <= m.evaluate(hi)


@given(c=st.floats(0.01, 10.0), h=st.floats(0.0, 10.0), delta=st.floats(0.0, 100.0))
def test_evaluate_monotone_in_parameters(c, h, delta):
    base = QuadraticModulus(c, h).evaluate(delta)
    assert QuadraticModulus(c + 1.0, h).evaluate(delta) >= base
    assert QuadraticModulus(c, h + 1.0).evaluate(delta) >= base


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
