import math

import pytest
from hypothesis import given, strategies as st

from kabc.params import (
    Params,
    coefficients,
    h1_conserved,
    periodic_peakon_admissible,
    preset,
)

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_validate_forq_quadruple():
    p = Params(2, 1.0 / 3.0, 2.0, 1.0)
    assert (p.k, p.a, p.b, p.c) == (2, 1.0 / 3.0, 2.0, 1.0)


def test_validate_rejects_a_nonzero_k1():
    with pytest.raises(ValueError):
        Params(1, 0.5, 2.0, 1.0)


def test_validate_admits_ch_quadruple():
    p = Params(1, 0.0, 2.0, 0.5)
    assert p == preset("ch")


@pytest.mark.parametrize("k", [0, -1, -7])
def test_validate_rejects_nonpositive_k(k):
    with pytest.raises(ValueError):
        Params(k, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        Params(2, bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        Params(2, 0.0, bad, 1.0)
    with pytest.raises(ValueError):
        Params(2, 0.0, 1.0, bad)


def test_validate_rejects_fractional_k():
    with pytest.raises((TypeError, ValueError)):
        Params(1.5, 0.0, 2.0, 0.5)


def test_fixed_presets():
    assert preset("ch") == Params(1, 0.0, 2.0, 0.5)
    assert preset("dp") == Params(1, 0.0, 3.0, 0.0)
    assert preset("novikov") == Params(2, 0.0, 3.0, 1.5)
    assert preset("forq") == Params(2, 1.0 / 3.0, 2.0, 1.0)


def test_parameterized_presets():
    assert preset("gkbch", k=3, b=4.0) == Params(3, 0.0, 4.0, 2.5)
    assert preset("ab", a=0.25, b=1.0) == Params(2, 0.25, 1.0, 1.75)


def test_preset_reductions_coincide():
    assert preset("gkbch", k=1, b=2.0) == preset("ch")
    assert preset("gkbch", k=1, b=3.0) == preset("dp")
    assert preset("ab", a=1.0 / 3.0, b=2.0) == preset("forq")
    assert preset("gkbch", k=2, b=3.0) == preset("novikov")


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("kdv")


def test_preset_missing_free_parameter():
    with pytest.raises(TypeError):
        preset("gkbch", k=2)


@pytest.mark.parametrize("k, error", [("2", TypeError), (2.5, ValueError), (True, TypeError)])
def test_gkbch_rejects_bad_k_by_name(k, error):
    # k is checked before (3k - b)/2 is formed, so a string k is named, not
    # multiplied
    with pytest.raises(error, match=r"^k must be an integer"):
        preset("gkbch", k=k, b=1.0)


def test_coefficients_forq():
    cs = coefficients(preset("forq"))
    # 8 - 8/3 - 2 - 3 = 1/3
    assert abs(cs.c_f2_1 - 1.0 / 3.0) < 1e-15
    assert cs.c_cub == 1.0 / 3.0
    assert cs.c_f1_1 == 2.0 / 3.0
    assert cs.c_f1_2 == 1.0


def test_coefficients_gkbch_closed_form():
    # c_f2_1 reduces to (k-1)(b-k)/2 on the a = 0, c = (3k-b)/2 family
    for k in (1, 2, 3, 4):
        for b in (0.0, 1.0, 2.5, 3.0):
            cs = coefficients(preset("gkbch", k=k, b=b))
            assert abs(cs.c_f2_1 - (k - 1) * (b - k) / 2.0) < 1e-12


@given(a=finite_reals, b=finite_reals, c=finite_reals)
def test_k2_prunes_negative_powers(a, b, c):
    cs = coefficients(Params(2, a, b, c))
    assert cs.c_f1_3 == 0.0
    assert cs.c_f2_2 == 0.0


@given(a=finite_reals, b=finite_reals, c=finite_reals, k=st.integers(min_value=2, max_value=6))
def test_coefficients_pure(a, b, c, k):
    p1 = Params(k, a, b, c)
    p2 = Params(k, a, b, c)
    assert coefficients(p1) == coefficients(p2)


def test_h1_conserved_examples():
    assert h1_conserved(preset("novikov"))          # 9*0 + 3 + 6 = 9
    assert h1_conserved(preset("forq"))             # 3 + 2 + 4 = 9
    assert h1_conserved(preset("gkbch", k=3, b=4.0))  # c = 5/2
    assert not h1_conserved(Params(2, 0.0, 1.0, 1.0))
    assert not h1_conserved(Params(3, 0.5, 1.0, 1.0))  # k >= 3 needs a = 0


def test_h1_conserved_k1_extrapolation():
    # the k >= 3 identity evaluated at k = 1 reads 2b + 6c = 7
    assert h1_conserved(preset("ch"))
    assert not h1_conserved(preset("dp"))


def test_periodic_peakon_admissible():
    assert periodic_peakon_admissible(preset("ch"))    # 0 + 2 + 1 = 3
    assert periodic_peakon_admissible(preset("forq"))  # 2 + 2 + 2 = 6
    assert not periodic_peakon_admissible(Params(2, 0.0, 0.0, 0.0))


@given(b=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_gkbch_always_circle_admissible(b):
    for k in (1, 2, 3):
        assert periodic_peakon_admissible(preset("gkbch", k=k, b=b))



@given(b=finite_reals)
def test_k1_admits_only_b_plus_2c_equal_3(b):
    # off that line u^{k-2} u_x^3 gets a nonzero coefficient and needs 1/u
    with pytest.raises(ValueError, match=r"u\^\{k-2\} u_x\^3"):
        Params(1, 0.0, b, (3.0 - b) / 2.0 + 1.0)
