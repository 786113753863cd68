from fractions import Fraction

import pytest

from emdenlab.exprlang import compile_fn, parse
from emdenlab.timefn import (
    ZERO_FN, ExactnessError, PowerFn, constant, frac_power,
)


def test_constant_ignores_t():
    f = constant(3)
    assert f(0.0) == 3.0
    assert f(-17.5) == 3.0
    assert f.deriv() is ZERO_FN and ZERO_FN.deriv() is ZERO_FN


class TestFracPower:
    def test_exact_values(self):
        assert frac_power(Fraction(8), Fraction(2, 3)) == Fraction(4)
        assert frac_power(Fraction(1, 4), Fraction(-1, 2)) == Fraction(2)
        assert frac_power(Fraction(-27, 8), Fraction(1, 3)) == Fraction(-3, 2)
        assert frac_power(Fraction(0), Fraction(5)) == 0

    def test_negative_base_even_numerator(self):
        # the sign must follow the numerator's parity, not flip blindly
        assert frac_power(Fraction(-1), Fraction(-2)) == Fraction(1)
        assert frac_power(Fraction(-27, 8), Fraction(2, 3)) == Fraction(9, 4)
        assert frac_power(Fraction(-2), Fraction(3)) == Fraction(-8)

    def test_large_integer_roots_are_exact(self):
        # roots taken on integers, not guessed from a float: past 2**53 and
        # past the float range alike
        assert frac_power(Fraction(3**40), Fraction(6)) == 3**240
        assert frac_power(Fraction(10**400), Fraction(1, 2)) == 10**200
        with pytest.raises(ExactnessError, match="irrational"):
            frac_power(Fraction(10**401), Fraction(1, 2))

    def test_irrational_raises(self):
        with pytest.raises(ExactnessError):
            frac_power(Fraction(2), Fraction(1, 2))

    def test_even_root_of_negative_raises(self):
        with pytest.raises(ExactnessError):
            frac_power(Fraction(-4), Fraction(1, 2))

    def test_zero_to_negative_raises(self):
        with pytest.raises(ExactnessError):
            frac_power(Fraction(0), Fraction(-1))


class TestPowerFn:
    def test_call_and_exactness(self):
        f = PowerFn(2, 1, 3, Fraction(-1, 2))   # 2*(1+3t)^(-1/2)
        assert all(type(v) is Fraction for v in (f.c, f.k, f.m, f.e))
        assert f(1.0) == pytest.approx(1.0, abs=0)
        g = PowerFn(2.0, 1, 3, Fraction(-1, 2))
        assert type(g.c) is float and g.k == 1 and type(g.k) is Fraction

    def test_deriv_is_exact_and_agrees_with_the_compiled_source(self):
        f = PowerFn(2, 1, 3, Fraction(-1, 2))
        df = f.deriv()
        assert (df.c, df.e) == (Fraction(-3), Fraction(-3, 2))
        assert df(1.0) == pytest.approx(-3 / 8, abs=0)
        for p in (f, PowerFn(Fraction(1, 2), 1, Fraction(1, 2), Fraction(-1, 2)),
                  PowerFn(4, 1, 1, -2), PowerFn(-2, 0, 1, -1), PowerFn(3, 2, 1, 1)):
            text = compile_fn(parse(p.to_source()))
            for dp, dt in ((p.deriv(), text.deriv()), (p.deriv().deriv(), text.deriv().deriv())):
                for t in (0.5, 1.0, 2.0, 4.5):
                    assert dt(t) == pytest.approx(dp(t), rel=1e-14, abs=1e-300)

    def test_float_cache_leaves_repr_source_equality_and_hash_alone(self):
        f = PowerFn(2, 1, 3, Fraction(-1, 2))
        assert repr(f) == (
            "PowerFn(c=Fraction(2, 1), k=Fraction(1, 1), m=Fraction(3, 1), "
            "e=Fraction(-1, 2))")
        assert f.to_source() == "(2)*(1 + (3)*t)^(-1/2)"
        twin = PowerFn(Fraction(2), 1.0, 3, Fraction(-1, 2))
        assert twin == f and hash(twin) == hash(f)
        assert f(1.0) == 2.0 * (1.0 + 3.0 * 1.0) ** -0.5

    def test_to_source_round_trips_through_the_expression_language(self):
        for f in (PowerFn(2, 1, 3, Fraction(-1, 2)),
                  PowerFn(Fraction(-3, 4), 0, 1, 5),
                  PowerFn(1.5, 2, -0.25, Fraction(2, 3)),
                  PowerFn(7, 2, 0, 0)):
            fn = compile_fn(f.to_source())
            for t in (0.1, 1.0, 3.7):
                try:
                    want = f(t)
                except Exception:
                    continue
                assert fn(t) == pytest.approx(want, rel=1e-15, abs=0)
