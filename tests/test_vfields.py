"""Bracket tables and span checks for the scheme algebra.

Expected structure constants below were worked out by hand from the
derivation rule [a, b]^i = a(b^i) - b(a^i) and frozen here; the numeric
Jacobian cross-check at the bottom re-derives brackets a second way.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from emdenlab.exprlang import real_power
from emdenlab.vfields import (
    LinearDependenceError, MonomialVF, Scalar,
    UnsupportedDecompositionError, bracket, decompose, emden_v_basis,
    emden_w_basis, n_sym, verify_scheme,
)

N = n_sym()


def substitute(s: Scalar, n) -> Fraction:
    """The polynomial s at a concrete rational n."""
    n = Fraction(n)
    return sum((v * n ** d for d, v in s._c), Fraction(0))


def field_at(f: MonomialVF, x: float, v: float, n) -> tuple:
    """The components of f at (x, v) and a concrete n, in floats: the
    oracle of the numeric-Jacobian cross-check."""
    def term(m):
        c, p, q = (substitute(s, n) for s in (m.coeff, m.xexp, m.vexp))
        return float(c) * real_power(x, float(p)) * real_power(v, float(q))
    return float(sum(map(term, f.x))), float(sum(map(term, f.v)))

# the five drift directions: x d/dv, x^n d/dv, v d/dx, v d/dv, x d/dx
x_dv = MonomialVF.d_dv(1, 1, 0)
xn_dv = MonomialVF.d_dv(1, N, 0)
v_dx = MonomialVF.d_dx(1, 0, 1)
v_dv = MonomialVF.d_dv(1, 0, 1)
x_dx = MonomialVF.d_dx(1, 1, 0)

ZERO5 = (0, 0, 0, 0, 0)

# [w_i, v_j] resolved back onto the five-field basis
WV_TABLE = {
    (0, 0): (-1, 0, 0, 0, 0),
    (0, 1): (0, -1, 0, 0, 0),
    (0, 2): (0, 0, 1, 0, 0),
    (0, 3): ZERO5,
    (0, 4): ZERO5,
    (1, 0): ZERO5,
    (1, 1): ZERO5,
    (1, 2): (0, 0, 0, -1, 1),
    (1, 3): (1, 0, 0, 0, 0),
    (1, 4): (-1, 0, 0, 0, 0),
    (2, 0): (1, 0, 0, 0, 0),
    (2, 1): (0, N, 0, 0, 0),
    (2, 2): (0, 0, -1, 0, 0),
    (2, 3): ZERO5,
    (2, 4): ZERO5,
}

# [w_i, w_j] for i < j, resolved onto the three-field gauge basis
WW_TABLE = {
    (0, 1): (0, -1, 0),
    (0, 2): (0, 0, 0),
    (1, 2): (0, -1, 0),
}


class TestScalar:
    def test_polynomial_arithmetic(self):
        p = (N + 1) * (N - 1)
        assert p == N * N - 1
        assert substitute(p, 3) == Fraction(8)
        assert substitute(p, Fraction(3, 2)) == Fraction(5, 4)

    def test_exact_division(self):
        assert (2 * N + 4) / 2 == N + 2
        with pytest.raises(UnsupportedDecompositionError):
            (N * N - 1) / (N - 1)
        with pytest.raises(ZeroDivisionError):
            N / 0

    def test_division_without_polynomial_quotient_raises(self):
        with pytest.raises(UnsupportedDecompositionError):
            N / (N + 1)

    def test_inexact_values_are_refused(self):
        for make in (lambda: Scalar.const(0.5), lambda: Scalar.const(True),
                     lambda: MonomialVF.d_dv(0.5), lambda: MonomialVF.d_dx(1, 1.5, 0),
                     lambda: emden_v_basis(2.5)):
            with pytest.raises(TypeError):
                make()

    def test_comparison_with_a_float_is_a_bool(self):
        assert (Scalar.const(1) == 1.0) is True
        assert (Scalar.const(1) == 0.5) is False
        assert (N == 1.0) is False
        assert (Scalar({}) == 0.0) is True

    def test_rendering(self):
        assert str(N) == "n"
        assert str(2 * N - 1) == "2*n - 1"
        assert str(Scalar({})) == "0"


class TestBracketTables:
    def test_gauge_part_closes_on_itself(self):
        w = emden_w_basis()
        for (i, j), expect in WW_TABLE.items():
            got = bracket(w[i], w[j])
            dec = decompose(got, w)
            assert dec.in_span, f"[w{i}, w{j}] left the gauge span"
            assert dec.coefficients == tuple(Scalar.coerce(c) for c in expect)

    def test_gauge_action_on_drift_directions_symbolic(self):
        w, v = emden_w_basis(), emden_v_basis()
        for (i, j), expect in WV_TABLE.items():
            dec = decompose(bracket(w[i], v[j]), v)
            assert dec.in_span, f"[w{i}, v{j}] left the drift span"
            assert dec.coefficients == tuple(Scalar.coerce(c) for c in expect)

    @pytest.mark.parametrize("n", [-3, -1, 2, 5])
    def test_gauge_action_on_drift_directions_concrete(self, n):
        w, v = emden_w_basis(), emden_v_basis(n)
        for (i, j), expect in WV_TABLE.items():
            dec = decompose(bracket(w[i], v[j]), v)
            assert dec.in_span
            want = tuple(substitute(Scalar.coerce(c), n) for c in expect)
            got = tuple(substitute(c, n) for c in dec.coefficients)
            assert got == want

    def test_drift_directions_do_not_close(self):
        # the velocity shear against the nonlinear drive escapes the span
        br = bracket(v_dx, xn_dv)
        expect = MonomialVF.of(
            xterms=[(-1, N, 0)], vterms=[(N, N - 1, 1)])
        assert br == expect
        dec = decompose(br, emden_v_basis())
        assert not dec.in_span


class TestDecompose:
    def test_reads_off_exact_coefficients(self):
        v = emden_v_basis()
        f = v[0].scaled(3) + v[1].scaled(N) + v[2].scaled(Fraction(-1, 2))
        dec = decompose(f, v)
        assert dec.in_span
        assert dec.coefficients == (Scalar.const(3), N, Scalar.const(Fraction(-1, 2)),
                                    Scalar.const(0), Scalar.const(0))

    def test_residual_is_the_unreachable_part(self):
        f = MonomialVF.d_dx(1, 2, 0)
        dec = decompose(f, emden_v_basis(5))
        assert not dec.in_span
        assert dec.residual == f
        assert all(c.is_zero() for c in dec.coefficients)

    def test_dependent_basis_raises(self):
        with pytest.raises(LinearDependenceError):
            decompose(x_dx, [x_dv, x_dv.scaled(2)])

    def test_symbolic_exponents_alone_still_solve(self):
        # the exponent symbol only keys patterns; plain elimination applies
        dec = decompose(xn_dv, [x_dv, x_dv + xn_dv])
        assert dec.in_span
        assert dec.coefficients == (Scalar.const(-1), Scalar.const(1))

    def test_symbolic_coefficients_without_isolating_patterns_raise(self):
        with pytest.raises(UnsupportedDecompositionError):
            decompose(xn_dv, [x_dv, x_dv.scaled(N) + xn_dv])

    def test_symbolic_basis_coefficient_raises(self):
        # pivots come from the basis, so each basis coefficient must be a rational
        with pytest.raises(UnsupportedDecompositionError):
            decompose(x_dv, [x_dv.scaled(N)])
        with pytest.raises(UnsupportedDecompositionError):
            verify_scheme([v_dv.scaled(N)], emden_v_basis())

    def test_zero_basis_field_is_dependent(self):
        with pytest.raises(LinearDependenceError):
            decompose(MonomialVF(), [MonomialVF()])
        with pytest.raises(LinearDependenceError):
            verify_scheme([MonomialVF()], emden_v_basis())

    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=5, max_size=5))
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_recovers_any_span_member_exactly(self, coeffs):
        v = emden_v_basis(5)
        f = MonomialVF()
        for c, b in zip(coeffs, v):
            f = f + b.scaled(c)
        dec = decompose(f, v)
        assert dec.in_span
        assert dec.coefficients == tuple(Scalar.coerce(c) for c in coeffs)


# random exact fields for the algebraic-law checks
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_exps = st.integers(min_value=0, max_value=3)


@st.composite
def _fields(draw):
    terms_x, terms_v = [], []
    for bucket in (terms_x, terms_v):
        for _ in range(draw(st.integers(0, 2))):
            p = Scalar.coerce(draw(_exps))
            if draw(st.booleans()):
                p = p + N
            bucket.append((draw(_coeffs), p, draw(_exps)))
    return MonomialVF.of(terms_x, terms_v)


class TestBracketLaws:
    @given(_fields(), _fields())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_antisymmetry(self, a, b):
        assert bracket(a, b) == -bracket(b, a)

    @given(_fields(), _fields(), _fields(), _coeffs)
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_bilinearity(self, a, b, d, c):
        lhs = bracket(a + b.scaled(c), d)
        rhs = bracket(a, d) + bracket(b, d).scaled(c)
        assert lhs == rhs

    @given(_fields(), _fields(), _fields())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_jacobi_identity(self, a, b, c):
        total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total.is_zero()

    def test_jacobi_on_the_scheme_basis_symbolic(self):
        pool = emden_w_basis() + emden_v_basis()
        for a in pool:
            for b in pool:
                for c in pool:
                    total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                             + bracket(c, bracket(a, b)))
                    assert total.is_zero()


def _numeric_bracket(a, b, x, v, n, h=1e-6):
    """[a, b] via finite-difference Jacobians: Jb @ a - Ja @ b."""
    def jac(f):
        fx_p = field_at(f, x + h, v, n)
        fx_m = field_at(f, x - h, v, n)
        fv_p = field_at(f, x, v + h, n)
        fv_m = field_at(f, x, v - h, n)
        return [[(fx_p[i] - fx_m[i]) / (2 * h) for i in range(2)],
                [(fv_p[i] - fv_m[i]) / (2 * h) for i in range(2)]]

    av, bv = field_at(a, x, v, n), field_at(b, x, v, n)
    ja, jb = jac(a), jac(b)
    return tuple(jb[0][i] * av[0] + jb[1][i] * av[1]
                 - ja[0][i] * bv[0] - ja[1][i] * bv[1] for i in range(2))


class TestBracketAgainstNumericJacobians:
    @pytest.mark.parametrize("n", [-3, 2, 5])
    def test_scheme_pairs(self, n):
        rng = random.Random(4237)
        pool = emden_w_basis() + emden_v_basis()
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            x, v = rng.uniform(0.6, 1.8), rng.uniform(0.6, 1.8)
            exact = field_at(bracket(a, b), x, v, n)
            approx = _numeric_bracket(a, b, x, v, n)
            for e, g in zip(exact, approx):
                assert abs(e - g) <= 1e-6 * (1 + abs(e))


class TestSchemeVerification:
    def test_emden_pair_passes_symbolically(self):
        rep = verify_scheme(emden_w_basis(), emden_v_basis())
        assert rep.ok
        assert not rep.failures
        # the gauge fields sit inside the drift span at fixed slots
        slots = [tuple(d.coefficients) for d in rep.w_in_v]
        assert slots[0] == tuple(Scalar.coerce(c) for c in (0, 0, 0, 1, 0))
        assert slots[1] == tuple(Scalar.coerce(c) for c in (1, 0, 0, 0, 0))
        assert slots[2] == tuple(Scalar.coerce(c) for c in (0, 0, 0, 0, 1))
        assert rep.wv[(2, 1)] == (Scalar.const(0), N, Scalar.const(0),
                                  Scalar.const(0), Scalar.const(0))
        text = rep.render()
        assert "verdict: PASS" in text
        assert "n*" in text

    @pytest.mark.parametrize("n", [-3, -1, 2, 5])
    def test_emden_pair_passes_at_concrete_exponents(self, n):
        rep = verify_scheme(emden_w_basis(), emden_v_basis(n))
        assert rep.ok
        got = rep.wv[(2, 1)][1]
        assert got == Scalar.const(n)

    def test_shear_field_alone_is_not_a_gauge_part(self):
        rep = verify_scheme([v_dx], emden_v_basis())
        assert not rep.ok
        assert any("leaves" in desc for desc, _, _ in rep.failures)
        assert "verdict: FAIL" in rep.render()

    def test_duplicated_generator_raises(self):
        with pytest.raises(LinearDependenceError):
            verify_scheme([v_dv, v_dv.scaled(Fraction(1, 3))], emden_v_basis())

    def test_linear_exponent_degenerates_the_basis(self):
        with pytest.raises(LinearDependenceError):
            verify_scheme(emden_w_basis(), emden_v_basis(1))
