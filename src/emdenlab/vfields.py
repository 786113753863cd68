"""Exact algebra of planar vector fields with monomial coefficients.

Fields live on the (x, v) plane and are finite sums of terms
c * x^p * v^q * d/dx  and  c * x^p * v^q * d/dv.  Coefficients and exponents
are polynomials in a single formal exponent symbol n over exact rationals, so
the Lie bracket tables of the Emden scheme come out symbolically: for example
[x d/dx, x^n d/dv] = n x^n d/dv with n left untouched.  Floating-point values
are admitted in any slot but flag the scalar as inexact, and comparisons then
use a 1e-12 absolute tolerance on coefficients.

The scheme checks at the bottom verify, for a pair of bases (W, V), that
span(W) is inside span(V), [W, W] stays in span(W) and [W, V] stays in
span(V), reporting every structure constant or the offending bracket.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .exprlang import real_power

__all__ = [
    "Scalar", "n_sym", "Monomial", "MonomialVF", "bracket",
    "decompose", "Decomposition", "verify_scheme", "SchemeReport",
    "emden_v_basis", "emden_w_basis",
    "LinearDependenceError", "UnsupportedDecompositionError",
]

COEFF_TOL = 1e-12


class LinearDependenceError(ValueError):
    pass


class UnsupportedDecompositionError(ValueError):
    pass


def _is_frac(v) -> bool:
    return isinstance(v, (Fraction, int)) and not isinstance(v, bool)


class Scalar:
    """A polynomial in the formal exponent symbol n.

    Exact (Fraction coefficients) unless a float entered somewhere, in which
    case the whole value is flagged inexact.  Structural equality and hashing,
    so Scalars can key monomial patterns; use close_to() for the tolerance
    comparison of inexact values.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict):
        c = {}
        for deg, val in coeffs.items():
            if _is_frac(val):
                val = Fraction(val)
            else:
                val = float(val)
            if val == 0:
                continue
            c[int(deg)] = val
        self._c = tuple(sorted(c.items()))

    @classmethod
    def const(cls, v) -> "Scalar":
        return cls({0: v})

    @classmethod
    def symbol(cls) -> "Scalar":
        return cls({1: 1})

    @classmethod
    def coerce(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        return cls.const(v)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for _, v in self._c)

    @property
    def is_symbolic(self) -> bool:
        return any(d > 0 for d, _ in self._c)

    def is_zero(self, tol: float = 0.0) -> bool:
        if not self._c:
            return True
        if self.is_exact:
            return False
        return all(abs(float(v)) <= tol for _, v in self._c)

    def degree(self) -> int:
        return self._c[-1][0] if self._c else 0

    def coeff(self, deg: int):
        for d, v in self._c:
            if d == deg:
                return v
        return Fraction(0)

    def substitute(self, n_value):
        """Evaluate at a concrete n (Fraction in, Fraction out when exact)."""
        if _is_frac(n_value):
            n_value = Fraction(n_value)
        acc = Fraction(0) if (self.is_exact and _is_frac(n_value)) else 0.0
        for d, v in self._c:
            term = v * n_value ** d if d else v
            acc = acc + term
        return acc

    def __add__(self, other):
        other = Scalar.coerce(other)
        c = dict(self._c)
        for d, v in other._c:
            c[d] = c.get(d, Fraction(0)) + v
        return Scalar(c)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({d: -v for d, v in self._c})

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        other = Scalar.coerce(other)
        c = {}
        for d1, v1 in self._c:
            for d2, v2 in other._c:
                d = d1 + d2
                c[d] = c.get(d, Fraction(0)) + v1 * v2
        return Scalar(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division; raises if the quotient is not a polynomial in n."""
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        if not other.is_symbolic:
            d = other.coeff(0)
            return Scalar({deg: v / d for deg, v in self._c})
        if not (self.is_exact and other.is_exact):
            raise UnsupportedDecompositionError("inexact division by a symbolic scalar")
        # polynomial long division, remainder must vanish
        rem = dict(self._c)
        qout = {}
        dd, dl = other.degree(), other.coeff(other.degree())
        while rem:
            rd = max(rem)
            if rd < dd:
                break
            q = rem[rd] / dl
            qout[rd - dd] = q
            for d2, v2 in other._c:
                nd = rd - dd + d2
                nv = rem.get(nd, Fraction(0)) - q * v2
                if nv == 0:
                    rem.pop(nd, None)
                else:
                    rem[nd] = nv
        if rem:
            raise UnsupportedDecompositionError(
                f"{self} / {other} is not a polynomial in n")
        return Scalar(qout)

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, float, Fraction)):
            return NotImplemented
        return self._c == Scalar.coerce(other)._c

    def __hash__(self):
        return hash(self._c)

    def close_to(self, other, tol: float = COEFF_TOL) -> bool:
        diff = self - Scalar.coerce(other)
        if diff.is_exact:
            return diff.is_zero()
        return all(abs(float(v)) <= tol for _, v in diff._c)

    def sort_key(self):
        return tuple((d, float(v)) for d, v in self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for d, v in reversed(self._c):
            if d == 0:
                term = str(v)
            else:
                nn = "n" if d == 1 else f"n^{d}"
                if v == 1:
                    term = nn
                elif v == -1:
                    term = f"-{nn}"
                else:
                    term = f"{v}*{nn}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


ZERO = Scalar({})
ONE = Scalar.const(1)


def n_sym() -> Scalar:
    """The formal exponent symbol."""
    return Scalar.symbol()


class Monomial:
    __slots__ = ("coeff", "xexp", "vexp")

    def __init__(self, coeff: Scalar, xexp: Scalar, vexp: Scalar):
        self.coeff, self.xexp, self.vexp = coeff, xexp, vexp

    def pattern(self):
        return (self.xexp, self.vexp)

    def eval_at(self, x: float, v: float, n_value=None):
        if n_value is None:
            if any(s.is_symbolic for s in (self.coeff, self.xexp, self.vexp)):
                raise ValueError("symbolic monomial needs an n value to evaluate")
            n_value = 0
        c = self.coeff.substitute(n_value)
        p = self.xexp.substitute(n_value)
        q = self.vexp.substitute(n_value)
        return float(c) * real_power(x, float(p)) * real_power(v, float(q))

    def __str__(self):
        def expo(sym, e):
            if e == ZERO:
                return ""
            if e == ONE:
                return sym
            es = str(e)
            if any(ch in es for ch in " +/"):
                es = f"({es})"
            return f"{sym}^{es}"
        body = "".join(filter(None, (expo("x", self.xexp), expo("v", self.vexp))))
        c = str(self.coeff)
        if not body:
            return c
        if self.coeff == ONE:
            return body
        if self.coeff == Scalar.const(-1):
            return f"-{body}"
        c = f"({c})" if ("+" in c or (c.count("-") > (1 if c.startswith("-") else 0))) else c
        return f"{c}*{body}"


def _merge(terms: Iterable[Monomial]) -> tuple:
    acc: dict = {}
    for m in terms:
        key = (m.xexp, m.vexp)
        acc[key] = acc.get(key, ZERO) + m.coeff
    out = [Monomial(c, k[0], k[1]) for k, c in acc.items() if not c.is_zero()]
    out.sort(key=lambda m: (m.xexp.sort_key(), m.vexp.sort_key()))
    return tuple(out)


class MonomialVF:
    """A planar vector field with monomial components, exact where possible."""

    __slots__ = ("x", "v")

    def __init__(self, x: tuple = (), v: tuple = ()):
        self.x, self.v = x, v

    @classmethod
    def of(cls, xterms: Sequence = (), vterms: Sequence = ()) -> "MonomialVF":
        def build(ts):
            return _merge(Monomial(Scalar.coerce(c), Scalar.coerce(p), Scalar.coerce(q))
                          for c, p, q in ts)
        return cls(build(xterms), build(vterms))

    @classmethod
    def d_dx(cls, coeff=1, xexp=0, vexp=0) -> "MonomialVF":
        return cls.of(xterms=[(coeff, xexp, vexp)])

    @classmethod
    def d_dv(cls, coeff=1, xexp=0, vexp=0) -> "MonomialVF":
        return cls.of(vterms=[(coeff, xexp, vexp)])

    @property
    def is_exact(self) -> bool:
        return all(m.coeff.is_exact and m.xexp.is_exact and m.vexp.is_exact
                   for m in self.x + self.v)

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return all(m.coeff.is_zero(tol) for m in self.x + self.v)

    def __add__(self, other):
        return MonomialVF(_merge(self.x + other.x), _merge(self.v + other.v))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "MonomialVF":
        c = Scalar.coerce(c)
        return MonomialVF(
            _merge(Monomial(c * m.coeff, m.xexp, m.vexp) for m in self.x),
            _merge(Monomial(c * m.coeff, m.xexp, m.vexp) for m in self.v))

    def __rmul__(self, c):
        return self.scaled(c)

    def equals(self, other, tol: float = COEFF_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __eq__(self, other):
        if not isinstance(other, MonomialVF):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def eval_at(self, x: float, v: float, n_value=None):
        fx = sum(m.eval_at(x, v, n_value) for m in self.x)
        fv = sum(m.eval_at(x, v, n_value) for m in self.v)
        return float(fx), float(fv)

    def substitute(self, n_value) -> "MonomialVF":
        def sub(ts):
            return [(m.coeff.substitute(n_value), m.xexp.substitute(n_value),
                     m.vexp.substitute(n_value)) for m in ts]
        return MonomialVF.of(sub(self.x), sub(self.v))

    def __str__(self):
        parts = [f"{m} d/dx" for m in self.x] + [f"{m} d/dv" for m in self.v]
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _apply_field(field: MonomialVF, comp: tuple) -> list:
    """field acting as a derivation on the scalar Sum(comp)."""
    out = []
    for m in comp:
        # d/dx drops xexp by one and multiplies by it; same for d/dv
        dx = Monomial(m.coeff * m.xexp, m.xexp - ONE, m.vexp)
        dv = Monomial(m.coeff * m.vexp, m.xexp, m.vexp - ONE)
        for a in field.x:
            if not (a.coeff.is_zero() or dx.coeff.is_zero()):
                out.append(Monomial(a.coeff * dx.coeff, a.xexp + dx.xexp, a.vexp + dx.vexp))
        for a in field.v:
            if not (a.coeff.is_zero() or dv.coeff.is_zero()):
                out.append(Monomial(a.coeff * dv.coeff, a.xexp + dv.xexp, a.vexp + dv.vexp))
    return out


def bracket(a: MonomialVF, b: MonomialVF) -> MonomialVF:
    """Lie bracket [a, b], exact."""
    bx = _apply_field(a, b.x) + [Monomial(-m.coeff, m.xexp, m.vexp)
                                 for m in _apply_field(b, a.x)]
    bv = _apply_field(a, b.v) + [Monomial(-m.coeff, m.xexp, m.vexp)
                                 for m in _apply_field(b, a.v)]
    return MonomialVF(_merge(bx), _merge(bv))


# ---------------------------------------------------------------------------
# linear algebra over monomial patterns


def _pattern_matrix(fields: Sequence[MonomialVF]):
    """Rows indexed by (component, xexp, vexp) patterns, columns by field."""
    patterns = []
    seen = {}
    for f in fields:
        for comp, terms in (("x", f.x), ("v", f.v)):
            for m in terms:
                key = (comp, m.xexp, m.vexp)
                if key not in seen:
                    seen[key] = len(patterns)
                    patterns.append(key)
    mat = [[ZERO] * len(fields) for _ in patterns]
    for j, f in enumerate(fields):
        for comp, terms in (("x", f.x), ("v", f.v)):
            for m in terms:
                mat[seen[(comp, m.xexp, m.vexp)]][j] = m.coeff
    return patterns, seen, mat


def _matrix_is_symbolic(mat) -> bool:
    return any(c.is_symbolic for row in mat for c in row)


def _matrix_is_exact(mat) -> bool:
    return all(c.is_exact for row in mat for c in row)


def _ge_solve(mat, rhs, exact: bool):
    """Candidate solve of mat @ c = rhs for a full-column-rank matrix.

    Plain elimination over Fractions (exact) or floats with partial pivoting.
    Returns the coefficient list, or raises LinearDependenceError when the
    columns are dependent.  Consistency of the leftover rows is NOT checked
    here; callers verify by reconstructing the field and looking at the
    residual, which is the honest check in both arithmetic modes.
    """
    nrow, ncol = len(mat), len(mat[0]) if mat else 0
    if exact:
        a = [[Fraction(mat[i][j].coeff(0)) for j in range(ncol)] + [Fraction(rhs[i].coeff(0))]
             for i in range(nrow)]
        is_zero = lambda v: v == 0
    else:
        a = [[float(mat[i][j].coeff(0)) for j in range(ncol)] + [float(rhs[i].coeff(0))]
             for i in range(nrow)]
        lead = max((abs(v) for row in a for v in row), default=1.0) or 1.0
        is_zero = lambda v: abs(v) <= 1e-13 * lead
    piv_rows = []
    r = 0
    for j in range(ncol):
        p = max(range(r, nrow), key=lambda i: abs(a[i][j]), default=None)
        if p is None or is_zero(a[p][j]):
            raise LinearDependenceError("supplied fields are linearly dependent")
        a[r], a[p] = a[p], a[r]
        piv = a[r][j]
        a[r] = [v / piv for v in a[r]]
        for i in range(nrow):
            if i != r and not is_zero(a[i][j]):
                f = a[i][j]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        piv_rows.append(r)
        r += 1
    return [a[i][ncol] for i in piv_rows]


def _isolating_solve(fields, target):
    """Symbolic-case solve: each field must own a pattern no other field uses."""
    patterns, index, mat = _pattern_matrix(list(fields) + [target])
    ncol = len(fields)
    coeffs = []
    for j in range(ncol):
        iso = None
        for i, row in enumerate(mat):
            if not row[j].is_zero() and all(row[k].is_zero() for k in range(ncol) if k != j):
                iso = i
                break
        if iso is None:
            raise UnsupportedDecompositionError(
                "symbolic decomposition needs each basis field to own an "
                "isolating monomial pattern")
        coeffs.append(mat[iso][ncol] / mat[iso][j])
    return coeffs


class Decomposition:
    __slots__ = ("coefficients", "residual")

    def __init__(self, coefficients: tuple, residual: MonomialVF):
        self.coefficients, self.residual = coefficients, residual

    @property
    def in_span(self) -> bool:
        return self.residual.is_zero()


def decompose(field: MonomialVF, basis: Sequence[MonomialVF],
              tol: float = COEFF_TOL) -> Decomposition:
    """Write field as a combination of the basis, or report the residual.

    Coefficients are exact Scalars (possibly polynomials in n).  The residual
    is the exact difference between the field and the best representable
    combination; it vanishes exactly when the field lies in the span.
    """
    basis = list(basis)
    if not basis:
        return Decomposition((), field)
    patterns, index, mat = _pattern_matrix(basis + [field])
    bmat = [row[:-1] for row in mat]
    rhs = [row[-1] for row in mat]
    if _matrix_is_symbolic(bmat) or _matrix_is_symbolic([rhs]):
        coeffs = _isolating_solve(basis, field)
    else:
        coeffs = [Scalar.const(c) for c in _ge_solve(bmat, rhs, _matrix_is_exact(mat))]
    recon = MonomialVF()
    for c, b in zip(coeffs, basis):
        recon = recon + b.scaled(c)
    residual = field - recon
    if residual.is_zero(tol):
        residual = MonomialVF()
    return Decomposition(tuple(coeffs), residual)


# ---------------------------------------------------------------------------
# scheme verification


def _check_independent(fields, what):
    patterns, index, mat = _pattern_matrix(fields)
    if _matrix_is_symbolic(mat):
        # every field needs an isolating pattern; that certifies independence
        for j in range(len(fields)):
            if not any(not row[j].is_zero()
                       and all(row[k].is_zero() for k in range(len(fields)) if k != j)
                       for row in mat):
                raise UnsupportedDecompositionError(
                    f"cannot certify independence of the {what} basis symbolically")
        return
    zero = [ZERO] * len(mat)
    _ge_solve(mat, zero, _matrix_is_exact(mat))  # raises LinearDependenceError on rank loss


class SchemeReport:
    """Everything verify_scheme learned, tables plus failures."""

    __slots__ = ("ok", "w_in_v", "ww", "wv", "failures", "w_labels", "v_labels")

    def __init__(self, ok: bool, w_in_v: tuple, ww: dict, wv: dict, failures: tuple,
                 w_labels: tuple, v_labels: tuple):
        self.ok = ok
        self.w_in_v = w_in_v      # decomposition coefficients of each W field in V
        self.ww = ww              # (i, j) -> coefficient tuple in W, i < j
        self.wv = wv              # (i, j) -> coefficient tuple in V
        self.failures = failures  # (description, bracket, residual) triples
        self.w_labels, self.v_labels = w_labels, v_labels

    def render(self) -> str:
        wl, vl = self.w_labels, self.v_labels

        def combo(coeffs, labels):
            parts = []
            for c, lab in zip(coeffs, labels):
                if c.is_zero():
                    continue
                if c == ONE:
                    parts.append(f"+ {lab}")
                elif c == Scalar.const(-1):
                    parts.append(f"- {lab}")
                else:
                    cs = str(c)
                    cs = f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs
                    parts.append(f"+ {cs}*{lab}" if not cs.startswith("-")
                                 else f"- {cs[1:]}*{lab}")
            if not parts:
                return "0"
            head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
            return " ".join([head] + parts[1:])

        lines = ["scheme check"]
        lines.append("  span(W) in span(V):")
        for lab, dec in zip(wl, self.w_in_v):
            lines.append(f"    {lab} = {combo(dec.coefficients, vl)}")
        lines.append("  [W, W] in span(W):")
        for (i, j), coeffs in sorted(self.ww.items()):
            lines.append(f"    [{wl[i]}, {wl[j]}] = {combo(coeffs, wl)}")
        lines.append("  [W, V] in span(V):")
        for (i, j), coeffs in sorted(self.wv.items()):
            lines.append(f"    [{wl[i]}, {vl[j]}] = {combo(coeffs, vl)}")
        if self.failures:
            lines.append("  FAILURES:")
            for desc, br, res in self.failures:
                lines.append(f"    {desc}: bracket = {br}; residual = {res}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_scheme(w: Sequence[MonomialVF], v: Sequence[MonomialVF],
                  w_labels: Sequence[str] | None = None,
                  v_labels: Sequence[str] | None = None) -> SchemeReport:
    """Check the compatibility conditions making (W, V) a usable scheme pair.

    W and V must each be linearly independent (raises otherwise).  Failures of
    the span conditions do not raise; they land in the report.
    """
    w, v = list(w), list(v)
    _check_independent(w, "W")
    _check_independent(v, "V")
    wl = tuple(w_labels or (f"W{i+1}" for i in range(len(w))))
    vl = tuple(v_labels or (f"V{i+1}" for i in range(len(v))))
    failures = []

    w_in_v = []
    for i, f in enumerate(w):
        dec = decompose(f, v)
        w_in_v.append(dec)
        if not dec.in_span:
            failures.append((f"{wl[i]} not in span(V)", f, dec.residual))

    ww = {}
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            br = bracket(w[i], w[j])
            dec = decompose(br, w)
            ww[(i, j)] = dec.coefficients
            if not dec.in_span:
                failures.append((f"[{wl[i]}, {wl[j]}] leaves span(W)", br, dec.residual))

    wv = {}
    for i in range(len(w)):
        for j in range(len(v)):
            br = bracket(w[i], v[j])
            dec = decompose(br, v)
            wv[(i, j)] = dec.coefficients
            if not dec.in_span:
                failures.append((f"[{wl[i]}, {vl[j]}] leaves span(V)", br, dec.residual))

    return SchemeReport(not failures, tuple(w_in_v), ww, wv, tuple(failures), wl, vl)


# ---------------------------------------------------------------------------
# the Emden scheme bases and time-dependent combinations


def emden_v_basis(n=None) -> list:
    """[x d/dv, x^n d/dv, v d/dx, v d/dv, x d/dx]; n defaults to the symbol."""
    ne = n_sym() if n is None else Scalar.coerce(n)
    return [
        MonomialVF.d_dv(1, 1, 0),
        MonomialVF.d_dv(1, ne, 0),
        MonomialVF.d_dx(1, 0, 1),
        MonomialVF.d_dv(1, 0, 1),
        MonomialVF.d_dx(1, 1, 0),
    ]


def emden_w_basis() -> list:
    """[v d/dv, x d/dv, x d/dx]: the solvable part generating the gauge group."""
    return [
        MonomialVF.d_dv(1, 0, 1),
        MonomialVF.d_dv(1, 1, 0),
        MonomialVF.d_dx(1, 1, 0),
    ]
