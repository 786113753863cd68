"""Exact algebra of planar vector fields with monomial coefficients.

Fields live on the (x, v) plane and are finite sums of terms
c * x^p * v^q * d/dx  and  c * x^p * v^q * d/dv.  Coefficients and exponents
are polynomials in a single formal exponent symbol n over exact rationals, so
the Lie bracket tables of the Emden scheme come out symbolically: for example
[x d/dx, x^n d/dv] = n x^n d/dv with n left untouched.  Every value entering
a Scalar must be an int or a Fraction; anything else is a TypeError, and
nothing here is evaluated in floating point.

The scheme checks at the bottom verify, for a pair of bases (W, V), that
span(W) is inside span(V), [W, W] stays in span(W) and [W, V] stays in
span(V), reporting every structure constant or the offending bracket.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Scalar", "n_sym", "Monomial", "MonomialVF", "bracket",
    "decompose", "Decomposition", "verify_scheme", "SchemeReport",
    "emden_v_basis", "emden_w_basis",
    "LinearDependenceError", "UnsupportedDecompositionError",
]


class LinearDependenceError(ValueError):
    pass


class UnsupportedDecompositionError(ValueError):
    pass


def _exact(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise TypeError(f"exact rational (int or Fraction) expected, got {v!r}")
    return Fraction(v)


def _signed_sum(terms: Iterable[str]) -> str:
    """Join rendered terms with ' + ', turning a leading '-' into ' - '."""
    out = ""
    for t in terms:
        if not out:
            out = t
        else:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out or "0"


def _times(c, body: str) -> str:
    """c*body, with a unit coefficient dropped and a compound one bracketed."""
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    cs = str(c)
    if "+" in cs or "-" in cs[1:]:
        cs = f"({cs})"
    return f"{cs}*{body}"


class Scalar:
    """A polynomial in the formal exponent symbol n with rational coefficients.

    Structural equality and hashing, so Scalars can key monomial patterns.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict):
        c = {}
        for deg, val in coeffs.items():
            val = _exact(val)
            if val:
                c[int(deg)] = val
        self._c = tuple(sorted(c.items()))

    @classmethod
    def const(cls, v) -> "Scalar":
        return cls({0: v})

    @classmethod
    def coerce(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        return cls.const(v)

    @property
    def is_symbolic(self) -> bool:
        return any(d > 0 for d, _ in self._c)

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, deg: int) -> Fraction:
        for d, v in self._c:
            if d == deg:
                return v
        return Fraction(0)

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
        """Division by a nonzero rational; a symbolic divisor is refused."""
        other = Scalar.coerce(other)
        if other.is_symbolic:
            raise UnsupportedDecompositionError(f"({self}) / ({other}): the divisor depends on n")
        if other.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        d = other.coeff(0)
        return Scalar({deg: v / d for deg, v in self._c})

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._c == other._c
        if isinstance(other, (int, float, Fraction)):
            return self._c == (((0, other),) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self._c)

    def sort_key(self):
        return tuple((d, float(v)) for d, v in self._c)

    def __str__(self):
        return _signed_sum(_times(v, "n" if d == 1 else f"n^{d}") if d else str(v)
                           for d, v in reversed(self._c))

    __repr__ = __str__


ZERO = Scalar({})
ONE = Scalar.const(1)


def n_sym() -> Scalar:
    """The formal exponent symbol."""
    return Scalar({1: 1})


class Monomial:
    __slots__ = ("coeff", "xexp", "vexp")

    def __init__(self, coeff: Scalar, xexp: Scalar, vexp: Scalar):
        self.coeff, self.xexp, self.vexp = coeff, xexp, vexp

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
        return _times(self.coeff, body) if body else str(self.coeff)


def _merge(terms: Iterable[Monomial]) -> tuple:
    acc: dict = {}
    for m in terms:
        key = (m.xexp, m.vexp)
        acc[key] = acc.get(key, ZERO) + m.coeff
    out = [Monomial(c, k[0], k[1]) for k, c in acc.items() if not c.is_zero()]
    out.sort(key=lambda m: (m.xexp.sort_key(), m.vexp.sort_key()))
    return tuple(out)


class MonomialVF:
    """A planar vector field with monomial components and exact coefficients."""

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

    def is_zero(self) -> bool:
        return all(m.coeff.is_zero() for m in self.x + self.v)

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

    def __eq__(self, other):
        if not isinstance(other, MonomialVF):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __str__(self):
        return _signed_sum([f"{m} d/dx" for m in self.x] + [f"{m} d/dv" for m in self.v])

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


def _solve(basis: list, target: MonomialVF) -> list:
    """Exact Gauss–Jordan candidate solve of target = sum(c_j * basis[j]).

    Rows are the (component, xexp, vexp) patterns the fields use.  Pivots come
    from the basis columns, whose entries must be rationals (a symbolic one
    raises UnsupportedDecompositionError); the target column may be a
    polynomial in n.  Dependent basis columns raise LinearDependenceError.
    Consistency of the leftover rows is not checked here: decompose
    reconstructs the field and reports the exact residual.
    """
    ncol = len(basis)
    rows: dict = {}
    for j, f in enumerate(basis + [target]):
        for comp, terms in (("x", f.x), ("v", f.v)):
            for m in terms:
                rows.setdefault((comp, m.xexp, m.vexp), [ZERO] * (ncol + 1))[j] = m.coeff
    a = []
    for row in rows.values():
        if any(c.is_symbolic for c in row[:ncol]):
            raise UnsupportedDecompositionError(
                "basis coefficients must be rationals; one depends on n")
        a.append([c.coeff(0) for c in row[:ncol]] + [row[ncol]])
    for j in range(ncol):
        p = max(range(j, len(a)), key=lambda i: abs(a[i][j]), default=None)
        if p is None or a[p][j] == 0:
            raise LinearDependenceError("supplied fields are linearly dependent")
        a[j], a[p] = a[p], a[j]
        piv = a[j][j]
        a[j] = [v / piv for v in a[j]]
        for i in range(len(a)):
            if i != j and a[i][j] != 0:
                f = a[i][j]
                a[i] = [vi - f * vj for vi, vj in zip(a[i], a[j])]
    return [a[j][ncol] for j in range(ncol)]


class Decomposition:
    __slots__ = ("coefficients", "residual")

    def __init__(self, coefficients: tuple, residual: MonomialVF):
        self.coefficients, self.residual = coefficients, residual

    @property
    def in_span(self) -> bool:
        return self.residual.is_zero()


def decompose(field: MonomialVF, basis: Sequence[MonomialVF]) -> Decomposition:
    """Write field as a combination of the basis, or report the residual.

    Coefficients are exact Scalars (possibly polynomials in n).  The residual
    is the exact difference between the field and the best representable
    combination; it vanishes exactly when the field lies in the span.
    """
    basis = list(basis)
    coeffs = _solve(basis, field)
    recon = MonomialVF()
    for c, b in zip(coeffs, basis):
        recon = recon + b.scaled(c)
    return Decomposition(tuple(coeffs), field - recon)


# ---------------------------------------------------------------------------
# scheme verification


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
            return _signed_sum(_times(c, lab) for c, lab in zip(coeffs, labels)
                               if not c.is_zero())

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
    _solve(w, MonomialVF())  # raises LinearDependenceError on rank loss
    _solve(v, MonomialVF())
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
