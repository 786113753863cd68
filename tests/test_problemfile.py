"""Problem-file parsing: validation, defaults, build products, round-trip."""

import math

import pytest

from emdenlab.gauge import EmdenProblem, GeneralizedProblem
from emdenlab.problemfile import (
    SpecError,
    compile_expression,
    load_spec,
    parse_spec,
    render_spec,
)

DRAG_N5 = """\
# the classic drag problem
kind = emden
n = 5
a = -2/t          # drag coefficient
b = -1
singular_points = 0
interval = 0.5, 5
x0 = 1.3
v0 = -0.2
"""


class TestCompileExpression:
    def test_evaluates_in_t(self):
        fn = compile_expression("(2*t)^(-1/2)")
        assert fn(2.0) == pytest.approx(0.5, rel=1e-15)
        assert fn.expression_text == "(2*t)^(-1/2)"

    def test_rejects_unbound_names(self):
        with pytest.raises(SpecError, match=r"unbound identifier\(s\) \['x'\]"):
            compile_expression("x + t")

    def test_rejects_garbage(self):
        with pytest.raises(SpecError, match="does not parse"):
            compile_expression("2 +* t", what="coefficient a")

    def test_label_appears_in_message(self):
        with pytest.raises(SpecError, match="coefficient a"):
            compile_expression("(", what="coefficient a")


class TestParseSpec:
    def test_full_emden_file(self):
        spec = parse_spec(DRAG_N5)
        assert spec.kind == "emden"
        assert spec.n == 5.0
        assert spec.interval == (0.5, 5.0)
        assert spec.initial == (1.3, -0.2)
        assert spec.singular_points == (0.0,)
        assert spec.rel_tol == 1e-10 and spec.abs_tol == 1e-12
        assert spec.coefficient("a")(2.0) == pytest.approx(-1.0)
        assert spec.coefficient("b")(7.0) == -1.0

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_spec("\n# header\n\n" + DRAG_N5 + "\n  # trailer\n")
        assert spec.n == 5.0

    def test_config_carries_tolerances(self):
        text = DRAG_N5 + "rel_tol = 1e-8\nabs_tol = 1e-10\n"
        cfg = parse_spec(text).config()
        assert cfg.rel_tol == 1e-8
        assert cfg.abs_tol == 1e-10

    def test_build_emden_problem(self):
        prob = parse_spec(DRAG_N5).build()
        assert isinstance(prob, EmdenProblem)
        assert prob.n == 5.0
        dx, dv = prob.rhs(1.0, (1.0, 0.0))
        assert dx == 0.0
        assert dv == pytest.approx(-1.0)  # -a*0 + b*x^5 = -1

    def test_generalized_without_q(self):
        text = (
            "kind = generalized\nn = 3\np = 2/t\nr = 1\n"
            "interval = 1, 2\nx0 = 0.5\nv0 = 0\n"
        )
        spec = parse_spec(text)
        prob = spec.build()
        assert isinstance(prob, GeneralizedProblem)
        assert prob.q is None
        # without a restoring term the two-slot form is available:
        # x'' + p x' = r x^n becomes a = -p, b = r
        emd = spec.build_emden()
        assert isinstance(emd, EmdenProblem)
        assert emd.a(2.0) == pytest.approx(-1.0)
        assert emd.b(2.0) == pytest.approx(1.0)

    def test_generalized_with_q_refuses_emden_form(self):
        text = (
            "kind = generalized\nn = 3\np = 0\nq = 1\nr = 1\n"
            "interval = 1, 2\nx0 = 0.5\nv0 = 0\n"
        )
        spec = parse_spec(text)
        assert isinstance(spec.build(), GeneralizedProblem)
        with pytest.raises(SpecError, match="restoring"):
            spec.build_emden()

    def test_bracketed_interval_accepted(self):
        spec = parse_spec(DRAG_N5.replace("interval = 0.5, 5", "interval = [0.5, 5]"))
        assert spec.interval == (0.5, 5.0)

    def test_missing_singular_points_means_none(self):
        text = DRAG_N5.replace("singular_points = 0\n", "")
        assert parse_spec(text).singular_points == ()


class TestParseSpecRejections:
    def test_non_assignment_line(self):
        with pytest.raises(SpecError, match="line 2: expected key = value"):
            parse_spec("kind = emden\nwhatever\n")

    def test_missing_value(self):
        with pytest.raises(SpecError, match="line 1: no value for 'a'"):
            parse_spec("a =\n")

    def test_duplicate_key(self):
        with pytest.raises(SpecError, match="line 3: duplicate key 'n'"):
            parse_spec("kind = emden\nn = 5\nn = 3\n")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind must be one of"):
            parse_spec(DRAG_N5.replace("kind = emden", "kind = riccati"))

    def test_missing_kind(self):
        with pytest.raises(SpecError, match="kind must be one of"):
            parse_spec("n = 5\na = 0\nb = 1\ninterval = 0, 1\nx0 = 1\nv0 = 0\n")

    def test_unknown_key_for_kind(self):
        # p belongs to generalized files, not emden ones
        with pytest.raises(SpecError, match=r"unknown key\(s\) \['p'\]"):
            parse_spec(DRAG_N5 + "p = 1/t\n")

    def test_missing_coefficients_listed(self):
        with pytest.raises(SpecError, match=r"needs coefficient\(s\) \['p', 'r'\]"):
            parse_spec("kind = generalized\nn = 3\ninterval = 1, 2\nx0 = 1\nv0 = 0\n")

    def test_missing_required_key(self):
        with pytest.raises(SpecError, match="missing required key 'x0'"):
            parse_spec(DRAG_N5.replace("x0 = 1.3\n", ""))

    def test_bad_number(self):
        with pytest.raises(SpecError, match="n = 'five' is not a number"):
            parse_spec(DRAG_N5.replace("n = 5", "n = five"))

    def test_bad_coefficient_expression(self):
        with pytest.raises(SpecError, match="coefficient a"):
            parse_spec(DRAG_N5.replace("a = -2/t", "a = -2//"))

    def test_interval_needs_two_endpoints(self):
        with pytest.raises(SpecError, match="exactly two endpoints"):
            parse_spec(DRAG_N5.replace("interval = 0.5, 5", "interval = 0.5, 5, 7"))

    def test_interval_must_run_forward(self):
        with pytest.raises(SpecError, match="must run forward"):
            parse_spec(DRAG_N5.replace("interval = 0.5, 5", "interval = 5, 0.5"))

    def test_singular_point_inside_interval(self):
        with pytest.raises(SpecError, match="must exclude the declared singular point"):
            parse_spec(DRAG_N5.replace("singular_points = 0", "singular_points = 2"))

    def test_singular_point_at_endpoint(self):
        with pytest.raises(SpecError, match="singular point t = 0.5"):
            parse_spec(DRAG_N5.replace("singular_points = 0", "singular_points = 0.5"))

    @pytest.mark.parametrize("old, new, key", [
        ("x0 = 1.3", "x0 = inf", "x0"),
        ("n = 5", "n = nan", "n"),
        ("interval = 0.5, 5", "interval = 0.5, inf", "interval"),
        ("v0 = -0.2", "v0 = -0.2\nrel_tol = nan", "rel_tol"),
    ])
    def test_non_finite_numbers_name_their_key(self, old, new, key):
        with pytest.raises(SpecError, match=f"^{key} = .* is not finite"):
            parse_spec(DRAG_N5.replace(old, new))

    @pytest.mark.parametrize("extra, key", [
        ("rel_tol = -1", "rel_tol"), ("rel_tol = 0", "rel_tol"),
        ("abs_tol = 0", "abs_tol"), ("abs_tol = -1e-12", "abs_tol"),
    ])
    def test_tolerances_must_be_positive(self, extra, key):
        with pytest.raises(SpecError, match=f"^{key} = .* must be positive"):
            parse_spec(DRAG_N5 + extra + "\n")


class TestLoadSpec:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "drag.spec"
        path.write_text(DRAG_N5)
        assert load_spec(path).n == 5.0

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read problem file"):
            load_spec("/nonexistent/never.spec")

    def test_parse_errors_name_the_file(self, tmp_path):
        path = tmp_path / "broken.spec"
        path.write_text("kind = emden\n")
        with pytest.raises(SpecError, match="broken.spec"):
            load_spec(path)


class TestRenderSpec:
    def test_round_trip(self):
        spec = parse_spec(DRAG_N5)
        again = parse_spec(render_spec(spec))
        assert again.kind == spec.kind
        assert again.n == spec.n
        assert again.interval == spec.interval
        assert again.initial == spec.initial
        assert again.singular_points == spec.singular_points
        assert again.expressions == spec.expressions

    def test_deterministic(self):
        spec = parse_spec(DRAG_N5)
        assert render_spec(spec) == render_spec(spec)

    def test_full_precision(self):
        third = 1.0 / 3.0
        text = DRAG_N5.replace("x0 = 1.3", "x0 = %.17g" % third)
        rendered = render_spec(parse_spec(text))
        assert parse_spec(rendered).initial[0] == third
