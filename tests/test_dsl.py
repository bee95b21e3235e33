"""Script language, interpreter, SVG rendering and the CLI."""

import glob
import os
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from geokernel import arithmetic, field
from geokernel.cli import main as cli_main
from geokernel.constructions import equilateral, perpendicular, reflect
from geokernel.dsl import (
    MAX_NESTING, MAX_TERM_DEPTH, AssertStmt, Call, Env, LetStmt, PointDecl,
    RenderStmt, Script, ScriptSyntaxError, _pp_stmt, parse_element,
    parse_script, run_script,
)
from geokernel.field import render_element
from geokernel.geometry import NONARCHIMEDEAN, Point, pt
from geokernel.svg import UnrenderableMode, render_svg

FIGURES = os.path.join(os.path.dirname(__file__), "..", "figures")
# N*N has 6000 digits, past the 4300 that int's str() accepts
N = "9" * 3000
_NUM_RE = re.compile(r"-?\d+\.?\d*(?:[eE][-+]?\d+)?")
# hostile term shapes of size n, each with the limit that refuses it past n
# = limit and the words of its syntax error; at the limit each evaluates
# to 1 or to the number of its terms
DEEP = {
    "sum": (lambda n: "(" + "+".join(["1"] * n) + ")", MAX_TERM_DEPTH,
            "levels deep"),
    "minus": (lambda n: "-" * n + "1", MAX_NESTING, "nested"),
    "parens": (lambda n: "(" * n + "1" + ")" * n, MAX_NESTING, "nested"),
    "sqrt": (lambda n: "sqrt(" * n + "1" + ")" * n, MAX_NESTING, "nested"),
}


def pretty_print(script: Script) -> str:
    return "\n".join(_pp_stmt(s) for s in script.statements) + "\n"


def structural_signature(svg_text: str):
    """Multiset of elements with numbers rounded: the comparison key for
    'matches the stored reference up to decimal formatting'."""
    elems = []
    for m in re.finditer(r"<(\w+)([^>]*)/?>", svg_text):
        tag, attrs = m.group(1), m.group(2)
        attrs = _NUM_RE.sub(lambda n: f"{float(n.group()):.6g}", attrs)
        elems.append((tag, attrs.strip()))
    return tuple(sorted(elems))


class TestParser:
    def test_four_statement_script(self):
        s = parse_script("point a 0 0; point b 1 0; "
                         "let c = equilateral(a,b); assert distinct(a,c);")
        kinds = [type(st) for st in s.statements]
        assert kinds == [PointDecl, PointDecl, LetStmt, AssertStmt]

    def test_missing_expression_position(self):
        with pytest.raises(ScriptSyntaxError) as ei:
            parse_script("let x = ")
        assert ei.value.line == 1 and ei.value.column == 9

    def test_exponent_cap_rejected_while_parsing(self):
        with pytest.raises(ScriptSyntaxError) as ei:
            parse_script("point a 0 0;\npoint b 3^257 0;")
        assert (ei.value.line, ei.value.column) == (2, 11)

    def test_error_line_tracking(self):
        with pytest.raises(ScriptSyntaxError) as ei:
            parse_script("point a 0 0;\npoint b 1 oops;")
        assert ei.value.line == 2

    def test_tower_coordinates(self):
        from geokernel.field import Q, sqrt_nonneg
        s = parse_script("point p 1/2 sqrt(3)/2;")
        env = run_script(s)
        assert env.bindings["p"].x == Q(1, 2)
        assert env.bindings["p"].y * 2 == sqrt_nonneg(Q(3))

    def test_negative_coordinate(self):
        s = parse_script("point q 0 -1;")
        assert run_script(s).bindings["q"] == pt(0, -1)

    def test_binary_minus_left_associative(self):
        s = parse_script("point p (3-5) (1-1/2-1/4);")
        assert run_script(s).bindings["p"] == pt(-2, Fraction(1, 4))

    def test_comments_and_strings(self):
        s = parse_script('# a comment\nrender "hi";')
        assert isinstance(s.statements[0], RenderStmt)
        assert s.statements[0].label == "hi"

    @pytest.mark.parametrize("shape", list(DEEP))
    def test_over_deep_element(self, shape):
        make, limit, reason = DEEP[shape]
        assert parse_element(make(limit)) in (1, limit)
        with pytest.raises(ScriptSyntaxError, match=reason):
            parse_element(make(limit + 1))

    def test_statement_errors_keep_their_positions(self):
        for text, where in (("sqrt 1;", (1, 1)), ("point a 0 0", (1, 12)),
                            ('render "x"\nlet', (2, 1)),
                            ("let c = f(a) ", (1, 14))):
            with pytest.raises(ScriptSyntaxError) as ei:
                parse_script(text)
            assert (ei.value.line, ei.value.column) == where


class TestRoundTrip:
    def test_pretty_print_identity(self):
        src = ('point a 0 0; point b 1 0; let c = equilateral(a, b); '
               'assert congruent(a, c, a, b); render "x";')
        s = parse_script(src)
        assert parse_script(pretty_print(s)) == s

    def test_deepest_rendered_value_parses_back(self):
        # 196 levels deep: a sum of 193 powers of eps over another sum
        x = parse_element("(1+eps)^192/(2+3*eps)^100", NONARCHIMEDEAN)
        text = render_element(x)
        assert text.count("eps^") == 191 + 99
        assert parse_element(text, NONARCHIMEDEAN) == x

    def test_corpus(self):
        files = sorted(glob.glob(os.path.join(FIGURES, "*.geo")))
        assert len(files) >= 10
        for f in files:
            with open(f) as fh:
                s = parse_script(fh.read())
            assert parse_script(pretty_print(s)) == s, f


class TestInterpreter:
    def test_equilateral_binding(self):
        env = run_script(parse_script(
            "point a 0 0; point b 1 0; let c = equilateral(a,b); "
            "assert distinct(a,c);"))
        assert not env.failed
        assert env.assertions[0]["holds"]

    def test_gupta_script(self):
        env = run_script(parse_script(
            "point a 0 0; point b 2 0; let m = gupta_midpoint(a,b);"))
        assert env.bindings["m"] == pt(1, 0)
        assert len(env.trace) > 0

    def test_partial_env_on_error(self):
        env = run_script(parse_script(
            "point a 0 0; let x = equilateral(a,a); point b 1 0;"))
        assert env.errors and env.errors[0]["error"] == "ConstructionError"
        assert "b" in env.bindings  # execution continued

    @pytest.mark.parametrize("statement, error, detail", [
        ("let x = trisect(a, a);", "DomainViolation",
         "unknown operation 'trisect'"),
        ("let x = midpoint(a);", "ArityMismatch",
         "midpoint expects 2 points, got 1"),
        ("assert parallel(a, a);", "DomainViolation",
         "unknown predicate 'parallel'"),
        ("point b eps 0;", "DomainViolation",
         "eps outside NonArchimedean mode"),
        ("point b sqrt(0 - 1) 0;", "Negative", "negative radicand: -1"),
        ("point b 1 / 0 0;", "ZeroDivisionError", "field division by zero"),
    ])
    def test_runtime_error_recorded(self, statement, error, detail):
        env = run_script(parse_script(f"point a 0 0; {statement}"))
        assert env.errors == [{"statement": statement, "error": error,
                               "detail": detail}]

    def test_unbound_name_recorded(self):
        env = run_script(parse_script("let x = midpoint(a,b);"))
        assert env.errors

    def test_nonarch_guard_recorded(self):
        with open(os.path.join(FIGURES, "inner_pasch_guard.geo")) as fh:
            s = parse_script(fh.read())
        env = run_script(s, mode="nonarchimedean")
        assert env.errors
        assert "AngleNotPositive" in env.errors[0]["detail"]

    def test_eps_rejected_in_constructible(self):
        env = run_script(parse_script("point a eps 0;"))
        assert env.errors and env.errors[0]["error"] == "DomainViolation"

    @pytest.mark.parametrize("coordinates", ["(1/eps) 0", "0 (2/eps^2)",
                                             "sqrt(1/eps) 1"])
    def test_unbounded_literal_refused_at_node0(self, coordinates):
        env = run_script(
            parse_script(f"point a {coordinates}; point b 1 eps;"),
            mode="nonarchimedean")
        assert [e["error"] for e in env.errors] == ["DomainViolation"]
        assert "point a = " in env.errors[0]["detail"]
        # the refused point is never bound; the bounded one after it is
        assert list(env.bindings) == ["b"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="nonarch"):
            run_script(parse_script("point a 0 0;"), mode="nonarch")

    def test_tower_depth_cap_recorded(self, monkeypatch):
        monkeypatch.setattr(field, "MAX_TOWER_DEPTH", 2)
        env = run_script(parse_script(
            "point a sqrt(sqrt(sqrt(2))) 0; point b 1 0;"))
        assert [e["error"] for e in env.errors] == ["TowerTooDeep"]
        assert "b" in env.bindings  # execution continued

    @pytest.mark.parametrize("op, args, direct", [
        ("equilateral", "a, b", equilateral),
        ("reflect_line", "p, a, b", reflect),
        ("erect", "q, a, b",
         lambda p, u, v: perpendicular("erect", p, (u, v))[1]),
        ("drop", "p, a, b",
         lambda p, u, v: perpendicular("drop", p, (u, v))[0]),
        ("geo_add", "x, y", arithmetic.geo_add),
        ("geo_mul", "x, y", arithmetic.geo_mul),
        ("geo_inv", "x", arithmetic.geo_inv),
        ("geo_sqrt", "x", arithmetic.geo_sqrt),
        ("rotate90", "p", arithmetic.rotate90),
    ])
    def test_let_matches_direct_call(self, op, args, direct):
        env = run_script(parse_script(
            "point a 0 0; point b 3 0; point p 1 2; point q 1 0; "
            f"point x 2 0; point y 5 0; let r = {op}({args});"))
        assert not env.errors
        pts = [env.bindings[n] for n in args.split(", ")]
        assert env.bindings["r"] == direct(*pts)

    def test_oversized_value_recorded(self):
        env = run_script(parse_script(
            f"point a {N}*{N} 0; point b sqrt(-{N}*{N}) 0;"))
        assert [e["error"] for e in env.errors] == ["Negative"]
        # an oversized leaf renders as a marker that does not parse back
        with pytest.raises(ScriptSyntaxError):
            parse_element(render_element(env.bindings["a"].x))


class TestSvg:
    def _env(self, name="equilateral"):
        with open(os.path.join(FIGURES, f"{name}.geo")) as fh:
            return run_script(parse_script(fh.read()))

    def test_empty_env_is_valid_svg(self):
        from geokernel.dsl import Env
        doc = render_svg(Env())
        assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")

    def test_constructed_points_are_open_circles(self):
        doc = render_svg(self._env())
        assert 'fill="white"' in doc  # the constructed apex
        assert 'fill="black"' in doc  # the declared base points

    def test_rendering_is_read_only(self):
        env = self._env()
        before = len(env.trace), dict(env.bindings)
        render_svg(env)
        assert (len(env.trace), dict(env.bindings)) == (before[0], before[1])

    def test_nonarch_needs_shadow(self):
        with open(os.path.join(FIGURES, "inner_pasch_guard.geo")) as fh:
            env = run_script(parse_script(fh.read()), mode="nonarchimedean")
        with pytest.raises(UnrenderableMode):
            render_svg(env)
        doc = render_svg(env, shadow=True)
        assert "shadow" in doc

    def test_label_is_escaped(self):
        env = run_script(parse_script('render "a<b & c>d";'))
        root = ET.fromstring(render_svg(env))
        title = root.find("{http://www.w3.org/2000/svg}title")
        assert title.text == "a<b & c>d"

    def test_matches_stored_references(self):
        for f in sorted(glob.glob(os.path.join(FIGURES, "refs", "*.svg"))):
            name = os.path.basename(f)[:-4]
            doc = render_svg(self._env(name))
            with open(f) as fh:
                assert structural_signature(doc) == \
                    structural_signature(fh.read()), name


class TestCli:
    def test_run_exit_codes(self, capsys):
        script = os.path.join(FIGURES, "euclid5.geo")
        assert cli_main(["run", script]) == 0
        out = capsys.readouterr().out
        assert "e = (1, -2)" in out

    @pytest.mark.parametrize("argv, line, code", [
        (["run", os.path.join(FIGURES, "inner_pasch_guard.geo"),
          "--field", "nonarch"],
         "error [ConstructionError]: let x = inner_pasch(a, p, c, b, q);  "
         "(AngleNotPositive (A7-i1: 0<angle<pi))", 1),
        (["audit", "--field", "nonarch", "--samples", "8"],
         "LC-strict: 7/8 pass, 1 guard-refused", 0),
    ], ids=["run-nonarch-refusal", "audit-nonarch-refusals"])
    def test_nonarch_refusals_printed(self, argv, line, code, capsys):
        assert cli_main(argv) == code
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("call", [
        "geo_add(a, b)", "geo_mul(a, b)", "geo_inv(a)", "geo_sqrt(a)"])
    def test_run_off_axis_operand(self, call, capsys, tmp_path):
        # geometric arithmetic takes axis points only: a point off the
        # x-axis is a typed domain error, not a traceback
        script = tmp_path / "off_axis.geo"
        script.write_text(f"point a 0 1; point b 1 0; let c = {call};")
        assert cli_main(["run", str(script)]) == 1
        out, err = capsys.readouterr()
        assert (f"error [DomainViolation]: let c = {call};  "
                "(not an axis point)") in out.splitlines()
        assert "Traceback" not in out + err

    def test_run_prints_oversized_binding(self, capsys, tmp_path):
        script = tmp_path / "big.geo"
        script.write_text(f"point a {N}*{N} 0;")
        assert cli_main(["run", str(script)]) == 0
        assert capsys.readouterr().out.startswith("a = (<")

    def test_audit_subcommand(self, capsys, tmp_path):
        out_json = str(tmp_path / "report.json")
        rc = cli_main(["audit", "--samples", "2", "--seed", "1",
                       "--json", out_json])
        assert rc == 0
        assert os.path.exists(out_json)

    def test_kripke_subcommand(self, capsys):
        assert cli_main(["kripke", "--demo", "mp", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert '"P_forced_at_M0": false' in out

    def test_render_subcommand(self, tmp_path, capsys):
        script = os.path.join(FIGURES, "equilateral.geo")
        out_svg = str(tmp_path / "out.svg")
        assert cli_main(["render", script, "--out", out_svg]) == 0
        assert os.path.getsize(out_svg) > 0

    @pytest.mark.parametrize("coordinate, flags, reason", [
        (f"{N}*{N}", [], "too large for a float"),
        ("10^250*10^50*sqrt(2*10^100)", [], "coordinate inf too large"),
        ("17*10^200*10^107", [], "too large to draw"),  # viewBox overflows
    ])
    def test_render_unrenderable_point(self, coordinate, flags, reason,
                                       tmp_path, capsys):
        script = tmp_path / "big.geo"
        script.write_text(f"point a 0 0; point b {coordinate} 0;")
        out_svg = tmp_path / "out.svg"
        argv = ["render", str(script), "--out", str(out_svg)] + flags
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("unrenderable: point b: ") and reason in err
        assert not out_svg.exists()

    def test_render_unbounded_point_has_no_shadow(self, tmp_path, capsys):
        # meet reaches an unbounded point at node 0 (lines of slope 0 and
        # eps meet at (-1/eps, 0)); the binding is refused, so the render
        # draws the four declared points and reports the failure
        script = tmp_path / "meet.geo"
        script.write_text("point a 0 0; point p 1 0; point c 0 1; "
                          "point d 1 (1+eps); let b = meet(a, p, c, d);")
        out_svg = tmp_path / "out.svg"
        argv = ["render", str(script), "--out", str(out_svg),
                "--field", "nonarch", "--shadow"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == ""
        assert out_svg.read_text().count("<text ") == 5  # a p c d, shadow
        # an environment that holds an unbounded point has no shadow
        env = Env(mode=NONARCHIMEDEAN,
                  bindings={"b": Point(-1 / field.eps(), field.Q(0))})
        with pytest.raises(UnrenderableMode,
                           match="^point b: unbounded element has no shadow$"):
            render_svg(env, shadow=True)

    @pytest.mark.parametrize("script, name, value", [
        ("point a 0 0; point b 1 0; point c 0 1; point d 1 (1+eps); "
         "let x = meet(a, b, c, d);", "x", "((-1)/(eps), 0)"),
        ("point e eps 0; let i = geo_inv(e);", "i", "((1)/(eps), 0)"),
    ], ids=["meet", "geo_inv"])
    def test_run_refuses_unbounded_binding(self, script, name, value,
                                           tmp_path, capsys):
        # inputs in F0, an output outside it: refused at node 0, with the
        # statement's trace entries dropped
        path = tmp_path / "unbounded.geo"
        path.write_text(script)
        assert cli_main(["run", str(path), "--field", "nonarch"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("error")] == [
            f"error [DomainViolation]: {script.split('; ')[-1]}  (let "
            f"{name} = {value} is outside F0, the domain of node 0)"]
        assert not any(line.startswith(f"{name} = ") for line in out)
        env = run_script(parse_script(script), NONARCHIMEDEAN)
        assert name not in env.bindings and env.trace == []

    @pytest.mark.parametrize("field, why", [
        ("constructible", "eps outside NonArchimedean mode"),
        ("nonarch", "point e = ((1)/(eps), 0) is outside F0, the domain of "
                    "node 0")])
    def test_unbounded_literal_figure(self, field, why, capsys):
        path = os.path.join(FIGURES, "unbounded_literal.geo")
        assert cli_main(["run", path, "--field", field]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"error [DomainViolation]: point e 1 / eps 0;  ({why})"]

    def test_run_refuses_unbounded_literal(self, tmp_path, capsys):
        script = tmp_path / "unbounded.geo"
        script.write_text("point a (1/eps) 0; point b 1 0;")
        assert cli_main(["run", str(script), "--field", "nonarch"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "error [DomainViolation]: point a 1 / eps 0;  (point a = "
            "((1)/(eps), 0) is outside F0, the domain of node 0)",
            "b = (1, 0)"]

    def test_run_binds_a_power_up_to_the_degree_cap(self, tmp_path, capsys):
        # (1+eps)^150 has eps-degree 150 <= MAX_DEGREE, and no square past
        # the exponent's last bit is computed on the way
        script = tmp_path / "power.geo"
        script.write_text("point a ((1+eps)^150) 0;")
        assert cli_main(["run", str(script), "--field", "nonarch"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("a = (1+150*eps+11175*eps^2")
        assert out[0].endswith("+eps^150, 0)")

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        (b"\xffpoint a 0 0;", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["missing", "not-utf-8"])
    @pytest.mark.parametrize("command", ["run", "render"])
    def test_unreadable_script_exit_code(self, command, content, reason,
                                         tmp_path, capsys):
        script = tmp_path / "script.geo"
        if content is not None:
            script.write_bytes(content)
        out_svg = tmp_path / "out.svg"
        argv = [command, str(script)]
        if command == "render":
            argv += ["--out", str(out_svg)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {script}: {reason}")
        assert not out_svg.exists()

    @pytest.mark.parametrize("command", ["render", "audit"])
    def test_unwritable_output_exit_code(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        if command == "render":
            argv = ["render", os.path.join(FIGURES, "equilateral.geo"),
                    "--out", str(out)]
        else:  # the path is checked before the audit runs
            argv = ["audit", "--samples", "1", "--json", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: No such file or directory\n")

    @pytest.mark.parametrize("argv", [["audit", "--samples", "-3"],
                                      ["kripke", "--samples", "-5"]])
    def test_negative_samples_exit_code(self, argv, capsys):
        # a negative count would check nothing and report success
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--samples must be >= 0" in err

    @pytest.mark.parametrize("command", ["run", "render"])
    @pytest.mark.parametrize("shape", list(DEEP))
    def test_over_deep_script_exit_code(self, shape, command, tmp_path,
                                        capsys):
        make, limit, reason = DEEP[shape]
        script, out_svg = tmp_path / "deep.geo", tmp_path / "out.svg"
        argv = [command, str(script)]
        if command == "render":
            argv += ["--out", str(out_svg)]
        script.write_text(f"point a {make(limit)} 0;\n")
        assert cli_main(argv) == 0
        capsys.readouterr()
        script.write_text(f"point a {make(limit + 1)} 0;\n")
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert re.match(f"syntax error: line 1, column [0-9]+: expected "
                        f".*{limit} .*{reason}", err) and "wrote" not in out

    @pytest.mark.parametrize("command", ["run", "render"])
    def test_syntax_error_exit_code(self, command, tmp_path, capsys):
        script = tmp_path / "bad.geo"
        script.write_text("point a 0 0")  # no ";"
        out_svg = tmp_path / "out.svg"
        argv = [command, str(script)]
        if command == "render":
            argv += ["--out", str(out_svg)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("syntax error: line 1")
        assert not out_svg.exists()
