"""Script language, interpreter, SVG rendering and the CLI."""

import glob
import os

import pytest

from geokernel import arithmetic, field
from geokernel.cli import main as cli_main
from geokernel.constructions import equilateral, perpendicular, reflect
from geokernel.dsl import (
    AssertStmt, Call, LetStmt, PointDecl, RenderStmt, Script,
    ScriptSyntaxError, parse_element, parse_script, pretty_print, run_script,
)
from geokernel.field import render_element
from geokernel.geometry import pt
from geokernel.svg import UnrenderableMode, render_svg, structural_signature

FIGURES = os.path.join(os.path.dirname(__file__), "..", "figures")
# N*N has 6000 digits, past the 4300 that int's str() accepts
N = "9" * 3000


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

    def test_comments_and_strings(self):
        s = parse_script('# a comment\nrender "hi";')
        assert isinstance(s.statements[0], RenderStmt)
        assert s.statements[0].label == "hi"


class TestRoundTrip:
    def test_pretty_print_identity(self):
        src = ('point a 0 0; point b 1 0; let c = equilateral(a, b); '
               'assert congruent(a, c, a, b); render "x";')
        s = parse_script(src)
        assert parse_script(pretty_print(s)) == s

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
        ("1/eps", ["--field", "nonarch", "--shadow"], "no shadow"),
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
