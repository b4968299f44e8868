"""CLI parsing, output formats, golden transcripts, exit codes."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from cmreg import DEFAULT_CHAR, ParseError, Polynomial, Ring
from cmreg.cli import main, parse_input
from cmreg.ring import format_polynomial
from conftest import monomial_curve, twisted_cubic

GOLDEN = Path(__file__).parent / "golden"

TWISTED_TEXT = """\
# rational normal curve of degree 3
ring 32003 y1 y2 y3 y4
y1^2 - y2*y3
y2^2 - y1*y4
y1*y2 - y3*y4
"""

CURVE_5_2_TEXT = """\
ring 32003 x1 x2 x3 x4
x1*x2 - x3*x4
x1^2*x3^3 - x2^5
x1^3*x3^2 - x2^4*x4
x1^4*x3 - x2^3*x4^2
x1^5 - x2^2*x4^3
"""

RETRY_TEXT = "ring 32003 x1 x2\nx1*x2\n"


def format_input(ring: Ring, gens: list[Polynomial], *, monomial: bool = False) -> str:
    """Inverse of parse_input, for round trips."""
    lines = ["ring {} {}".format(ring.p, " ".join(ring.names))]
    if monomial:
        lines.append("mode monomial")
    lines.extend(format_polynomial(g) for g in gens)
    return "\n".join(lines) + "\n"


def write(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# input format


def test_parse_input_round_trip():
    ring, gens, monomial = parse_input(TWISTED_TEXT)
    assert ring.names == ("y1", "y2", "y3", "y4")
    assert ring.p == 32003
    assert not monomial
    assert gens == twisted_cubic()
    again, regens, _ = parse_input(format_input(ring, gens))
    assert again == ring and regens == gens


def test_parse_input_monomial_mode():
    text = "ring 101 x y\nmode monomial\nx^2\nx*y\n"
    ring, gens, monomial = parse_input(text)
    assert monomial
    assert [format_polynomial(g) for g in gens] == ["x^2", "x*y"]
    with pytest.raises(ParseError):
        parse_input("ring 101 x y\nmode monomial\nx^2 - y^2\n")
    with pytest.raises(ParseError):
        parse_input("ring 101 x y\nx^2\nmode monomial\n")
    ring, gens, monomial = parse_input("ring 101 x y\nx^2\n", force_monomial=True)
    assert monomial


def test_parse_input_header_errors():
    with pytest.raises(ParseError):
        parse_input("")
    with pytest.raises(ParseError):
        parse_input("x^2\n")
    with pytest.raises(ParseError):
        parse_input("ring 32003\n")
    with pytest.raises(ParseError):
        parse_input("ring abc x y\nx\n")
    with pytest.raises(ParseError):
        parse_input("ring 32004 x y\nx\n")
    with pytest.raises(ParseError):
        parse_input("ring 32003 x y\n")
    with pytest.raises(ParseError):
        parse_input("ring 32003 x y\nmode sparse\nx\n")


def test_parse_input_char_override():
    ring, _, _ = parse_input("ring 32003 x y\nx^2\n", char_override=101)
    assert ring.p == 101
    with pytest.raises(ParseError):
        parse_input("ring 32003 x y\nx^2\n", char_override=100)


def test_parse_input_reports_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_input("ring 32003 x y\n\n# fine\nx + bogus\n")
    assert "line 4" in str(info.value)


def test_default_char_matches_parser_default():
    ring, _, _ = parse_input(f"ring {DEFAULT_CHAR} x\nx^2\n")
    assert ring.p == DEFAULT_CHAR


# ---------------------------------------------------------------------------
# golden outputs


@pytest.mark.parametrize(
    "args,text,golden",
    [
        (["compute", "--json"], TWISTED_TEXT, "twisted_cubic_compute.json"),
        (["compute", "--json"], CURVE_5_2_TEXT, "monomial_curve_5_2_compute.json"),
        (["curve", "--json"], CURVE_5_2_TEXT, "monomial_curve_5_2_curve.json"),
        (["compute", "--json"], RETRY_TEXT, "retry_compute.json"),
        (["oracle", "--json"], TWISTED_TEXT, "twisted_cubic_oracle.json"),
        # the text output of each subcommand is pinned too
        (["compute", "--verbose"], RETRY_TEXT, "retry_compute_verbose.txt"),
        (["curve"], CURVE_5_2_TEXT, "monomial_curve_5_2_curve.txt"),
        (["oracle"], TWISTED_TEXT, "twisted_cubic_oracle.txt"),
    ],
)
def test_golden_json_outputs(tmp_path, capsys, args, text, golden):
    path = write(tmp_path, text)
    assert main([args[0], path, *args[1:]]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()


def test_golden_values_spot_checked():
    data = json.loads((GOLDEN / "monomial_curve_5_2_compute.json").read_text())
    assert data["c"] == ["-infinity", 4, 4]
    assert data["reg"] == 4
    assert data["bound"] == [8, 9, 9]
    assert data["attained_t"] == 1
    assert data["corners"]["1"] == [[3, 0, 1], [4, 0, 0]]
    assert data["corners"]["2"] == [[0, 4], [4, 0]]
    retry = json.loads((GOLDEN / "retry_compute.json").read_text())
    assert retry["retries"] == [
        {"level": 0, "attempt": 1, "seed": 1000004, "matrix_digest": "39edcae324d4"}
    ]


# ---------------------------------------------------------------------------
# text output and flags


def test_compute_text_output(tmp_path, capsys):
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "reg = 1" in out
    assert "c = [-infinity, -infinity, 1]" in out
    assert "retries = 0" in out


def test_compute_partial_flag(tmp_path, capsys):
    path = write(tmp_path, CURVE_5_2_TEXT)
    assert main(["compute", path, "--partial", "1"]) == 0
    assert capsys.readouterr().out == "reg_1 = 4\n"
    assert main(["compute", path, "--partial", "0"]) == 0
    assert capsys.readouterr().out == "reg_0 = -infinity\n"
    assert main(["compute", path, "--partial", "5"]) == 2


def test_compute_verbose_lists_retries(tmp_path, capsys):
    path = write(tmp_path, RETRY_TEXT)
    assert main(["compute", path, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "retry level=0 attempt=1 seed=1000004 matrix=39edcae324d4" in out
    assert "corners[1] = (1)" in out


def test_curve_text_output(tmp_path, capsys):
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["curve", path]) == 0
    out = capsys.readouterr().out
    assert "noether_ok = yes" in out
    assert "H_E = 2" in out
    assert "last_shift = none" in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TWISTED_TEXT))
    assert main(["compute", "-"]) == 0
    assert "reg = 1" in capsys.readouterr().out


def test_seed_flag_changes_transcript(tmp_path, capsys):
    path = write(tmp_path, RETRY_TEXT)
    assert main(["compute", path, "--seed", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["retries"][0]["seed"] != 1000004
    assert data["reg"] == 1


def test_char_override_flag(tmp_path, capsys):
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["compute", path, "--char", "101", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 101


def test_monomial_flag_rejects_binomials(tmp_path, capsys):
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["compute", path, "--monomial"]) == 2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_parse_error(tmp_path, capsys):
    path = write(tmp_path, "ring 32003 x y\nx + $\n")
    assert main(["compute", path]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_value_error(tmp_path, capsys):
    path = write(tmp_path, "ring 32003 x y\nx^2 + y\n")
    assert main(["compute", path]) == 2


def test_exit_code_retries_exhausted(tmp_path, capsys):
    path = write(tmp_path, RETRY_TEXT)
    assert main(["compute", path, "--max-retries", "0"]) == 3
    assert "level 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "oracle"])
@pytest.mark.parametrize("text", ["ring 32003 x y z\nx*y\n", TWISTED_TEXT])
def test_exit_code_negative_max_retries(tmp_path, capsys, command, text):
    path = write(tmp_path, text)
    assert main([command, path, "--max-retries", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_retries must be nonnegative" in captured.err


def test_exit_code_oracle_mismatch(tmp_path, capsys, monkeypatch):
    import cmreg.cli as climod

    record = climod.cross_check(twisted_cubic())
    broken = record.__class__(
        levels=record.levels,
        r_definition=record.r_definition + 1,
        report=record.report,
    )
    assert not broken.ok
    monkeypatch.setattr(climod, "cross_check", lambda *a, **k: broken)
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["oracle", path]) == 4
    assert "ok = no" in capsys.readouterr().out


@pytest.mark.parametrize("json_flag", [False, True])
def test_oracle_reports_infinite_definitional_value(
    tmp_path, capsys, monkeypatch, json_flag
):
    monkeypatch.setattr(
        "cmreg.oracle.a_def_with_trace", lambda *a, **k: (float("inf"), {}, 3)
    )
    path = write(tmp_path, TWISTED_TEXT)
    assert main(["oracle", path] + ["--json"] * json_flag) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    if json_flag:
        data = json.loads(captured.out)
        assert [ch["a_definition"] for ch in data["levels"]] == ["infinity"] * 3
        assert not data["ok"]
    else:
        assert "level 0: c=-infinity a_def=infinity ceiling=3 match=no" in captured.out
        assert "ok = no" in captured.out
