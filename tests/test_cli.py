"""End-to-end runs of the command line interface through main(argv)."""

import dataclasses
import inspect
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import k3seg
from k3seg import oracle
from k3seg.classify import CuspKind, cusp_type, end_surface_data
from k3seg.cli import _build_parser, main
from k3seg.corpus import _sparse_form, generate_corpus
from k3seg.density import DensityFunction
from k3seg.errors import InternalError, K3SegError, NotMinimalError, UnrecognizedCuspError
from k3seg.report import analyze
from k3seg.symalg import FamilyPair, SForm, minimality_check, parse_family
from tests.conftest import VANISHING_SAMPLE, count_calls, family_path, family_text

ANALYZE_DS_SPLIT = """\
cusp kind:      maximal
normalization:  t-shift 4, ramification 1
end exponents:  1 at s=0, 1 at s=infinity
density:        (-1, 0)  (0, 9)  (1, 0)
slopes:         9 -9
stable type:    E0 A17 E0
charges:        3 + 18 + 3 = 24
lattice:        A17 (rank 17, det 18)
ends:           left nodal: no, right nodal: no
"""


def test_analyze_text_report(capsys):
    assert main(["analyze", family_path("ds_split")]) == 0
    assert capsys.readouterr().out == ANALYZE_DS_SPLIT


def test_analyze_json_report(capsys):
    assert main(["analyze", family_path("ds_split"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable_type"] == "E0 A17 E0"
    assert doc["charges"] == [3, 18, 3]
    assert doc["cusp_kind"] == "maximal"
    assert doc["normalization_shift"] == "4"
    assert doc["ramification"] == 1
    assert doc["density"]["breakpoints"] == [["-1", "0"], ["0", "9"], ["1", "0"]]
    assert doc["density"]["unit_breakpoints"] == [["0", "0"], ["1/2", "9"], ["1", "0"]]
    assert doc["density"]["slopes"] == [9, -9]
    assert doc["end_exponents"] == {"at_zero": "1", "at_infinity": "1"}
    assert doc["ends"] == {"left_nodal": False, "right_nodal": False}
    assert doc["lattice"] == {"name": "A17", "rank": 17, "determinant": 18}
    assert doc["newton_polygons"]["delta"][0] == ["0", "12"]
    assert doc["input"] == family_text("ds_split")
    assert doc["warnings"] == []


def test_analyze_csv_writes_file_and_prints_report(tmp_path, capsys):
    target = tmp_path / "profile.csv"
    assert main(["analyze", family_path("ds_split"), "--csv", str(target)]) == 0
    assert capsys.readouterr().out == ANALYZE_DS_SPLIT
    assert target.read_bytes() == b"0,0\n1/2,9\n1,0"


def test_analyze_svg_writes_file(tmp_path, capsys):
    target = tmp_path / "profile.svg"
    assert main(["analyze", family_path("tent"), "--svg", str(target)]) == 0
    capsys.readouterr()
    data = target.read_bytes()
    assert data.startswith(b"<svg ")
    assert data.endswith(b"</svg>")
    assert data.count(b"<circle") == 3


def test_analyze_missing_file(capsys):
    assert main(["analyze", "no-such-file.family"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no-such-file.family" in err


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.family"
    bad.write_text("g8 = 3 @ s\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "E_PARSE: line 1: column 8: unexpected character '@'\n"
    # an expression past the parser's size bound
    bad.write_text("g12 = s^6\ng8 = (1 + t)^100000\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "E_PARSE: line 2: expression too large\n"


def test_analyze_deeply_nested_input(tmp_path, capsys):
    deep = tmp_path / "deep.family"
    deep.write_text("g8 = " + "(" * 3000 + "s^4" + ")" * 3000 + "\ng12 = s^6\n")
    assert main(["analyze", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err == "E_PARSE: line 1: expression nested too deeply\n"


def test_analyze_overlong_integer_literal(tmp_path, capsys):
    f = tmp_path / "long.family"
    f.write_text("g12 = s^6\ng8 = " + "7" * 5000 + "*s^4\n")
    assert main(["analyze", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == "E_PARSE: line 2: column 6: integer literal of 5000 digits is too long\n"


def test_analyze_non_utf8_file(tmp_path, capsys):
    f = tmp_path / "latin1.family"
    f.write_bytes(b"# caf\xe9\ng8 = s^4\ng12 = s^6\n")
    assert main(["analyze", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == "E_PARSE: %s is not UTF-8 text: invalid continuation byte\n" % f


def test_analyze_file_with_byte_order_mark(tmp_path, capsys):
    # some editors save UTF-8 with a leading U+FEFF
    f = tmp_path / "bom.family"
    f.write_bytes(b"\xef\xbb\xbf" + family_text("ds_split").encode("utf-8"))
    assert main(["analyze", str(f)]) == 0
    assert capsys.readouterr().out == ANALYZE_DS_SPLIT
    assert main(["analyze", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == family_text("ds_split")


def test_route_disagreement_is_an_internal_error(monkeypatch, capsys):
    flat = DensityFunction([(-1, 0), (1, 0)])
    monkeypatch.setattr("k3seg.report.density_from_positions", lambda positions: flat)
    assert main(["analyze", family_path("tent")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_INTERNAL: density routes disagree") and err.count("\n") == 1
    with pytest.raises(InternalError):
        generate_corpus(1)


def test_end_dichotomy_disagreement_is_an_internal_error(monkeypatch, capsys):
    def flipped(*args):
        return tuple(
            dataclasses.replace(end, is_nodal=not end.is_nodal) for end in end_surface_data(*args)
        )

    monkeypatch.setattr("k3seg.report.end_surface_data", flipped)
    message = "left end: density endpoint disagrees with the nodal test"
    with pytest.raises(InternalError, match="^%s$" % message):
        analyze(parse_family(family_text("tent")))
    assert main(["analyze", family_path("tent")]) == 1
    assert capsys.readouterr().err == "E_INTERNAL: %s\n" % message
    with pytest.raises(InternalError):
        generate_corpus(1)
    # with the left end intact, the right end is caught
    monkeypatch.setattr(
        "k3seg.report.end_surface_data", lambda *args: (end_surface_data(*args)[0], flipped(*args)[1])
    )
    with pytest.raises(InternalError, match="^right end: density endpoint disagrees with the nodal test$"):
        analyze(parse_family(family_text("tent")))


def test_analyze_non_minimal_family(tmp_path, capsys):
    f = tmp_path / "nonmin.family"
    f.write_text("g8 = s^4*(s^4 + t)\ng12 = s^6*(s^6 + t)\n")
    assert main(["analyze", str(f)]) == 3
    assert capsys.readouterr().err.startswith("E_NOT_MINIMAL: ")


def test_analyze_unrecognized_cusp(tmp_path, capsys):
    f = tmp_path / "unrec.family"
    f.write_text("g8 = 3*s^4\ng12 = t*(1 + s^12)\n")
    assert main(["analyze", str(f)]) == 4
    assert capsys.readouterr().err.startswith("E_UNRECOGNIZED_CUSP: ")


def test_analyze_segment_family(tmp_path, capsys):
    f = tmp_path / "seg.family"
    f.write_text("g8 = 9*s^4 + t*(1 + s^8)\ng12 = s^6 + t*(1 + s^12)\n")
    assert main(["analyze", str(f)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("E_INCONSISTENT_TYPE: ")
    assert "E9" in err


def test_oracle_rejects_malformed_samples(capsys):
    path = family_path("ds_split")
    for t_arg in ("abc", "1e-3,1e-2", "2.0"):
        assert main(["oracle", path, "--t", t_arg]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


def test_oracle_reports_missing_degeneration(tmp_path, capsys):
    f = tmp_path / "nodeg.family"
    f.write_text("g8 = s^8 + 1\ng12 = s^12 + 1\n")
    assert main(["oracle", str(f)]) == 0
    out = capsys.readouterr().out
    assert out == "family has no degeneration at t = 0; nothing to track\n"


NON_MINIMAL = "g8 = (s-1)^4*(3*s^4 + t + t*s^4)\ng12 = (s-1)^6*(s^6 + t + t*s^6)\n"


def test_oracle_refuses_non_minimal_family(tmp_path, capsys):
    # (s - 1)^4 | g8 and (s - 1)^6 | g12: both commands refuse it with exit 3
    f = tmp_path / "nonmin.family"
    f.write_text(NON_MINIMAL)
    for command in ("analyze", "oracle"):
        assert main([command, str(f)]) == 3
        assert capsys.readouterr().err == (
            "E_NOT_MINIMAL: a nonconstant form P has P^4 | g8 and P^6 | g12\n"
        )
    with pytest.raises(NotMinimalError):
        oracle.oracle_compare(parse_family(NON_MINIMAL))


def test_oracle_sample_with_vanishing_discriminant_exits_4(tmp_path, capsys):
    f = tmp_path / "vanishing.family"
    f.write_text(VANISHING_SAMPLE)
    assert main(["oracle", str(f), "--t", "0.5"]) == 4
    err = capsys.readouterr().err
    assert err == "E_NN: discriminant vanishes identically at t = 0.5\n"


def test_oracle_on_a_zero_form_exits_3_as_analyze_does(tmp_path, capsys):
    f = tmp_path / "zero.family"
    f.write_text("g8 = 0\ng12 = s^6 + t*(1 + s^12)\n")
    for command in ("analyze", "oracle"):
        assert main([command, str(f)]) == 3
        assert capsys.readouterr().err == "E_ZERO_FORM: Newton polygon of the zero form\n"


def test_oracle_refuses_a_stationary_cusp_as_analyze_does(tmp_path, capsys):
    # the discriminant vanishes identically, but the end exponents, both 0,
    # are checked first, in both commands
    f = tmp_path / "cusp.family"
    f.write_text("g8 = 3*(s^4 + 1)^2\ng12 = (s^4 + 1)^3\n")
    for command in ("analyze", "oracle"):
        assert main([command, str(f)]) == 4
        assert capsys.readouterr().err == (
            "E_UNRECOGNIZED_CUSP: end exponents (0, 0) are not both positive; the family"
            " does not degenerate toward the cusp\n"
        )


def test_oracle_samples_t_down_to_1e_100(capsys):
    # t^24 at 1e-100 is far below a double: d_mixed deviates by its fitted C
    # over |ln t|, 0.6934 / 230.26
    assert main(["oracle", family_path("d_mixed"), "--t", "1e-100"]) == 0
    assert capsys.readouterr().out == (
        "t = 1e-100     max deviation 0.003011   reconstruction error 0.000264\n"
        "fitted C = 0.6934; final deviation 0.003011 within tolerance 0.20\n"
    )


def test_oracle_default_samples_are_oracle_compares():
    # bench/worker.py reads the default off oracle_compare's signature
    args = _build_parser().parse_args(["oracle", family_path("tent")])
    assert tuple(float(x) for x in args.t.split(",")) == oracle.DEFAULT_T_SAMPLES
    t_list = inspect.signature(oracle.oracle_compare).parameters["t_list"]
    assert t_list.default == oracle.DEFAULT_T_SAMPLES


def test_oracle_leaves_its_checks_to_oracle_compare(capsys):
    # the pair is checked for minimality once, inside oracle_compare, and a
    # family that degenerates is never classified
    counts = count_calls(
        lambda: main(["oracle", family_path("tent"), "--t", "1e-3"]), minimality_check, cusp_type
    )
    assert counts == {"minimality_check": 1, "cusp_type": 0}
    assert capsys.readouterr().out.endswith("within tolerance 0.20\n")


def test_families_without_degeneration_fail_the_end_exponents():
    # k3seg oracle says "nothing to track" only after oracle_compare raised
    # UnrecognizedCuspError, so every minimal pair whose t = 0 limit is a
    # minimal pair with nonzero discriminant must be refused that way
    rng = random.Random(2718)
    without = 0
    for _ in range(300):
        g8, g12 = (
            _sparse_form(rng, d, rng.randint(1, 4), 0, 4)
            + SForm.monomial(d, rng.randrange(d + 1), rng.choice((-2, -1, 1, 2)))
            for d in (8, 12)
        )
        try:
            g = FamilyPair(g8, g12).normalized()
            minimality_check(g)
        except K3SegError:
            continue
        if not g.discriminant24() or cusp_type(g) is not CuspKind.NO_DEGENERATION:
            continue
        without += 1
        with pytest.raises(UnrecognizedCuspError):
            oracle.oracle_compare(g, (1e-3,))
    assert without >= 100


def test_oracle_run_on_tent(capsys):
    assert main(["oracle", family_path("tent"), "--t", "1e-2,1e-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("t = 0.01 ")
    assert "max deviation" in lines[0]
    assert "reconstruction error" in lines[0]
    assert lines[2].startswith("fitted C = ")
    assert lines[2].endswith("within tolerance 0.20")


def test_oracle_normalizes_the_family_once(capsys):
    # ds_split sits at t-shift 4; a second normalization would build a second
    # pair and compute its discriminant, g8^3 - 27 g12^2, a second time
    counts = count_calls(
        lambda: main(["oracle", family_path("ds_split"), "--t", "1e-3"]), SForm.__pow__
    )
    assert counts == {"__pow__": 1}
    assert capsys.readouterr().out.endswith("within tolerance 0.20\n")


def test_oracle_exits_6_without_convergence(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    assert main(["oracle", family_path("ds_split")]) == 6
    assert capsys.readouterr().err == (
        "E_NO_CONVERGENCE: root refinement missed the 1e-12 residual target"
        " in 1 iterations\n"
    )


def test_oracle_exits_6_past_the_final_tolerance(capsys):
    assert main(["oracle", family_path("d_mixed"), "--t", "0.5"]) == 6
    assert capsys.readouterr().err == (
        "E_ORACLE_MISMATCH: final deviation 1.01 exceeds tolerance 0.2\n"
    )


def test_oracle_exits_6_on_a_growing_deviation(capsys):
    assert main(["oracle", family_path("ds_circle"), "--t", "0.9,0.5"]) == 6
    assert capsys.readouterr().err == (
        "E_ORACLE_MISMATCH: deviation grew from 0.543 to 0.932 as t decreased\n"
    )


def test_strata_summary(capsys):
    assert main(["strata"]) == 0
    assert capsys.readouterr().out == (
        "codimension 1: 54 strata\n"
        "codimension 2: 495 strata (10 non-normal loci, 20 preimage components)\n"
        "maximal chambers: 9\n"
    )


def test_strata_divisor_listing(capsys):
    assert main(["strata", "--divisors"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 55
    assert lines[0] == "E0 A17 E0"
    assert lines[-1] == "total: 54"


def test_strata_codim2_listing(capsys):
    assert main(["strata", "--codim2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 496
    assert lines[-1] == (
        "total: 495  (non-normal loci: 10, normalization preimage components: 20)"
    )
    starred = [l for l in lines if l.startswith("* ")]
    assert len(starred) == 10


def test_strata_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["strata", "--divisors", "--codim2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_lattice_summary(capsys):
    assert main(["lattice", "A", "2"]) == 0
    assert capsys.readouterr().out == (
        "A2: rank 2, det 3, signature (2, 0), even\nnorm-2 vectors: 6\n"
    )


def test_lattice_gram_matrix(capsys):
    assert main(["lattice", "E", "8", "--gram"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 8
    assert rows[0] == "2 -1 0 0 0 0 0 0"
    matrix = [[int(x) for x in row.split()] for row in rows]
    assert all(matrix[i][i] == 2 for i in range(8))
    assert matrix == [list(col) for col in zip(*matrix)]


def test_lattice_gram_of_empty_lattice(capsys):
    assert main(["lattice", "A", "0", "--gram"]) == 0
    assert capsys.readouterr().out == "A0: empty matrix (rank 0)\n"


def test_lattice_bad_index(capsys):
    assert main(["lattice", "E", "9"]) == 2
    assert capsys.readouterr().err == "E_BAD_INDEX: E-series index 9 exceeds 8\n"
    assert main(["lattice", "A", "25"]) == 2
    assert capsys.readouterr().err == "E_BAD_INDEX: index 25 exceeds 24\n"
    assert main(["lattice", "D", "24", "--gram"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 24


def test_lattice_wps_weights(capsys):
    assert main(["lattice", "D", "12", "--wps"]) == 0
    assert capsys.readouterr().out == "1 1 1 1 2 2 2 2 2 2 2 2 2\n"


def test_gm_weights(capsys):
    assert main(["gm-weights"]) == 0
    assert capsys.readouterr().out == (
        "degree-8 slice:  -4 -3 -2 2 3 4\n"
        "degree-12 slice: -6 -5 -4 -3 -2 -1 1 2 3 4 5 6\n"
    )


# runs main on each argv of a JSON list and checks after each that the
# process has not imported mpmath
_MPMATH_PROBE = """
import contextlib, io, json, sys
from k3seg.cli import _build_parser, main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "mpmath" not in sys.modules, argv
"""


def test_no_command_imports_mpmath():
    # mpmath is a test dependency only: the oracle runs on built-in integers
    commands = [
        ["analyze", family_path("tent")],
        ["oracle", family_path("tent"), "--t", "1e-3"],
        ["lattice", "E", "8"],
    ]
    src = str(pathlib.Path(k3seg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
