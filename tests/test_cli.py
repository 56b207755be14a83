"""End-to-end runs of the command line interface through main(argv).

Each case that is one command, its exit code and its output is a row of
tests/cli_contract.py; every row without a time bound runs here as the test
test_<its name>. The tests below check more than a row can: JSON fields,
written files, patched internals, call counts and library exceptions.
"""

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
from k3seg.symalg import FamilyPair, SForm, forms, minimality_check, parse_family
from tests import cli_contract
from tests.cli_contract import ANALYZE_DS_SPLIT, NON_MINIMAL, ROWS
from tests.conftest import count_calls, family_path, family_text


def _in_process(rows):
    def test(tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(cli_contract.REPO)
        for row in rows:
            argv, path = cli_contract.prepare(row, tmp_path)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            out, err = capsys.readouterr()
            assert cli_contract.check(row, path, code, out, err) == [], row.argv

    return test


for _name in dict.fromkeys(row.name for row in ROWS if row.seconds is None):
    globals()["test_" + _name] = _in_process(
        [row for row in ROWS if row.name == _name and row.seconds is None]
    )

# this k3seg's source ahead of the inherited PYTHONPATH, for child processes
_SRC = str(pathlib.Path(k3seg.__file__).resolve().parent.parent)
_SRC_PATH = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def test_the_contract_runs_rows_as_processes(tmp_path, monkeypatch):
    # the path CI takes against the installed k3seg, here through the source;
    # trailing_space_run is the one bounded row fast enough for every run
    monkeypatch.setenv("PYTHONPATH", _SRC_PATH)
    command = [sys.executable, "-m", "k3seg.cli"]
    rows = {row.name: row for row in ROWS}
    for name in ("lattice_summary", "trailing_space_run"):
        assert cli_contract.run(rows[name], command, tmp_path) == [], name
    wrong = dataclasses.replace(rows["lattice_summary"], code=2)
    assert cli_contract.run(wrong, command, tmp_path) == ["exit 0, not 2"]


def test_the_contract_reports_a_command_it_cannot_start(capsys):
    # the command given as one word, which names no program
    assert cli_contract.main(["python -m k3seg.cli"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "cannot run python -m k3seg.cli: No such file or directory\n")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, which imports ast, dis and tokenize: a cold
    # start pays for them; json serves only --json and random only the corpus;
    # -S keeps the site hooks' imports out of the check
    modules = {"dataclasses", "inspect", "json", "json.decoder", "json.encoder", "json.scanner",
               "_json", "random", "_random", "bisect", "_bisect", "_sha512"}
    code = (
        "import sys; sys.path.insert(0, %r); import k3seg.cli; "
        "print(sorted(%r & set(sys.modules)))" % (_SRC, modules)
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


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
        return tuple(end._replace(is_nodal=not end.is_nodal) for end in end_surface_data(*args))

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


def test_oracle_refuses_non_minimal_family():
    # the non_minimal_family_exits_3 rows run both commands on it
    with pytest.raises(NotMinimalError):
        oracle.oracle_compare(parse_family(NON_MINIMAL))


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
    # pair and compute its discriminant, g8^3 - 27 g12^2, a second time. The
    # oracle decodes the discriminant's rows into a form once
    counts = count_calls(
        lambda: main(["oracle", family_path("ds_split"), "--t", "1e-3"]),
        forms._discriminant_rows, FamilyPair.discriminant24,
    )
    assert counts == {"_discriminant_rows": 1, "discriminant24": 1}
    assert capsys.readouterr().out.endswith("within tolerance 0.20\n")


def test_oracle_exits_6_without_convergence(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    assert main(["oracle", family_path("ds_split")]) == 6
    assert capsys.readouterr().err == (
        "E_NO_CONVERGENCE: root refinement missed the 1e-12 residual target"
        " in 1 iterations\n"
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


def test_lattice_gram_matrix(capsys):
    assert main(["lattice", "E", "8", "--gram"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 8
    assert rows[0] == "2 -1 0 0 0 0 0 0"
    matrix = [[int(x) for x in row.split()] for row in rows]
    assert all(matrix[i][i] == 2 for i in range(8))
    assert matrix == [list(col) for col in zip(*matrix)]


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_reader_that_stops_early_ends_the_command_quietly(failing, tmp_path, monkeypatch, capsys):
    # `k3seg lattice D 24 --gram | head -5`: the write after head exits, or
    # with a buffered stdout the flush, fails with EPIPE; the command exits 0
    # with nothing on stderr, and stdout's descriptor leads to os.devnull, so
    # the interpreter's exit flush fails no more
    target = open(tmp_path / "stdout", "wb")

    class ClosedPipe:
        def write(self, text):
            if failing == "write":
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return target.fileno()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["lattice", "D", "24", "--gram"]) == 0
    assert capsys.readouterr().err == ""
    os.write(target.fileno(), b"after the reader left")
    target.close()
    assert (tmp_path / "stdout").read_bytes() == b""


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
    run = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": _SRC_PATH},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
