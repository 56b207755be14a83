"""The command-line contract of k3seg, one row per case.

A row is a k3seg command line, the family file it reads, if any, and what the
command must do: its exit code, its stdout and its stderr. `{file}` in the
argv and in the expectations stands for the row's written family file;
repo files are named relative to the repo root, where every row runs.

    stdout  a str is the exact text, Line(x) one whole line of it, Has(x) a
            substring, a tuple several such matches, each of which must
            hold; None leaves it unchecked
    stderr  a str is the exact text, "" by default; Tag(x) is exactly one
            line, which starts with "x: "

A row with `seconds` must exit within that bound. tests/test_cli.py runs
every row without a bound in-process, through k3seg.cli.main, as the test
test_<name>. Run as a script, this file runs every row as a process of the
given command and also fails a row whose stderr holds a traceback:

    python tests/cli_contract.py k3seg
    PYTHONPATH=src python tests/cli_contract.py python -m k3seg.cli

A command that cannot be started ends the run with exit code 2.

It imports the standard library alone, so it runs under an interpreter that
has k3seg installed without its test extra.
"""

from __future__ import annotations

import dataclasses
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent


class Line(str):
    """One whole line of the stream (grep -qx)."""


class Has(str):
    """A substring of the stream (grep -q)."""


class Tag(str):
    """The stream is exactly one line, which starts with the tag and ': '."""


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    argv: str  # split on whitespace
    family: str | bytes | None = None
    code: int = 0
    out: str | tuple[str, ...] | None = None
    err: str = ""
    seconds: float | None = None


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

# tent regauged by 2t - 1: its discriminant, (2t - 1)^6 times tent's, vanishes
# at t = 1/2 alone
VANISHING_SAMPLE = "g8 = (2*t - 1)^2*3*s^4\ng12 = (2*t - 1)^3*(s^6 + t*(1 + s^12))\n"
NON_MINIMAL = "g8 = (s-1)^4*(3*s^4 + t + t*s^4)\ng12 = (s-1)^6*(s^6 + t + t*s^6)\n"
# macros that double their calls line by line: f31 would expand 2^31 - 1
# calls under the nesting bound; the statement is refused past 1024
DOUBLING = "let f1(u) = u + 1\n" + "".join(
    "let f%d(u) = f%d(f%d(u))\n" % (k, k - 1, k - 1) for k in range(2, 32)
) + "g8 = f31(s^4)\ng12 = s^6\n"

# D24's Gram: roots 0 and 1 each meet root 2, and roots 2 to 23 form a chain
D24_GRAM = "".join(" ".join(
    "2" if i == j else "-1" if {i, j} in ({0, 2}, {1, 2}) or abs(i - j) == 1 and min(i, j) >= 2
    else "0" for j in range(24)) + "\n" for i in range(24))

ROWS = [
    *(Row("analyze_each_family", "analyze families/" + path.name)
      for path in sorted((REPO / "families").glob("*.family"))),
    Row("analyze_text_report", "analyze families/ds_split.family", out=ANALYZE_DS_SPLIT),
    Row("oracle_default_samples", "oracle families/tent.family"),
    # the first deviation of d_mixed pins where the root refinement stops, and
    # its reconstruction error the product prod(s - root) on the root triples
    Row("oracle_deviation_and_reconstruction_error", "oracle families/d_mixed.family",
        out=(Has("max deviation 0.100378"), Has("reconstruction error 0.000264"))),
    # one sample at t = 0.5: d_mixed deviates by 1.01, past the tolerance 0.2
    Row("oracle_exits_6_past_the_final_tolerance", "oracle families/d_mixed.family --t 0.5",
        code=6, err="E_ORACLE_MISMATCH: final deviation 1.01 exceeds tolerance 0.2\n"),
    # ds_circle deviates by 0.543 at t = 0.9 and 0.932 at t = 0.5: the monotone gate
    Row("oracle_exits_6_on_a_growing_deviation", "oracle families/ds_circle.family --t 0.9,0.5",
        code=6, err="E_ORACLE_MISMATCH: deviation grew from 0.543 to 0.932 as t decreased\n"),
    # t^24 at 1e-100 is far below a double: d_mixed deviates by its fitted C
    # over |ln t|, 0.6934 / 230.26
    Row("oracle_samples_t_down_to_1e_100", "oracle families/d_mixed.family --t 1e-100",
        out="t = 1e-100     max deviation 0.003011   reconstruction error 0.000264\n"
        "fitted C = 0.6934; final deviation 0.003011 within tolerance 0.20\n"),
    # each sample prints as given, not rounded to six digits
    Row("oracle_prints_each_sample_as_given", "oracle families/tent.family --t 0.9999999,1e-320",
        out=(Has("t = 0.9999999 "), Has("t = 1e-320 "))),
    # Δ's terms in t^0 and t^(2 * 10^8) lie about 2 * 10^9 binary places apart
    # at t = 1e-3: the reconstruction error aligns only its largest squares
    Row("oracle_wide_exponent_spread", "oracle {file}",
        "g8 = 3*s^4\ng12 = s^6 + t^100000000*(1 + s^12)\n",
        out=Line("fitted C = 0.0000; final deviation 0.000000 within tolerance 0.20"), seconds=10),
    *(Row("oracle_rejects_malformed_samples", "oracle families/ds_split.family --t " + t, code=2,
          err=Tag("usage error")) for t in ("abc", "1e-3,1e-2", "2.0")),
    # tent is E3 A11 E3: its determinant is the product of its blocks, 6 * 12 * 6;
    # the warnings key stays, always empty: a cross-check failure is E_INTERNAL
    Row("analyze_json_determinant_and_warnings", "analyze --json families/tent.family",
        out=(Has('"determinant": 432'), Has('"warnings": []'))),
    # a segment limit (c1^3 != 27*c2^2) has density 0 and E9 ends, so analyze
    # never reports a segment limit
    Row("analyze_segment_family", "analyze {file}",
        "g8 = 9*s^4 + t*(1 + s^8)\ng12 = s^6 + t*(1 + s^12)\n", code=5,
        err="E_INCONSISTENT_TYPE: E-component index 9 outside [0, 8]; a value of 9 indicates"
        " an extended E9-shape limit that this classification does not cover\n"),
    Row("analyze_non_minimal_family", "analyze {file}",
        "g8 = s^4*(s^4 + t)\ng12 = s^6*(s^6 + t)\n", code=3, err=Tag("E_NOT_MINIMAL")),
    # (s - 1)^4 | g8 and (s - 1)^6 | g12
    *(Row("non_minimal_family_exits_3", command + " {file}", NON_MINIMAL, code=3,
          err="E_NOT_MINIMAL: a nonconstant form P has P^4 | g8 and P^6 | g12\n")
      for command in ("analyze", "oracle")),
    # a zero g8 passes the end exponents and is refused at its polygon
    *(Row("oracle_on_a_zero_form_exits_3_as_analyze_does", command + " {file}",
          "g8 = 0\ng12 = s^6 + t*(1 + s^12)\n", code=3,
          err="E_ZERO_FORM: Newton polygon of the zero form\n")
      for command in ("analyze", "oracle")),
    Row("analyze_unrecognized_cusp", "analyze {file}", "g8 = 3*s^4\ng12 = t*(1 + s^12)\n",
        code=4, err=Tag("E_UNRECOGNIZED_CUSP")),
    # the discriminant vanishes identically, but the end exponents, both 0,
    # are checked first, in both commands
    *(Row("oracle_refuses_a_stationary_cusp_as_analyze_does", command + " {file}",
          "g8 = 3*(s^4 + 1)^2\ng12 = (s^4 + 1)^3\n", code=4,
          err="E_UNRECOGNIZED_CUSP: end exponents (0, 0) are not both positive; the family"
          " does not degenerate toward the cusp\n")
      for command in ("analyze", "oracle")),
    Row("oracle_sample_with_vanishing_discriminant_exits_4", "oracle {file} --t 0.5",
        VANISHING_SAMPLE, code=4, err="E_NN: discriminant vanishes identically at t = 0.5\n"),
    # oracle_compare refuses a family without degeneration at the end
    # exponents, and the command reports it instead
    Row("oracle_reports_missing_degeneration", "oracle {file}", "g8 = s^8 + 1\ng12 = s^12 + 1\n",
        out="family has no degeneration at t = 0; nothing to track\n"),
    Row("analyze_missing_file", "analyze no-such-file.family", code=2,
        err="error: [Errno 2] No such file or directory: 'no-such-file.family'\n"),
    Row("analyze_parse_error", "analyze {file}", "g8 = 3 @ s\n", code=2,
        err="E_PARSE: line 1: column 8: unexpected character '@'\n"),
    # an expression past the parser's size bound
    Row("analyze_parse_error", "analyze {file}", "g12 = s^6\ng8 = (1 + t)^100000\n", code=2,
        err="E_PARSE: line 2: expression too large\n"),
    Row("analyze_deeply_nested_input", "analyze {file}",
        "g8 = " + "(" * 3000 + "s^4" + ")" * 3000 + "\ng12 = s^6\n", code=2,
        err="E_PARSE: line 1: expression nested too deeply\n"),
    Row("analyze_overlong_integer_literal", "analyze {file}",
        "g12 = s^6\ng8 = " + "7" * 5000 + "*s^4\n", code=2,
        err="E_PARSE: line 2: column 6: integer literal of 5000 digits is too long\n"),
    Row("analyze_non_utf8_file", "analyze {file}", b"# caf\xe9\ng8 = s^4\ng12 = s^6\n", code=2,
        err="E_PARSE: {file} is not UTF-8 text: invalid continuation byte\n"),
    # some editors save UTF-8 with a leading U+FEFF
    Row("byte_order_mark", "analyze {file}",
        b"\xef\xbb\xbfg8 = 3*s^4 + t*(1 + s^8)\ng12 = s^6 + t*(1 + s^12)\n"),
    # lines break at \n, \r\n and \r alone, as grep -n counts them: a form
    # feed or a U+0085 is space inside a line
    Row("form_feed_is_not_a_line_break", "analyze {file}",
        "g8 = 3*s^4\f\ng12 = s^6 + t*(1 + s^12\n", code=2,
        err="E_PARSE: line 2: column 24: unexpected end of statement\n"),
    Row("next_line_character_is_not_a_line_break", "analyze {file}",
        "g8 = 3*s^4 \x85 g12 = s^6 + t*(1 + s^12)\n", code=2,
        err="E_PARSE: line 1: column 14: trailing input after g8 assignment\n"),
    # two forms on steps 10^6 and 10^6 + 1 meet on step 1: refused before
    # their arrays are spread to a million entries each
    Row("mismatched_t_grids", "analyze {file}",
        "g8 = 3*s^4 + t^1000000*(1 + s^8)\ng12 = s^6 + t^1000001*(1 + s^12)\n", code=2,
        err="E_PARSE: expression too large\n", seconds=20),
    Row("doubling_macros", "analyze {file}", DOUBLING, code=2,
        err="E_PARSE: line 32: expression expands more than 1024 macro calls\n", seconds=10),
    # dense 500-wide u-arrays with 500-bit coefficients: each product of two
    # discriminant rows is one integer product of about 760 kbit operands
    Row("dense_pair", "analyze {file}",
        "g8 = 3*s^4 + t*(1+t)^500*(1 + s^8)\ng12 = s^6 + t*(1+t)^500*(1 + s^12)\n", seconds=10),
    # steps 87381 and 87382 meet on step 1, where every row of the
    # discriminant spreads over 3 * 87381 slots, just under the spread bound
    Row("full_row_spread_pair", "analyze {file}",
        "g8 = 3*s^4 + t^87381*(1 + s + s^2 + s^3 + s^4 + s^5 + s^6 + s^7 + s^8)\n"
        "g12 = s^6 + t^87382*(1 + s + s^2 + s^3 + s^4 + s^5 + s^6 + s^7 + s^8 + s^9 + s^10"
        " + s^11 + s^12)\n",
        out=Line("stable type:    E3 A1 A7 A1 E3"), seconds=10),
    # g8 = 0 and a g12 that repeats a quadratic with wide t-exponents: g12 and
    # its derivative share the quadratic, so a gcd of the two alone needs the
    # PRS; the minimality gcd screens all ten parts at once and settles it
    Row("repeated_quadratic", "analyze {file}",
        "g8 = 0\ng12 = (3*s^0*t^6 + 3*s^1*t^5 + -1*s^2*t^10 + 3*s^3*t^8 + -1*s^4*t^10"
        " + 3*s^5*t^0 + 2*s^6*t^11 + 1*s^7*t^1 + 2*s^8*t^7)*(s^2 + t^12*s + t^-4)^2\n",
        code=4, err=Tag("E_UNRECOGNIZED_CUSP"), seconds=10),
    # g8 = 0 and g12 = P^6*h, P linear with t-exponents up to 8: non-minimal,
    # so the gcd of the ten parts runs the subresultant sequence, contents
    # included, on wide u-arrays
    Row("repeated_sextic", "analyze {file}",
        "g8 = 0\ng12 = (-1*s^0*t^1 + 2*s^1*t^8)^6*(1*s^3*t^-6 + 2*s^6*t^4 + -1*s^4*t^4"
        " + -1*s^6*t^-12 + -3*s^2*t^6 + 2*s^0*t^-8)\n",
        code=3, err=Tag("E_NOT_MINIMAL"), seconds=10),
    # a long run of space after a statement that takes the tokenizer: each
    # character of the run is stepped over once
    Row("trailing_space_run", "analyze {file}",
        "g8 = (3*s^4 + t*(1 + s^8))" + " " * 200000 + "\t\ng12 = s^6 + t*(1 + s^12)\n",
        out=Line("stable type:    E3 A11 E3"), seconds=10),
    Row("strata_summary", "strata", out="codimension 1: 54 strata\n"
        "codimension 2: 495 strata (10 non-normal loci, 20 preimage components)\n"
        "maximal chambers: 9\n"),
    Row("strata_flags_are_exclusive", "strata --divisors --codim2", code=2,
        err="usage: k3seg strata [-h] [--divisors | --codim2]\n"
        "k3seg strata: error: argument --codim2: not allowed with argument --divisors\n"),
    Row("lattice_summary", "lattice A 2",
        out="A2: rank 2, det 3, signature (2, 0), even\nnorm-2 vectors: 6\n"),
    Row("lattice_a24", "lattice A 24"),
    # D24 has 2*24*23 roots; the count is an integer enumeration
    Row("lattice_d24_roots", "lattice D 24", out=Line("norm-2 vectors: 1104")),
    Row("lattice_d24_gram", "lattice D 24 --gram", out=D24_GRAM),
    Row("lattice_gram_of_empty_lattice", "lattice A 0 --gram", out="A0: empty matrix (rank 0)\n"),
    # E2 is not a root lattice, so its Gram is written out, not a diagram
    Row("lattice_e2_gram", "lattice E 2 --gram", out="2 -3\n-3 8\n"),
    Row("lattice_bad_index", "lattice E 9", code=2,
        err="E_BAD_INDEX: E-series index 9 exceeds 8\n"),
    Row("lattice_bad_index", "lattice A 25", code=2, err="E_BAD_INDEX: index 25 exceeds 24\n"),
    # the weights are 1 and the highest root, read off the norm-2 enumeration
    Row("lattice_e8_wps", "lattice E 8 --wps", out=Line("1 2 2 3 3 4 4 5 6")),
    Row("lattice_wps_weights", "lattice D 12 --wps", out="1 1 1 1 2 2 2 2 2 2 2 2 2\n"),
    Row("lattice_d24_wps", "lattice D 24 --wps", out=Line("1 1 1 1" + " 2" * 21)),
    # E3 = A2 + A1: a disconnected diagram has no weighted projective space
    Row("lattice_e3_wps", "lattice E 3 --wps", code=2,
        err="E_BAD_INDEX: E3 has a disconnected diagram\n"),
    Row("gm_weights", "gm-weights", out="degree-8 slice:  -4 -3 -2 2 3 4\n"
        "degree-12 slice: -6 -5 -4 -3 -2 -1 1 2 3 4 5 6\n"),
]

def prepare(row: Row, directory: pathlib.Path) -> tuple[list[str], str]:
    """row's argv and the path that {file} stands for, its family written there."""
    path = directory / "input.family"
    if row.family is not None:
        data = row.family
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return [str(path) if arg == "{file}" else arg for arg in row.argv.split()], str(path)


def _matches(want: str, text: str) -> bool:
    if isinstance(want, Line):
        return want in text.split("\n")
    if isinstance(want, Has):
        return want in text
    if isinstance(want, Tag):
        return text.startswith(want + ": ") and text.find("\n") == len(text) - 1
    return text == want


def check(row: Row, path: str, code: int, out: str, err: str) -> list[str]:
    """What a run of row, its family at path, missed; [] when it passed."""
    missed = [] if code == row.code else ["exit %s, not %d" % (code, row.code)]
    outs = row.out if isinstance(row.out, tuple) else (row.out,)
    for stream, want, text in (*(("stdout", w, out) for w in outs), ("stderr", row.err, err)):
        if want is not None:
            want = type(want)(want.replace("{file}", path))
            if not _matches(want, text):
                kind = type(want).__name__ if type(want) is not str else "exactly"
                missed.append("%s %r, not %s %r" % (stream, text[:2000], kind, want))
    return missed


class CannotRun(Exception):
    """The command could not be started, so no row can run."""


def run(row: Row, command: list[str], directory: pathlib.Path) -> list[str]:
    """What row missed as a process of command, run from the repo root."""
    argv, path = prepare(row, directory)
    try:
        done = subprocess.run([*command, *argv], cwd=REPO, capture_output=True, timeout=row.seconds)
    except subprocess.TimeoutExpired:
        return ["no exit within %g s" % row.seconds]
    except OSError as exc:
        raise CannotRun("cannot run %s: %s" % (" ".join(command), exc.strerror)) from None
    err = done.stderr.decode("utf-8", "replace")
    missed = check(row, path, done.returncode, done.stdout.decode("utf-8", "replace"), err)
    return missed + ["printed a traceback"] * ("Traceback" in err)


def main(command: list[str]) -> int:
    if not command:
        print("usage: python tests/cli_contract.py COMMAND...", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        try:
            for row in ROWS:
                missed = run(row, command, pathlib.Path(directory))
                if missed:
                    failed += 1
                    print("FAIL %s: k3seg %s: %s" % (row.name, row.argv, "; ".join(missed)))
        except CannotRun as exc:
            print(exc, file=sys.stderr)
            return 2
    print("%d of %d rows passed" % (len(ROWS) - failed, len(ROWS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
