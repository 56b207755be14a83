"""Every function under src/k3seg runs for a command, the library or the
benchmark, or is kept for a named caller.

The script records, with sys.setprofile, each src/k3seg function that runs
over this input set:

  - every row of tests/cli_contract.py without a time bound, in-process
    through k3seg.cli.main;
  - `analyze` (text, --json, --csv, --svg) and `oracle` on each family in
    families/;
  - generate_corpus(100, 1729): canonical_text and analyze on every family,
    oracle_compare and roots_at on the first ten;
  - the four input builders of bench/inputs.py, and bench/tracer.py's
    Tracer.install.

It exits 1 and names each function, dunders aside, that is neither reached
nor in KEPT, each KEPT entry that no longer exists or is now reached, and
each KEPT entry kept for the README whose name no code in README.md
mentions:

    PYTHONPATH=src python tests/reachability.py

It imports the standard library, k3seg and the benchmark's own scripts.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

import cli_contract  # noqa: E402  (beside this file)

# qualified name under k3seg -> the caller that needs the function although
# no input above runs it
KEPT = {
    "moduli.degeneration_check": "ROADMAP item 2, stage d",
    "lattices.segment_lattice": "README, library",
    "symalg.forms.SForm.terms": "README, library",
    "symalg.forms.SForm.rescale_exponents": "README, library",
    "density.DensityFunction.value_at": "README, library",
    "density.DensityFunction.reflected": "README, library",
    "tropics.TropicalPolynomial.eval_at": "README, library",
    "tropics.TropicalPolynomial.slopes": "README, library",
}


def readme_names() -> set:
    """Every identifier in README.md's code: fenced blocks and `spans`."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return {name for code in re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
            for name in re.findall(r"\w+", code)}


def defined(package: pathlib.Path) -> dict:
    """(file, first line) of every def under package -> its qualified name,
    module path included; the first line is a decorator's when it has one,
    as in the code object."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(module, line)] = prefix + child.name
                visit(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")

    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()),
              name + "." if name else "")
    return out


def run_inputs(directory: pathlib.Path) -> None:
    """The input set of the module docstring."""
    import k3seg
    from k3seg.cli import main

    def command(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:  # argparse's usage errors
                pass

    for row in cli_contract.ROWS:
        if row.seconds is None:
            command(cli_contract.prepare(row, directory)[0])
    for path in sorted((REPO / "families").glob("*.family")):
        command(["analyze", str(path)])
        command(["analyze", str(path), "--json", "--csv", str(directory / "d.csv"),
                 "--svg", str(directory / "d.svg")])
        command(["oracle", str(path)])
    corpus = k3seg.generate_corpus(100, 1729)
    for i, family in enumerate(corpus):
        k3seg.analyze(k3seg.parse_family(k3seg.canonical_text(family)))
        if i < 10:
            k3seg.oracle_compare(family)
            k3seg.roots_at(family, k3seg.oracle.DEFAULT_T_SAMPLES[0])

    import inputs
    import tracer

    inputs.corpus_inputs(1729, 10, 1)
    inputs.named_inputs(1729)
    inputs.nonminimal_inputs(1729, 3)
    inputs.oracle_inputs(10)
    tracer.Tracer().install(k3seg)


def main() -> int:
    package = (REPO / "src" / "k3seg").resolve()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cwd = os.getcwd()
    os.chdir(REPO)  # rows name repo files relative to the root
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as directory:
            run_inputs(pathlib.Path(directory))
    finally:
        sys.setprofile(None)
        os.chdir(cwd)

    import k3seg
    if pathlib.Path(k3seg.__file__).resolve().parent != package:
        print("k3seg is imported from %s, not %s" % (k3seg.__file__, package))
        return 2
    functions = defined(package)
    files = {name: str(pathlib.Path(name).resolve()) for name in {c.co_filename for c in seen}}
    reached = {functions.get((files[c.co_filename], c.co_firstlineno)) for c in seen}
    problems = []
    for name in sorted(set(functions.values()) - reached):
        if name not in KEPT and not name.rpartition(".")[2].startswith("__"):
            problems.append("unreached: %s" % name)
    mentioned = readme_names()
    for name in sorted(KEPT):
        if name not in functions.values():
            problems.append("kept but gone: %s" % name)
        elif name in reached:
            problems.append("kept but reached: %s" % name)
        if "README" in KEPT[name] and name.rpartition(".")[2] not in mentioned:
            problems.append("kept for the README, which does not mention it: %s" % name)
    for line in problems:
        print(line)
    print("%d of %d functions reached, %d kept" % (len(reached - {None}), len(functions), len(KEPT)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
