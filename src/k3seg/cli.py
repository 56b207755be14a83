"""Command-line front end.

Subcommands: analyze (full pipeline on a family file, optional JSON/CSV/SVG
output), strata (boundary enumeration), lattice (Gram matrices and weights),
oracle (floating-point cross-check), gm-weights. Errors print one line to
stderr and map to stable exit codes: 2 parse/usage, 3 invalid family, 4
unrecognized cusp, 5 inconsistent type, 6 oracle disagreement, 1 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classify import CuspKind, cusp_type
from .density import emit_csv, emit_svg
from .errors import K3SegError, ParseError, UnrecognizedCuspError
from .lattices import count_norm_vectors, gm_weights, root_lattice, wps_weights
from .moduli import (
    chamber_count,
    enumerate_codim2,
    enumerate_divisors,
    normalization_preimage_count,
)
from .oracle import DEFAULT_T_SAMPLES, check_t_samples, oracle_compare
from .report import analyze
from .symalg import parse_family


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ParseError("%s is not UTF-8 text: %s" % (path, err.reason)) from None
    return parse_family(text)


def cmd_analyze(args) -> int:
    rep = analyze(_load(args.file))
    if args.csv:
        with open(args.csv, "wb") as fh:
            fh.write(emit_csv(rep.density))
    if args.svg:
        with open(args.svg, "wb") as fh:
            fh.write(emit_svg(rep.density))
    d = rep.to_dict()
    if args.json:
        import json
        print(json.dumps(d, indent=2, sort_keys=True))
        return 0
    print("cusp kind:      %s" % d["cusp_kind"])
    print(
        "normalization:  t-shift %s, ramification %d"
        % (d["normalization_shift"], d["ramification"])
    )
    print(
        "end exponents:  %s at s=0, %s at s=infinity"
        % (d["end_exponents"]["at_zero"], d["end_exponents"]["at_infinity"])
    )
    print(
        "density:        %s"
        % "  ".join("(%s, %s)" % (w, v) for w, v in d["density"]["breakpoints"])
    )
    print("slopes:         %s" % " ".join(str(s) for s in d["density"]["slopes"]))
    print("stable type:    %s" % d["stable_type"])
    print("charges:        %s = 24" % " + ".join(str(c) for c in d["charges"]))
    print(
        "lattice:        %s (rank %d, det %d)"
        % (d["lattice"]["name"], d["lattice"]["rank"], d["lattice"]["determinant"])
    )
    print(
        "ends:           left nodal: %s, right nodal: %s"
        % (
            "yes" if d["ends"]["left_nodal"] else "no",
            "yes" if d["ends"]["right_nodal"] else "no",
        )
    )
    return 0


def cmd_strata(args) -> int:
    if args.divisors:
        rows = enumerate_divisors()
        for s in rows:
            print(s.label)
        print("total: %d" % len(rows))
        return 0
    if args.codim2:
        rows = enumerate_codim2()
        for s in rows:
            print(("* " if s.is_nonnormal_locus else "  ") + s.label)
        flagged = sum(1 for s in rows if s.is_nonnormal_locus)
        print(
            "total: %d  (non-normal loci: %d, normalization preimage components: %d)"
            % (len(rows), flagged, normalization_preimage_count())
        )
        return 0
    divisors = enumerate_divisors()
    codim2 = enumerate_codim2()
    flagged = sum(1 for s in codim2 if s.is_nonnormal_locus)
    print("codimension 1: %d strata" % len(divisors))
    print(
        "codimension 2: %d strata (%d non-normal loci, %d preimage components)"
        % (len(codim2), flagged, normalization_preimage_count())
    )
    print("maximal chambers: %d" % chamber_count())
    return 0


def cmd_lattice(args) -> int:
    lat = root_lattice(args.family, args.n)
    if args.wps:
        print(" ".join(str(w) for w in wps_weights(args.family, args.n)))
        return 0
    if args.gram:
        if lat.rank == 0:
            print("%s: empty matrix (rank 0)" % lat.name)
        else:
            for row in lat.gram:
                print(" ".join(str(x) for x in row))
        return 0
    pos, neg, _ = lat.signature()
    print(
        "%s: rank %d, det %d, signature (%d, %d), %s"
        % (
            lat.name,
            lat.rank,
            lat.determinant(),
            pos,
            neg,
            "even" if lat.is_even() else "odd",
        )
    )
    if lat.rank and pos == lat.rank:
        print("norm-2 vectors: %d" % count_norm_vectors(lat, 2))
    return 0


def cmd_oracle(args) -> int:
    try:
        t_list = [float(x) for x in args.t.split(",") if x.strip()]
    except ValueError:
        print("usage error: --t expects comma-separated numbers", file=sys.stderr)
        return 2
    try:
        check_t_samples(t_list)
    except ValueError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    pair = _load(args.file)
    try:
        rep = oracle_compare(pair, t_list)
    except UnrecognizedCuspError:
        # raised only at the end exponents, which derive checks as analyze does:
        # after minimality, before the discriminant. Were both positive and
        # finite, the t = 0 limits would be c1*s^4 and c2*s^6 (see analyze), not
        # a minimal pair, so not NO_DEGENERATION: every family without
        # degeneration ends here
        if cusp_type(pair.normalized()) is CuspKind.NO_DEGENERATION:
            print("family has no degeneration at t = 0; nothing to track")
            return 0
        raise
    for t, dev, rec in zip(rep.t_samples, rep.deviations, rep.reconstruction_errors):
        print("t = %-10r max deviation %.6f   reconstruction error %.3g" % (t, dev, rec))
    print(
        "fitted C = %.4f; final deviation %.6f within tolerance %.2f"
        % (rep.fitted_c, rep.deviations[-1], rep.tolerance)
    )
    return 0


def cmd_gm_weights(args) -> int:
    w8, w12 = gm_weights()
    print("degree-8 slice:  %s" % " ".join(str(x) for x in w8))
    print("degree-12 slice: %s" % " ".join(str(x) for x in w12))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3seg",
        description="Exact degeneration analysis for one-parameter Weierstrass "
        "families of elliptic K3 surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on a family file")
    p.add_argument("file", help="family file (g8/g12 assignments)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--csv", metavar="PATH", help="write density breakpoints as CSV")
    p.add_argument("--svg", metavar="PATH", help="write a density plot as SVG")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("strata", help="enumerate boundary strata")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--divisors", action="store_true", help="list codim-1 strata")
    group.add_argument("--codim2", action="store_true", help="list codim-2 strata")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("lattice", help="root-lattice data")
    p.add_argument("family", choices=("A", "D", "E"))
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gram", action="store_true", help="print the Gram matrix")
    group.add_argument(
        "--wps", action="store_true", help="print the weighted-projective weights"
    )
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("oracle", help="floating-point root-tracking cross-check")
    p.add_argument("file", help="family file")
    p.add_argument(
        "--t",
        default=",".join(map(str, DEFAULT_T_SAMPLES)),
        help="comma-separated decreasing t samples in (0, 1)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "gm-weights", help="torus weights of the two coefficient slices"
    )
    p.set_defaults(func=cmd_gm_weights)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a buffered stdout may first meet a closed pipe here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a reader that stopped early, as `| head` does, is not a failure; the
        # interpreter flushes stdout again on exit, so it goes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except K3SegError as err:
        print("%s: %s" % (err.tag, err), file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
