"""Seeded inputs for the k3seg benchmark.

Run as its own process, so that nothing it computes (``generate_corpus``
analyzes every candidate) is left behind in the interpreter that is timed:

    python3 bench/inputs.py WORKLOAD SEED [--count N] [--repeat R] [--trace]

It prints one JSON object: ``{"inputs": [...], "info": {...}}``. Each input
is a family text plus what the benchmark checks about its result; the program
under test only ever sees the text.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import k3seg
from k3seg import FamilyPair, SForm, TLaurent, canonical_text, parse_family

import tracer
from worker import calibrate

ROOT = Path(__file__).resolve().parent.parent
NAMED = ("d_constant", "d_mixed", "ds_circle", "ds_split", "tent")
ORACLE_NAMED = ("d_mixed", "ds_circle", "ds_split", "tent")
CORPUS_SEED = 1729
# stable type and lattice determinant stated in the README
FACTS = {"tent": ("E3 A11 E3", 432), "ds_split": ("E0 A17 E0", 18)}
# s -> lam*s with lam of at most two bits, so a variant's coefficients grow
# by a similar amount whichever lam the seed picks
LAMBDAS = tuple(
    sign * Fraction(p, q)
    for p, q in ((2, 1), (3, 1), (1, 2), (1, 3), (3, 2), (2, 3))
    for sign in (1, -1)
)
# per named family: the file itself, then these variants (inverted?)
VARIANTS = (False,) * 4 + (True,) * 4
SMALL = (-3, -2, -1, 1, 2, 3)


def family_text(name: str) -> str:
    return (ROOT / "families" / (name + ".family")).read_text(encoding="utf-8")


def host_speed() -> float:
    """Median time of five runs of the calibration loop."""
    return statistics.median(calibrate() for _ in range(5))


def generated(count: int, repeat: int) -> tuple[list, dict]:
    """``generate_corpus(count, CORPUS_SEED)``, and the time of each of
    ``repeat`` calls with the mean of ``host_speed`` just before and just
    after it; every call returns the same families. One call lasts seconds,
    so a single run of the loop at each end reads the host's speed too
    roughly."""
    times, calibrations = [], []
    for _ in range(max(1, repeat)):
        before = host_speed()
        start = time.perf_counter()
        families = k3seg.generate_corpus(count, CORPUS_SEED)
        times.append(time.perf_counter() - start)
        calibrations.append((before + host_speed()) / 2)
    return families, {"generate_corpus_s": times, "generate_calibration_s": calibrations}


def scaled(form: SForm, lam: Fraction) -> SForm:
    """The form after s -> lam*s."""
    return SForm(form.degree, [c.scale(lam**i) for i, c in enumerate(form.coeffs)])


def chart(pair: FamilyPair, k: int) -> FamilyPair:
    """The pair in the chart s, -s, 1/s or -1/s, for k = 0, 1, 2 or 3. None
    of them changes the size of a coefficient, so an input costs about the
    same in each."""
    if k % 2:
        pair = FamilyPair(scaled(pair.g8, Fraction(-1)), scaled(pair.g12, Fraction(-1)))
    return pair.inverted() if k >= 2 else pair


def corpus_inputs(seed: int, count: int, repeat: int) -> tuple[list, dict]:
    """The families of ``generate_corpus(count, CORPUS_SEED)``, each in a
    chart the seed draws.

    The families themselves do not depend on the seed. Their cost has a
    heavy tail: one seeded corpus of 100 in five held a family that took
    nearly twice as long as the other 99 together, so with a seeded corpus
    throughput moved by a factor of three from seed to seed. A chart keeps
    the cost, the density (reflected under s -> 1/s) and the lattice
    determinant; the benchmark checks the last two against the family in
    its own chart.
    """
    families, info = generated(count, repeat)
    rng = random.Random(seed)
    inputs = []
    for i, family in enumerate(families):
        k = rng.randrange(4)
        item = {"id": "corpus/%d/%d" % (i, k), "op": "analyze",
                "text": canonical_text(chart(family, k))}
        if k:
            report = k3seg.analyze(family).to_dict()
            item["inverted"] = k >= 2
            item["expect"] = {"density": {"breakpoints": report["density"]["breakpoints"]},
                              "lattice": {"determinant": report["lattice"]["determinant"]}}
        inputs.append(item)
    return inputs, info


def reversed_label(label: str | None) -> str | None:
    return None if label is None else " ".join(reversed(label.split()))


def named_inputs(seed: int) -> list:
    rng = random.Random(seed)
    inputs = []
    for name in NAMED:
        label, det = FACTS.get(name, (None, None))
        inputs.append({"id": "named/" + name, "op": "analyze", "text": family_text(name),
                       "label": label, "det": det})
    for name in NAMED:
        pair = parse_family(family_text(name))
        label, det = FACTS.get(name, (None, None))
        for k, inverted in enumerate(VARIANTS):
            lam = rng.choice(LAMBDAS)
            variant = FamilyPair(scaled(pair.g8, lam), scaled(pair.g12, lam))
            if inverted:
                variant = variant.inverted()
            inputs.append({
                "id": "named/%s/%d" % (name, k),
                "op": "analyze",
                "text": canonical_text(variant),
                "base": "named/" + name,
                "inverted": inverted,
                "label": reversed_label(label) if inverted else label,
                "det": det,
            })
    return inputs


def sparse_form(rng: random.Random, degree: int, terms: int, top: int) -> SForm:
    while True:
        coeffs = [TLaurent.zero] * (degree + 1)
        for _ in range(terms):
            i = rng.randrange(degree + 1)
            coeffs[i] = coeffs[i] + TLaurent.term(rng.choice(SMALL), rng.randint(0, top))
        form = SForm(degree, coeffs)
        if form:
            return form


def nonminimal_inputs(seed: int, count: int) -> list:
    """Pairs (P^4*h4, P^6*h6): P linear in s with t-monomial coefficients,
    every third one moved to the inverted chart. The term counts are fixed,
    so that seeds differ in the terms drawn, not in how many."""
    rng = random.Random(seed)
    inputs = []
    for k in range(count):
        p = SForm(1, [TLaurent.term(rng.choice(SMALL), rng.randint(0, 3)),
                      TLaurent.term(rng.choice(SMALL), rng.randint(0, 3))])
        h4 = sparse_form(rng, 4, 3, 4)
        h6 = sparse_form(rng, 6, 4, 6)
        pair = FamilyPair(p**4 * h4, p**6 * h6)
        if k % 3 == 2:
            pair = pair.inverted()
        inputs.append({"id": "nonminimal/%d" % k, "op": "reject",
                       "text": canonical_text(pair), "tag": "E_NOT_MINIMAL"})
    return inputs


def oracle_inputs(count: int) -> tuple[list, dict]:
    """The four named families the oracle accepts, then the first ``count``
    families of the default seed's corpus.

    These inputs do not depend on the seed. One corpus family costs between
    0.05 and 1.2 s in the oracle, so a seeded draw of ten moved p90 by more
    than a quarter from seed to seed; the fixed set is also the one that the
    oracle's accuracy is judged on. Every family in it passes the oracle's
    gates at the default t samples, so any failure is a regression.
    """
    inputs = [{"id": "oracle/" + name, "op": "oracle", "text": family_text(name)}
              for name in ORACLE_NAMED]
    families, info = generated(count, 1)
    inputs += [{"id": "oracle/corpus/%d" % i, "op": "oracle", "text": canonical_text(f)}
               for i, f in enumerate(families)]
    return inputs, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("corpus", "named", "oracle", "nonminimal"))
    ap.add_argument("seed", type=int)
    ap.add_argument("--count", type=int, default=0,
                    help="corpus: families; oracle: corpus families; nonminimal: pairs")
    ap.add_argument("--repeat", type=int, default=1,
                    help="corpus: how many times to call generate_corpus")
    ap.add_argument("--trace", action="store_true",
                    help="count the corpus generator's screening by outcome")
    args = ap.parse_args(argv)

    screening = tracer.count_screening(k3seg) if args.trace else None
    info: dict = {}
    if args.workload == "corpus":
        inputs, info = corpus_inputs(args.seed, args.count, args.repeat)
    elif args.workload == "named":
        inputs = named_inputs(args.seed)
    elif args.workload == "oracle":
        inputs, info = oracle_inputs(args.count)
    else:
        inputs = nonminimal_inputs(args.seed, args.count)
    if screening is not None:
        info["screening"] = screening
    json.dump({"inputs": inputs, "info": info}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
