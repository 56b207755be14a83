import pathlib
import sys
import time
from fractions import Fraction

import pytest

from k3seg.corpus import generate_corpus
from k3seg.report import analyze
from k3seg.symalg import FamilyPair, SForm, TLaurent, parse_family

REPO = pathlib.Path(__file__).resolve().parent.parent
FAMILY_DIR = REPO / "families"

NAMED = ("ds_split", "ds_circle", "tent", "d_mixed", "d_constant")

def family_path(name: str) -> str:
    return str(FAMILY_DIR / (name + ".family"))


def family_text(name: str) -> str:
    return (FAMILY_DIR / (name + ".family")).read_text(encoding="utf-8")


def count_calls(run, *functions):
    """Calls of each function while run() runs, keyed by function name.

    Calls are matched on the code object, so it does not matter which module
    namespace a caller looked the function up in, or whether it was wrapped.
    """
    names = {fn.__code__: fn.__name__ for fn in functions}
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def coeff(form, i, e=0):
    """The coefficient of s^i * t^e in form: a lookup over its terms."""
    return next((c for j, x, c in form.terms() if (j, x) == (i, e)), 0)


def same_up_to_scale(a, b):
    """True iff the unit-domain graphs of two DensityFunctions differ by a
    positive constant factor: the same unit abscissas, and value numerators V
    with maxima M that are both zero or satisfy Va * Mb = Vb * Ma at every
    point."""
    ma, mb = (max(v for _, v in fn._points) for fn in (a, b))
    same_x = [x for x, _ in a.unit_breakpoints()] == [x for x, _ in b.unit_breakpoints()]
    proportional = all(va * mb == vb * ma for (_, va), (_, vb) in zip(a._points, b._points))
    return same_x and (ma == mb == 0 or ma != 0 != mb and proportional)


def random_form(rng, degree):
    """A random sparse form: each coefficient is c*t^e with probability 0.3, e
    a small rational, and at least one is nonzero."""
    def coefficient():
        if rng.random() >= 0.3:
            return 0
        c = rng.choice((-2, -1, 1, 3))
        return TLaurent.term(c, Fraction(rng.randint(-12, 12), rng.randint(1, 3)))

    while True:
        f = SForm(degree, [coefficient() for _ in range(degree + 1)])
        if f:
            return f


def stretched(f, a):
    """f in the coordinate sigma = s / t^a: the s^i coefficient times t^(i*a)."""
    parts = (SForm(f.degree, [0] * i + [c]).shift_t(i * a) for i, c in enumerate(f.coeffs))
    return sum(parts, SForm.zero(f.degree))


def _flipped(form):
    return SForm(form.degree, [x.scale((-1) ** i) for i, x in enumerate(form.coeffs)])


def charts(f):
    """f in the charts s, -s, 1/s and -1/s."""
    flip = FamilyPair(_flipped(f.g8), _flipped(f.g12))
    return (f, flip, f.inverted(), flip.inverted())


@pytest.fixture(scope="session")
def named():
    """The checked-in families, parsed once per test run."""
    return {name: parse_family(family_text(name)) for name in NAMED}


@pytest.fixture(scope="session")
def corpus_build():
    """generate_corpus(100, 1729), built once per test run, and the seconds
    the build took. Its first ten are generate_corpus(10, 1729). A test that
    counts calls on a pair parses its own: a pair keeps its discriminant."""
    started = time.perf_counter()
    families = generate_corpus(100, 1729)
    return families, time.perf_counter() - started


@pytest.fixture(scope="session")
def corpus(corpus_build):
    """generate_corpus(100, 1729), built once per test run."""
    return corpus_build[0]


@pytest.fixture(scope="session")
def named_reports(named):
    """Full analysis of every checked-in family, computed once."""
    return {name: analyze(pair) for name, pair in named.items()}
