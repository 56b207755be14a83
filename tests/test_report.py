"""analyze as the one place that derives a family's data: how often it calls
the deriving stages, and which check fires first on inputs that several
checks refuse."""

import sys

import pytest

from k3seg.errors import CuspidalFamilyError, UnrecognizedCuspError, ZeroFormError
from k3seg.oracle import oracle_compare
from k3seg.report import analyze
from k3seg.symalg import extract_cusp_quartic, parse_family
from k3seg.tropics import end_exponents, newton_polygon, root_valuations


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


def test_analyze_derives_each_quantity_once(named):
    counts = count_calls(
        lambda: analyze(named["tent"]), end_exponents, newton_polygon, root_valuations
    )
    # one polygon each for g8 and g12 inside end_exponents, then g8, g12 and
    # the discriminant once for the density routes; three valuation reads:
    # g8 and g12 for the end exponents, the discriminant for the positions
    assert counts == {"end_exponents": 1, "newton_polygon": 5, "root_valuations": 3}


def test_analyze_extracts_the_cusp_quartic_once(named):
    counts = count_calls(lambda: analyze(named["d_constant"]), extract_cusp_quartic)
    assert counts == {"extract_cusp_quartic": 1}


STATIONARY_CUSP = (
    "let q(x) = (x - 1)*(x - 2)*(x - 3)*(x - 4) + t*x\n"
    "g8 = 3*q(s)^2\n"
    "g12 = q(s)^3\n"
)


def test_first_failing_check_decides_the_error():
    # the end exponents of tent's g12 alone are fine; the zero g8 is refused
    # when its Newton polygon is built
    with pytest.raises(ZeroFormError, match="^Newton polygon of the zero form$"):
        analyze(parse_family("g8 = 0\ng12 = s^6 + t*(1 + s^12)\n"))
    # a constant g12 does not degenerate, and that is found before the zero g8
    with pytest.raises(UnrecognizedCuspError, match="^end exponents \\(0, 0\\) are not"):
        analyze(parse_family("g8 = 0\ng12 = s^6 + 1 + s^12\n"))
    # the oracle refuses an identically zero discriminant before it looks at
    # the end exponents, which are both zero here
    with pytest.raises(
        CuspidalFamilyError,
        match="^discriminant vanishes identically; use the cusp-quartic route$",
    ) as info:
        oracle_compare(parse_family(STATIONARY_CUSP), t_list=(1e-3,))
    assert info.value.tag == "E_NN"
