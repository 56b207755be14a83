"""derive as the one place that derives a family's data for analyze and the
oracle: how often analyze calls the deriving stages, and which check fires
first, in both, on inputs that several checks refuse. Also: every record
the package returns refuses assignment to its fields."""

from fractions import Fraction

import pytest

from conftest import count_calls, family_text
from k3seg import emit_svg, lattices
from k3seg.classify import CuspKind, cusp_type, cuspidal_kind, end_surface_data
from k3seg.corpus import generate_corpus
from k3seg.density import cut_positions
from k3seg.errors import (
    CuspidalFamilyError,
    NotMinimalError,
    UnrecognizedCuspError,
    ZeroFormError,
)
from k3seg.moduli import enumerate_divisors
from k3seg.oracle import oracle_compare
from k3seg.report import analyze, derive
from k3seg.symalg import (
    FamilyPair, SForm, canonical_text, extract_cusp_quartic, field, forms, parse_family,
)
from k3seg.tropics import end_exponents, newton_polygon, root_valuations


def test_analyze_derives_each_quantity_once():
    # a fresh pair each run: the session's parsed families keep their
    # discriminant
    tent = family_text("tent")
    pair = parse_family(tent)
    counts = count_calls(
        lambda: analyze(pair),
        end_exponents, newton_polygon, root_valuations, SForm.index_points,
        forms._discriminant_rows, FamilyPair.discriminant24,
    )
    # one polygon each for g8, g12 and the discriminant, which is computed
    # once and read where it is, as rows, all shared by the end exponents,
    # the density routes and the end surfaces; three valuation reads: g8 and
    # g12 for the end exponents, the discriminant for the positions. The
    # family's rows, then one set per end pair for its nodal flag.
    assert counts == {
        "end_exponents": 1, "newton_polygon": 3, "root_valuations": 3, "index_points": 2,
        "_discriminant_rows": 3, "discriminant24": 0,
    }
    # analyze reads the polygon off the rows and never decodes them into a
    # form; the oracle reads the same polygon and decodes the form once for
    # its three t samples, and builds no end surface
    for run, rows, decoded in ((analyze, 3, 0), (oracle_compare, 1, 1)):
        pair = parse_family(tent)
        counts = count_calls(
            lambda: run(pair), forms._discriminant_rows, forms.Discriminant.index_points,
            FamilyPair.discriminant24,
        )
        assert counts == {"_discriminant_rows": rows, "index_points": 1, "discriminant24": decoded}
    # that one decode takes the 25 rows apart once per pair, not once per t
    # sample
    pair = parse_family(tent)
    counts = count_calls(lambda: oracle_compare(pair), field.shape, field.uunpack)
    assert counts == {"shape": 1, "uunpack": 25}


def test_analyze_reads_both_end_surfaces_in_one_call(named):
    # the right end inverts g8 and g12 alone, not the whole pair
    counts = count_calls(lambda: analyze(named["tent"]), end_surface_data, FamilyPair.inverted)
    assert counts == {"end_surface_data": 1, "inverted": 0}


def test_analyze_extracts_the_cusp_quartic_once(named):
    counts = count_calls(lambda: analyze(named["d_constant"]), extract_cusp_quartic)
    assert counts == {"extract_cusp_quartic": 1}


def test_the_report_side_builds_fractions_only_to_hand_them_out():
    # Heights, slopes, positions and density values are integer numerators
    # over a common denominator; a Fraction is built for each value that
    # leaves as one: the breakpoints of both routes, the unit abscissas of
    # to_dict and of emit_svg, each hull vertex and edge valuation, the
    # positions of each edge, the end exponents and the end-surface levels.
    # That is at most six per breakpoint and hull vertex; the exact kernel's
    # gauge and discriminant add a few dozen for their t-exponents. Fraction
    # arithmetic one operation at a time builds 28 to 43 per breakpoint and
    # vertex on these inputs.
    constructors = [Fraction.__new__]
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on builds results here
        constructors.append(Fraction._from_coprime_ints)
    corpus_text = canonical_text(generate_corpus(1, seed=1729)[0])
    for text in (family_text("tent"), corpus_text):
        pair = parse_family(text)
        rep = analyze(pair)
        size = len(rep.density.breakpoints) + sum(len(hull) for hull in rep.polygons.values())

        def run():
            report = analyze(pair)
            report.to_dict()
            emit_svg(report.density)

        built = sum(count_calls(run, *constructors).values())
        assert built <= 6 * size + 40, (text, built, size)


STATIONARY_CUSP = (
    "let q(x) = (x - 1)*(x - 2)*(x - 3)*(x - 4) + t*x\n"
    "g8 = 3*q(s)^2\n"
    "g12 = q(s)^3\n"
)


# text, error, message: the refusals analyze and oracle_compare share
REFUSED = {
    # the end exponents of tent's g12 alone are fine; the zero g8 is refused
    # when its Newton polygon is built, before the oracle samples any t
    "zero g8": (
        "g8 = 0\ng12 = s^6 + t*(1 + s^12)\n",
        ZeroFormError, "^Newton polygon of the zero form$",
    ),
    # a constant g12 does not degenerate, and that is found before the zero g8
    "constant g12": (
        "g8 = 0\ng12 = s^6 + 1 + s^12\n",
        UnrecognizedCuspError, "^end exponents \\(0, 0\\) are not both positive",
    ),
    "non-minimal": (
        "g8 = (s-1)^4*(3*s^4 + t + t*s^4)\ng12 = (s-1)^6*(s^6 + t + t*s^6)\n",
        NotMinimalError, "^a nonconstant form P has P\\^4 \\| g8 and P\\^6 \\| g12$",
    ),
    # two identically cuspidal families: the end exponents, both zero, are
    # checked before the discriminant
    "stationary cusp": (
        STATIONARY_CUSP,
        UnrecognizedCuspError, "^end exponents \\(0, 0\\) are not both positive",
    ),
    "cusp of s^4 + 1": (
        "g8 = 3*(s^4 + 1)^2\ng12 = (s^4 + 1)^3\n",
        UnrecognizedCuspError, "^end exponents \\(0, 0\\) are not both positive",
    ),
}


def test_first_failing_check_decides_the_error(named):
    # analyze and oracle_compare derive a family's data in one order, so a
    # refused text gets one error from both: the same type, tag and message
    for name, (text, error, message) in REFUSED.items():
        pair = parse_family(text)
        raised = []
        for run in (analyze, oracle_compare):
            with pytest.raises(error, match=message) as info:
                run(pair)
            raised.append((type(info.value), info.value.tag, str(info.value)))
        assert raised[0] == raised[1], name
    # the one difference: an identically zero discriminant with both end
    # exponents positive is analyze's cusp-quartic route and the oracle's E_NN
    assert analyze(named["d_constant"]).cusp is CuspKind.CUSPIDAL_TO_MAXIMAL
    with pytest.raises(
        CuspidalFamilyError,
        match="^discriminant vanishes identically; use the cusp-quartic route$",
    ) as info:
        oracle_compare(named["d_constant"], t_list=(1e-3,))
    assert info.value.tag == "E_NN"


# ---------------------------------------------------------------------------
# invariances the theory promises (metamorphic checks: Chen et al. 1998)
# ---------------------------------------------------------------------------


def _invariants(rep):
    return (
        rep.density.breakpoints,
        rep.stable.label(),
        rep.lattice.determinant(),
        rep.cusp,
        rep.left_end.is_nodal,
        rep.right_end.is_nodal,
    )


def _gauged(c):
    return lambda f: FamilyPair(f.g8.shift_t(2 * c), f.g12.shift_t(3 * c))


def _s_scaled(lam):
    def scale(form):
        return SForm(form.degree, [x.scale(lam**i) for i, x in enumerate(form.coeffs)])

    return lambda f: FamilyPair(scale(f.g8), scale(f.g12))


def _base_changed(r):
    return lambda f: FamilyPair(f.g8.rescale_exponents(r), f.g12.rescale_exponents(r))


TRANSFORMS = (
    [("gauge c=%s" % c, _gauged(c)) for c in (1, -2, Fraction(1, 2))]
    + [("s -> %s*s" % lam, _s_scaled(lam)) for lam in (2, -1, Fraction(1, 3))]
    + [("reprinted", lambda f: parse_family(canonical_text(f)))]
    # r = 1/2 and 2/3 give ramification 2 and 3, which no named or corpus
    # family has; d_constant then runs the cusp-quartic extraction with them
    + [("t -> t^%s" % r, _base_changed(r)) for r in (Fraction(1, 2), Fraction(2, 3), 2)]
)


def test_report_is_invariant_under_gauge_s_scaling_reprint_and_base_change(named, corpus):
    families = list(named.items()) + [("corpus/%d" % i, f) for i, f in enumerate(corpus[:10])]
    for name, f in families:
        expected = _invariants(analyze(f))
        for label, transform in TRANSFORMS:
            assert _invariants(analyze(transform(f))) == expected, (name, label)


# ---------------------------------------------------------------------------
# what a report reads off what it already holds: the cusp and the determinant
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chart_reports(named, corpus):
    """corpus-100 (seed 1729) in the charts s, -s, 1/s and -1/s and the named
    families with their inversions, as (normalized pair, report), and the
    calls of cusp_type while analyze ran on them."""
    flip = _s_scaled(-1)
    families = [
        h for f in corpus
        for h in (f, flip(f), f.inverted(), flip(f).inverted())
    ]
    families += [h for f in named.values() for h in (f, f.inverted())]
    reports = []
    calls = count_calls(lambda: reports.extend(map(analyze, families)), cusp_type, cuspidal_kind)
    return [(f.normalized(), rep) for f, rep in zip(families, reports)], calls


def test_a_reported_cusp_is_the_classified_one(chart_reports):
    pairs, calls = chart_reports
    assert calls == {"cusp_type": 0, "cuspidal_kind": 0}
    kinds = [CuspKind.MAXIMAL if g.discriminant24() else CuspKind.CUSPIDAL_TO_MAXIMAL for g, _ in pairs]
    # only d_constant and its inversion take the cusp-quartic route, where
    # analyze reads the kind off the route and cusp_type classifies G's limit
    assert kinds.count(CuspKind.MAXIMAL) == len(pairs) - 2 == 408
    for (g, rep), kind in zip(pairs, kinds):
        assert rep.cusp is cusp_type(g) is kind


def test_to_dict_reads_determinants_without_elimination(chart_reports, monkeypatch):
    # each component's determinant is a closed form, their product the lattice's
    sizes, dets = [], []
    eliminate = lattices._eliminate

    def recorded(gram):
        sizes.append(len(gram))
        return eliminate(gram)

    monkeypatch.setattr(lattices, "_eliminate", recorded)
    for _, rep in chart_reports[0]:
        dets.append(rep.to_dict()["lattice"]["determinant"])
    assert sizes == []
    monkeypatch.undo()
    assert dets == [rep.lattice.determinant() for _, rep in chart_reports[0]]


# a record of each kind the package returns, other than Lattice, and a field
_RECORD_FIELDS = {
    "AnalysisReport": "source", "StableType": "components", "Component": "kind",
    "EndSurface": "is_nodal", "OracleReport": "fitted_c", "Stratum": "label",
    "CutData": "w_plus", "EndExponents": "at_zero", "TropicalPolynomial": "den",
    "Discriminant": "rows",
}


@pytest.fixture(scope="module")
def tent_records(named, named_reports):
    report = named_reports["tent"]
    g, _, _, ends, trop_d = derive(named["tent"])
    records = (
        report, report.stable, report.stable.components[0], report.left_end,
        oracle_compare(named["tent"]), enumerate_divisors()[0], cut_positions(trop_d, ends),
        ends, trop_d, g.discriminant_rows(),
    )
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", _RECORD_FIELDS)
def test_every_record_is_immutable(tent_records, name):
    record, field = tent_records[name], _RECORD_FIELDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
