"""Boundary strata bookkeeping: the counts are small enough to recount
here by brute force, so that is what most of these tests do."""

import hashlib
from collections import Counter

from k3seg.classify import component, StableType
from k3seg.moduli import (
    chamber_count,
    degeneration_check,
    enumerate_codim2,
    enumerate_divisors,
    normalization_preimage_count,
    Stratum,
)


def st(*parts):
    return StableType(tuple(component(k, n) for k, n in parts))


def comps(*parts):
    return [component(k, n) for k, n in parts]


# ---------------------------------------------------------------------------
# stratum enumeration
# ---------------------------------------------------------------------------


def test_divisor_count_splits_by_shape():
    divisors = enumerate_divisors()
    assert len(divisors) == 54
    three = [d for d in divisors if len(d.params) == 3]
    two = [d for d in divisors if len(d.params) == 2]
    assert len(three) == 45
    assert len(two) == 9


def test_divisor_three_part_params_are_canonical():
    # (k1, a, k3) with k1 <= k3 and k1 + a + k3 = 17: 45 unordered choices
    seen = set()
    for d in enumerate_divisors():
        if len(d.params) != 3:
            continue
        k1, a, k3 = d.params
        assert k1 <= k3
        assert k1 + a + k3 == 17
        assert 0 <= k1 <= 8 and 0 <= k3 <= 8
        seen.add((k1, k3))
    assert len(seen) == 45


def test_divisors_have_codimension_one_and_unique_labels():
    divisors = enumerate_divisors()
    assert all(d.codim == 1 for d in divisors)
    assert not any(d.is_nonnormal_locus for d in divisors)
    labels = [d.label for d in divisors]
    assert len(set(labels)) == len(labels)


def test_divisor_charges_sum_to_twenty_four():
    for d in enumerate_divisors():
        if len(d.params) == 3:
            k1, a, k3 = d.params
            total = (k1 + 3) + (a + 1) + (k3 + 3)
        else:
            k, dd = d.params
            total = (k + 3) + (dd + 4)
        assert total == 24


def test_codim2_count_splits_by_shape():
    strata = enumerate_codim2()
    assert len(strata) == 495
    by_len = Counter(len(s.params) for s in strata)
    assert by_len[4] == 369  # E A A E chains
    assert by_len[3] == 117  # E A D chains
    assert by_len[2] == 9    # D D chains
    assert all(s.codim == 2 for s in strata)


def test_codim2_four_part_params_are_canonical():
    for s in enumerate_codim2():
        if len(s.params) == 4:
            assert s.params <= s.params[::-1]


def test_codim2_labels_are_unique():
    labels = [s.label for s in enumerate_codim2()]
    assert len(set(labels)) == len(labels)


def test_strata_keep_their_order():
    # the counts and canonical forms above hold under any reordering; `k3seg
    # strata --divisors` and `--codim2` print the strata in this order
    text = "".join(
        "%s %d\n" % (s.label, s.is_nonnormal_locus)
        for s in enumerate_divisors() + enumerate_codim2()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af1c337fca66ba0a9fd0bcf7cf8a15d537cafca184ab610f938a0db8a5575f0b"
    )


def test_nonnormal_loci():
    strata = enumerate_codim2()
    flagged = [s for s in strata if s.is_nonnormal_locus]
    assert len(flagged) == 10
    # nine of them are E A D chains pinched at the E end, one is D D
    ead = [s for s in flagged if len(s.params) == 3]
    dd = [s for s in flagged if len(s.params) == 2]
    assert len(ead) == 9
    assert len(dd) == 1
    assert all(s.params[-1] == 0 for s in ead)
    assert dd[0].params[0] == 0


def test_normalization_preimage_count():
    assert normalization_preimage_count() == 2 * 10
    assert normalization_preimage_count() == 20


def test_chamber_count():
    assert chamber_count() == 9


def test_stratum_is_a_plain_record():
    s = Stratum(label="x", codim=1, is_nonnormal_locus=False, params=(1, 2))
    assert (s.label, s.codim, s.params) == ("x", 1, (1, 2))


# ---------------------------------------------------------------------------
# adjacency of stable types under further degeneration
# ---------------------------------------------------------------------------


def test_degeneration_accepts_a_chain_split():
    parent = st(("E", 0), ("A", 17), ("E", 0))
    children = [comps(("E", 0)), comps(("A", 2), ("A", 14)), comps(("E", 0))]
    assert degeneration_check(parent, children)


def test_degeneration_needs_matching_slot_count():
    parent = st(("E", 0), ("A", 17), ("E", 0))
    assert not degeneration_check(parent, [comps(("E", 0)), comps(("A", 17))])


def test_degeneration_charge_must_balance():
    parent = st(("E", 8))
    # E8 carries charge 11; E8 + A1 would carry 13
    assert not degeneration_check(parent, [comps(("E", 8), ("A", 1))])


def test_degeneration_e_slot_accepts_smaller_e_plus_a():
    parent = st(("E", 8))
    assert degeneration_check(parent, [comps(("E", 5), ("A", 2))])


def test_degeneration_e_slot_accepts_d_plus_a():
    # charge: (k-1)+4 + (l-1)+1 = k+l+3, matching E_{k+l}
    for k, l in ((2, 3), (4, 4), (1, 7)):
        parent = st(("E", k + l))
        assert degeneration_check(parent, [comps(("D", k - 1), ("A", l - 1))])


def test_degeneration_e_slot_requires_exactly_one_heavy_component():
    parent = st(("E", 8))
    # charges total 11 and indices fit, but every part is an A
    assert not degeneration_check(parent, [comps(("A", 0), ("A", 0), ("A", 8))])


def test_degeneration_a_slot_takes_only_a_parts():
    parent = st(("E", 0), ("A", 17), ("E", 0))
    children = [comps(("E", 0)), comps(("D", 0), ("A", 12)), comps(("E", 0))]
    assert not degeneration_check(parent, children)


def test_degeneration_d_slot_requires_exactly_one_d():
    parent = st(("D", 8))
    assert not degeneration_check(parent, [comps(("A", 0), ("A", 0), ("A", 0), ("A", 8))])
    assert not degeneration_check(parent, [comps(("D", 0), ("D", 4))])


def test_degeneration_d_slot_rejects_e_parts():
    parent = st(("D", 8))
    assert not degeneration_check(parent, [comps(("E", 5), ("A", 3))])


def test_degeneration_d_slot_accepts_d_plus_a():
    parent = st(("D", 14))
    assert degeneration_check(parent, [comps(("D", 2), ("A", 11))])


def test_degeneration_d_slot_cannot_collapse_to_a_parts():
    parent = st(("D", 8))
    # A11 matches the charge of D8 on the nose but is the wrong kind,
    # and its index 11 overshoots the parent index 8 anyway
    assert not degeneration_check(parent, [comps(("A", 11))])


def test_degeneration_e_slot_rejects_two_heavy_components():
    parent = st(("E", 8))
    # charges 3 + 8 = 11 and indices 0 + 5 fit, but both parts are heavy
    assert not degeneration_check(parent, [comps(("E", 0), ("E", 5))])


def test_degeneration_multi_slot_parent_checks_each_slot():
    parent = st(("D", 2), ("D", 14))
    ok = [comps(("D", 2)), comps(("D", 2), ("A", 11))]
    assert degeneration_check(parent, ok)
    swapped = [comps(("D", 2), ("A", 11)), comps(("D", 2))]
    assert not degeneration_check(parent, swapped)
