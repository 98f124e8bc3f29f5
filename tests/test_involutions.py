import pytest

from seqlab.involutions import (
    ENUMERATION_MAX,
    check_involution_identity,
    count_involutions_enum,
)
from seqlab.sequences import a_seq


def test_counts_small():
    assert [count_involutions_enum(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]


def test_count_domain():
    with pytest.raises(ValueError):
        count_involutions_enum(-1)
    with pytest.raises(ValueError):
        count_involutions_enum(ENUMERATION_MAX + 1)


def test_check_matches_companion_sequence():
    result = check_involution_identity(8)
    assert result.passed
    assert result.name == "involutions"
    assert (result.lo, result.hi) == (0, 8)


def test_check_catches_corruption():
    a = list(a_seq(8))
    a[6] -= 1
    result = check_involution_identity(8, a)
    assert not result.passed
    assert [n for n, _ in result.counterexamples] == [6]


def test_check_respects_cap():
    with pytest.raises(ValueError):
        check_involution_identity(ENUMERATION_MAX + 1)
