import pytest

from morphograph.weights import BOTTOM, TOP, W_MAX


def is_level(x: int) -> bool:
    """True for a proper weight level, False for a sentinel."""
    return 0 <= x <= W_MAX


def complement(x: int, w_max: int = W_MAX) -> int:
    """Order-reversing involution on levels; swaps the sentinels."""
    if x == BOTTOM:
        return TOP
    if x == TOP:
        return BOTTOM
    if not 0 <= x <= w_max:
        raise ValueError(f"weight {x} outside [0, {w_max}]")
    return w_max - x


def test_sentinels_bracket_levels():
    assert BOTTOM < 0 <= W_MAX < TOP
    assert not is_level(BOTTOM) and not is_level(TOP)
    assert is_level(0) and is_level(W_MAX)


def test_complement_is_order_reversing_involution():
    w_max = 9
    values = list(range(10))
    comp = [complement(x, w_max) for x in values]
    assert comp == sorted(comp, reverse=True)
    assert [complement(c, w_max) for c in comp] == values


def test_complement_swaps_sentinels():
    assert complement(BOTTOM) == TOP
    assert complement(TOP) == BOTTOM


def test_complement_rejects_out_of_range():
    with pytest.raises(ValueError):
        complement(17, 9)
