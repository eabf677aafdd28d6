"""Unit conversions and constants."""

import pytest

from repro import units


def test_frame_size_is_4k():
    assert units.FRAME_SIZE == 4096


def test_pageblock_is_2mib():
    assert units.PAGEBLOCK_FRAMES * units.FRAME_SIZE == 2 * 1024 * 1024


def test_max_order_is_pageblock_order():
    # Design invariant: buddy blocks never straddle pageblocks.
    assert units.MAX_ORDER == units.PAGEBLOCK_ORDER


def test_gigapage_frames():
    assert units.GIGAPAGE_FRAMES == 262144


def test_size_helpers():
    assert units.MiB(2) == 2 * 1024 * 1024
    assert units.GiB(1) == 1 << 30


def test_bytes_frames_roundtrip():
    assert units.bytes_to_frames(123 * units.FRAME_SIZE) == 123


def test_bytes_to_frames_rejects_partial_frames():
    with pytest.raises(ValueError):
        units.bytes_to_frames(4097)


def test_order_of():
    assert units.order_of(1) == 0
    assert units.order_of(512) == 9


@pytest.mark.parametrize("bad", [0, 3, 511, -4])
def test_order_of_rejects_non_powers(bad):
    with pytest.raises(ValueError):
        units.order_of(bad)
