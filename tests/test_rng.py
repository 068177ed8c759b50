import numpy as np
import pytest

from intricacy import SplitMix64


def test_reference_vectors_seed_zero():
    # published splitmix64 outputs for state 0
    r = SplitMix64(0)
    assert r.next_uint64() == 0xE220A8397B1DCDAF
    assert r.next_uint64() == 0x6E789E6AA1B965F4
    assert r.next_uint64() == 0x06C45D188009454F


def test_determinism():
    a = [SplitMix64(42).next_uint64() for _ in range(5)]
    b = [SplitMix64(42).next_uint64() for _ in range(5)]
    assert a == b


def test_randbelow_range_and_coverage():
    r = SplitMix64(7)
    seen = {r.randbelow(6) for _ in range(500)}
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        r.randbelow(0)


def test_uniform_in_unit_interval():
    r = SplitMix64(9)
    vals = [r.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_sample_subset_sorted_and_valid():
    r = SplitMix64(3)
    for _ in range(50):
        s = r.sample_subset(10, 4)
        assert len(s) == 4 == len(set(s))
        assert list(s) == sorted(s)
        assert all(0 <= i < 10 for i in s)
    assert r.sample_subset(5, 0) == ()
    assert r.sample_subset(5, 5) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        r.sample_subset(5, 6)


def test_sample_subset_mask_popcount():
    r = SplitMix64(11)
    for _ in range(20):
        m = r.sample_subset_mask(12, 5)
        assert bin(m).count("1") == 5
        assert m < (1 << 12)


BOUNDS = [1, 2, 3, 5, 7, 255, 256, 2**63 + 1, 3 * 2**62]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("bound", BOUNDS)
def test_randbelow_array_is_the_scalar_stream(seed, bound):
    # 2^16 + 5 values span more than one block, so rejected raw values
    # (25-50% of them for the two largest bounds) are dropped across a
    # block boundary
    for count in (0, 1, 17, 2**16 + 5):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        values = block.randbelow_array(bound, count)
        assert values.shape == (count,)
        assert values.tolist() == [scalar.randbelow(bound) for _ in range(count)]
        assert block.state == scalar.state
        assert block.randbelow(bound) == scalar.randbelow(bound)


def test_randbelow_array_dtype_holds_bound():
    r = SplitMix64(1)
    assert r.randbelow_array(256, 4).dtype == np.uint8
    assert r.randbelow_array(257, 4).dtype == np.uint16
    assert r.randbelow_array(2**64 - 1, 4).dtype == np.uint64


@pytest.mark.parametrize("bound,count", [(0, 3), (-2, 3), (2**64, 3),
                                         (2**65 + 1, 3), (2, -1)])
def test_randbelow_array_rejects_bad_arguments(bound, count):
    r = SplitMix64(3)
    with pytest.raises(ValueError):
        r.randbelow_array(bound, count)
    assert r.state == 3
