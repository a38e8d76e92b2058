"""The seeded stream against a reference splitmix64 written from its formula."""

from fractions import Fraction
from math import gcd

import pytest

from gcnlab.rng import SplitMix64, substream_seed

from oracles import ReferenceSplitMix64, reference_substream_seed

SEEDS = (0, 2**64 - 1, -12345)
# 2**32 + 1 and 2**63 + 1 reject a large share of outputs, so the
# rejection branch runs within a few draws; 2**64, the widest span, rejects none
SPANS = (1, 2, 3, 17, 2**32 + 1, 2**63 + 1, 2**64)


def test_seed_zero_gives_the_published_vector():
    # the first outputs of the splitmix64 reference implementation from state 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_next_u64(seed):
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    assert [rng.next_u64() for _ in range(200)] == [reference.next_u64() for _ in range(200)]


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("seed", SEEDS)
def test_randint(seed, span):
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for lo in (0, -(span // 2), 5):
        got = [rng.randint(lo, lo + span - 1) for _ in range(100)]
        assert got == [reference.randint(lo, lo + span - 1) for _ in range(100)]
        assert all(lo <= v < lo + span for v in got)
    # both streams consumed the same number of outputs, rejections included
    assert rng.next_u64() == reference.next_u64()


def test_randint_rejects_outputs_above_the_last_whole_span():
    span = 2**63 + 1
    reference = ReferenceSplitMix64(0)
    outputs = [reference.next_u64() for _ in range(40)]
    assert any(r >= span for r in outputs)  # some outputs are rejected
    accepted = [r for r in outputs if r < span]
    rng = SplitMix64(0)
    assert [rng.randint(0, span - 1) for _ in accepted] == accepted


@pytest.mark.parametrize("bound", (1, 2, 8, 40))
@pytest.mark.parametrize("seed", SEEDS)
def test_rational(seed, bound):
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    got = [rng.rational(bound) for _ in range(100)]
    assert [Fraction(*pair) for pair in got] == [reference.rational(bound) for _ in range(100)]
    for num, den in got:
        assert type(num) is int and type(den) is int
        assert gcd(num, den) == 1 and 0 < den <= bound and abs(num) <= bound


@pytest.mark.parametrize("bound", (1, 2, 8))
@pytest.mark.parametrize("seed", SEEDS)
def test_line(seed, bound):
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    got = [rng.line(bound) for _ in range(100)]
    assert got == [reference.line(bound) for _ in range(100)]
    for a, b, c in got:
        assert (a, b) != (0, 0)
        assert max(abs(a), abs(b), abs(c)) <= bound
    # both streams consumed the same number of outputs, redraws included
    assert rng.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice(seed):
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for items in (("chung_yao", "principal"), range(17), "abc", [None]):
        got = [rng.choice(items) for _ in range(50)]
        assert got == [reference.choice(items) for _ in range(50)]


@pytest.mark.parametrize("seed", (*SEEDS, 2024, 7331))
def test_substream_seed(seed):
    for index in (0, 1, 2, 199, 2**64 - 1):
        assert substream_seed(seed, index) == reference_substream_seed(seed, index)


def test_empty_range_and_sequence():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.randint(1, 0)
    with pytest.raises(ValueError):
        rng.choice(())
    with pytest.raises(ValueError):
        rng.rational(0)
    with pytest.raises(ValueError):
        rng.line(0)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_span_past_two_to_the_64_raises(seed):
    # no 64-bit output is below the largest multiple of such a span that fits, 0
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for generator in (rng, reference):
        for lo, hi in ((0, 2**64), (-(2**63), 2**63), (5, 2**70)):
            with pytest.raises(ValueError, match=r"holds more than 2\*\*64 integers"):
                generator.randint(lo, hi)
        with pytest.raises(ValueError):
            generator.rational(2**63)
        with pytest.raises(ValueError):
            generator.line(2**63)
    # a refused draw consumes no output, and the widest bound below 2**63 still draws
    assert rng.next_u64() == reference.next_u64()
    bound = 2**63 - 1
    assert rng.line(bound) == reference.line(bound)
    assert Fraction(*rng.rational(bound)) == reference.rational(bound)
