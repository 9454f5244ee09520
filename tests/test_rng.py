import pytest

from hwcsum.rng import MT19937


def test_matches_reference_stream_for_seeds_0_to_4(mt_reference):
    for seed, expected in mt_reference.items():
        gen = MT19937(seed)
        assert [gen.next_u32() for _ in range(1000)] == expected


def test_equal_seeds_give_identical_streams():
    a, b = MT19937(42), MT19937(42)
    assert [a.next_u32() for _ in range(500)] == [b.next_u32() for _ in range(500)]


def test_seed_must_be_32_bit():
    with pytest.raises(ValueError):
        MT19937(-1)
    with pytest.raises(ValueError):
        MT19937(1 << 32)
    MT19937(0)
    MT19937((1 << 32) - 1)


def test_bounded_stays_in_range():
    gen = MT19937(3)
    for m in (1, 2, 3, 7, 100, 1000):
        for _ in range(200):
            assert 0 <= gen.bounded(m) < m


def test_bounded_rejects_nonpositive():
    with pytest.raises(ValueError):
        MT19937(0).bounded(0)


def test_bounded_matches_documented_rule(mt_reference):
    # independent reimplementation of rejection + modulo on the frozen stream
    stream = iter(mt_reference[2])

    def expected_bounded(m):
        limit = ((1 << 32) // m) * m
        while True:
            u = next(stream)
            if u < limit:
                return u % m

    gen = MT19937(2)
    for m in (5, 3, 17, 255, 1000, 2):
        assert gen.bounded(m) == expected_bounded(m)


def test_random_float_unit_interval():
    gen = MT19937(9)
    for _ in range(1000):
        x = gen.random_float()
        assert 0.0 <= x < 1.0


def test_shuffle_golden_permutation():
    # frozen from the reference stream for seed 0: Fisher-Yates over range(5)
    items = list(range(5))
    MT19937(0).shuffle(items)
    assert items == [1, 0, 2, 3, 4]


def test_shuffle_is_a_permutation():
    gen = MT19937(11)
    items = list(range(100))
    MT19937(11).shuffle(items)
    assert sorted(items) == list(range(100))


# ---- bulk draws ---------------------------------------------------------------


def test_bulk_draws_match_reference_stream_for_seeds_0_to_4(mt_reference):
    for seed, expected in mt_reference.items():
        assert MT19937(seed).u32_array(1000).tolist() == expected
        got = MT19937(seed).uniform_array(1000, -0.1, 0.1).tolist()
        assert got == [-0.1 + 0.2 * (u * (1.0 / (1 << 32))) for u in expected]


def test_interleaved_scalar_and_bulk_draws_equal_scalar_stream():
    # odd sizes that start and end mid-state and cross several 624-word twists
    sizes = [1, 7, 623, 2, 625, 0, 1249, 311, 3, 1871, 5]
    bulk, scalar = MT19937(20260), MT19937(20260)
    got = []
    for n in sizes:
        got += bulk.u32_array(n).tolist()
        got.append(bulk.next_u32())
        got.append(bulk.bounded(1000))
    expected = []
    for n in sizes:
        expected += [scalar.next_u32() for _ in range(n)]
        expected.append(scalar.next_u32())
        expected.append(scalar.bounded(1000))
    assert got == expected
    assert bulk.next_u32() == scalar.next_u32()


def test_interleaved_draws_match_reference_stream(mt_reference):
    # scalar, bulk and bounded draws in turn, across the first twist, against
    # the C reference itself rather than against this class
    for seed, expected in mt_reference.items():
        stream = iter(expected)
        gen = MT19937(seed)
        # 3 << 30 rejects a quarter of the draws
        for n, m in [(1, 7), (300, 1000), (0, 3), (322, 2), (5, 3 << 30), (250, 17)]:
            assert gen.u32_array(n).tolist() == [next(stream) for _ in range(n)]
            assert gen.next_u32() == next(stream)
            limit = ((1 << 32) // m) * m
            u = next(stream)
            while u >= limit:
                u = next(stream)
            assert gen.bounded(m) == u % m
        assert gen.next_u32() == next(stream)


def test_bulk_draw_count_must_be_nonnegative():
    with pytest.raises(ValueError):
        MT19937(0).u32_array(-1)
