"""First-fit allocation against the unit interval."""

import random
from fractions import Fraction

import pytest

from sdlisp.dyadic import Dyadic
from sdlisp.kraft import (
    Allocator,
    BuildFailure,
    Exhausted,
    KraftMachine,
    Requirement,
    build_computer,
)

from oracles import AllocatorReference, dyadic_as_fraction, first_fit_by_definition, root_pairs


def take(allocator, sizes):
    return [allocator.request(Requirement(s, "o")) for s in sizes]


def assert_prefix_free(codewords):
    words = sorted(codewords)
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a), (a, b)


def one_bits(x):
    """Depths d with a 1 in the 2^-d place of the dyadic fraction x <= 1."""
    depths = []
    d = 0
    while x:
        if x >= Fraction(1, 2 ** d):
            depths.append(d)
            x -= Fraction(1, 2 ** d)
        d += 1
    return depths


class TestRequest:
    def test_two_halves_then_exhausted(self):
        a = Allocator()
        assert take(a, [1, 1]) == ["0", "1"]
        with pytest.raises(Exhausted):
            a.request(Requirement(1, "o"))

    def test_hand_simulation_1233(self):
        a = Allocator()
        assert take(a, [1, 2, 3, 3]) == ["0", "10", "110", "111"]
        assert a.measure_used() == Dyadic(1)

    def test_size_one_after_size_two_takes_the_free_half(self):
        a = Allocator()
        assert take(a, [2, 1]) == ["00", "1"]

    def test_duplicate_requirements_get_distinct_codewords(self):
        a = Allocator()
        words = take(a, [3, 3, 3])
        assert len(set(words)) == 3

    def test_size_zero_takes_everything(self):
        a = Allocator()
        assert a.request(Requirement(0, "all")) == ""
        with pytest.raises(Exhausted):
            a.request(Requirement(5, "o"))

    def test_measure_accumulates(self):
        a = Allocator()
        assert a.measure_used() == Dyadic(0)
        take(a, [1, 2])
        assert str(a.measure_used()) == "3/4"

    def test_deterministic(self):
        sizes = [3, 1, 4, 4, 3, 5, 5]
        assert take(Allocator(), sizes) == take(Allocator(), sizes)

    def test_prefix_free_after_every_request(self):
        rng = random.Random(23)
        for _ in range(50):
            a = Allocator()
            used = Fraction(0)
            while True:
                s = rng.randrange(0, 9)
                if used + Fraction(1, 2 ** s) > 1:
                    break
                a.request(Requirement(s, "o"))
                used += Fraction(1, 2 ** s)
                assert_prefix_free([w for w, _ in a.assigned])
            assert dyadic_as_fraction(a.measure_used()) == used

    def test_interval_view_total_length(self):
        # codeword c covers [0.c, 0.c + 2^-|c|); disjointness is prefix-
        # freeness and the lengths add up to the used measure
        a = Allocator()
        take(a, [2, 3, 1, 4])
        intervals = []
        for word, _ in a.assigned:
            lo = Fraction(int(word, 2) if word else 0, 2 ** len(word))
            intervals.append((lo, lo + Fraction(1, 2 ** len(word))))
        intervals.sort()
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2
        total = sum(b - a for a, b in intervals)
        assert total == dyadic_as_fraction(a.measure_used())
        assert total == Fraction(1, 4) + Fraction(1, 8) + Fraction(1, 2) + Fraction(1, 16)


class TestSoundness:
    def test_overflow_fails_at_the_overflowing_request(self):
        a = Allocator()
        take(a, [1, 1])
        with pytest.raises(Exhausted):
            a.request(Requirement(4, "o"))

    def test_full_random_streams_succeed(self):
        rng = random.Random(31)
        for _ in range(200):
            sizes = []
            used = Fraction(0)
            while True:
                s = rng.randrange(0, 10)
                if used + Fraction(1, 2 ** s) > 1:
                    break
                sizes.append(s)
                used += Fraction(1, 2 ** s)
            a = Allocator()
            for s in sizes:
                a.request(Requirement(s, "o"))  # must not raise
            assert dyadic_as_fraction(a.measure_used()) == used


class TestFirstFitInvariant:
    def test_codewords_equal_the_definition(self):
        rng = random.Random(53)
        for _ in range(60):
            sizes = [rng.randrange(0, 11) for _ in range(rng.randrange(1, 30))]
            a = Allocator()
            got = []
            for s in sizes:
                try:
                    got.append(a.request(Requirement(s, "o")))
                except Exhausted:
                    got.append(None)
            assert got == first_fit_by_definition(sizes), sizes

    def test_exhausted_exactly_when_the_mass_would_pass_one(self):
        rng = random.Random(59)
        for _ in range(200):
            a = Allocator()
            used = Fraction(0)
            for _ in range(60):
                s = rng.randrange(0, 11)
                before = (dict(a.free), list(a.assigned))
                if used + Fraction(1, 2 ** s) <= 1:
                    a.request(Requirement(s, "o"))
                    used += Fraction(1, 2 ** s)
                else:
                    with pytest.raises(Exhausted):
                        a.request(Requirement(s, "o"))
                    assert (a.free, a.assigned) == before
                assert sorted(a.free) == one_bits(1 - used)
                # deeper free blocks lie to the left of shallower ones
                edges = [Fraction(a.free[d], 2 ** d) for d in sorted(a.free, reverse=True)]
                assert edges == sorted(edges)


    def test_matches_the_scanning_reference(self):
        rng = random.Random(71)
        for _ in range(300):
            # size-0 requests now and then; most streams overfill the space
            sizes = [0 if rng.random() < 0.03 else rng.randrange(1, 13)
                     for _ in range(rng.randrange(1, 80))]
            a, ref = Allocator(), AllocatorReference()
            for s in sizes:
                try:
                    expected = ref.request(Requirement(s, "o"))
                except Exhausted:
                    with pytest.raises(Exhausted):
                        a.request(Requirement(s, "o"))
                else:
                    assert a.request(Requirement(s, "o")) == expected, sizes
                assert a.free == ref.free
                assert a.free_mask == sum(1 << d for d in a.free)
            assert a.assigned == ref.assigned


class TestBuildComputer:
    def test_machine_runs_its_codewords(self):
        reqs = [Requirement(1, ("a",)), Requirement(2, "b"), Requirement(3, 7), Requirement(3, 7)]
        machine = build_computer(reqs)
        assert machine.run("0").value == ("a",)
        assert machine.run("10").value == "b"
        assert machine.run("110").value == 7
        assert machine.run("111").value == 7

    def test_exact_consumption(self):
        machine = build_computer([Requirement(2, "x")])
        assert machine.run("00").halted
        assert machine.run("0").reason == "out-of-data"
        assert machine.run("001").reason == "partial-consumption"
        # no extension of 11 can halt, so it is not out of data
        assert machine.run("11").reason == "parse-error"

    def test_prefix_free_assignments_are_required(self):
        with pytest.raises(ValueError):
            KraftMachine([("0", "a"), ("01", "b")])
        with pytest.raises(ValueError):
            KraftMachine([("10", "a"), ("11", "b"), ("10", "c")])
        assert KraftMachine([("01", "a"), ("1", "b")]).run("1").value == "b"

    def test_empty_stream_gives_empty_domain(self):
        machine = build_computer([])
        assert not machine.run("").halted
        assert list(root_pairs(machine, 8)) == []

    def test_failure_reports_index(self):
        reqs = [Requirement(1, "a"), Requirement(1, "b"), Requirement(1, "c")]
        with pytest.raises(BuildFailure) as info:
            build_computer(reqs)
        assert info.value.index == 2

    def test_exact_omega_is_the_measure(self):
        machine = build_computer([Requirement(1, "a"), Requirement(2, "b")])
        assert str(machine.exact_omega) == "3/4"

    def test_machine_composes_with_omega_machinery(self):
        from sdlisp.omega import omega_lower_bound
        machine = build_computer([Requirement(2, "a"), Requirement(2, "b")])
        estimate = omega_lower_bound(machine, 8, None)
        assert estimate.value == machine.exact_omega


def reference_build(sizes):
    """(assignments, None) from the scanning reference when every request of
    sizes fits, else (None, index of the first request it cannot place)."""
    ref = AllocatorReference()
    for i, s in enumerate(sizes):
        try:
            ref.request(Requirement(s, i))
        except Exhausted:
            return None, i
    return ref.assigned, None


def build(sizes):
    """(assignments, None) from build_computer, else (None, failing index)."""
    reqs = [Requirement(s, i) for i, s in enumerate(sizes)]
    try:
        machine = build_computer(reqs)
    except BuildFailure as failure:
        assert failure.requirement is reqs[failure.index]
        return None, failure.index
    return machine.assignments, None


class TestBuildAgainstReference:
    def test_seeded_streams(self):
        rng = random.Random(83)
        overfull = 0
        for _ in range(200):
            # a random floor on the sizes mixes streams that fit with
            # streams that overfill early or late
            floor = rng.randrange(0, 5)
            sizes = [rng.randint(floor, 12) for _ in range(rng.randint(1, 40))]
            expected = reference_build(sizes)
            assert build(sizes) == expected, sizes
            used = Fraction(0)
            for i, s in enumerate(sizes):
                used += Fraction(1, 2 ** s)
                if used > 1:
                    assert expected == (None, i), sizes
                    overfull += 1
                    break
            else:
                assert expected[1] is None, sizes
        assert 60 <= overfull <= 140  # 84 of 200 with this seed

    def test_a_stream_of_total_one_builds(self):
        assignments, _ = build([1, 2, 3, 3])
        assert [w for w, _ in assignments] == ["0", "10", "110", "111"]
        for s in range(13):
            assert build([1, 2, 3, 3, s]) == (None, 4)

    def test_size_zero_alone_builds(self):
        assert build([0]) == ([("", 0)], None)
        assert build([0, 0]) == (None, 1)

    def test_a_one_shot_generator_builds_as_its_list(self):
        reqs = [Requirement(s, i) for i, s in enumerate([3, 1, 4, 4, 3, 5, 5])]
        assert build_computer(iter(reqs)).assignments == build_computer(reqs).assignments
        with pytest.raises(BuildFailure) as info:
            build_computer(r for r in reqs + [Requirement(1, "x")])
        assert info.value.index == 7

    @pytest.mark.parametrize("first", [True, False])
    def test_a_deep_requirement_among_seeded_ones(self, first):
        rng = random.Random(89)
        sizes = [rng.randint(11, 16) for _ in range(2000)]
        sizes = [10_000] + sizes if first else sizes + [10_000]
        assignments, failed = build(sizes)
        assert failed is None
        assert assignments == reference_build(sizes)[0]
