import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import incidence, transforms
from freeprob import ncpart as nc
from freeprob.errors import ResourceLimitError, ValidationError
from freeprob.sequences import RationalSequence


def catalan_recurrence(n):
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


def test_noncrossing_examples_from_circular_representation():
    good = nc.Partition(12, [(1, 2, 5, 9), (3, 4), (6,), (7, 8), (10, 11, 12)])
    assert nc.is_noncrossing(good)
    bad = nc.Partition(12, [(1, 4, 7), (2, 9), (3, 11, 12), (5, 6, 8, 10)])
    assert not nc.is_noncrossing(bad)
    assert nc.is_noncrossing(nc.one_partition(9))


def test_ncpartition_rejects_crossing():
    with pytest.raises(ValidationError):
        nc.NCPartition(4, [(1, 3), (2, 4)])


def test_partition_validation():
    with pytest.raises(ValidationError):
        nc.Partition(3, [(1, 2)])
    with pytest.raises(ValidationError):
        nc.Partition(3, [(1, 2), (2, 3)])


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_nc_counts_match_independent_recurrence(n):
    assert sum(1 for _ in nc.iter_nc(n)) == catalan_recurrence(n)


def test_enumerate_nc_small_cases():
    assert [p.blocks for p in nc.enumerate_nc(1)] == [((1,),)]
    assert len(nc.enumerate_nc(3)) == 5
    assert len(nc.enumerate_nc(6)) == 132


def test_enumeration_is_duplicate_free_and_deterministic():
    run1 = [p.blocks for p in nc.enumerate_nc(6)]
    run2 = [p.blocks for p in nc.enumerate_nc(6)]
    assert run1 == run2
    assert len(set(run1)) == len(run1)


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        nc.enumerate_nc(17)
    # budget for structured enumerations follows the partition count
    with pytest.raises(ResourceLimitError):
        nc.enumerate_kdivisible(5, 4, max_n=4)
    assert len(nc.enumerate_kdivisible(5, 4, max_n=10)) == \
        nc.fuss_catalan_kdivisible(5, 4)
    with pytest.raises(ResourceLimitError):
        list(nc.iter_kequal(2, 12, max_n=6))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("FREEPROB_MAX_N", "3")
    with pytest.raises(ResourceLimitError):
        nc.enumerate_nc(4)
    assert len(nc.enumerate_nc(3)) == 5


def test_budget_decides_from_n_before_any_count(monkeypatch):
    # NC(n), NC^k(n) and NC_k(n) with k >= 2 hold at least Catalan(n)
    # partitions, so n past the cap is refused without its count
    def below_cap(fn):
        def count(*args):
            assert args[-1] <= 16, f"{fn.__name__}{args} computed past the cap"
            return fn(*args)
        return count

    for name in ("catalan", "fuss_catalan_kdivisible", "count_kequal"):
        monkeypatch.setattr(nc, name, below_cap(getattr(nc, name)))
    for call in (lambda: nc.enumerate_nc(10**6), lambda: nc.enumerate_kdivisible(1, 4 * 10**5),
                 lambda: nc.enumerate_kdivisible(3, 17), lambda: nc.enumerate_kequal(2, 17)):
        with pytest.raises(ResourceLimitError, match=r"budget Catalan\(16\) \(raise max_n"):
            call()


@pytest.mark.parametrize("call,error", [
    (lambda: nc.iter_nc(10**6), ResourceLimitError),
    (lambda: nc.iter_nc(0), ValidationError),
    (lambda: nc.iter_kdivisible(2, 10**6), ResourceLimitError),
    (lambda: nc.iter_kdivisible(2, 0), ValidationError),
    (lambda: nc.iter_kequal(2, 10**6), ResourceLimitError),
    (lambda: nc.iter_kequal(2, 0), ValidationError),
], ids=["nc-too-large", "nc-zero", "kdivisible-too-large", "kdivisible-zero",
        "kequal-too-large", "kequal-zero"])
def test_enumerators_validate_on_the_call(call, error):
    # the iterator is never advanced: validation and budget run on the call,
    # as they do for the *_blocks functions
    with pytest.raises(error):
        call()


def test_kequal_with_k_one_is_one_partition_past_the_cap():
    assert nc.enumerate_kequal(1, 40) == [nc.zero_partition(40)]


@pytest.mark.parametrize("kind,k,n", [("kequal", 1, 1000), ("kdivisible", 1000, 1),
                                     ("kequal", 1000, 1)])
def test_walk_past_the_old_recursion_limit_returns_its_one_partition(kind, k, n):
    # a thousand points: a walker that recursed per point would pass Python's
    # default recursion limit here
    one = nc.zero_partition(1000) if k == 1 else nc.one_partition(1000)
    assert getattr(nc, f"enumerate_{kind}")(k, n) == [one]


def test_walk_takes_no_recursion_that_deepens_with_the_points():
    assert nc.enumerate_kequal(1, 5000) == [nc.zero_partition(5000)]
    assert nc.enumerate_kdivisible(5000, 1) == [nc.one_partition(5000)]
    assert nc.enumerate_kequal(5000, 1) == [nc.one_partition(5000)]


def test_partition_checks_the_point_count_before_listing_the_ground_set():
    # {1, 10**12} has two points; listing 1..10**12 first needs terabytes
    with pytest.raises(ValidationError, match="do not partition"):
        nc.parse_partition("{1,1000000000000}")
    with pytest.raises(ValidationError, match="do not partition"):
        nc.Partition(10**12, [(1, 2), (3,)])


def _spans_by_predicates(lo, hi, close_ok, gap_ok, may_extend):
    # the same recursion driven by one predicate per rule: the reference
    # for the enumeration order
    if lo >= hi:
        yield ()
        return

    def walk(block, gaps, nxt):
        if close_ok(len(block)) and gap_ok(hi - nxt):
            for tail in _spans_by_predicates(nxt, hi, close_ok, gap_ok, may_extend):
                yield (block,) + gaps + tail
        if may_extend(len(block)):
            for j in range(nxt, hi):
                if not gap_ok(j - nxt):
                    continue
                for mid in _spans_by_predicates(nxt, j, close_ok, gap_ok, may_extend):
                    yield from walk(block + (j,), gaps + mid, j + 1)

    yield from walk((lo,), (), lo + 1)


def _same_stream(got, want):
    return all(a == b for a, b in itertools.zip_longest(got, want))


def test_span_walker_keeps_the_predicate_order():
    always = lambda _r: True
    for n in range(1, 11):
        assert _same_stream((p.blocks for p in nc.iter_nc(n)),
                            _spans_by_predicates(1, n + 1, always, always, always))
    for k in range(1, 5):
        divides = lambda r, k=k: r % k == 0
        for n in range(1, 12 // k + 1):
            assert _same_stream(nc.iter_kdivisible_blocks(k, n),
                                _spans_by_predicates(1, k * n + 1, divides, divides, always))
            assert _same_stream(
                (p.blocks for p in nc.iter_kequal(k, n)),
                _spans_by_predicates(1, k * n + 1, lambda r, k=k: r == k, divides,
                                     lambda r, k=k: r < k))


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
def test_kdivisible_matches_filter_oracle(k, n):
    direct = nc.enumerate_kdivisible(k, n)
    oracle = [
        p.blocks for p in nc.iter_nc(k * n) if all(len(b) % k == 0 for b in p.blocks)
    ]
    assert sorted(p.blocks for p in direct) == sorted(oracle)
    assert len(direct) == nc.fuss_catalan_kdivisible(k, n)


def test_kdivisible_examples():
    got = {p.blocks for p in nc.enumerate_kdivisible(2, 2)}
    assert got == {
        ((1, 2, 3, 4),),
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    }
    assert len(nc.enumerate_kdivisible(1, 3)) == 5
    assert len(nc.enumerate_kdivisible(3, 2)) == 4
    assert math.comb(8, 2) // 7 == 4


@pytest.mark.parametrize("k,n", [(1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_kequal_matches_filter_oracle(k, n):
    direct = nc.enumerate_kequal(k, n)
    oracle = [
        p.blocks for p in nc.iter_nc(k * n) if all(len(b) == k for b in p.blocks)
    ]
    assert sorted(p.blocks for p in direct) == sorted(oracle)
    assert len(direct) == nc.count_kequal(k, n)


def test_kequal_examples():
    got = {p.blocks for p in nc.enumerate_kequal(2, 2)}
    assert got == {((1, 2), (3, 4)), ((1, 4), (2, 3))}
    assert len(nc.enumerate_kequal(4, 1)) == 1
    assert len(nc.enumerate_kequal(3, 2)) == 3
    assert nc.count_kequal(2, 3) == 5


def test_count_coincidences():
    # (k+1)-equal of [(k+1)n], k-divisible of [kn] and k-multichains agree
    for k in range(1, 6):
        for n in range(1, 6):
            a = nc.count_kequal(k + 1, n)
            b = nc.fuss_catalan_kdivisible(k, n)
            c = nc.count_multichains(k, n)
            assert a == b == c
    assert nc.fuss_catalan_kdivisible(1, 7) == nc.catalan(7)


def test_multichain_closed_form_against_pair_enumeration():
    # 2-multichains are just comparable pairs
    for n in range(1, 6):
        elems = nc.enumerate_nc(n)
        pairs = sum(
            1 for p in elems for q in elems if nc.leq(p, q)
        )
        assert pairs == nc.count_multichains(2, n)
    assert nc.count_multichains(2, 2) == 3


# --- Kreweras ---------------------------------------------------------------


def _interleave_noncrossing(p, s):
    n = p.n
    blocks = [tuple(2 * x - 1 for x in b) for b in p.blocks]
    blocks += [tuple(2 * x for x in b) for b in s.blocks]
    return nc.is_noncrossing(nc.Partition(2 * n, blocks))


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_is_the_coarsest_interleaving_complement(n):
    allp = nc.enumerate_nc(n)
    for p in allp:
        kr = nc.kreweras(p)
        candidates = [s for s in allp if _interleave_noncrossing(p, s)]
        best = min(len(c) for c in candidates)
        maximal = [c for c in candidates if len(c) == best]
        assert maximal == [kr]
        assert all(nc.leq(c, kr) for c in candidates)


def _set_partitions(n):
    if n == 0:
        yield []
        return
    for rest in _set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1:]
        yield rest + [[n]]


def test_stack_scan_matches_the_quadruple_definition():
    for n in range(1, 9):
        for blocks in _set_partitions(n):
            p = nc.Partition(n, blocks)
            owner = p.block_of()
            crossing = any(
                owner[a] == owner[c] != owner[b] == owner[d]
                for a, b, c, d in itertools.combinations(range(1, n + 1), 4))
            assert nc._blocks_noncrossing(n, p.blocks) is not crossing, blocks


def test_kreweras_examples():
    assert nc.kreweras(nc.zero_partition(6)) == nc.one_partition(6)
    assert nc.kreweras(nc.one_partition(6)) == nc.zero_partition(6)
    p = nc.NCPartition(4, [(1, 2), (3, 4)])
    assert nc.kreweras(p).blocks == ((1,), (2, 4), (3,))


@pytest.mark.parametrize("n", range(1, 10))
def test_kreweras_block_count_identity(n):
    for p in nc.iter_nc(n):
        kr = nc.kreweras(p)
        assert len(p) + len(kr) == n + 1
        assert _interleave_noncrossing(p, kr)


def test_kreweras_reverses_order():
    for n in range(2, 8):
        elems = nc.enumerate_nc(n)
        for p in elems:
            for q in elems:
                if nc.leq(p, q):
                    assert nc.leq(nc.kreweras(q), nc.kreweras(p))


def test_kreweras_rejects_crossing_input():
    with pytest.raises(ValidationError):
        nc.kreweras(nc.Partition(4, [(1, 3), (2, 4)]))


# --- order and join ---------------------------------------------------------


def test_leq_basics():
    for n in (3, 5):
        for p in nc.iter_nc(n):
            assert nc.leq(nc.zero_partition(n), p)
            assert nc.leq(p, nc.one_partition(n))
            assert nc.leq(p, p)


@pytest.mark.parametrize("n", range(2, 6))
def test_join_matches_bruteforce_least_upper_bound(n):
    elems = nc.enumerate_nc(n)
    for p in elems:
        for q in elems:
            ubs = [s for s in elems if nc.leq(p, s) and nc.leq(q, s)]
            least = [s for s in ubs if all(nc.leq(s, t) for t in ubs)]
            assert len(least) == 1
            assert nc.join(p, q) == least[0]


def test_join_properties():
    elems = nc.enumerate_nc(6)
    z = nc.zero_partition(6)
    for p in elems[::7]:
        assert nc.join(p, z) == p
        assert nc.join(p, p) == p
        for q in elems[::11]:
            assert nc.join(p, q) == nc.join(q, p)


def test_join_is_monotone():
    elems = nc.enumerate_nc(5)
    for p in elems[::3]:
        for p2 in elems[::5]:
            if not nc.leq(p, p2):
                continue
            for q in elems[::4]:
                assert nc.leq(nc.join(p, q), nc.join(p2, q))


def _join_by_merging(p, q):
    # the partition-lattice join (union-find over both block sets), then
    # crossing blocks merged until none remain: the oracle of `join`
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (p, q):
        for b in part.blocks:
            for x in b[1:]:
                parent[find(x)] = find(b[0])
    groups = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    blocks = list(groups.values())

    def crossing(b1, b2):
        tags = [tag for _x, tag in sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])]
        return sum(1 for a, b in zip(tags, tags[1:]) if a != b) >= 3

    merged = True
    while merged:
        merged = False
        for b1, b2 in itertools.combinations(blocks, 2):
            if crossing(b1, b2):
                blocks.remove(b1)
                blocks.remove(b2)
                blocks.append(b1 + b2)
                merged = True
                break
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def test_join_through_kreweras_matches_the_merging_join():
    # join reads the meet of Kr(p) and Kr(q), the same for (q, p), so
    # each unordered pair is checked once
    for n in range(1, 8):
        elems = nc.enumerate_nc(n)
        for i, p in enumerate(elems):
            for q in elems[i:]:
                assert nc.join(p, q).blocks == _join_by_merging(p, q)


def _products_by_join_walk(cum, sizes):
    n = sum(sizes)
    anchor, full = nc.interval_partition(sizes), nc.one_partition(n).blocks
    return sum((incidence.extend(cum, p) for p in nc.iter_nc(n)
                if _join_by_merging(p, anchor) == full), Fraction(0))


def _groupings(sizes):
    # the longest prefix of the drawn sizes that covers at most 9 points
    out = []
    for s in sizes:
        if sum(out) + s > 9:
            break
        out.append(s)
    return out


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=9).map(_groupings),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=9, max_size=9))
def test_products_as_arguments_matches_the_join_walk(sizes, values):
    cum = RationalSequence(values)
    assert transforms.products_as_arguments(cum, sizes) == _products_by_join_walk(cum, sizes)


def test_products_as_arguments_never_calls_join(monkeypatch):
    cum = RationalSequence([1, -2, 3, Fraction(1, 2), 5, -1, 2, Fraction(1, 3)])
    want = _products_by_join_walk(cum, [3, 2, 3])

    def refuse(*args):
        raise AssertionError("join called")

    monkeypatch.setattr(nc, "join", refuse)
    assert transforms.products_as_arguments(cum, [3, 2, 3]) == want


def test_join_rejects_crossing_input():
    crossing = nc.Partition(4, [(1, 3), (2, 4)])
    with pytest.raises(ValidationError, match="non-crossing"):
        nc.join(crossing, nc.zero_partition(4))
    with pytest.raises(ValidationError, match="common ground set"):
        nc.join(nc.zero_partition(3), nc.zero_partition(4))


def test_join_example():
    a = nc.NCPartition(4, [(1, 3), (2,), (4,)])
    b = nc.NCPartition(4, [(1,), (2, 4), (3,)])
    assert nc.join(a, b) == nc.one_partition(4)


# --- text format ------------------------------------------------------------


def test_text_format_roundtrip():
    p = nc.NCPartition(5, [(1, 2, 5), (3, 4)])
    text = nc.format_partition(p)
    assert text == "{1,2,5}{3,4}"
    assert nc.parse_partition(text) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        nc.parse_partition("1,2}{3")
    with pytest.raises(ValidationError):
        nc.parse_partition("{1,x}")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_random_partition_canonical_roundtrip(n, rnd):
    labels = list(range(1, n + 1))
    rnd.shuffle(labels)
    cuts = sorted(rnd.sample(range(1, n), rnd.randint(0, n - 1))) if n > 1 else []
    blocks, prev = [], 0
    for c in cuts + [n]:
        blocks.append(tuple(labels[prev:c]))
        prev = c
    p = nc.Partition(n, blocks)
    text = nc.format_partition(p)
    if nc.is_noncrossing(p):
        assert nc.parse_partition(text) == p
    else:
        # the parser builds only non-crossing partitions; its refusal
        # prints the blocks it read
        refusal = re.escape(f"partition is crossing: {text}") + "$"
        with pytest.raises(ValidationError, match=refusal):
            nc.parse_partition(text)
    assert all(p.blocks[i][0] < p.blocks[i + 1][0] for i in range(len(p.blocks) - 1))
