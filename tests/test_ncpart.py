import copy
import dataclasses
import gc
import itertools
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import code_key, package_calls
from freewick import ncpart
from freewick.errors import EnumerationBoundError
from freewick.ncpart import MarkedPartition, SetPartition


def blocks_of(*blocks):
    n = max(x for b in blocks for x in b)
    return SetPartition.from_blocks(n, blocks)


def marked_key(mp):
    return (mp.partition.blocks, mp.marks)


class TestSetPartition:
    def test_normalization(self):
        p = SetPartition.from_blocks(4, [(3, 1), (4, 2)])
        assert p.blocks == ((1, 3), (2, 4))

    @pytest.mark.parametrize(
        "n,blocks",
        [
            (3, ((1, 2),)),           # does not cover
            (3, ((1, 2), (2, 3))),    # overlap
            (2, ((2, 1), (3,))),      # out of range / unsorted
            (2, ((2,), (1,))),        # block order
        ],
    )
    def test_invalid(self, n, blocks):
        with pytest.raises(ValueError):
            SetPartition(n, blocks)

    def test_labels(self):
        p = blocks_of((1, 3), (2,))
        assert p.labels() == [0, 1, 0]


class TestNonCrossing:
    def test_interval_partition(self):
        assert ncpart.is_noncrossing(blocks_of((1, 2), (3,)))

    def test_crossing_pair(self):
        assert not ncpart.is_noncrossing(blocks_of((1, 3), (2, 4)))

    def test_nested_pair(self):
        assert ncpart.is_noncrossing(blocks_of((1, 4), (2, 3)))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    def test_matches_definition(self, raw):
        # normalize an arbitrary label sequence into a restricted growth string
        relabel = {}
        labels = []
        for x in raw:
            if x not in relabel:
                relabel[x] = len(relabel)
            labels.append(relabel[x])
        n = len(labels)
        blocks = {}
        for i, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(i + 1)
        p = SetPartition.from_blocks(n, blocks.values())
        naive = not any(
            labels[x1] == labels[x2] != labels[y1] == labels[y2]
            for x1, y1, x2, y2 in itertools.combinations(range(n), 4)
        )
        assert ncpart.is_noncrossing(p) == naive


class TestEnumerateNC:
    def test_single_element(self):
        assert len(ncpart.enumerate_nc(1)) == 1

    def test_counts_small(self):
        assert len(ncpart.enumerate_nc(3)) == 5
        assert len(ncpart.enumerate_nc(4)) == 14

    def test_crossing_pair_excluded(self):
        out = {p.blocks for p in ncpart.enumerate_nc(4)}
        assert not any({(1, 3), (2, 4)} <= set(bs) for bs in out)
        # S(4, 2) = 7 two-block partitions, less the crossing one
        assert sum(len(bs) == 2 for bs in out) == 6
        assert (((1, 3), (2, 4))) not in out

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        direct = [p.blocks for p in ncpart.enumerate_nc(n)]
        brute = [p.blocks for p in brute_noncrossing(n)]
        assert direct == brute
        assert len(direct) == len(set(direct)) == ncpart.catalan(n)

    def test_sorted_deterministic(self):
        out = ncpart.enumerate_nc(4)
        assert [p.blocks for p in out] == sorted(p.blocks for p in out)

    def test_bound(self):
        with pytest.raises(EnumerationBoundError):
            ncpart.enumerate_nc(0)
        with pytest.raises(EnumerationBoundError):
            ncpart.enumerate_nc(15)


class TestMarkedPartition:
    def test_singleton_must_be_plus(self):
        with pytest.raises(ValueError):
            MarkedPartition(blocks_of((1,), (2, 3)), (-1, 1))

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            MarkedPartition(blocks_of((1, 3), (2, 4)), (1, 1))

    def test_mark_count(self):
        with pytest.raises(ValueError):
            MarkedPartition(blocks_of((1, 2),), (1, 1))


class TestEnumerateGn:
    def test_n1(self):
        out = ncpart.enumerate_gn(1)
        assert len(out) == 1
        assert out[0].partition.blocks == ((1,),)
        assert out[0].marks == (1,)

    def test_n2_elements(self):
        got = [marked_key(mp) for mp in ncpart.enumerate_gn(2)]
        assert got == [
            ((((1,), (2,))), (1, 1)),
            (((1, 2),), (1,)),
            (((1, 2),), (-1,)),
        ]

    def test_n3_excludes_nested_singleton(self):
        out = ncpart.enumerate_gn(3)
        assert len(out) == 7
        assert all(mp.partition.blocks != ((1, 3), (2,)) for mp in out)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_brute_force(self, n):
        direct = [marked_key(mp) for mp in ncpart.enumerate_gn(n)]
        brute = [marked_key(mp) for mp in ncpart.brute_gn(n)]
        assert direct == brute
        assert len(direct) == len(set(direct))

    @pytest.mark.parametrize("n", range(1, ncpart.MARKED_LIMIT + 1))
    def test_sorted_plus_before_minus(self, n):
        # the order comes from the construction: every adjacent pair rises
        # strictly, blocks first, then +1 before -1, so none repeats either
        keys = [(mp.partition.blocks, tuple(-m for m in mp.marks)) for mp in ncpart.enumerate_gn(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("n", range(2, ncpart.MARKED_LIMIT + 1))
    def test_count_recursion(self, n):
        prev = ncpart.enumerate_gn(n - 1)
        predicted = sum(1 + 2 * any(m == 1 for m in mp.marks) for mp in prev)
        assert len(ncpart.enumerate_gn(n)) == predicted == ncpart.gn_count_recursion(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_admissibility_invariants(self, n):
        for mp in ncpart.enumerate_gn(n):
            assert ncpart.is_noncrossing(mp.partition)
            for block, mark in zip(mp.partition.blocks, mp.marks):
                assert not (len(block) == 1 and mark == -1)
            assert not ncpart.has_nested_plus(mp.partition.blocks, mp.marks)

    def test_bound(self):
        with pytest.raises(EnumerationBoundError):
            ncpart.enumerate_gn(13)


class TestEnumerateInterval:
    def test_n1(self):
        assert len(ncpart.enumerate_interval(1)) == 1

    def test_n2_equals_gn(self):
        a = [marked_key(mp) for mp in ncpart.enumerate_interval(2)]
        b = [marked_key(mp) for mp in ncpart.enumerate_gn(2)]
        assert a == b

    def test_n3_count(self):
        # partitions {1}{2}{3}, {12}{3}, {1}{23}, {123} with 1+2+2+2 mark choices
        assert len(ncpart.enumerate_interval(3)) == 7

    @pytest.mark.parametrize("n", range(1, 9))
    def test_subset_of_gn(self, n):
        gn = {marked_key(mp) for mp in ncpart.enumerate_gn(n)}
        for mp in ncpart.enumerate_interval(n):
            assert marked_key(mp) in gn

    def test_blocks_are_intervals(self):
        for mp in ncpart.enumerate_interval(5):
            for block in mp.partition.blocks:
                assert block == tuple(range(block[0], block[-1] + 1))


class TestCompositions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_cut_sets(self, n):
        # a composition of n is the set of cut points it puts into 1..n-1;
        # with parts given, only the length-parts ones, lexicographically
        for parts in range(1, n + 1):
            by_cuts = []
            for cuts in itertools.combinations(range(1, n), parts - 1):
                bounds = (0, *cuts, n)
                by_cuts.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
            assert list(ncpart.compositions(n, parts)) == sorted(by_cuts)
        everything = list(ncpart.compositions(n))
        assert len(everything) == 2 ** (n - 1)
        assert everything == sorted(everything, key=len)

    @pytest.mark.parametrize("n,parts", [(2, 0), (2, -1), (0, 1), (-2, 1)])
    def test_no_composition_into_positive_parts(self, n, parts):
        # fewer than one part, or more parts than n has units: none exists
        assert list(ncpart.compositions(n, parts)) == []

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_composition_of_a_nonpositive_total(self, n):
        assert list(ncpart.compositions(n)) == []


class TestCountingKernels:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_dispatch_matches_enumeration(self, n):
        # the pruned search against the unpruned filter of every set partition
        parts = list(all_set_partitions(n))
        unpruned = (len(parts), sum(1 for p in parts if ncpart.is_noncrossing(p)))
        assert ncpart.brute_noncrossing_count(n) == unpruned


def all_set_partitions(n):
    """Every set partition of {1..n}, via restricted growth strings."""
    a = [0] * n
    pmax = [0] * n
    while True:
        blocks = [[] for _ in range(max(a) + 1)]
        for i, lab in enumerate(a):
            blocks[lab].append(i + 1)
        yield SetPartition(n, tuple(tuple(b) for b in blocks))
        i = n - 1
        while i > 0 and a[i] > pmax[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        pmax[i] = max(a[i], pmax[i - 1])
        for j in range(i + 1, n):
            a[j] = 0
            pmax[j] = pmax[i]


def brute_noncrossing(n):
    """Every non-crossing partition, filtered by definition, in block order."""
    out = [p for p in all_set_partitions(n) if ncpart.is_noncrossing(p)]
    return sorted(out, key=lambda p: p.blocks)


def unpruned_gn(n):
    """Every non-crossing partition with every mark vector, filtered by definition."""
    out = []
    for p in all_set_partitions(n):
        if not ncpart.is_noncrossing(p):
            continue
        for marks in itertools.product((1, -1), repeat=len(p.blocks)):
            pairs = list(zip(p.blocks, marks))
            if any(len(b) == 1 and m == -1 for b, m in pairs):
                continue
            if any(m == 1 and any(o[0] < b[0] and b[-1] < o[-1] for o in p.blocks) for b, m in pairs):
                continue
            out.append((p.blocks, marks))
    return sorted(out)


class TestBruteGn:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_unpruned_filter(self, n):
        assert sorted(marked_key(mp) for mp in ncpart.brute_gn(n)) == unpruned_gn(n)

    @pytest.mark.parametrize("route", [ncpart.brute_gn, ncpart.enumerate_gn])
    def test_nested_singleton_rejects_partition(self, route):
        # a nested singleton admits no mark, whatever the other blocks carry
        nested = {((1, 3), (2,), (4,)), ((1, 2, 4), (3,)), ((1, 4), (2,), (3,))}
        assert nested <= {p.blocks for p in ncpart.enumerate_nc(4)}
        assert not nested & {mp.partition.blocks for mp in route(4)}

    @pytest.mark.parametrize("route", [ncpart.brute_gn, ncpart.enumerate_gn])
    def test_nested_pair_carries_minus_only(self, route):
        # {2,3} inside {1,4}: the inner pair is -1, the outer pair is free
        marks = sorted(m for bs, m in map(marked_key, route(4)) if bs == ((1, 4), (2, 3)))
        assert marks == [(-1, -1), (1, -1)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ncpart.brute_gn(0)


class TestOracleBounds:
    # the oracles refuse what their enumerators refuse, before any search
    @pytest.mark.parametrize(
        "route,limit",
        [
            (ncpart.brute_noncrossing_count, ncpart.NC_LIMIT),
            (ncpart.brute_gn, ncpart.MARKED_LIMIT),
        ],
    )
    def test_past_limit(self, route, limit, monkeypatch):
        monkeypatch.setattr(ncpart, "_walk_noncrossing_rgs", _never_walk)
        monkeypatch.setattr(ncpart, "_count_noncrossing_rgs", _never_walk)
        for n in (0, limit + 1):
            with pytest.raises(EnumerationBoundError, match=f"outside supported range 1..{limit}"):
                route(n)


def _never_walk(*args):
    raise AssertionError("an oracle searched past its bound")


class TestWalk:
    @staticmethod
    def visited(n):
        seen = []
        ncpart._walk_noncrossing_rgs(n, lambda blocks: seen.append(tuple(map(tuple, blocks))))
        return seen

    def test_n1(self):
        assert self.visited(1) == [((1,),)]
        assert ncpart._count_noncrossing_rgs(1) == (1, 0)

    def test_n2(self):
        assert self.visited(2) == [((1, 2),), ((1,), (2,))]
        assert ncpart._count_noncrossing_rgs(2) == (2, 0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form_last_place_matches_visits(self, n):
        # the count walk counts the last two places; the visiting walk visits them
        seen = self.visited(n)
        noncrossing, crossing = ncpart._count_noncrossing_rgs(n)
        total, counted = ncpart.brute_noncrossing_count(n)
        assert len(seen) == noncrossing == counted
        assert len(seen) + crossing == total == bell(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_count_walk_steps_once_per_noncrossing_prefix(self, n, monkeypatch):
        # the prefixes of length k are the non-crossing partitions of k
        # elements, and the walk steps once through each for k <= n - 2;
        # a memo on its integer state would take fewer steps
        steps = []
        step = ncpart._rgs_count

        def counted(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(ncpart, "_rgs_count", counted)
        assert ncpart.brute_noncrossing_count(n) == (bell(n), ncpart.catalan(n))
        assert len(steps) == sum(ncpart.catalan(k) for k in range(n - 1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_visits_each_noncrossing_partition_once(self, n):
        assert sorted(self.visited(n)) == [p.blocks for p in ncpart.enumerate_nc(n)]


def bell(n):
    """Bell number by B(k + 1) = sum_j C(k, j) B(j), independent of the walks."""
    row = [1]
    for k in range(n):
        row.append(sum(math.comb(k, j) * row[j] for j in range(k + 1)))
    return row[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_unchecked_outputs_pass_validation(n):
    # the enumerators build their outputs without validation; rebuilding
    # each one through the checked constructors must give an equal value
    for p in ncpart.enumerate_nc(n):
        assert SetPartition(n, p.blocks) == p
    for mp in ncpart.enumerate_gn(n) + ncpart.brute_gn(n) + ncpart.enumerate_interval(n):
        assert MarkedPartition(SetPartition(n, mp.partition.blocks), mp.marks) == mp


def test_oracles_and_enumerators_share_no_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("route called the other route's search")

    for name in ("enumerate_nc", "enumerate_gn", "_nc_interval", "_gn_interval"):
        monkeypatch.setattr(ncpart, name, forbidden)
    assert ncpart.brute_noncrossing_count(6) == (203, 132)
    assert len(ncpart.brute_gn(6)) == 141
    monkeypatch.undo()
    oracles = ("brute_noncrossing_count", "brute_gn", "_walk_noncrossing_rgs", "_count_noncrossing_rgs")
    for name in oracles:
        monkeypatch.setattr(ncpart, name, forbidden)
    assert len(ncpart.enumerate_nc(6)) == 132
    assert len(ncpart.enumerate_gn(6)) == 141


def test_search_helpers_stay_on_their_side(monkeypatch):
    # the recursion helpers behind the two searches are private to them too
    def forbidden(*args):
        raise AssertionError("route called the other route's search")

    for name in ("_nc_grow", "_gn_grow"):
        monkeypatch.setattr(ncpart, name, forbidden)
    assert ncpart.brute_noncrossing_count(6) == (203, 132)
    assert len(ncpart.brute_gn(6)) == 141
    monkeypatch.undo()
    for name in ("_rgs_extend", "_rgs_count"):
        monkeypatch.setattr(ncpart, name, forbidden)
    assert len(ncpart.enumerate_nc(6)) == 132
    assert len(ncpart.enumerate_gn(6)) == 141
    # the marked enumerator shares no search with the plain one either
    for name in ("_walk_noncrossing_rgs", "_count_noncrossing_rgs", "_nc_interval", "_nc_grow"):
        monkeypatch.setattr(ncpart, name, forbidden)
    assert len(ncpart.enumerate_gn(6)) == 141


# the package functions that the count walk may run with the other
# partition routes, and those brute_gn may run with enumerate_gn, each with
# the reason that running it merges no two routes
COUNT_SHARED = {
    code_key(ncpart._check_bound.__code__): "refuses an n out of range before any search",
    # every paused route runs the same wrapper code
    code_key(ncpart.brute_gn.__code__): "the _collector_paused wrapper: collector policy, no partition data",
}
MARKED_SHARED = {
    **COUNT_SHARED,
    code_key(ncpart._records.__code__): "builds records of finished block tuples; counts and searches nothing",
    code_key(ncpart._marked_records.__code__): "expands finished (blocks, choices) into records; searches nothing",
    code_key(ncpart._drain.__code__): "runs the record builders' C maps for their side effects",
}


def test_recorded_calls_keep_the_oracles_apart():
    # a call record of each route at n = 8: whatever an oracle runs beyond
    # the allow-lists would be a step the route it checks runs too
    routes = (
        ncpart.brute_noncrossing_count, ncpart.brute_gn, ncpart.enumerate_nc, ncpart.enumerate_gn,
    )
    calls = {route.__name__: package_calls(lambda route=route: route(8)) for route in routes}
    count = calls["brute_noncrossing_count"]
    assert code_key(ncpart._rgs_count.__code__) in count
    assert code_key(ncpart._rgs_extend.__code__) in calls["brute_gn"]
    assert code_key(ncpart._gn_grow.__code__) in calls["enumerate_gn"]
    for name in ("brute_gn", "enumerate_nc", "enumerate_gn"):
        shared = count & calls[name]
        assert shared <= COUNT_SHARED.keys(), (name, shared - COUNT_SHARED.keys())
    shared = calls["brute_gn"] & calls["enumerate_gn"]
    assert shared <= MARKED_SHARED.keys(), shared - MARKED_SHARED.keys()


class TestRecords:
    def records(self):
        # one record of each kind from an unchecked builder, and its checked twin
        p = ncpart.enumerate_nc(5)[7]
        mp = ncpart.enumerate_gn(5)[11]
        checked_mp = MarkedPartition(SetPartition(5, mp.partition.blocks), mp.marks)
        return [(p, SetPartition(5, p.blocks)), (mp, checked_mp)]

    def test_no_instance_dict(self):
        for rec, checked in self.records():
            assert not hasattr(rec, "__dict__")
            assert not hasattr(checked, "__dict__")

    def test_fields_are_frozen(self):
        p, mp = (rec for rec, _ in self.records())
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            mp.marks = ()

    def test_pickle_and_deepcopy_round_trip(self):
        for rec, _ in self.records():
            for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
                assert back == rec and hash(back) == hash(rec) and repr(back) == repr(rec)

    def test_match_checked_construction(self):
        for rec, checked in self.records():
            assert rec == checked
            assert hash(rec) == hash(checked)
            assert repr(rec) == repr(checked)

    @pytest.mark.parametrize(
        "route", [ncpart.enumerate_gn, ncpart.brute_gn, ncpart.enumerate_interval]
    )
    def test_one_shared_partition_per_structure(self, route):
        # every record of one block structure holds the same SetPartition,
        # and no two structures hold the same one
        out = route(7)
        by_blocks = {}
        for mp in out:
            by_blocks.setdefault(mp.partition.blocks, set()).add(id(mp.partition))
        assert all(len(ids) == 1 for ids in by_blocks.values())
        assert len({id(mp.partition) for mp in out}) == len(by_blocks) < len(out)

    def test_enumerator_and_oracle_share_no_partition(self):
        direct, brute = ncpart.enumerate_gn(7), ncpart.brute_gn(7)
        assert direct == brute
        assert not {id(mp.partition) for mp in direct} & {id(mp.partition) for mp in brute}


# every route that runs with the cyclic collector paused, with its bound
PAUSED_ROUTES = [
    (ncpart.enumerate_nc, ncpart.NC_LIMIT),
    (ncpart.enumerate_gn, ncpart.MARKED_LIMIT),
    (ncpart.enumerate_interval, ncpart.MARKED_LIMIT),
    (ncpart.brute_noncrossing_count, ncpart.NC_LIMIT),
    (ncpart.brute_gn, ncpart.MARKED_LIMIT),
]


class TestCollectorPause:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        # the collector state on entry, restored after the test
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("route", [r for r, _ in PAUSED_ROUTES])
    def test_route_leaves_the_collector_as_it_found_it(self, route, collector):
        route(6)
        assert gc.isenabled() == collector

    @pytest.mark.parametrize("route, limit", PAUSED_ROUTES)
    def test_refused_route_leaves_the_collector_as_it_found_it(self, route, limit, collector):
        with pytest.raises(EnumerationBoundError):
            route(limit + 1)
        assert gc.isenabled() == collector

    def test_no_collection_starts_during_a_route(self):
        assert gc.isenabled()
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            ncpart.enumerate_nc(10)
            assert starts == []
            # the hook has teeth: the same body unpaused sets off collections
            ncpart.enumerate_nc.__wrapped__(10)
            assert starts
        finally:
            gc.callbacks.remove(hook)


@pytest.mark.parametrize(
    "route",
    [
        ncpart.enumerate_nc,
        ncpart.enumerate_gn,
        ncpart.enumerate_interval,
        ncpart.brute_gn,
        ncpart.brute_noncrossing_count,
    ],
)
def test_routes_leave_no_cyclic_garbage(route):
    # every scratch object is freed by reference counting when the call returns
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        route(8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumerate_nc_peak_memory():
    # 58786 slotted records; the memo of sub-intervals is freed before they are
    # built.  With the collector paused, no full collection clears the tuple
    # free lists mid-route, so the intermediate tuples they hold count too
    gc.collect()
    tracemalloc.start()
    try:
        ncpart.enumerate_nc(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5e6


def test_enumerate_gn_peak_memory():
    # 73789 slotted records built in output order: no sorted copy of the
    # (blocks, marks) pairs, one mark-vector list per distinct choices, and
    # one partition per structure, shared by its records
    gc.collect()
    tracemalloc.start()
    try:
        ncpart.enumerate_gn(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6


def test_brute_gn_peak_memory():
    # the oracle's 73789 records share one partition per structure as well
    gc.collect()
    tracemalloc.start()
    try:
        ncpart.brute_gn(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17e6
