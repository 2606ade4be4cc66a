"""Non-crossing set partitions and their marked variants.

This module supplies the combinatorial substrate for the moment-cumulant
sums and the normal-ordering (Wick) expansions: plain non-crossing
partitions, marked non-crossing partitions with the singleton rule, the
admissible family in which no +1 block nests inside another block, and
interval partitions.

Every enumerator has an independent brute-force twin so the two routes can
be cross-checked:

* :func:`enumerate_nc` and :func:`enumerate_gn` recurse on the block of
  the smallest element, and :func:`enumerate_gn` settles each block's
  marks as it places it, so it never visits an inadmissible partition;
* the oracles that ``verify`` runs walk the non-crossing restricted
  growth strings (the string of block labels of a set partition), each by
  a walk of its own: :func:`brute_gn` carries the blocks as they grow,
  visits the last element's choices in a loop and applies the definition
  to the blocks of each, while :func:`brute_noncrossing_count` carries
  only two integers per prefix, the labels used and the blocks still
  open, and counts the last two places in closed form.  No oracle shares
  a search with the enumerator it checks.  The record-level twin of
  :func:`enumerate_nc`, a filter over every set partition, lives in the
  tier-1 tests.

The routes carry partitions as plain block tuples, the marked ones as
``(blocks, choices)`` pairs, where ``choices`` holds each block's allowed
plain marks, +1 first: ``(1,)``, ``(1, -1)`` or ``(-1,)``.  The pairs are
built in output order or sorted once by their blocks, and the records are
built in one batch (:func:`_records`, :func:`_marked_records`), with no
Python frame per record.  A marked structure gets one
:class:`SetPartition`, which every :class:`MarkedPartition` of it shares;
the routes that build them share no record with each other.

The records are slotted frozen dataclasses, so an instance carries no
``__dict__``.  The recursions take their state as arguments rather than
from a closure that refers to itself, so no reference cycle forms and
all scratch (memo tables, unsorted work lists) is freed by reference
counting when the call that built it returns, not at a later
garbage-collector pass.

Since they make no cycles, the routes that build records
(:func:`enumerate_nc`, :func:`enumerate_gn`, :func:`enumerate_interval`
and :func:`brute_gn`) run with the cyclic garbage collector paused
(:func:`_collector_paused`).  Every record is a tracked container, so
with the collector on, the records a route builds set off collections
that rescan them all and free nothing.  The count oracle
:func:`brute_noncrossing_count` builds no record and runs unpaused.

All functions are pure: the enumerators return fresh lists of immutable
records.  The collector switch is process-wide, so a thread that turns the
collector off while a route runs has it turned back on when that route
returns.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .errors import EnumerationBoundError

#: Enumeration bound for plain non-crossing partitions (Catalan growth).
NC_LIMIT = 14
#: Enumeration bound for marked partitions.
MARKED_LIMIT = 12


@dataclass(frozen=True, slots=True)
class SetPartition:
    """A set partition of {1..n}, blocks sorted internally and by minimum."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground-set size must be positive")
        seen = [False] * (self.n + 1)
        count = 0
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block[0] <= prev_min:
                raise ValueError("blocks must be ordered by strictly increasing minima")
            prev_min = block[0]
            last = 0
            for x in block:
                if not 1 <= x <= self.n:
                    raise ValueError(f"element {x} outside 1..{self.n}")
                if x <= last:
                    raise ValueError("block elements must be strictly increasing")
                if seen[x]:
                    raise ValueError(f"element {x} repeated")
                seen[x] = True
                last = x
                count += 1
        if count != self.n:
            raise ValueError("blocks do not cover the ground set")

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "SetPartition":
        """Build from any iterable of iterables, normalizing the ordering."""
        norm = sorted(tuple(sorted(b)) for b in blocks)
        return cls(n, tuple(norm))

    def labels(self) -> list[int]:
        """Block index of each element, as a list indexed by element-1."""
        lab = [0] * self.n
        for j, block in enumerate(self.blocks):
            for x in block:
                lab[x - 1] = j
        return lab


@dataclass(frozen=True, slots=True)
class MarkedPartition:
    """A non-crossing partition with a +1/-1 mark per block.

    Singleton blocks always carry mark +1; the marks sequence is aligned
    with the block order of ``partition``.
    """

    partition: SetPartition
    marks: tuple[int, ...]

    def __post_init__(self):
        blocks = self.partition.blocks
        if len(self.marks) != len(blocks):
            raise ValueError("one mark per block required")
        for block, mark in zip(blocks, self.marks):
            if mark not in (1, -1):
                raise ValueError("marks must be +1 or -1")
            if len(block) == 1 and mark != 1:
                raise ValueError("singleton blocks must carry mark +1")
        if not is_noncrossing(self.partition):
            raise ValueError("marked partitions must be non-crossing")

    @property
    def n(self) -> int:
        return self.partition.n


# Slot setters for the unchecked builder: the frozen ``__setattr__`` refuses
# assignment, and the slot descriptors are the fastest way around it.
_SP_N = SetPartition.n.__set__
_SP_BLOCKS = SetPartition.blocks.__set__
_MP_PARTITION = MarkedPartition.partition.__set__
_MP_MARKS = MarkedPartition.marks.__set__


def _records(n: int, blocks) -> list[SetPartition]:
    """:class:`SetPartition` records of ``n`` elements for a sequence of block tuples.

    Built without validation, for the enumerators and oracles, whose output
    is valid by construction.  Each step maps a C function over the whole
    sequence, so no Python frame runs per record.  It counts nothing and
    searches nothing, so sharing it merges no two routes: a broken builder
    still fails the Catalan and :func:`gn_count_recursion` counts and the
    checked-constructor round trip.
    """
    size = len(blocks)
    parts = list(map(object.__new__, itertools.repeat(SetPartition, size)))
    _drain(map(_SP_N, parts, itertools.repeat(n, size)))
    _drain(map(_SP_BLOCKS, parts, blocks))
    return parts


def _drain(calls) -> None:
    # run an iterator for its side effects, keeping none of its values
    deque(calls, maxlen=0)


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no x1 < y1 < x2 < y2 exists with x's in one block, y's in another."""
    return _labels_noncrossing(p.labels())


def _labels_noncrossing(lab: list[int]) -> bool:
    # A label may recur only while it is the innermost still-open block.
    n = len(lab)
    last = {}
    for i, v in enumerate(lab):
        last[v] = i
    stack = []
    seen = set()
    for i, v in enumerate(lab):
        if v not in seen:
            seen.add(v)
            stack.append(v)
        elif stack[-1] != v:
            return False
        if last[v] == i:
            stack.pop()
    return True


def _collector_paused(route):
    """``route`` run with the cyclic garbage collector off, if it was on.

    The collector is switched back on in a ``finally``, so a raise leaves it
    on too.  A collector that is already off is left alone, so a caller's
    ``gc.disable()`` holds and a nested call defers to the outermost one.
    The pause touches no partition data: it is collector policy, like
    :func:`_check_bound`, and sharing it merges no two routes.
    """
    @functools.wraps(route)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return route(*args, **kwargs)
        gc.disable()
        try:
            return route(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _check_bound(n: int, limit: int) -> None:
    if not 1 <= n <= limit:
        raise EnumerationBoundError(f"n={n} outside supported range 1..{limit}")


# ---------------------------------------------------------------------------
# direct enumerators
# ---------------------------------------------------------------------------

@_collector_paused
def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of {1..n}, lexicographic in the block tuple."""
    _check_bound(n, NC_LIMIT)
    return _records(n, _nc_interval(1, n, {}))


# the one partition of an empty interval, shared, so that a gap or tail
# that adds nothing is known by identity and never concatenated
_EMPTY = [()]


def _nc_interval(start: int, length: int, memo: dict) -> list[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of ``start .. start+length-1``, in lexicographic order.

    Recursion on the block of the first element: its other members split the
    remaining elements into independent gaps, which is exactly the
    non-crossing condition.  Each partition is ``(block,) + gap_1 + gap_2 +
    ...``, which is already ordered by block minimum.  The block grows in
    lexicographic order and each gap list is lexicographic, so the output is
    too.  ``memo`` caches every interval for the length of one enumeration;
    the interval is never empty, and the caller has looked it up there.
    """
    out = []
    _nc_grow(out, memo, start + length, (start,), _EMPTY, start)
    memo[(start, length)] = out
    return out


def _nc_grow(out: list, memo: dict, stop: int, block: tuple, heads: list, last: int) -> None:
    """Append to ``out`` every partition whose first block extends ``block``.

    ``block`` ends at ``last``; ``heads`` is the product of the gaps it has
    closed so far, concatenated, or :data:`_EMPTY` before the first.  Each
    output is ``(block,) + head``, built once per head, plus one tail.  The
    state is passed in rather than closed over, so the recursion leaves no
    reference cycle holding ``memo``.
    """
    start = last + 1
    if start == stop:
        out += [(block,) + head for head in heads]
        return
    tail = memo.get((start, stop - start)) or _nc_interval(start, stop - start, memo)
    firsts = [(block,) + head for head in heads]
    out += [first + rest for first in firsts for rest in tail]
    # the next member right after ``last`` leaves an empty gap
    _nc_grow(out, memo, stop, block + (start,), heads, start)
    for nxt in range(start + 1, stop):
        gap = memo.get((start, nxt - start)) or _nc_interval(start, nxt - start, memo)
        grown = gap if heads is _EMPTY else [head + sub for head in heads for sub in gap]
        _nc_grow(out, memo, stop, block + (nxt,), grown, nxt)


@_collector_paused
def enumerate_gn(n: int) -> list[MarkedPartition]:
    """Admissible marked non-crossing partitions of {1..n}.

    These are the marked partitions with no +1 block strictly nested inside
    another block; they index the terms of the Wick rule.  Built in output
    order (blocks lexicographic, then +1 before -1) with no sort, by
    :func:`_gn_interval`; the filter-based brute force :func:`brute_gn` is
    the independent oracle for this construction.
    """
    _check_bound(n, MARKED_LIMIT)
    return _marked_records(n, _gn_interval(1, n, False, {}))


def _gn_interval(start: int, length: int, nested: bool, memo: dict) -> list:
    """Admissible ``(blocks, choices)`` of ``start .. start+length-1``, lexicographic.

    ``choices`` holds each block's allowed marks, +1 first.  The recursion
    is :func:`_nc_interval`'s; a block in a gap of the first block lies
    inside it, so each gap is a ``nested`` interval, whose blocks carry -1
    and are never singletons; the tail after the first block keeps this
    interval's kind.  ``memo`` caches every interval.
    """
    key = (start, length, nested)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = []
    # a top-level singleton carries +1; a nested one admits no mark
    _gn_grow(out, memo, start + length, nested, None if nested else ((1,),), (start,), [((), ())], start)
    memo[key] = out
    return out


def _gn_grow(out: list, memo: dict, stop: int, nested: bool, mark, block: tuple, heads: list, last: int) -> None:
    """Append to ``out`` every structure whose first block extends ``block``.

    As :func:`_nc_grow`; ``block`` admits the choices ``mark``, or no mark
    at all (None) while it is a nested singleton.
    """
    if mark is not None:
        tail = _gn_interval(last + 1, stop - last - 1, nested, memo) if last + 1 < stop else [((), ())]
        out += [((block,) + hb + tb, mark + hc + tc) for hb, hc in heads for tb, tc in tail]
    grown_mark = ((-1,),) if nested else ((1, -1),)
    if last + 1 < stop:
        _gn_grow(out, memo, stop, nested, grown_mark, block + (last + 1,), heads, last + 1)
    # past last + 1, the next member leaves a gap, which must hold two or
    # more elements: a one-element gap would be a nested singleton
    for nxt in range(last + 3, stop):
        gap = _gn_interval(last + 1, nxt - last - 1, True, memo)
        grown = [(hb + gb, hc + gc) for hb, hc in heads for gb, gc in gap]
        _gn_grow(out, memo, stop, nested, grown_mark, block + (nxt,), grown, nxt)


def _marked_records(n: int, structures: list) -> list[MarkedPartition]:
    """Records of each ``(blocks, choices)`` in turn, one per entry of the product of its choices.

    ``choices`` holds each block's allowed marks, +1 first, so the product
    lists +1 first too.  One :class:`SetPartition` is built per structure
    and shared by all its records, and the mark vectors once per distinct
    ``choices``; the records are frozen, so sharing is safe.  The records
    are built as :func:`_records` builds its own, with no Python frame per
    record, and like it this counts nothing and searches nothing.
    """
    parts = _records(n, list(map(itemgetter(0), structures)))
    choices = list(map(itemgetter(1), structures))
    # one list of mark vectors per distinct choices, shared by its structures
    expanded = {c: list(itertools.product(*c)) for c in set(choices)}
    vectors = list(map(expanded.__getitem__, choices))
    counts = list(map(len, vectors))
    shared = itertools.chain.from_iterable(map(itertools.repeat, parts, counts))
    marked = list(map(object.__new__, itertools.repeat(MarkedPartition, sum(counts))))
    _drain(map(_MP_PARTITION, marked, shared))
    _drain(map(_MP_MARKS, marked, itertools.chain.from_iterable(vectors)))
    return marked


@_collector_paused
def enumerate_interval(n: int) -> list[MarkedPartition]:
    """Marked partitions whose blocks are consecutive-integer intervals.

    A subset of :func:`enumerate_gn`: an interval block can never nest
    strictly inside another interval.
    """
    _check_bound(n, MARKED_LIMIT)
    out = []
    for comp in compositions(n):
        ends = itertools.accumulate(comp)
        blocks = tuple(tuple(range(end - size + 1, end + 1)) for size, end in zip(comp, ends))
        out.append((blocks, tuple((1,) if size == 1 else (1, -1) for size in comp)))
    out.sort(key=itemgetter(0))
    return _marked_records(n, out)


def compositions(n: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``n``.

    With ``parts`` given, only those of that length; otherwise all of them,
    grouped by length.
    """
    if parts is None:
        for k in range(1, n + 1):
            yield from compositions(n, k)
        return
    if parts < 1 or n < parts:
        return
    if parts == 1:
        yield (n,)
        return
    for head in range(1, n - parts + 2):
        for tail in compositions(n - head, parts - 1):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_noncrossing_count(n: int) -> tuple[int, int]:
    """Count-only oracle ``(total set partitions, non-crossing ones)``.

    A pruned depth-first search over restricted growth strings that carries
    only two integers per prefix (see :func:`_count_noncrossing_rgs`): it
    takes one step per non-crossing prefix of length at most ``n - 2``,
    counts the last two places in closed form, and counts each crossing
    prefix at once by its number of completions, so ``total`` is the Bell
    number without visiting every set partition.
    """
    _check_bound(n, NC_LIMIT)
    noncrossing, crossing = _count_noncrossing_rgs(n)
    return noncrossing + crossing, noncrossing


def _count_noncrossing_rgs(n: int) -> tuple[int, int]:
    """The numbers of non-crossing and of crossing restricted growth strings of length ``n``.

    A restricted growth string gives each element the label of its block,
    a new label being one more than the largest so far.  The walk grows the
    string one element at a time, as :func:`_walk_noncrossing_rgs` does,
    but a prefix's completions depend on two numbers only: ``used``, the
    labels it has used, and ``depth``, how many of their blocks are still
    open.  The next element opens a block (``used + 1``, ``depth + 1``),
    joins the ``j``-th open block from the bottom, which closes every block
    above it (depth ``j``), or joins one of the ``used - depth`` closed
    blocks, which makes a crossing.  A crossing prefix is not followed; its
    completions are counted from the table ``C(r, k) = k*C(r-1, k) +
    C(r-1, k+1)``, the number of ways to finish a string with ``r`` places
    left and ``k`` labels used.

    The walk takes one step per non-crossing prefix of length at most
    ``n - 2`` and counts the last two places in closed form.  With ``d``
    blocks open and ``u`` labels used before element ``n - 1``, that
    element either joins open block ``j``, after which the last element
    has ``j + 1`` non-crossing choices (one of the ``j`` open blocks or a
    new one) and ``u - j`` crossing ones, or opens a block, after which it
    has ``d + 2`` and ``u - d``; or it joins a closed block, after which
    any of the ``u + 1`` last choices completes a crossing string.  Summed
    over ``j = 1..d``:

    * non-crossing: ``d(d + 3)/2 + d + 2 = (d + 1)(d + 4)/2``;
    * crossing: ``(u - d)(u + 1) + d*u - d(d + 1)/2 + u - d``, which is
      ``(u - d)(u + 2) + d*u - d(d + 1)/2``.

    Nothing is cached: the walk steps through every non-crossing prefix it
    counts from, so it stays a search over the strings and not a third
    counting formula beside :func:`catalan` and :func:`gn_count_recursion`.
    """
    if n == 1:
        return 1, 0
    # completions[r][k] = C(r, k), for r + k <= n
    completions = [[1] * (n + 1)]
    for r in range(1, n):
        prev = completions[-1]
        completions.append([k * prev[k] + prev[k + 1] for k in range(n - r + 1)])
    return _rgs_count(completions, 0, 0, n - 1)


def _rgs_count(completions: list, used: int, depth: int, left: int) -> tuple[int, int]:
    """Non-crossing and crossing completions of a prefix with ``used`` labels, ``depth`` open.

    ``left`` places follow the element this step places; at ``left == 1``
    that element is ``n - 1``, and both places are counted in closed form.
    """
    if left == 1:
        return (depth + 1) * (depth + 4) // 2, (
            (used - depth) * (used + 2) + depth * used - depth * (depth + 1) // 2
        )
    crossing = (used - depth) * completions[left][used]
    noncrossing = 0
    left -= 1
    for j in range(1, depth + 1):
        more, crossed = _rgs_count(completions, used, j, left)
        noncrossing += more
        crossing += crossed
    more, crossed = _rgs_count(completions, used + 1, depth + 1, left)
    return noncrossing + more, crossing + crossed


def _walk_noncrossing_rgs(n: int, visit) -> None:
    """Call ``visit(blocks)`` on every non-crossing restricted growth string.

    The search grows the string one element at a time and keeps the blocks
    and the stack of open blocks, in order of first use.  The next element
    opens a new block, pushed on top, or joins an open block, which closes
    (pops) every block above it: a later use of a closed block would make a
    crossing x1 < y1 < x2 < y2, so no crossing prefix is ever built.
    ``visit`` receives the blocks as one list of lists, in order of their
    minimum, changed in place between calls.  The recursion stops one place
    early: after a prefix with ``d`` blocks open, the last element has
    ``d + 1`` non-crossing choices, visited in a loop with no call per leaf.
    """
    _rgs_extend(visit, [], [], 1, n)


def _rgs_extend(visit, blocks: list, stack: list, x: int, n: int) -> None:
    """Place the elements ``x..n`` after a prefix with ``blocks``, open ones on ``stack``.

    Each descent appends ``x`` to a block and pops it after.  The state is
    passed in rather than closed over, so the recursion leaves no reference
    cycle holding ``visit`` and whatever it collects.
    """
    if x == n:
        # the last element joins an open block or opens one; nothing
        # follows it, so the stack above that block need not close
        for block in stack:
            block.append(x)
            visit(blocks)
            block.pop()
        blocks.append([x])
        visit(blocks)
        blocks.pop()
        return
    for j in range(len(stack)):
        closed = stack[j + 1:]
        del stack[j + 1:]
        block = stack[j]
        block.append(x)
        _rgs_extend(visit, blocks, stack, x + 1, n)
        block.pop()
        stack += closed
    block = [x]
    blocks.append(block)
    stack.append(block)
    _rgs_extend(visit, blocks, stack, x + 1, n)
    stack.pop()
    blocks.pop()


def has_nested_plus(blocks: tuple[tuple[int, ...], ...], marks: tuple[int, ...]) -> bool:
    """True if some +1 block lies strictly inside another block's span."""
    for block, mark in zip(blocks, marks):
        if mark == 1:
            lo, hi = block[0], block[-1]
            for other in blocks:
                if other[0] < lo and hi < other[-1]:
                    return True
    return False


@_collector_paused
def brute_gn(n: int) -> list[MarkedPartition]:
    """Filter-based oracle for :func:`enumerate_gn`.

    Walks the non-crossing restricted growth strings with
    :func:`_walk_noncrossing_rgs`, which hands over their blocks, and keeps
    every mark vector that the definition allows: singletons carry +1, and
    no +1 block lies strictly inside another block.  Both rules are conjunctions over blocks, so the allowed mark
    vectors are the product of each block's allowed marks, kept as
    ``(blocks, choices)``, sorted by blocks and expanded after the sort.
    The blocks come in order of their minimum; ``reach`` is the furthest
    end of the blocks before ``b``, so ``reach > b[-1]`` says exactly that
    some block with a smaller minimum ends after ``b``, i.e. that ``b`` is
    nested.  A nested singleton admits no mark and rejects the partition,
    which a first pass finds before any choices are built; a nested larger
    block admits only -1; any other admits either mark.
    """
    _check_bound(n, MARKED_LIMIT)
    out = []

    def keep(blocks):
        # a nested singleton rejects the partition before any choices are built
        reach = 0
        for b in blocks:
            end = b[-1]
            if reach < end:
                reach = end
            elif len(b) == 1:
                return
        # allowed marks per block, +1 first
        choices = []
        reach = 0
        for b in blocks:
            end = b[-1]
            if reach > end:
                choices.append((-1,))
            else:
                choices.append((1,) if len(b) == 1 else (1, -1))
                reach = end
        out.append((tuple(map(tuple, blocks)), tuple(choices)))

    _walk_noncrossing_rgs(n, keep)
    # one entry per block tuple, so the blocks alone fix the order
    out.sort(key=itemgetter(0))
    return _marked_records(n, out)


def gn_count_recursion(n: int) -> int:
    """Size of the admissible family via the prepend-element count recursion.

    Tracks only the distribution of the number of +1 blocks: prepending the
    new smallest element adds a +1 singleton, or absorbs into the first +1
    block keeping the mark, or absorbs and flips it to -1.  No enumerator
    builds the family this way, so comparing this count with
    :func:`enumerate_gn` compares two different constructions.
    """
    if n < 1:
        raise ValueError("ground-set size must be positive")
    dist = {1: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for j, c in dist.items():
            nxt[j + 1] = nxt.get(j + 1, 0) + c
            if j >= 1:
                nxt[j] = nxt.get(j, 0) + c
                nxt[j - 1] = nxt.get(j - 1, 0) + c
        dist = nxt
    return sum(dist.values())


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)

