"""Non-crossing set partitions of {1..n}: enumeration, lattice structure,
Kreweras complement, and closed-form counts.

Conventions used throughout:

* ground set is {1..n}, blocks are tuples of ints sorted ascending,
  a partition's blocks are sorted by their minimum element;
* enumeration order is the recursive "block of 1" decomposition: the
  block containing the smallest point is grown left to right, each gap
  between consecutive block elements (and the tail after the last one)
  is partitioned independently.  The order this recursion produces is
  deterministic and is part of the public contract;
* full enumeration is capped: an enumeration is allowed whenever its
  closed-form count stays within Catalan(cap), so the default cap 16
  admits NC(n) for n <= 16; override via the max_n argument or the
  FREEPROB_MAX_N environment variable (the cap must be >= 1).  Counting
  operations use closed forms and are never capped.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

from .errors import ResourceLimitError, ValidationError

Blocks = tuple  # tuple of tuples of ints

DEFAULT_MAX_N = 16


def _resolve_cap(max_n: int | None) -> int:
    name = "max_n"
    if max_n is None:
        env = os.environ.get("FREEPROB_MAX_N")
        if env is None:
            return DEFAULT_MAX_N
        name = "FREEPROB_MAX_N"
        try:
            max_n = int(env)
        except ValueError as exc:
            raise ValidationError(f"FREEPROB_MAX_N={env!r} is not an integer") from exc
    if max_n < 1:
        raise ValidationError(f"{name} must be >= 1, got {max_n}")
    return max_n


def _check_budget(count: int, max_n: int | None, what: str) -> None:
    # Every enumeration is capped by its partition count: the budget is
    # the size NC(cap) would have.  Catalan is strictly increasing on
    # n >= 1, so for NC(n) itself this is the test n <= cap.  The message
    # names no count: one past about 4300 digits cannot be printed.
    cap = _resolve_cap(max_n)
    if count > catalan(cap):
        raise ResourceLimitError(
            f"{what} would enumerate more partitions than the budget Catalan({cap})"
            " (raise max_n or FREEPROB_MAX_N to override)"
        )


class Partition:
    """A set partition of {1..n} in canonical form."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks):
        if n < 1:
            raise ValidationError("ground set must be non-empty")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        seen = []
        for b in canon:
            if not b:
                raise ValidationError("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValidationError(f"blocks do not partition 1..{n}: {blocks!r}")
        self.n = n
        self.blocks = canon
        self._hash = hash((n, canon))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {format_partition(self)!r})"

    def __len__(self):
        """Number of blocks."""
        return len(self.blocks)

    def block_of(self) -> list:
        """Element -> block index map (0-based list of length n+1; slot 0 unused)."""
        owner = [0] * (self.n + 1)
        for i, b in enumerate(self.blocks):
            for x in b:
                owner[x] = i
        return owner


class NCPartition(Partition):
    """A partition whose blocks are pairwise non-crossing."""

    __slots__ = ()

    def __init__(self, n, blocks):
        super().__init__(n, blocks)
        if not _blocks_noncrossing(self.n, self.blocks):
            raise ValidationError(f"partition is crossing: {format_partition(self)}")


def _blocks_noncrossing(n: int, blocks: Blocks) -> bool:
    # One left-to-right scan with a stack of open blocks.  A label that
    # reappears while not on top of the stack witnesses a crossing.
    owner = [0] * (n + 1)
    last = [0] * len(blocks)
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
        last[i] = b[-1]
    stack = []
    open_set = set()
    closed = set()
    for x in range(1, n + 1):
        lab = owner[x]
        if stack and stack[-1] == lab:
            if x == last[lab]:
                stack.pop()
                open_set.discard(lab)
                closed.add(lab)
        elif lab in open_set or lab in closed:
            return False
        else:
            stack.append(lab)
            open_set.add(lab)
            if x == last[lab]:
                stack.pop()
                open_set.discard(lab)
                closed.add(lab)
    return True


def is_noncrossing(p: Partition) -> bool:
    """True iff no quadruple a<b<c<d has a,c in one block and b,d in another."""
    return _blocks_noncrossing(p.n, p.blocks)


# ---------------------------------------------------------------------------
# enumeration


def _iter_spans(lo: int, hi: int, close_ok, gap_ok, may_extend) -> Iterator[Blocks]:
    """Non-crossing partitions of the range lo..hi-1 as raw block tuples.

    close_ok(r): may the block of the first point be closed at size r;
    gap_ok(g): may a gap of g points sit between consecutive block
    elements (the same predicate constrains the tail implicitly);
    may_extend(r): may a block of current size r still grow.
    """
    if lo >= hi:
        yield ()
        return

    def walk(block: tuple, gaps: Blocks, nxt: int) -> Iterator[Blocks]:
        if close_ok(len(block)) and gap_ok(hi - nxt):
            for tail in _iter_spans(nxt, hi, close_ok, gap_ok, may_extend):
                yield (block,) + gaps + tail
        if may_extend(len(block)):
            for j in range(nxt, hi):
                if not gap_ok(j - nxt):
                    continue
                for mid in _iter_spans(nxt, j, close_ok, gap_ok, may_extend):
                    yield from walk(block + (j,), gaps + mid, j + 1)

    yield from walk((lo,), (), lo + 1)


def _always(_r: int) -> bool:
    return True


def iter_nc_blocks(n: int, max_n: int | None = None) -> Iterator[Blocks]:
    """Stream raw canonical block tuples of NC(n) without wrapping them."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_budget(catalan(n), max_n, f"NC({n})")
    return _iter_spans(1, n + 1, _always, _always, _always)


def iter_nc(n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    for blocks in iter_nc_blocks(n, max_n):
        yield _wrap(n, blocks)


def _wrap(n: int, blocks: Blocks) -> NCPartition:
    # Blocks produced by the recursion are already canonical and
    # non-crossing; bypass re-validation for speed.
    p = Partition.__new__(NCPartition)
    p.n = n
    p.blocks = blocks
    p._hash = hash((n, blocks))
    return p


def enumerate_nc(n: int, max_n: int | None = None) -> list:
    """All of NC(n) in canonical enumeration order; length Catalan(n)."""
    return list(iter_nc(n, max_n))


def iter_kdivisible_blocks(k: int, n: int, max_n: int | None = None) -> Iterator[Blocks]:
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    _check_budget(fuss_catalan_kdivisible(k, n), max_n, f"NC^{k}({n})")
    close_ok = lambda r: r % k == 0
    gap_ok = lambda g: g % k == 0
    return _iter_spans(1, k * n + 1, close_ok, gap_ok, _always)


def iter_kdivisible(k: int, n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    for blocks in iter_kdivisible_blocks(k, n, max_n):
        yield _wrap(k * n, blocks)


def enumerate_kdivisible(k: int, n: int, max_n: int | None = None) -> list:
    """Partitions of [kn] in NC with every block size divisible by k."""
    return list(iter_kdivisible(k, n, max_n))


def iter_kequal(k: int, n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    _check_budget(count_kequal(k, n), max_n, f"NC_{k}({n})")
    close_ok = lambda r: r == k
    gap_ok = lambda g: g % k == 0
    may_extend = lambda r: r < k
    for blocks in _iter_spans(1, k * n + 1, close_ok, gap_ok, may_extend):
        yield _wrap(k * n, blocks)


def enumerate_kequal(k: int, n: int, max_n: int | None = None) -> list:
    """Partitions of [kn] in NC with every block of size exactly k."""
    return list(iter_kequal(k, n, max_n))


# ---------------------------------------------------------------------------
# closed-form counts (exact big integers, never capped)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_catalan_kdivisible(k: int, n: int) -> int:
    """#NC^k(n) = binom((k+1)n, n) / (kn+1)."""
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    return math.comb((k + 1) * n, n) // (k * n + 1)


def count_kequal(k: int, n: int) -> int:
    """#NC_k(n) = binom(kn, n) / ((k-1)n+1)."""
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    return math.comb(k * n, n) // ((k - 1) * n + 1)


def count_multichains(k: int, n: int) -> int:
    """Number of weakly increasing k-tuples in NC(n); equals #NC^k(n)."""
    return fuss_catalan_kdivisible(k, n)


# ---------------------------------------------------------------------------
# Kreweras complement and the lattice order


def kreweras(p: Partition) -> NCPartition:
    """Kreweras complement of a non-crossing partition.

    Interleave 1,1',2,2',...,n,n'; the complement is the coarsest
    partition of the primed points whose union with p stays
    non-crossing.  Computed in O(n) through the cycle correspondence:
    traverse each block of p as an increasing cycle, compose the
    inverse of that permutation with the full cycle 1->2->...->n->1,
    and read the complement's blocks off the orbits.  The brute-force
    interleaving definition is used as the test oracle.
    """
    if not is_noncrossing(p):
        raise ValidationError("Kreweras complement needs a non-crossing partition")
    n = p.n
    succ = list(range(n + 1))  # within-block cyclic successor
    for b in p.blocks:
        for i, x in enumerate(b):
            succ[x] = b[(i + 1) % len(b)]
    pred = [0] * (n + 1)
    for x in range(1, n + 1):
        pred[succ[x]] = x
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = pred[x % n + 1]
        blocks.append(tuple(sorted(cyc)))
    blocks.sort(key=lambda b: b[0])
    return _wrap(n, tuple(blocks))


def leq(p: Partition, q: Partition) -> bool:
    """Reverse refinement order: every block of p lies inside a block of q."""
    if p.n != q.n:
        raise ValidationError("order comparison needs a common ground set")
    owner = q.block_of()
    for b in p.blocks:
        root = owner[b[0]]
        if any(owner[x] != root for x in b[1:]):
            return False
    return True


def join(p: Partition, q: Partition) -> NCPartition:
    """Least upper bound of two non-crossing partitions in NC(n).

    Take the partition-lattice join (transitive closure of the union),
    then merge crossing blocks until none remain.
    """
    if p.n != q.n:
        raise ValidationError("join needs a common ground set")
    n = p.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (p, q):
        for b in part.blocks:
            for x in b[1:]:
                union(b[0], x)

    groups: dict = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    blocks = [tuple(b) for b in groups.values()]

    def crossing(b1, b2):
        merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
        pattern = [tag for _, tag in merged]
        # blocks cross iff the tags switch at least three times: a<b<c<d
        # with the pattern 0101 or 1010 somewhere
        switches = sum(1 for a, b in zip(pattern, pattern[1:]) if a != b)
        return switches >= 3

    merged_any = True
    while merged_any:
        merged_any = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if crossing(blocks[i], blocks[j]):
                    blocks[i] = tuple(sorted(blocks[i] + blocks[j]))
                    del blocks[j]
                    merged_any = True
                    break
            if merged_any:
                break
    blocks.sort(key=lambda b: b[0])
    return _wrap(n, tuple(blocks))


def zero_partition(n: int) -> NCPartition:
    return _wrap(n, tuple((i,) for i in range(1, n + 1)))


def one_partition(n: int) -> NCPartition:
    return _wrap(n, (tuple(range(1, n + 1)),))


def interval_partition(group_sizes) -> NCPartition:
    """Consecutive blocks of the given sizes, e.g. (2,3) -> {1,2}{3,4,5}."""
    sizes = list(group_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValidationError(f"invalid grouping {group_sizes!r}")
    blocks = []
    start = 1
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    return _wrap(start - 1, tuple(blocks))


# ---------------------------------------------------------------------------
# text format: blocks in canonical order, e.g. {1,2,5}{3,4}


def format_partition(p: Partition) -> str:
    return "".join("{" + ",".join(str(x) for x in b) + "}" for b in p.blocks)


def parse_partition(text: str, noncrossing: bool = True) -> Partition:
    text = text.strip()
    if not text or text[0] != "{" or text[-1] != "}":
        raise ValidationError(f"malformed partition text: {text!r}")
    blocks = []
    for chunk in text[1:-1].split("}{"):
        try:
            blocks.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise ValidationError(f"malformed block {chunk!r}") from exc
    n = max(max(b) for b in blocks)
    cls = NCPartition if noncrossing else Partition
    return cls(n, blocks)
