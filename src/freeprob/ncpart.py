"""Non-crossing set partitions of {1..n}: enumeration, lattice structure,
Kreweras complement, and closed-form counts.

Conventions used throughout:

* ground set is {1..n}, blocks are tuples of ints sorted ascending,
  a partition's blocks are sorted by their minimum element;
* enumeration order is the "block of 1" decomposition: the block
  containing the smallest point is grown left to right, each gap between
  consecutive block elements (and the tail after the last one) is
  partitioned independently.  This order is deterministic and is part of
  the public contract.  One explicit-stack walker,
  `_iter_spans(points, k, exact)`, serves NC(n), NC^k(n) and NC_k(n), at
  any depth;
* full enumeration is capped: an enumeration is allowed whenever its
  closed-form count stays within Catalan(cap), so the default cap 16
  admits NC(n) for n <= 16; override via the max_n argument or the
  FREEPROB_MAX_N environment variable (the cap must be >= 1).  Such a
  count is at least Catalan(n) (bar NC_1(n), one partition), so n > cap
  is refused before any count is computed.  Counting operations use
  closed forms and are never capped;
* `join` goes through the Kreweras complement Kr, which reverses the
  order of NC(n); Kr(Kr(p)) is p rotated by x -> x - 1.
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


def _check_budget(n: int, count, max_n: int | None, what: str) -> None:
    # The budget is the size NC(cap) would have.  Catalan is strictly
    # increasing on n >= 1 and count() >= Catalan(n), so n > cap is over
    # budget before a count of up to millions of digits is computed.  The
    # message names no count, which could run to that many digits.
    cap = _resolve_cap(max_n)
    if n > cap or count() > catalan(cap):
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
        # the count first: range(1, n + 1) is as large as the largest point
        if len(seen) != n or sorted(seen) != list(range(1, n + 1)):
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
    # One left-to-right scan with a stack of the open blocks: a point
    # whose block is not on top must open its block, else the block on
    # top separates two of its points and crosses it.
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    stack = []
    for x in range(1, n + 1):
        lab = owner[x]
        b = blocks[lab]
        if not stack or stack[-1] != lab:
            if x != b[0]:
                return False
            stack.append(lab)
        if x == b[-1]:
            stack.pop()
    return True


def is_noncrossing(p: Partition) -> bool:
    """True iff no quadruple a<b<c<d has a,c in one block and b,d in another."""
    return _blocks_noncrossing(p.n, p.blocks)


# ---------------------------------------------------------------------------
# enumeration


def _iter_spans(points: int, k: int, exact: bool) -> Iterator[Blocks]:
    """Non-crossing partitions of 1..points (k divides points) as raw block
    tuples, every block size divisible by k, and exactly k if exact, from
    one loop on an explicit stack.  A frame is (open block, next point,
    span end, todo, done): todo links the blocks whose gap is being
    filled, done holds the closed blocks.  A block steps by k, so each gap
    holds whole blocks, and closes at a size divisible by k (exact blocks
    stop growing at k); closing comes first, then each extension j."""
    stack = [((1,), 2, points + 1, None, ())]
    while stack:
        block, nxt, hi, todo, done = stack.pop()
        while True:
            if not exact or len(block) < k:
                for j in reversed(range(nxt, hi, k)):
                    grown = (block + (j,), j + 1, hi)
                    stack.append(((nxt,), nxt + 1, j, (grown, todo), done) if j > nxt
                                 else grown + (todo, done))
            if len(block) % k:
                break
            done += (block,)
            if nxt < hi:  # the next span
                block, nxt = (nxt,), nxt + 1
            elif todo:  # back to the block that waits for this gap
                (block, nxt, hi), todo = todo
            else:
                yield tuple(sorted(done))
                break


def iter_nc_blocks(n: int, max_n: int | None = None) -> Iterator[Blocks]:
    """Stream raw canonical block tuples of NC(n) without wrapping them."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_budget(n, lambda: catalan(n), max_n, f"NC({n})")
    return _iter_spans(n, 1, False)


def iter_nc(n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    # a generator expression evaluates its source, and so validates, at once
    return (_wrap(n, blocks) for blocks in iter_nc_blocks(n, max_n))


def _wrap(n: int, blocks: Blocks) -> NCPartition:
    # Blocks produced by the walker are already canonical and
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
    _check_budget(n, lambda: fuss_catalan_kdivisible(k, n), max_n, f"NC^{k}({n})")
    return _iter_spans(k * n, k, False)


def iter_kdivisible(k: int, n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    return (_wrap(k * n, blocks) for blocks in iter_kdivisible_blocks(k, n, max_n))


def enumerate_kdivisible(k: int, n: int, max_n: int | None = None) -> list:
    """Partitions of [kn] in NC with every block size divisible by k."""
    return list(iter_kdivisible(k, n, max_n))


def iter_kequal(k: int, n: int, max_n: int | None = None) -> Iterator[NCPartition]:
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    # #NC_k(n) = #NC^{k-1}(n) >= Catalan(n) for k >= 2, and #NC_1(n) = 1
    _check_budget(n if k > 1 else 1, lambda: count_kequal(k, n), max_n, f"NC_{k}({n})")
    return (_wrap(k * n, blocks) for blocks in _iter_spans(k * n, k, True))


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
    its blocks are the orbits of x -> pred(x mod n + 1), pred the cyclic
    predecessor within p's block; each orbit increases from its least
    point, met first by the scan, so the blocks come out canonical.  The
    brute-force interleaving definition is used as the test oracle.
    """
    if not is_noncrossing(p):
        raise ValidationError("Kreweras complement needs a non-crossing partition")
    n = p.n
    pred = [0] * (n + 1)
    for b in p.blocks:
        for i, x in enumerate(b):
            pred[x] = b[i - 1]
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
        blocks.append(tuple(cyc))
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

    Kr reverses the order, so Kr(p v q) is the meet Kr(p) ^ Kr(q), whose
    blocks intersect one block of each; Kr(Kr(s)) is s rotated by
    x -> x - 1, so p v q is Kr of the meet rotated by x -> x mod n + 1.
    """
    if p.n != q.n:
        raise ValidationError("join needs a common ground set")
    n = p.n
    a, b = kreweras(p).block_of(), kreweras(q).block_of()
    meet: dict = {}
    for x in range(1, n + 1):
        meet.setdefault((a[x], b[x]), []).append(x)
    kr = kreweras(_wrap(n, tuple(tuple(m) for m in meet.values())))
    return _wrap(n, tuple(sorted(tuple(sorted(x % n + 1 for x in m)) for m in kr.blocks)))


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


def parse_partition(text: str) -> NCPartition:
    text = text.strip()
    if not text or text[0] != "{" or text[-1] != "}":
        raise ValidationError(f"malformed partition text: {text!r}")
    blocks = []
    for chunk in text[1:-1].split("}{"):
        try:
            blocks.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise ValidationError(f"malformed block {chunk!r}") from exc
    return NCPartition(max(max(b) for b in blocks), blocks)
