"""Block partitioning and circular block ranges (paper Secs. 4.1-4.2).

Collectives that scatter/gather data split the ``n``-element vector into one
*block* per rank, MPI-style: the first ``n mod p`` blocks get one extra
element.  Bine gather/scatter then manipulate *circular* ranges of blocks
(``[a, b]`` may wrap past ``p − 1``), which this module models explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Partition", "CircularRange", "wrap_range_from_set"]


@dataclass(frozen=True)
class Partition:
    """Split of ``n`` elements into ``p`` contiguous blocks."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ValueError("p must be positive")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        # frozen dataclass: precompute the divmod once — bounds()/size() are
        # called per transfer segment in the schedule builders
        q, r = divmod(self.n, self.p)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_r", r)

    def size(self, block: int) -> int:
        """Element count of ``block``."""
        self._check(block)
        return self._q + (1 if block < self._r else 0)

    def bounds(self, block: int) -> tuple[int, int]:
        """Half-open element range ``[lo, hi)`` of ``block``."""
        self._check(block)
        q, r = self._q, self._r
        if block < r:
            lo = block * (q + 1)
            return lo, lo + q + 1
        lo = block * q + r
        return lo, lo + q

    def offset(self, block: int) -> int:
        """First element of ``block``; ``offset(p)`` is ``n``."""
        if not 0 <= block <= self.p:
            raise ValueError(f"block offset {block} out of range for p={self.p}")
        q, r = self._q, self._r
        return block * (q + 1) if block < r else block * q + r

    def segments(self, blocks) -> list[tuple[int, int]]:
        """Coalesced half-open element ranges covering ``blocks``.

        Consecutive block indices merge into a single segment, so the result
        length equals the number of maximal runs in ``blocks``.
        """
        q, r, p = self._q, self._r, self.p
        out: list[tuple[int, int]] = []
        for b in sorted(set(blocks)):
            if not 0 <= b < p:
                raise ValueError(f"block {b} out of range for p={p}")
            if b < r:
                lo = b * (q + 1)
                hi = lo + q + 1
            else:
                lo = b * q + r
                hi = lo + q
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    def total(self, blocks) -> int:
        """Total element count across ``blocks``."""
        return sum(self.size(b) for b in set(blocks))

    def owner_of(self, element: int) -> int:
        """Block index containing element offset ``element``."""
        if not 0 <= element < self.n:
            raise ValueError(f"element {element} out of range")
        q, r = divmod(self.n, self.p)
        # First r blocks have size q+1 and span the first r*(q+1) elements.
        head = r * (q + 1)
        if element < head:
            return element // (q + 1)
        return r + (element - head) // q

    def _check(self, block: int) -> None:
        if not 0 <= block < self.p:
            raise ValueError(f"block {block} out of range for p={self.p}")


@dataclass(frozen=True)
class CircularRange:
    """A run of ``length`` consecutive block indices mod ``p`` from ``start``.

    ``CircularRange(6, 4, 8)`` is blocks ``{6, 7, 0, 1}`` — the wrap-around
    ranges Bine gather/scatter produce (paper Fig. 7).
    """

    start: int
    length: int
    p: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.p:
            raise ValueError(f"start {self.start} out of range for p={self.p}")
        if not 0 <= self.length <= self.p:
            raise ValueError(f"length {self.length} invalid for p={self.p}")

    def indices(self) -> list[int]:
        """Block indices in circular order."""
        return [(self.start + k) % self.p for k in range(self.length)]

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices())

    def contains(self, block: int) -> bool:
        return (block - self.start) % self.p < self.length

    @property
    def end(self) -> int:
        """Last block index in the range (inclusive)."""
        if self.length == 0:
            raise ValueError("empty range has no end")
        return (self.start + self.length - 1) % self.p

    def wraps(self) -> bool:
        """True when the range crosses the p−1 → 0 boundary."""
        return self.length > 0 and self.start + self.length > self.p

    def merge(self, other: "CircularRange") -> "CircularRange":
        """Union with an *adjacent, disjoint* circular range.

        The two ranges must tile a single longer run (the gather invariant:
        a parent's range and its child's subtree range are always adjacent).
        """
        if self.p != other.p:
            raise ValueError("ranges over different p")
        if self.length == 0:
            return other
        if other.length == 0:
            return self
        if (self.start + self.length) % self.p == other.start:
            merged = CircularRange(self.start, self.length + other.length, self.p)
        elif (other.start + other.length) % self.p == self.start:
            merged = CircularRange(other.start, other.length + self.length, self.p)
        else:
            raise ValueError(f"ranges {self} and {other} are not adjacent")
        if self.length + other.length > self.p:
            raise ValueError("merged range exceeds p blocks")
        return merged

    def segments(self, partition: Partition) -> list[tuple[int, int]]:
        """Element segments (≤ 2) of the range under ``partition``.

        A wrapped range linearises to two segments — the "two transmissions"
        of Sec. 4.3.1 — in ascending order, coalesced into one when the
        blocks between them are empty (``n < p``), exactly as
        ``partition.segments(self.indices())`` would, in O(1).
        """
        if partition.p != self.p:
            raise ValueError("partition p mismatch")
        if self.length == 0:
            return []
        lo = partition.offset(self.start)
        end = self.start + self.length
        if end <= self.p:
            return [(lo, partition.offset(end))]
        head = partition.offset(end - self.p)
        if head == lo:
            return [(0, partition.n)]
        return [(0, head), (lo, partition.n)]


def wrap_range_from_set(blocks, p: int) -> CircularRange:
    """Recover a :class:`CircularRange` from a set known to be circular-contiguous."""
    blocks = set(blocks)
    if not blocks:
        return CircularRange(0, 0, p)
    if len(blocks) == p:
        return CircularRange(0, p, p)
    starts = [b for b in blocks if (b - 1) % p not in blocks]
    if len(starts) != 1:
        raise ValueError(f"set is not circular-contiguous mod {p}: {sorted(blocks)}")
    return CircularRange(starts[0], len(blocks), p)
