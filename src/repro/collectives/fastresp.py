"""Fast responsibility-set backends for large rank counts.

The generic recursion in :mod:`repro.core.coverage` materialises
``Θ(p²)`` set elements per butterfly — fine for correctness tests at small
``p``, prohibitive for profiling Leonardo-scale (2048-rank) sweeps.  This
module provides per-kind fast backends used by the schedule builders:

* ``bine-doubling`` / ``swing`` — the paper's ν-mask closed form
  (Sec. 3.2.3) vectorised: ``resp(r, j) = (r ± {b : ν(b) & ones(j) = 0})``;
* ``recdoub`` / ``rechalv`` — classic hypercube closed forms;
* ``bine-halving`` (and any butterfly with circular-contiguous sets) — an
  ``O(p log p)`` circular-range recursion: ranges of partners merge
  adjacently, so only ``(start, length)`` pairs are memoised.

All backends return **sorted NumPy block arrays**, and are cross-checked
against the generic recursion in the test suite.

:func:`resp_stats` is the columnar counterpart: for every ``(step, rank)``
of a butterfly it gives the set's size, its natural-layout run count and
whether its π window is contiguous — all a lowered
:class:`~repro.model.compiled.TransferTable` needs — as ``(s+1, p)``
arrays, without materialising a single set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bine_tree import nu_labels
from repro.core.butterfly import Butterfly
from repro.core.coverage import responsibility
from repro.collectives.common import global_pi

__all__ = ["resp_backend", "sorted_runs", "resp_stats", "RespStats", "CANONICAL_KINDS"]

#: butterfly kinds with closed-form responsibility sets, mapped to the kind
#: whose sets they share — the memo key of everything derived from the sets
#: being a pure function of ``(kind, p)``.  Swing uses the distance-doubling
#: Bine matching, so the two kinds alias.
CANONICAL_KINDS = {
    "bine-doubling": "bine-doubling",
    "swing": "bine-doubling",
    "bine-halving": "bine-halving",
    "recdoub": "recdoub",
    "rechalv": "rechalv",
}


def sorted_runs(arr: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive values in a sorted int array."""
    n = arr.size
    if n == 0:
        return []
    if n <= 128:
        # small arrays: a plain scan beats the fixed cost of the array ops
        vals = arr.tolist()
        out = []
        lo = prev = vals[0]
        for v in vals[1:]:
            if v != prev + 1:
                out.append((lo, prev + 1))
                lo = v
            prev = v
        out.append((lo, prev + 1))
        return out
    breaks = np.nonzero(arr[1:] != arr[:-1] + 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [arr.size - 1]))
    # bulk .tolist() yields Python ints far faster than per-element int()
    return list(zip(arr[starts].tolist(), (arr[ends] + 1).tolist()))


def _bine_dd_backend(bf: Butterfly):
    p = bf.p
    nus = np.array(nu_labels(p), dtype=np.int64)
    base: dict[int, np.ndarray] = {}

    def resp(rank: int, step: int) -> np.ndarray:
        if step not in base:
            mask = (1 << step) - 1
            base[step] = np.nonzero((nus & mask) == 0)[0]
        b = base[step]
        if rank % 2 == 0:
            return np.sort((rank + b) % p)
        return np.sort((rank - b) % p)

    return resp


def _recdoub_backend(bf: Butterfly):
    p = bf.p

    def resp(rank: int, step: int) -> np.ndarray:
        mask = (1 << step) - 1
        all_b = np.arange(p)
        return all_b[(all_b ^ rank) & mask == 0]

    return resp


def _rechalv_backend(bf: Butterfly):
    p = bf.p
    s = p.bit_length() - 1

    def resp(rank: int, step: int) -> np.ndarray:
        width = s - step
        lo = (rank >> width) << width
        return np.arange(lo, lo + (1 << width))

    return resp


def _circular_backend(bf: Butterfly):
    """O(p log p) recursion over (start, length) circular ranges."""
    p, s = bf.p, bf.num_steps
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def crange(rank: int, step: int) -> tuple[int, int]:
        key = (rank, step)
        if key in memo:
            return memo[key]
        if step == s:
            out = (rank, 1)
        else:
            a_start, a_len = crange(rank, step + 1)
            b_start, b_len = crange(bf.partner(rank, step), step + 1)
            if (a_start + a_len) % p == b_start:
                out = (a_start, a_len + b_len)
            elif (b_start + b_len) % p == a_start:
                out = (b_start, a_len + b_len)
            else:
                raise ValueError(
                    f"{bf.kind}: responsibility sets not circular-contiguous "
                    f"at rank {rank} step {step}"
                )
        memo[key] = out
        return out

    def resp(rank: int, step: int) -> np.ndarray:
        start, length = crange(rank, step)
        return np.sort(np.arange(start, start + length) % p)

    return resp


def _generic_backend(bf: Butterfly):
    def resp(rank: int, step: int) -> np.ndarray:
        return np.array(sorted(responsibility(bf, rank, step)), dtype=np.int64)

    return resp


def resp_backend(bf: Butterfly):
    """Pick the fastest valid backend for ``bf``; returns resp(rank, step)."""
    if bf.kind in ("bine-doubling", "swing"):
        return _bine_dd_backend(bf)
    if bf.kind == "recdoub":
        return _recdoub_backend(bf)
    if bf.kind == "rechalv":
        return _rechalv_backend(bf)
    if bf.kind in ("bine-halving",):
        return _circular_backend(bf)
    return _generic_backend(bf)


# -- columnar statistics -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RespStats:
    """Responsibility-set statistics of one butterfly; row ``k`` is step ``k``.

    ``size[k, r]`` is ``|resp(r, k)|``, ``runs[k, r]`` its number of maximal
    runs of consecutive blocks (the natural layout's wire segments) and
    ``pi_contiguous[k, r]`` whether ``π(resp(r, k))`` is one contiguous
    window (the π-space strategies' single segment).  All ``(s+1, p)``.
    """

    size: np.ndarray
    runs: np.ndarray
    pi_contiguous: np.ndarray


#: (canonical kind, p) → RespStats
_STATS_CACHE: dict[tuple[str, int], RespStats] = {}


def resp_stats(bf: Butterfly) -> RespStats:
    """Memoized :class:`RespStats` of ``bf`` (one entry per ``(kind, p)``).

    Sizes and π windows follow the butterfly recursion
    ``resp(r, k) = resp(r, k+1) ⊎ resp(partner(r, k), k+1)`` one step at a
    time (the window's min/max position combine like the sizes); run
    counts come from each kind's closed form.  ``O(p log p)`` work and
    memory, so p=4096 costs milliseconds.

    Example::

        >>> from repro.core.butterfly import recursive_halving_butterfly
        >>> st = resp_stats(recursive_halving_butterfly(8))
        >>> st.size[:, 0].tolist(), st.runs[1].tolist()
        ([8, 4, 2, 1], [1, 1, 1, 1, 1, 1, 1, 1])
    """
    try:
        kind = CANONICAL_KINDS[bf.kind]
    except KeyError:
        raise KeyError(
            f"no columnar responsibility statistics for butterfly kind {bf.kind!r}; "
            f"have {sorted(CANONICAL_KINDS)}"
        ) from None
    key = (kind, bf.p)
    stats = _STATS_CACHE.get(key)
    if stats is None:
        stats = _STATS_CACHE[key] = _compute_stats(bf, kind)
    return stats


def _compute_stats(bf: Butterfly, kind: str) -> RespStats:
    p, s = bf.p, bf.num_steps
    partners = np.asarray(bf.partners, dtype=np.intp).reshape(s, p)
    size = np.ones((s + 1, p), dtype=np.int64)
    pi = np.asarray(global_pi(p), dtype=np.int64)
    lo = np.empty((s + 1, p), dtype=np.int64)
    hi = np.empty((s + 1, p), dtype=np.int64)
    lo[s] = hi[s] = pi
    for k in range(s - 1, -1, -1):
        q = partners[k]
        size[k] = size[k + 1] + size[k + 1, q]
        lo[k] = np.minimum(lo[k + 1], lo[k + 1, q])
        hi[k] = np.maximum(hi[k + 1], hi[k + 1, q])
    return RespStats(
        size=size,
        runs=_RUNS[kind](bf, size),
        pi_contiguous=hi - lo + 1 == size,
    )


def _runs_rechalv(bf: Butterfly, size: np.ndarray) -> np.ndarray:
    # resp(r, k) is the aligned block range of r's top k bits
    return np.ones_like(size)


def _runs_recdoub(bf: Butterfly, size: np.ndarray) -> np.ndarray:
    # resp(r, k) is r's residue class mod 2^k: isolated blocks once k ≥ 1
    runs = size.copy()
    runs[0] = 1
    return runs


def _runs_bine_dd(bf: Butterfly, size: np.ndarray) -> np.ndarray:
    """ν-mask closed form: ``resp(r, k) = r ± B_k`` (+ for even ``r``).

    A translate (or mirror) of ``B_k`` has as many circular runs as ``B_k``;
    its natural-layout runs add one when a circular run wraps past ``p−1``,
    i.e. when the set holds both block ``0`` and block ``p−1``.
    """
    p = bf.p
    nus = np.asarray(nu_labels(p), dtype=np.int64)
    r = np.arange(p)
    even = r % 2 == 0
    # the two blocks of B_k that land on 0 and p−1: −r, −r−1 (even r) or
    # r, r+1 (odd r, mirrored)
    at0 = np.where(even, -r, r) % p
    at_last = np.where(even, -r - 1, r + 1) % p
    runs = np.empty_like(size)
    for k in range(size.shape[0]):
        in_b = (nus & ((1 << k) - 1)) == 0
        circular = int(np.count_nonzero(in_b & ~np.roll(in_b, 1)))
        runs[k] = circular + (in_b[at0] & in_b[at_last])
    return runs


def _runs_circular(bf: Butterfly, size: np.ndarray) -> np.ndarray:
    """Circular-range recursion of :func:`_circular_backend`, one step at a
    time: a range splits into two natural runs when it wraps past ``p−1``
    without covering everything."""
    p, s = bf.p, bf.num_steps
    partners = np.asarray(bf.partners, dtype=np.intp).reshape(s, p)
    runs = np.ones_like(size)
    start = np.arange(p, dtype=np.int64)
    length = np.ones(p, dtype=np.int64)
    for k in range(s - 1, -1, -1):
        q = partners[k]
        b_start, b_len = start[q], length[q]
        a_then_b = (start + length) % p == b_start
        b_then_a = (b_start + b_len) % p == start
        bad = np.flatnonzero(~(a_then_b | b_then_a))
        if bad.size:
            raise ValueError(
                f"{bf.kind}: responsibility sets not circular-contiguous "
                f"at rank {int(bad[0])} step {k}"
            )
        start = np.where(a_then_b, start, b_start)
        length = length + b_len
        runs[k] = 1 + ((start + length > p) & (length < p))
    return runs


#: canonical kind → natural-layout run counts, shape (s+1, p)
_RUNS = {
    "rechalv": _runs_rechalv,
    "recdoub": _runs_recdoub,
    "bine-doubling": _runs_bine_dd,
    "bine-halving": _runs_circular,
}
