"""Differential remapping — approach 1 (paper Section 5).

A post-pass over already-allocated code: permute the physical register
numbers to minimise the adjacency-graph cost of condition (3).  Permuting
never changes which live ranges share a register, so any allocator's output
remains valid; only the *numbers* change, and with differential encoding the
numbers matter.

Two searches are provided, matching the paper:

* :func:`exhaustive_remap` — all ``RegN!`` permutations,
  O(RegN^2 * RegN!), "tractable for small RegN".
* :func:`differential_remap` — the polynomial greedy heuristic of Figure 7:
  steepest-descent over pairwise swaps of the register vector, restarted from
  a number of random initial vectors (the paper uses 1000) and keeping the
  best local minimum.

The descent evaluates swap candidates **incrementally**: swapping registers
``a`` and ``b`` only changes the satisfaction of edges incident to ``a`` or
``b``, so a candidate swap costs O(deg(a) + deg(b)) against per-register
incident-edge buckets instead of a full O(E) cost re-evaluation.  Edge
weights are scaled to exact integers (see :data:`_WEIGHT_SCALE`), which
makes every delta bit-identical to a full :func:`_perm_cost` recomputation
no matter how — or on which engine — it is computed.  Both engines expose
``descend_all(starts)``: the vectorised :class:`_NumpyDeltaEngine`
(production) descends every restart of a search at once, and the
pure-Python :class:`_PyDeltaEngine` (weights too large for int64) one at a
time; both return the same permutations and costs as the
O(E)-per-candidate :func:`_greedy_descent_reference` oracle.  Restarts are
independent, so ``jobs > 1`` fans them out over
:func:`repro.parallel.parallel_map`, again with bit-identical results.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.adjacency import build_adjacency
from repro.analysis.frequency import estimate_block_frequencies
from repro.ir.function import Function
from repro.ir.instr import Reg
from repro.ir.trace import lazy_numpy

__all__ = [
    "RemapResult",
    "ExactRemapResult",
    "differential_remap",
    "exhaustive_remap",
    "exact_remap",
    "remap_optimality_gap",
    "apply_permutation",
]

Edge = Tuple[int, int, int]

#: Edge weights enter as floats — block frequencies plus predecessor shares
#: ``freq / len(preds)`` — and are scaled by lcm(1..16) = 720720 into exact
#: integers.  Exact weights make the swap search deterministic: a delta is
#: the same number whether it is computed incrementally over two registers'
#: buckets, vectorised over all candidate pairs, or by differencing two
#: full-cost evaluations, so every engine (and every ``jobs`` setting)
#: picks the same swap at every step.  Reported costs are divided back.
_WEIGHT_SCALE = 720720

#: Weights at or above this bound go to the pure-Python engine, whose
#: arbitrary-precision integers cannot overflow; a block that runs ~1.5M
#: times under profile weights reaches it.
_NUMPY_WEIGHT_LIMIT = 1 << 40

#: Entries of the ``(restarts x pair entries)`` table one batched descent
#: round may hold; more restarts than fit run in successive chunks.  At
#: ~16 bytes of temporaries per entry a round stays near 1 MB.
_DESCENT_BUDGET = 1 << 16


@dataclass
class RemapResult:
    """Outcome of a remapping search."""

    fn: Function
    permutation: Tuple[int, ...]  # old register number -> new register number
    cost_before: float
    cost_after: float
    restarts: int = 1


def _edge_list(fn: Function, reg_n: int, order: str,
               freq: Optional[Mapping[str, float]]) -> List[Edge]:
    """The adjacency edges inside the differential space, as id triples.

    Parallel ``(u, v)`` edges are collapsed into one summed weight so both
    searches iterate a minimal edge set (and the incremental buckets stay
    small); first-seen order is preserved.  Weights are scaled to exact
    integers (:data:`_WEIGHT_SCALE`); with integer block frequencies the
    scaling is lossless, anything else is quantised to ~1e-6 of a unit
    weight.
    """
    graph = build_adjacency(fn, order=order, freq=freq)
    weights: Dict[Tuple[int, int], float] = {}
    for u, v, w in graph.edges():
        if u.virtual or v.virtual:
            raise ValueError("remapping requires allocated (physical) code")
        if u.id < reg_n and v.id < reg_n and u.cls == "int" and v.cls == "int":
            key = (u.id, v.id)
            weights[key] = weights.get(key, 0.0) + w
    return [(u, v, round(w * _WEIGHT_SCALE)) for (u, v), w in weights.items()]


def _perm_cost(perm: Sequence[int], edges: Sequence[Tuple[int, int, float]],
               reg_n: int, diff_n: int) -> float:
    total = 0
    for u, v, w in edges:
        if (perm[v] - perm[u]) % reg_n >= diff_n:
            total += w
    return total


def apply_permutation(fn: Function, perm: Sequence[int], reg_n: int) -> Function:
    """Renumber physical int registers below ``reg_n`` through ``perm``."""
    mapping: Dict[Reg, Reg] = {}
    for r in fn.registers():
        if not r.virtual and r.cls == "int" and r.id < reg_n:
            mapping[r] = Reg(perm[r.id], virtual=False, cls="int")
    return fn.rewrite_registers(mapping)


def exhaustive_remap(fn: Function, reg_n: int, diff_n: int,
                     order: str = "src_first",
                     freq: Optional[Mapping[str, float]] = None,
                     pinned: Sequence[int] = ()) -> RemapResult:
    """Try every permutation.  Only sensible for small ``reg_n`` (≤ 8)."""
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    identity = tuple(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)
    free = [i for i in range(reg_n) if i not in set(pinned)]
    best_perm, best_cost = identity, base_cost
    for images in itertools.permutations(free):
        perm = list(identity)
        for slot, image in zip(free, images):
            perm[slot] = image
        cost = _perm_cost(perm, edges, reg_n, diff_n)
        if cost < best_cost:
            best_perm, best_cost = tuple(perm), cost
            if cost == 0:
                break
    return RemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=best_perm,
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
    )


class _ExactEngine:
    """Branch-and-bound over register→number assignments, provably exact.

    Numbers are assigned in order ``0, 1, ..., reg_n - 1``; at depth ``k``
    the engine chooses which still-unplaced register receives number ``k``.
    Three devices keep the tree far below ``RegN!`` leaves:

    * **rotation pinning** — condition (3) only reads differences
      ``(perm[v] - perm[u]) mod RegN``, which a rotation of all numbers
      leaves untouched, so with no ``pinned`` constraint the first free
      register can be fixed at number 0 (a factor-``RegN`` reduction);
    * **forced cross-edge violations** — an edge from a placed register
      whose partner cannot reach any remaining number within ``DiffN``
      contributes its full weight to the bound already;
    * **a memoized subproblem table** ``h(mask)`` — the exact minimum
      violation weight of the edges internal to the unplaced set ``mask``,
      placed into any contiguous number block.  Because the remaining
      numbers ``{k..RegN-1}`` are always a translate of ``{0..m-1}`` and
      translation preserves differences mod ``RegN``, ``h`` depends only
      on the *set* of unplaced registers: at most ``2^RegN`` entries, each
      solved once.  ``memo`` is exposed for the DP-table unit tests.

    The admissible bound is ``g + forced_cross + h(mask)``; ``nodes`` and
    ``pruned`` count explored and cut subtrees for the calibration report.
    """

    def __init__(self, edges: Sequence[Edge], reg_n: int, diff_n: int,
                 pinned: Sequence[int] = ()) -> None:
        self.edges = list(edges)
        self.reg_n = reg_n
        self.diff_n = diff_n
        self.pinned_set = set(pinned)
        self.memo: Dict[int, int] = {}
        self.nodes = 0
        self.pruned = 0

    def _violates(self, nu: int, nv: int) -> bool:
        return (nv - nu) % self.reg_n >= self.diff_n

    def h(self, mask: int) -> int:
        """Exact minimum violation weight of the edges internal to the
        register set ``mask``, placed into a contiguous number block."""
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        regs = [r for r in range(self.reg_n) if mask >> r & 1]
        internal = [(u, v, w) for u, v, w in self.edges
                    if u != v and (mask >> u & 1) and (mask >> v & 1)]
        best = 0
        if internal:
            best = None
            for images in itertools.permutations(range(len(regs))):
                num = dict(zip(regs, images))
                c = sum(w for u, v, w in internal
                        if self._violates(num[u], num[v]))
                if best is None or c < best:
                    best = c
                    if best == 0:
                        break
        self.memo[mask] = best
        return best

    def _forced_cross(self, num: List[int], mask: int, k: int) -> int:
        """Weight of cross edges violated under every remaining number."""
        remaining = range(k, self.reg_n)
        total = 0
        for u, v, w in self.edges:
            u_placed = not (mask >> u & 1)
            v_placed = not (mask >> v & 1)
            if u_placed == v_placed:
                continue
            if u_placed:
                if all(self._violates(num[u], q) for q in remaining):
                    total += w
            else:
                if all(self._violates(q, num[v]) for q in remaining):
                    total += w
        return total

    def solve(self) -> Tuple[int, Tuple[int, ...]]:
        """The minimum scaled cost and a permutation achieving it."""
        n = self.reg_n
        num = [-1] * n
        best_cost: Optional[int] = None
        best_perm: Optional[Tuple[int, ...]] = None

        def place(k: int, mask: int, g: int) -> None:
            nonlocal best_cost, best_perm
            self.nodes += 1
            if mask == 0:
                if best_cost is None or g < best_cost:
                    best_cost, best_perm = g, tuple(num)
                return
            if best_cost is not None:
                bound = g + self._forced_cross(num, mask, k) + self.h(mask)
                if bound >= best_cost:
                    self.pruned += 1
                    return
            if k in self.pinned_set:
                candidates = [k]
            elif k == 0 and not self.pinned_set:
                # rotation pinning: fix the lowest register at number 0
                candidates = [min(r for r in range(n) if mask >> r & 1)]
            else:
                candidates = [r for r in range(n)
                              if (mask >> r & 1) and r not in self.pinned_set]
            for r in candidates:
                num[r] = k
                nm = mask & ~(1 << r)
                dg = 0
                for u, v, w in self.edges:
                    if u == r and v != r and not (nm >> v & 1):
                        if self._violates(k, num[v]):
                            dg += w
                    elif v == r and u != r and not (nm >> u & 1):
                        if self._violates(num[u], k):
                            dg += w
                place(k + 1, nm, g + dg)
                num[r] = -1

        place(0, (1 << n) - 1, 0)
        assert best_cost is not None and best_perm is not None
        return best_cost, best_perm


@dataclass
class ExactRemapResult:
    """Outcome of the exact branch-and-bound remapping search."""

    fn: Function
    permutation: Tuple[int, ...]
    cost_before: float
    cost_after: float
    nodes: int = 0          # branch-and-bound tree nodes explored
    pruned: int = 0         # subtrees cut by the admissible bound
    memo_size: int = 0      # distinct h(mask) subproblems solved


def exact_remap(fn: Function, reg_n: int, diff_n: int,
                order: str = "src_first",
                freq: Optional[Mapping[str, float]] = None,
                pinned: Sequence[int] = ()) -> ExactRemapResult:
    """Provably optimal remapping via branch-and-bound (``RegN <= 8``).

    Same contract as :func:`differential_remap`, but the returned cost is
    the true minimum of condition (3)'s adjacency objective — the engine
    exists to *calibrate* the greedy descent's optimality gap
    (``repro bench-moves``), not to replace it: the tree is exponential
    in ``RegN`` even with the :class:`_ExactEngine` bounds.
    """
    if reg_n > 8:
        raise ValueError(f"exact remap is exponential; RegN={reg_n} > 8")
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    identity = tuple(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)
    engine = _ExactEngine(edges, reg_n, diff_n, pinned)
    best_cost, best_perm = engine.solve()
    return ExactRemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=best_perm,
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
        nodes=engine.nodes,
        pruned=engine.pruned,
        memo_size=len(engine.memo),
    )


def remap_optimality_gap(fn: Function, reg_n: int, diff_n: int,
                         order: str = "src_first",
                         freq: Optional[Mapping[str, float]] = None,
                         restarts: int = 100,
                         seed: int = 0,
                         pinned: Sequence[int] = ()) -> Dict[str, float]:
    """Calibrate the greedy descent against the exact optimum.

    Runs :func:`differential_remap` and :func:`exact_remap` on the same
    adjacency problem and reports both costs plus their gap — by
    construction ``gap >= 0``, and the regression suite ratchets it
    non-increasing per corpus function.  Keys: ``greedy_cost``,
    ``exact_cost``, ``gap``, ``nodes``, ``pruned``, ``memo_size``.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    greedy = differential_remap(fn, reg_n, diff_n, order=order, freq=freq,
                                restarts=restarts, seed=seed, pinned=pinned)
    exact = exact_remap(fn, reg_n, diff_n, order=order, freq=freq,
                        pinned=pinned)
    return {
        "greedy_cost": greedy.cost_after,
        "exact_cost": exact.cost_after,
        "gap": greedy.cost_after - exact.cost_after,
        "nodes": float(exact.nodes),
        "pruned": float(exact.pruned),
        "memo_size": float(exact.memo_size),
    }


class _PyDeltaEngine:
    """Per-register incident-edge buckets for O(deg) swap evaluation.

    ``buckets[r]`` holds every edge with an endpoint at original register
    ``r``; an edge between two distinct registers appears in both buckets.
    Cost terms depend only on the permutation's values at an edge's
    endpoints, so the cost change of swapping ``perm[a], perm[b]`` is
    confined to ``buckets[a] ∪ buckets[b]``.  One engine serves every
    restart of a search (it never holds permutation state).
    """

    def __init__(self, edges: Sequence[Edge], reg_n: int, diff_n: int,
                 free: Sequence[int]) -> None:
        self.reg_n = reg_n
        self.diff_n = diff_n
        self.free = list(free)
        buckets: List[List[Edge]] = [[] for _ in range(reg_n)]
        neighbors: List[Set[int]] = [set() for _ in range(reg_n)]
        for edge in edges:
            u, v, _ = edge
            buckets[u].append(edge)
            neighbors[u].add(v)
            if v != u:
                buckets[v].append(edge)
                neighbors[v].add(u)
        self.edges = list(edges)
        self.buckets = buckets
        self.neighbors = neighbors

    def _incident_cost(self, perm: Sequence[int], a: int, b: int) -> int:
        """Violation weight of the edges touching ``a`` or ``b`` under
        ``perm`` (edges in both buckets counted once)."""
        reg_n, diff_n = self.reg_n, self.diff_n
        total = 0
        for u, v, w in self.buckets[a]:
            if (perm[v] - perm[u]) % reg_n >= diff_n:
                total += w
        for u, v, w in self.buckets[b]:
            if u == a or v == a:
                continue  # already counted via a's bucket
            if (perm[v] - perm[u]) % reg_n >= diff_n:
                total += w
        return total

    def swap_delta(self, perm: List[int], a: int, b: int) -> int:
        """Cost decrease of swapping ``perm[a]`` and ``perm[b]``.

        Positive means the swap improves.  O(deg(a) + deg(b)): only the
        incident edges are evaluated, before and after the swap.
        """
        before = self._incident_cost(perm, a, b)
        perm[a], perm[b] = perm[b], perm[a]
        after = self._incident_cost(perm, a, b)
        perm[a], perm[b] = perm[b], perm[a]
        return before - after

    def descend_all(self, starts: Sequence[Sequence[int]]
                    ) -> List[Tuple[int, List[int]]]:
        """Descend every start to a local minimum: ``[(cost, perm)]``."""
        results = []
        for start in starts:
            perm = list(start)
            results.append((self._descend(perm), perm))
        return results

    def _descend(self, perm: List[int]) -> int:
        """Steepest-descent to a local minimum; mutates ``perm``.

        The delta table survives across descent rounds: applying swap
        ``(a, b)`` changes permutation values only at ``a`` and ``b``, so
        a cached candidate ``(x, y)`` stays valid unless one of its
        incident edges reaches a moved register — that is, unless ``x`` or
        ``y`` lies in ``{a, b} ∪ N(a) ∪ N(b)``.
        """
        free = self.free
        n = len(free)
        cost = _perm_cost(perm, self.edges, self.reg_n, self.diff_n)
        deltas: Dict[Tuple[int, int], int] = {}
        while True:
            best_delta = 0
            best_swap: Optional[Tuple[int, int]] = None
            for ai in range(n):
                a = free[ai]
                for bi in range(ai + 1, n):
                    pair = (ai, bi)
                    delta = deltas.get(pair)
                    if delta is None:
                        delta = self.swap_delta(perm, a, free[bi])
                        deltas[pair] = delta
                    if delta > best_delta:
                        best_delta, best_swap = delta, (a, free[bi])
            if best_swap is None:
                return cost
            a, b = best_swap
            perm[a], perm[b] = perm[b], perm[a]
            cost -= best_delta
            stale = {a, b} | self.neighbors[a] | self.neighbors[b]
            for ai, bi in list(deltas):
                if free[ai] in stale or free[bi] in stale:
                    del deltas[(ai, bi)]


class _NumpyDeltaEngine:
    """Vectorised twin of :class:`_PyDeltaEngine` that descends every
    start of a search at once.

    The incident-edge buckets of every candidate pair are flattened into
    one entry array grouped by pair, so one round of all restarts is a
    ``(restarts x entries)`` gather plus one segmented int64 sum into a
    ``(restarts x pairs)`` delta table.  Each still-improving row applies
    its first-max swap (``argmax`` returns the first maximum, matching the
    scan order of the reference loops); converged rows drop out.  All
    arithmetic is integer, so results are bit-identical to the
    pure-Python engine.  Restarts run in chunks of at most
    :data:`_DESCENT_BUDGET` table entries.
    """

    def __init__(self, edges: Sequence[Edge], reg_n: int, diff_n: int,
                 free: Sequence[int]) -> None:
        self.np = np = lazy_numpy()
        self.reg_n = reg_n
        self.diff_n = diff_n
        self.U = np.array([e[0] for e in edges], dtype=np.int64)
        self.V = np.array([e[1] for e in edges], dtype=np.int64)
        self.W = np.array([e[2] for e in edges], dtype=np.int64)

        incident: List[List[int]] = [[] for _ in range(reg_n)]
        for idx, (u, v, _) in enumerate(edges):
            incident[u].append(idx)
            if v != u:
                incident[v].append(idx)
        # with no edges every swap has delta 0: nothing to descend
        pairs = [(free[ai], free[bi])
                 for ai in range(len(free))
                 for bi in range(ai + 1, len(free))] if len(edges) else []
        self.PA = np.array([p[0] for p in pairs], dtype=np.int64)
        self.PB = np.array([p[1] for p in pairs], dtype=np.int64)
        self.n_pairs = len(pairs)

        # The buckets of every candidate pair, flattened into one entry
        # array grouped by pair: the entry's edge, and its endpoints with
        # the pair's swap already applied.  Pairs with no incident edges
        # get one zero-weight sentinel entry so reduceat segments are
        # never empty.
        eid: List[int] = []
        weight: List[int] = []
        swapped_u: List[int] = []
        swapped_v: List[int] = []
        starts: List[int] = []
        for a, b in pairs:
            swap = {a: b, b: a}
            both = incident[a] + [i for i in incident[b]
                                  if edges[i][0] != a and edges[i][1] != a]
            starts.append(len(eid))
            for i in both or [0]:
                u, v, w = edges[i]
                eid.append(i)
                weight.append(w if both else 0)
                swapped_u.append(swap.get(u, u))
                swapped_v.append(swap.get(v, v))
        self.EID = np.array(eid, dtype=np.int64)
        self.EW = np.array(weight, dtype=np.int64)
        self.SU = np.array(swapped_u, dtype=np.int64)
        self.SV = np.array(swapped_v, dtype=np.int64)
        self.SEG_STARTS = np.array(starts, dtype=np.int64)
        # condition (3) by table lookup: a difference of two register
        # numbers lies in (-reg_n, reg_n), and a negative index wraps
        # exactly like Python's ``% reg_n``
        self.BAD = np.arange(reg_n) >= diff_n
        self.dtype = np.int16 if reg_n < 1 << 15 else np.int64

    def _violations(self, P, U, V):
        """``[row, i]``: whether edge ``(U[i], V[i])`` breaks condition
        (3) under row ``row`` of the permutation batch ``P``."""
        return self.BAD[P[:, V] - P[:, U]]

    def _deltas(self, P):
        """Every pair's swap delta for every row of ``P``."""
        np = self.np
        before = self._violations(P, self.U, self.V)[:, self.EID]
        after = self._violations(P, self.SU, self.SV)
        contrib = self.EW * (before.view(np.int8) - after.view(np.int8))
        return np.add.reduceat(contrib, self.SEG_STARTS, axis=1)

    def descend_all(self, starts: Sequence[Sequence[int]]
                    ) -> List[Tuple[int, List[int]]]:
        """Descend every start to a local minimum: ``[(cost, perm)]``."""
        np = self.np
        chunk = max(1, _DESCENT_BUDGET // max(1, len(self.EID)))
        results: List[Tuple[int, List[int]]] = []
        for lo in range(0, len(starts), chunk):
            P = np.array(starts[lo:lo + chunk], dtype=self.dtype)
            rows = np.arange(len(P) if self.n_pairs else 0)
            while len(rows):
                deltas = self._deltas(P[rows])
                k = deltas.argmax(axis=1)
                improving = deltas[np.arange(len(rows)), k] > 0
                rows, k = rows[improving], k[improving]
                a, b = self.PA[k], self.PB[k]
                P[rows, a], P[rows, b] = P[rows, b], P[rows, a]
            costs = (self._violations(P, self.U, self.V) * self.W).sum(axis=1)
            results.extend(zip(costs.tolist(), P.tolist()))
        return results


def _make_engine(edges: Sequence[Edge], reg_n: int, diff_n: int,
                 free: Sequence[int]):
    """The exact swap-descent engine for this edge set (the paper's
    Figure 7 loop): numpy, unless a weight could overflow its int64
    accumulation.  ``engine.descend_all(starts)`` descends every start to
    a local minimum and returns its ``(scaled integer cost, perm)``."""
    if all(abs(w) < _NUMPY_WEIGHT_LIMIT for _, _, w in edges):
        return _NumpyDeltaEngine(edges, reg_n, diff_n, free)
    return _PyDeltaEngine(edges, reg_n, diff_n, free)


def _greedy_descent_reference(perm: List[int], edges: Sequence[Edge],
                              reg_n: int, diff_n: int,
                              free: Sequence[int]) -> int:
    """The original O(E)-per-candidate descent, kept as the ground truth
    for equivalence tests and the before/after benchmark."""
    cost = _perm_cost(perm, edges, reg_n, diff_n)
    while True:
        best_delta = 0
        best_swap: Optional[Tuple[int, int]] = None
        for ai in range(len(free)):
            for bi in range(ai + 1, len(free)):
                a, b = free[ai], free[bi]
                perm[a], perm[b] = perm[b], perm[a]
                new_cost = _perm_cost(perm, edges, reg_n, diff_n)
                perm[a], perm[b] = perm[b], perm[a]
                delta = cost - new_cost
                if delta > best_delta:
                    best_delta, best_swap = delta, (a, b)
        if best_swap is None:
            return cost
        a, b = best_swap
        perm[a], perm[b] = perm[b], perm[a]
        cost -= best_delta


def _start_perms(identity: Sequence[int], free: Sequence[int],
                 restarts: int, seed: int) -> List[List[int]]:
    """The descent starting points: identity, then ``restarts - 1``
    seeded shuffles of the free registers (the paper's random restarts)."""
    rng = random.Random(seed)
    starts = [list(identity)]
    for _ in range(max(0, restarts - 1)):
        images = list(free)
        rng.shuffle(images)
        perm = list(identity)
        for slot, image in zip(free, images):
            perm[slot] = image
        starts.append(perm)
    return starts


def _descent_batch(payload: Tuple[Tuple[Edge, ...], int, int,
                                  Tuple[int, ...], List[List[int]]]
                   ) -> List[Tuple[int, List[int]]]:
    """Worker task: run the descent on a batch of starting permutations.

    Module-level and pure so it pickles into a process pool; one engine
    descends the whole batch.
    """
    edges, reg_n, diff_n, free, starts = payload
    return _make_engine(edges, reg_n, diff_n, free).descend_all(starts)


def differential_remap(fn: Function, reg_n: int, diff_n: int,
                       order: str = "src_first",
                       freq: Optional[Mapping[str, float]] = None,
                       restarts: int = 100,
                       seed: int = 0,
                       pinned: Sequence[int] = (),
                       jobs: int = 1) -> RemapResult:
    """Greedy remapping with random restarts (paper Section 5, Figure 7).

    ``pinned`` register numbers keep their identity mapping — used to respect
    calling conventions without the store-repair of Section 9.3 (parameter
    and return registers stay put).

    Every restart is descended: in one batch, or fanned out over a process
    pool with ``jobs`` > 1 (``0`` = all cores).  Starting permutations are
    drawn serially from one seeded RNG and results are folded in restart
    order, stopping at the first zero-cost hit, so every ``jobs`` value
    returns the identical :class:`RemapResult`; ``restarts`` counts the
    descents the fold used.
    """
    if freq is None:
        freq = estimate_block_frequencies(fn)
    edges = _edge_list(fn, reg_n, order, freq)
    pinned_set = set(pinned)
    free = [i for i in range(reg_n) if i not in pinned_set]
    identity = list(range(reg_n))
    base_cost = _perm_cost(identity, edges, reg_n, diff_n)

    starts = _start_perms(identity, free, restarts, seed)

    from repro.parallel import chunked, parallel_map, resolve_jobs

    n_jobs = resolve_jobs(jobs)
    if n_jobs > 1 and len(starts) > 1:
        payloads = [
            (tuple(edges), reg_n, diff_n, tuple(free), batch)
            for batch in chunked(starts, n_jobs)
        ]
        results = [
            result
            for batch_result in parallel_map(_descent_batch, payloads,
                                             jobs=n_jobs)
            for result in batch_result
        ]
    else:
        results = _make_engine(edges, reg_n, diff_n, free).descend_all(starts)

    best_cost, best_perm = results[0]
    used = 1
    for cost, perm in results[1:]:
        if best_cost == 0:
            break
        used += 1
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return RemapResult(
        fn=apply_permutation(fn, best_perm, reg_n),
        permutation=tuple(best_perm),
        cost_before=base_cost / _WEIGHT_SCALE,
        cost_after=best_cost / _WEIGHT_SCALE,
        restarts=used,
    )
