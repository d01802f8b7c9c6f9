"""Iterated register coalescing (George & Appel, TOPLAS 1996).

This is the paper's baseline allocator: Section 10.1 replaces gcc's
register-allocation phase with "iterated register allocation [5]".  The
implementation follows the classic worklist formulation: build, simplify,
coalesce (Briggs + George conservative tests), freeze, potential/actual
spill, select — iterated until no actual spills remain.

The select stage exposes a hook (``selector``) through which the paper's
*differential select* (Section 6) chooses among the legal colors; the default
selector picks the lowest-numbered color, which is the conventional
"arbitrary" choice the paper contrasts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Reg
from repro.regalloc.base import (
    AllocationError,
    AllocationResult,
    spill_cost_estimates,
)
from repro.regalloc.spill import (
    SpillSlotAllocator,
    first_free_slot,
    insert_spill_code,
)

__all__ = ["iterated_allocate", "ColorSelector"]


class ColorSelector:
    """Color-choice hook for the select stage.

    Subclasses see every coalesce (to keep member sets) and choose a color
    for each node from the legal set.  The default implements the
    conventional lowest-number choice.
    """

    def begin_round(self, fn: Function, members: Dict[Reg, Set[Reg]],
                    freq: Optional[Dict[str, float]] = None) -> None:
        """Called at the start of each allocation round.  ``freq`` carries
        the block-frequency estimate the allocator is optimising with."""

    def on_coalesce(self, kept: Reg, dropped: Reg) -> None:
        """Called when ``dropped`` is coalesced into ``kept``."""

    def on_color(self, members: Set[Reg], color: int) -> None:
        """Called when a node (all its member vregs) receives ``color``."""

    def choose(self, node: Reg, members: Set[Reg], ok_colors: Set[int]) -> int:
        """Pick a color for ``node``; default is the lowest legal number."""
        return min(ok_colors)


@dataclass
class _IRCState:
    """One round of iterated register coalescing over one function."""

    fn: Function
    k: int
    costs: Dict[Reg, float]
    no_spill: Set[Reg]
    selector: ColorSelector
    freq: Optional[Dict[str, float]] = None
    cls: str = "int"

    # node sets
    precolored: Set[Reg] = field(default_factory=set)
    initial: Set[Reg] = field(default_factory=set)
    simplify_wl: Set[Reg] = field(default_factory=set)
    freeze_wl: Set[Reg] = field(default_factory=set)
    spill_wl: Set[Reg] = field(default_factory=set)
    spilled: Set[Reg] = field(default_factory=set)
    coalesced: Set[Reg] = field(default_factory=set)
    colored: Set[Reg] = field(default_factory=set)
    stack: List[Reg] = field(default_factory=list)

    # move sets (moves are (dst, src) pairs)
    coalesced_moves: Set[Tuple[Reg, Reg]] = field(default_factory=set)
    constrained_moves: Set[Tuple[Reg, Reg]] = field(default_factory=set)
    frozen_moves: Set[Tuple[Reg, Reg]] = field(default_factory=set)
    worklist_moves: Set[Tuple[Reg, Reg]] = field(default_factory=set)
    active_moves: Set[Tuple[Reg, Reg]] = field(default_factory=set)

    # graph
    adj_list: Dict[Reg, Set[Reg]] = field(default_factory=dict)
    degree: Dict[Reg, int] = field(default_factory=dict)
    move_list: Dict[Reg, Set[Tuple[Reg, Reg]]] = field(default_factory=dict)
    alias: Dict[Reg, Reg] = field(default_factory=dict)
    color: Dict[Reg, int] = field(default_factory=dict)
    members: Dict[Reg, Set[Reg]] = field(default_factory=dict)

    _INF = 1 << 30

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self) -> None:
        graph = build_interference(self.fn, cls=self.cls)
        for r in self.fn.registers():
            if r.cls != self.cls:
                continue
            self.members[r] = {r}
            if r.virtual:
                self.initial.add(r)
                self.degree[r] = 0
                self.adj_list[r] = set()
                self.move_list[r] = set()
            else:
                self.precolored.add(r)
                self.color[r] = r.id
                self.degree[r] = self._INF
                self.adj_list[r] = set()
                self.move_list[r] = set()
        # each virtual node's adjacency set is filled in ascending order:
        # the insertion order of adj_list/worklist entries must not
        # depend on the neighbor sets' iteration order
        for a in graph.nodes():
            if a.virtual:
                adj = set(sorted(graph.neighbors(a)))
                self.adj_list[a] = adj
                self.degree[a] = len(adj)
        for instr in self.fn.instructions():
            if instr.is_move() and instr.dst.cls == self.cls \
                    and instr.srcs[0].cls == self.cls:
                m = (instr.dst, instr.srcs[0])
                if m[0] == m[1]:
                    continue
                self.move_list.setdefault(m[0], set()).add(m)
                self.move_list.setdefault(m[1], set()).add(m)
                self.worklist_moves.add(m)
        self.selector.begin_round(self.fn, self.members, self.freq)

    def interferes(self, u: Reg, v: Reg) -> bool:
        """Edge test for a pair with at least one virtual end (pairs of
        pre-colored registers are never asked about)."""
        return (v in self.adj_list[u] if u not in self.precolored
                else u in self.adj_list[v])

    def add_edge(self, u: Reg, v: Reg) -> None:
        if u == v or (u in self.precolored and v in self.precolored) \
                or self.interferes(u, v):
            return  # a pre-colored pair needs no record: never queried
        if u not in self.precolored:
            self.adj_list[u].add(v)
            self.degree[u] = self.degree.get(u, 0) + 1
        if v not in self.precolored:
            self.adj_list[v].add(u)
            self.degree[v] = self.degree.get(v, 0) + 1

    # ------------------------------------------------------------------
    # worklist management
    # ------------------------------------------------------------------

    def make_worklists(self) -> None:
        for n in sorted(self.initial):
            if self.degree[n] >= self.k:
                self.spill_wl.add(n)
            elif self.move_related(n):
                self.freeze_wl.add(n)
            else:
                self.simplify_wl.add(n)
        self.initial.clear()

    def adjacent(self, n: Reg) -> Set[Reg]:
        return self.adj_list.get(n, set()) - set(self.stack) - self.coalesced

    def node_moves(self, n: Reg) -> Set[Tuple[Reg, Reg]]:
        return self.move_list.get(n, set()) & (self.active_moves | self.worklist_moves)

    def move_related(self, n: Reg) -> bool:
        return bool(self.node_moves(n))

    def decrement_degree(self, m: Reg) -> None:
        d = self.degree[m]
        self.degree[m] = d - 1
        if d == self.k and m not in self.precolored:
            self.enable_moves({m} | self.adjacent(m))
            self.spill_wl.discard(m)
            if self.move_related(m):
                self.freeze_wl.add(m)
            else:
                self.simplify_wl.add(m)

    def enable_moves(self, nodes: Set[Reg]) -> None:
        for n in nodes:
            for m in self.node_moves(n):
                if m in self.active_moves:
                    self.active_moves.discard(m)
                    self.worklist_moves.add(m)

    # ------------------------------------------------------------------
    # simplify
    # ------------------------------------------------------------------

    def simplify(self) -> None:
        n = min(self.simplify_wl)  # deterministic order
        self.simplify_wl.discard(n)
        self.stack.append(n)
        for m in self.adjacent(n):
            self.decrement_degree(m)

    # ------------------------------------------------------------------
    # coalesce
    # ------------------------------------------------------------------

    def get_alias(self, n: Reg) -> Reg:
        while n in self.coalesced:
            n = self.alias[n]
        return n

    def add_worklist(self, u: Reg) -> None:
        if (u not in self.precolored and not self.move_related(u)
                and self.degree[u] < self.k):
            self.freeze_wl.discard(u)
            self.simplify_wl.add(u)

    def ok(self, t: Reg, r: Reg) -> bool:
        """George test for one neighbour ``t`` of the virtual node."""
        return (self.degree[t] < self.k or t in self.precolored
                or self.interferes(t, r))

    def conservative(self, nodes: Set[Reg]) -> bool:
        """Briggs test: fewer than k significant-degree neighbours."""
        return sum(1 for n in nodes if self.degree[n] >= self.k) < self.k

    def coalesce(self) -> None:
        m = min(self.worklist_moves)
        self.worklist_moves.discard(m)
        x, y = self.get_alias(m[0]), self.get_alias(m[1])
        u, v = (y, x) if y in self.precolored else (x, y)
        if u == v:
            self.coalesced_moves.add(m)
            self.add_worklist(u)
        elif v in self.precolored or self.interferes(u, v):
            self.constrained_moves.add(m)
            self.add_worklist(u)
            self.add_worklist(v)
        elif ((u in self.precolored
               and all(self.ok(t, u) for t in self.adjacent(v)))
              or (u not in self.precolored
                  and self.conservative(self.adjacent(u) | self.adjacent(v)))):
            self.coalesced_moves.add(m)
            self.combine(u, v)
            self.add_worklist(u)
        else:
            self.active_moves.add(m)

    def combine(self, u: Reg, v: Reg) -> None:
        if v in self.freeze_wl:
            self.freeze_wl.discard(v)
        else:
            self.spill_wl.discard(v)
        self.coalesced.add(v)
        self.alias[v] = u
        self.members[u] |= self.members[v]
        self.move_list[u] |= self.move_list[v]
        self.enable_moves({v})
        self.selector.on_coalesce(u, v)
        for t in self.adjacent(v):
            self.add_edge(t, u)
            self.decrement_degree(t)
        if self.degree[u] >= self.k and u in self.freeze_wl:
            self.freeze_wl.discard(u)
            self.spill_wl.add(u)

    # ------------------------------------------------------------------
    # freeze
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        u = min(self.freeze_wl)
        self.freeze_wl.discard(u)
        self.simplify_wl.add(u)
        self.freeze_moves(u)

    def freeze_moves(self, u: Reg) -> None:
        for m in list(self.node_moves(u)):
            x, y = m
            if self.get_alias(y) == self.get_alias(u):
                v = self.get_alias(x)
            else:
                v = self.get_alias(y)
            self.active_moves.discard(m)
            self.frozen_moves.add(m)
            if not self.node_moves(v) and self.degree.get(v, 0) < self.k \
                    and v not in self.precolored:
                self.freeze_wl.discard(v)
                self.simplify_wl.add(v)

    # ------------------------------------------------------------------
    # spill
    # ------------------------------------------------------------------

    def select_spill(self) -> None:
        candidates = [n for n in self.spill_wl if n not in self.no_spill]
        pool = candidates or list(self.spill_wl)
        m = min(
            pool,
            key=lambda n: (self.costs.get(n, 1.0) / max(1, self.degree[n]), n),
        )
        self.spill_wl.discard(m)
        self.simplify_wl.add(m)
        self.freeze_moves(m)

    # ------------------------------------------------------------------
    # select
    # ------------------------------------------------------------------

    def assign_colors(self) -> None:
        while self.stack:
            n = self.stack.pop()
            ok = set(range(self.k))
            for w in self.adj_list[n]:
                wa = self.get_alias(w)
                if wa in self.colored or wa in self.precolored:
                    ok.discard(self.color[wa])
            if not ok:
                self.spilled.add(n)
            else:
                self.colored.add(n)
                c = self.selector.choose(n, self.members[n], ok)
                if c not in ok:
                    raise AllocationError(
                        f"selector chose illegal color {c} for {n}"
                    )
                self.color[n] = c
                self.selector.on_color(self.members[n], c)
        for n in self.coalesced:
            a = self.get_alias(n)
            if a in self.color:
                self.color[n] = self.color[a]

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> None:
        self.build()
        self.make_worklists()
        while (self.simplify_wl or self.worklist_moves or self.freeze_wl
               or self.spill_wl):
            if self.simplify_wl:
                self.simplify()
            elif self.worklist_moves:
                self.coalesce()
            elif self.freeze_wl:
                self.freeze()
            else:
                self.select_spill()
        self.assign_colors()


def _rewrite_with_colors(fn: Function, color: Dict[Reg, int]) -> Tuple[Function, int]:
    """Substitute physical registers and drop self-moves."""
    mapping = {
        r: Reg(c, virtual=False, cls=r.cls) for r, c in color.items() if r.virtual
    }
    out = fn.rewrite_registers(mapping)
    removed = 0
    for block in out.blocks:
        kept: List[Instr] = []
        for instr in block.instrs:
            if instr.is_move() and instr.dst == instr.srcs[0]:
                removed += 1
                continue
            kept.append(instr)
        block.instrs = kept
    return out, removed


def iterated_allocate(fn: Function, k: int,
                      selector: Optional[ColorSelector] = None,
                      max_rounds: int = 64,
                      freq: Optional[Dict[str, float]] = None,
                      cls: str = "int") -> AllocationResult:
    """Allocate ``fn`` onto ``k`` registers with iterated register coalescing.

    ``selector`` customises the select stage's color choice (differential
    select plugs in here).  Spills iterate: spill code is inserted and the
    whole allocation re-runs until the graph colors.  ``freq`` overrides the
    static block-frequency estimate (e.g. with profile data).  ``cls``
    selects the register class being allocated (Section 9.1: classes are
    independent); registers of other classes pass through untouched.
    """
    if k < 1:
        raise ValueError("k must be positive")
    selector = selector or ColorSelector()
    current = fn
    slots = SpillSlotAllocator(first_free_slot(fn))
    next_vreg = fn.max_vreg_id() + 1
    no_spill: Set[Reg] = set()
    all_spilled: Set[Reg] = set()
    if freq is None:
        freq = estimate_block_frequencies(fn)

    for round_no in range(1, max_rounds + 1):
        costs = spill_cost_estimates(current, freq)
        state = _IRCState(
            fn=current, k=k, costs=costs, no_spill=no_spill,
            selector=selector, freq=freq, cls=cls,
        )
        state.run()
        if not state.spilled:
            allocated, removed = _rewrite_with_colors(current, state.color)
            result = AllocationResult(
                fn=allocated,
                coloring=dict(state.color),
                spilled=frozenset(all_spilled),
                k=k,
                rounds=round_no,
                moves_removed=removed,
                stats={"coalesced_moves": float(len(state.coalesced_moves))},
                colored_fn=current,
            )
            result.stats["colored_fn_instrs"] = float(current.num_instructions())
            return result
        all_spilled |= state.spilled
        current, next_vreg, temps = insert_spill_code(
            current, state.spilled, slots, next_vreg
        )
        no_spill |= temps
    raise AllocationError(
        f"{fn.name}: no coloring with k={k} after {max_rounds} rounds"
    )
