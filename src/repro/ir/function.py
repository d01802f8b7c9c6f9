"""Basic blocks, functions and the control-flow graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ir.instr import BRANCH_OPS, COND_BRANCH_OPS, Instr, Reg

__all__ = ["BasicBlock", "Function"]


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence.

    Control flow leaves a block only through its final instruction.  A block
    whose last instruction is a conditional branch *falls through* to the next
    block in layout order when the branch is not taken; a block with no
    terminator falls through unconditionally.
    """

    name: str
    instrs: List[Instr] = field(default_factory=list)

    def terminator(self) -> Optional[Instr]:
        """The final control-flow instruction, if any."""
        if self.instrs and self.instrs[-1].op in BRANCH_OPS:
            return self.instrs[-1]
        return None

    def falls_through(self) -> bool:
        """Whether control can continue into the next block in layout."""
        term = self.terminator()
        return term is None or term.op in COND_BRANCH_OPS

    def append(self, instr: Instr) -> Instr:
        """Add an instruction at the end of the block."""
        self.instrs.append(instr)
        return instr

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)


class Function:
    """An IR function: an ordered list of basic blocks.

    Block order is the *layout order* — the order instructions would appear in
    the emitted binary, which is also the order the differential encoder walks
    (Section 2: registers are decoded following instruction order).
    """

    def __init__(self, name: str, blocks: Optional[Sequence[BasicBlock]] = None,
                 params: Sequence[Reg] = ()) -> None:
        self.name = name
        self.blocks: List[BasicBlock] = list(blocks or [])
        self.params: Tuple[Reg, ...] = tuple(params)
        if len({b.name for b in self.blocks}) != len(self.blocks):
            raise ValueError("duplicate basic-block names")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        """Look up a block by name (KeyError if absent)."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no block named {name!r} in {self.name}")

    def block_index(self, name: str) -> int:
        """Layout position of a block (KeyError if absent)."""
        for i, b in enumerate(self.blocks):
            if b.name == name:
                return i
        raise KeyError(name)

    def instructions(self) -> Iterator[Instr]:
        """All instructions in layout order."""
        for b in self.blocks:
            yield from b.instrs

    def num_instructions(self) -> int:
        """Static instruction count."""
        return sum(len(b) for b in self.blocks)

    # ------------------------------------------------------------------
    # CFG
    # ------------------------------------------------------------------

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        """Successor blocks of ``block``, fall-through first."""
        succs: List[BasicBlock] = []
        term = block.terminator()
        if block.falls_through():
            idx = self.block_index(block.name)
            if idx + 1 < len(self.blocks):
                succs.append(self.blocks[idx + 1])
        if term is not None and term.op != "ret" and term.label is not None:
            target = self.block(term.label)
            if target not in succs:
                succs.append(target)
        return succs

    def cfg(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """Return ``(successors, predecessors)`` maps keyed by block name."""
        succs: Dict[str, List[str]] = {b.name: [] for b in self.blocks}
        preds: Dict[str, List[str]] = {b.name: [] for b in self.blocks}
        for b in self.blocks:
            for s in self.successors(b):
                succs[b.name].append(s.name)
                preds[s.name].append(b.name)
        return succs, preds

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        """Predecessor blocks of ``block``."""
        _, preds = self.cfg()
        return [self.block(p) for p in preds[block.name]]

    # ------------------------------------------------------------------
    # registers
    # ------------------------------------------------------------------

    def registers(self) -> Set[Reg]:
        """Every register mentioned anywhere in the function."""
        regs: Set[Reg] = set(self.params)
        for instr in self.instructions():
            regs.update(instr.uses())
            regs.update(instr.defs())
        return regs

    def max_vreg_id(self) -> int:
        """Highest virtual register id in use (-1 if none)."""
        ids = [r.id for r in self.registers() if r.virtual]
        return max(ids) if ids else -1

    def rewrite_registers(self, mapping: Dict[Reg, Reg]) -> "Function":
        """A copy of the function with registers substituted via ``mapping``."""
        blocks = [BasicBlock(b.name, [i.rewrite(mapping) for i in b.instrs])
                  for b in self.blocks]
        return Function(self.name, blocks,
                        tuple(mapping.get(p, p) for p in self.params))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def copy(self) -> "Function":
        """Deep copy (fresh blocks and instruction objects, same uids)."""
        blocks = [BasicBlock(b.name, [i.copy() for i in b.instrs]) for b in self.blocks]
        return Function(self.name, blocks, self.params)

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed control flow."""
        names = {b.name for b in self.blocks}
        for b in self.blocks:
            for i, instr in enumerate(b.instrs):
                if instr.op in BRANCH_OPS and i != len(b.instrs) - 1:
                    raise ValueError(
                        f"{self.name}/{b.name}: branch {instr.op} not at block end"
                    )
                if instr.op in BRANCH_OPS and instr.op != "ret":
                    if instr.label not in names:
                        raise ValueError(
                            f"{self.name}/{b.name}: branch to unknown block "
                            f"{instr.label!r}"
                        )
        if self.blocks and self.blocks[-1].falls_through():
            raise ValueError(
                f"{self.name}: final block {self.blocks[-1].name!r} falls off "
                "the end of the function"
            )

    def __str__(self) -> str:  # pragma: no cover - delegated to printer
        from repro.ir.printer import format_function

        return format_function(self)
