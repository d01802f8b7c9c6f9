"""The IR value types on the allocator hot path: ``Reg`` and ``Instr`` copies.

``Reg`` is a tuple ``(id, virtual, cls)`` so that hashing, equality and
ordering run in C.  These tests pin the properties every allocator's
tie-breaks rest on: the hash and the sort order are exactly those of the
plain field tuple (and therefore of the frozen dataclass ``Reg`` used to
be), and ``Instr.copy``/``Instr.rewrite`` still validate their result and
keep ``uid``.
"""

import copy
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.ir import Instr, Reg, phys, vreg
from repro.ir.wire import from_wire, to_wire
from repro.workloads import get_workload


def _random_regs(n, seed=0):
    rng = random.Random(seed)
    return [Reg(rng.randrange(40), rng.random() < 0.5,
                rng.choice(("int", "float", "vec")))
            for _ in range(n)]


class TestReg:
    def test_hash_is_the_field_tuple_hash(self):
        for r in _random_regs(200):
            assert hash(r) == hash((r.id, r.virtual, r.cls))

    def test_hash_and_order_match_a_frozen_dataclass(self):
        """What ``Reg`` was before it became a tuple."""
        @dataclass(frozen=True, order=True)
        class DataclassReg:
            id: int
            virtual: bool = True
            cls: str = "int"

        regs = _random_regs(200, seed=3)
        old = [DataclassReg(*r) for r in regs]
        assert [hash(r) for r in regs] == [hash(o) for o in old]
        assert [tuple(r) for r in sorted(regs)] == [
            (o.id, o.virtual, o.cls) for o in sorted(old)]

    def test_sort_order_is_field_tuple_order(self):
        regs = _random_regs(300, seed=1)
        assert sorted(regs) == sorted(
            regs, key=lambda r: (r.id, r.virtual, r.cls))

    def test_set_iteration_order_matches_field_tuples(self):
        """Equal hashes give sets the same layout, so every tie-break that
        iterates a set of registers is unchanged."""
        regs = _random_regs(100, seed=2)
        assert [tuple(r) for r in set(regs)] == list(
            {(r.id, r.virtual, r.cls) for r in regs})

    def test_compares_equal_to_plain_tuple(self):
        assert Reg(4, False, "int") == (4, False, "int")
        assert {(4, False, "int"): 1}[phys(4)] == 1

    def test_defaults(self):
        assert Reg(3) == Reg(3, virtual=True, cls="int")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
    ])
    def test_copy_round_trip_keeps_type_and_str(self, clone):
        for r in (vreg(3), phys(7), vreg(2, "float")):
            c = clone(r)
            assert type(c) is Reg
            assert c == r and str(c) == str(r) and repr(c) == repr(r)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Reg(-1)

    def test_immutable_and_slotted(self):
        r = vreg(1)
        with pytest.raises(AttributeError):
            r.id = 2
        assert not hasattr(r, "__dict__")

    def test_wire_round_trip(self):
        fn = get_workload("sha").function()
        back = from_wire(to_wire(fn), preserve_uids=True)
        assert str(back) == str(fn)
        assert back.registers() == fn.registers()
        assert all(type(r) is Reg for r in back.registers())


class TestInstrCopies:
    def test_copy_keeps_uid_and_fields(self):
        i = Instr("add", vreg(0), [vreg(1), vreg(2)])
        c = i.copy()
        assert c is not i and c == i and c.uid == i.uid
        assert isinstance(c.srcs, tuple)

    def test_rewrite_keeps_uid(self):
        i = Instr("call", label="f", call_uses=(vreg(1),),
                  call_defs=(vreg(2),))
        m = i.rewrite({vreg(1): phys(0), vreg(2): phys(1)})
        assert m.uid == i.uid
        assert (m.call_uses, m.call_defs) == ((phys(0),), (phys(1),))
        assert (i.call_uses, i.call_defs) == ((vreg(1),), (vreg(2),))

    def test_rewrite_still_validates(self):
        """The rewritten instruction goes through ``__post_init__``."""
        i = Instr("add", vreg(0), (vreg(1), vreg(2)))
        with pytest.raises(ValueError, match="requires a destination"):
            i.rewrite({vreg(0): None})

    def test_non_bijective_permi_rewrite_rejected(self):
        i = Instr("permi", imm=(1, 0, 2))
        with pytest.raises(ValueError, match="not a permutation"):
            i.rewrite({phys(0): phys(1)})

    def test_permi_rewrite_keeps_uid(self):
        i = Instr("permi", imm=(1, 0, 2))
        m = i.rewrite({phys(0): phys(2), phys(2): phys(0)})
        assert m.uid == i.uid and m.imm == (0, 2, 1)


def test_rewrite_registers_leaves_source_untouched():
    fn = get_workload("crc32").function()
    before = str(fn)
    instrs = list(fn.instructions())
    mapping = {r: Reg(r.id + 100, r.virtual, r.cls) for r in fn.registers()}
    new = fn.rewrite_registers(mapping)
    assert str(fn) == before
    assert all(a is b for a, b in zip(fn.instructions(), instrs))
    assert [i.uid for i in new.instructions()] == [i.uid for i in instrs]
    assert not set(map(id, new.instructions())) & set(map(id, instrs))
    assert new.params == tuple(mapping.get(p, p) for p in fn.params)
    assert new.rewrite_registers(
        {v: k for k, v in mapping.items()}).registers() == fn.registers()
