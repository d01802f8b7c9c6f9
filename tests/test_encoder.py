"""Encoder tests: field codes, out-of-range repair, join repair, classes."""

import pytest

from repro.encoding import (
    EncodingConfig,
    access_sequence,
    encode_function,
    verify_encoding,
)
from repro.encoding.encoder import setlr_payload
from repro.ir import FunctionBuilder, Instr, Interpreter, parse_function
from repro.regalloc import iterated_allocate


def straight(*lines):
    body = "\n".join(f"    {l}" for l in lines)
    return parse_function(f"func f():\nentry:\n{body}\n    ret r0\n")


def mixed_kernel(n_int=6, n_float=5):
    """A loop with live int and float values (paper Section 9.1)."""
    fb = FunctionBuilder("mixed")
    n = fb.vreg()
    fb.params = (n,)
    fb.block("entry")
    ints = fb.vregs(n_int)
    floats = [fb.vreg("float") for _ in range(n_float)]
    for i, v in enumerate(ints):
        fb.li(v, i + 1)
    for i, v in enumerate(floats):
        fb.emit(Instr("li", dst=v, imm=10 * (i + 1)))
    fb.block("loop")
    fb.add(ints[0], ints[1], ints[2])
    fb.emit(Instr("add", dst=floats[0], srcs=(floats[1], floats[2])))
    fb.emit(Instr("mul", dst=floats[3], srcs=(floats[0], floats[4])))
    fb.add(ints[3], ints[0], ints[4])
    fb.addi(ints[5], ints[5], 1)
    fb.blt(ints[5], n, "loop")
    fb.block("exit")
    out = fb.vreg()
    fb.add(out, ints[3], ints[0])
    fb.ret(out)
    return fb.build()


class TestStraightLine:
    def test_in_range_code_assignment(self):
        fn = straight("add r1, r0, r1", "add r2, r1, r2")
        enc = encode_function(fn, EncodingConfig(reg_n=4, diff_n=2))
        instrs = list(fn.instructions())
        # access sequence: r0 r1 r1 | r1 r2 r2 | r0(ret)
        assert enc.field_codes[instrs[0].uid] == (0, 1, 0)
        assert enc.field_codes[instrs[1].uid] == (0, 1, 0)
        # the final `ret r0` wraps from r2: (0-2) mod 4 = 2 >= DiffN
        assert enc.n_setlr_inline == 1
        verify_encoding(enc)

    def test_out_of_range_gets_inline_setlr(self):
        # paper Section 2.3: R1 = R0 + R2 with DiffN=2 needs
        # set_last_reg(2, 1) before the instruction
        fn = straight("add r1, r0, r2")
        enc = encode_function(fn, EncodingConfig(reg_n=4, diff_n=2))
        setlrs = [i for i in enc.fn.instructions() if i.op == "setlr"]
        assert len(setlrs) >= 1
        value, delay, cls = setlr_payload(setlrs[0])
        assert (value, delay) == (2, 1)
        verify_encoding(enc)

    def test_direct_encoding_never_needs_repair(self):
        fn = straight("add r3, r0, r7", "add r1, r6, r2")
        enc = encode_function(fn, EncodingConfig.direct(8))
        assert enc.n_setlr == 0
        verify_encoding(enc)

    def test_field_codes_match_sequence_encoding(self):
        fn = straight("add r1, r1, r2", "add r3, r2, r3")
        cfg = EncodingConfig(reg_n=8, diff_n=8)
        enc = encode_function(fn, cfg)
        seq = access_sequence(fn)
        flat = [c for i in fn.instructions() for c in enc.field_codes[i.uid]]
        # direct diff_n==reg_n: codes are plain modular differences
        last = 0
        for code, reg in zip(flat, seq):
            assert (last + code) % 8 == reg.id
            last = reg.id


class TestInputChecks:
    def test_virtual_registers_rejected(self):
        fn = parse_function("func f(v0):\nentry:\n    ret v0\n")
        with pytest.raises(ValueError, match="virtual register"):
            encode_function(fn, EncodingConfig(reg_n=8, diff_n=8))

    def test_register_out_of_space_rejected(self):
        fn = straight("add r9, r0, r1")
        with pytest.raises(ValueError, match="outside differential space"):
            encode_function(fn, EncodingConfig(reg_n=8, diff_n=8))

    def test_already_encoded_rejected(self):
        fn = straight("add r1, r0, r1")
        fn.entry.instrs.insert(0, Instr("setlr", imm=(0, 0, "int")))
        with pytest.raises(ValueError, match="already contains"):
            encode_function(fn, EncodingConfig(reg_n=8, diff_n=8))

    def test_input_not_mutated(self):
        fn = straight("add r1, r0, r2")
        n = fn.num_instructions()
        encode_function(fn, EncodingConfig(reg_n=4, diff_n=2))
        assert fn.num_instructions() == n


JOIN = """
func joins():
entry:
    add r1, r0, r1
    beq r1, r0, right
left:
    add r2, r1, r2
    br join
right:
    add r3, r2, r3
join:
    add r1, r0, r1
    ret r1
"""


class TestJoinRepair:
    @pytest.mark.parametrize("policy", ["block_entry", "pred_end"])
    def test_join_verifies(self, policy):
        fn = parse_function(JOIN)
        cfg = EncodingConfig(reg_n=12, diff_n=8, join_repair=policy)
        enc = encode_function(fn, cfg)
        assert enc.n_setlr_join >= 1
        verify_encoding(enc)

    def test_pred_end_places_repair_in_predecessor(self):
        fn = parse_function(JOIN)
        enc = encode_function(
            fn, EncodingConfig(reg_n=12, diff_n=8, join_repair="pred_end")
        )
        # the 'left' arm ends with br; a repair may sit before it, or the
        # join keeps an entry repair — either way no decode path breaks
        verify_encoding(enc)

    def test_loop_back_edge_consistency(self, sum_fn):
        # allocate trivially: v_i -> r_i (ids already < 8 and distinct)
        mapping = {r: r for r in sum_fn.registers()}
        fn = sum_fn.rewrite_registers({
            r: type(r)(r.id, virtual=False) for r in sum_fn.registers()
        })
        enc = encode_function(fn, EncodingConfig(reg_n=8, diff_n=4))
        verify_encoding(enc)

    def test_entry_values_recorded(self):
        fn = parse_function(JOIN)
        enc = encode_function(fn, EncodingConfig(reg_n=12, diff_n=8))
        assert set(enc.entry_values) == {"entry", "left", "right", "join"}
        assert all("int" in v for v in enc.entry_values.values())


class TestSpecialRegisters:
    def test_stack_pointer_slot(self):
        fn = parse_function("""
func f():
entry:
    ld r1, [r15+0]
    add r2, r1, r2
    st r2, [r15+4]
    ret r2
""")
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        enc = encode_function(fn, cfg)
        verify_encoding(enc)
        # the r15 fields encode as the reserved slot code 7
        codes = [c for i in fn.instructions() for c in enc.field_codes[i.uid]]
        assert codes.count(7) == 2

    def test_special_register_does_not_disturb_last_reg(self):
        fn = parse_function("""
func f():
entry:
    add r1, r1, r2
    ld r3, [r15+0]
    add r3, r3, r2
    ret r3
""")
        cfg = EncodingConfig(reg_n=15, diff_n=7, direct_slots={7: 15})
        enc = encode_function(fn, cfg)
        verify_encoding(enc)


class TestRegisterClasses:
    def test_per_class_last_reg(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    add r1.float, r0.float, r1.float
    add r2, r1, r2
    ret r2
""")
        cfg = EncodingConfig(reg_n=8, diff_n=4, classes=("int", "float"))
        enc = encode_function(fn, cfg)
        verify_encoding(enc)

    def test_unencoded_class_is_skipped(self):
        fn = parse_function("""
func f():
entry:
    add r1, r0, r1
    add r9.float, r9.float, r9.float
    add r2, r1, r2
    ret r2
""")
        # float registers exceed reg_n but are not an encoded class
        cfg = EncodingConfig(reg_n=8, diff_n=4, classes=("int",))
        enc = encode_function(fn, cfg)
        verify_encoding(enc)

    def test_mixed_kernel_allocated_and_encoded_per_class(self):
        # each class gets its own register file and its own last_reg:
        # allocate the classes one after another, then encode both
        fn = mixed_kernel()
        ref = Interpreter().run(fn, (9,)).return_value
        allocated = fn
        for cls in sorted({r.cls for r in fn.registers() if r.virtual}):
            allocated = iterated_allocate(allocated, 8, cls=cls).fn
        assert all(not r.virtual for r in allocated.registers())
        assert {r.cls for r in allocated.registers()} == {"int", "float"}
        assert all(r.id < 8 for r in allocated.registers())
        cfg = EncodingConfig(reg_n=8, diff_n=4, classes=("int", "float"))
        enc = encode_function(allocated, cfg)
        verify_encoding(enc)
        assert Interpreter().run(allocated, (9,)).return_value == ref
        assert Interpreter().run(enc.fn, (9,)).return_value == ref

    def test_setlr_payload_normalisation(self):
        assert setlr_payload(Instr("setlr", imm=(3, 1))) == (3, 1, "int")
        assert setlr_payload(Instr("setlr", imm=(3, 1, "float"))) == (3, 1, "float")
        with pytest.raises(ValueError):
            setlr_payload(Instr("setlr", imm=7))


class TestOverheadAccounting:
    def test_overhead_fraction(self):
        fn = straight("add r1, r0, r2")
        enc = encode_function(fn, EncodingConfig(reg_n=4, diff_n=2))
        assert enc.overhead_fraction == enc.n_setlr / enc.fn.num_instructions()

    def test_frequency_biases_join_placement(self, sum_fn):
        fn = sum_fn.rewrite_registers({
            r: type(r)(r.id, virtual=False) for r in sum_fn.registers()
        })
        cfg = EncodingConfig(reg_n=8, diff_n=2, join_repair="pred_end")
        hot_loop = {"entry": 1.0, "loop": 1000.0, "exit": 1.0}
        enc = encode_function(fn, cfg, freq=hot_loop)
        verify_encoding(enc)
        # no join repair executes inside the hot loop block more often than
        # needed: loop entry value equals the back-edge exit
        loop_setlrs = [
            i for i in enc.fn.block("loop").instrs if i.op == "setlr"
        ]
        inline = enc.n_setlr_inline
        # any setlr inside the loop must be an inline out-of-range repair,
        # not a join repair for the back edge
        assert len(loop_setlrs) <= inline
