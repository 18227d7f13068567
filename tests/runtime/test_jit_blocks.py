"""Property tests for jit block compilation.

Hypothesis generates random straight-line and branchy instruction
sequences through :mod:`repro.isa.builder`, assembles them, and runs
them through both engines: the compiled blocks' final register file,
flags, memory, DIFT tags and execution record must match the
single-stepping legacy engine exactly.  A second property drives
*mid-block rollback*: a speculated (architecturally dead) random
sequence with a forced rollback placed at every instruction boundary
in turn, checking that the jit's copy-on-write journal restores the
state the legacy snapshot restores.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from differential import result_record
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter
from repro.coverage.sancov import CoverageRuntime
from repro.isa.assembler import AsmProgram, Assembler
from repro.isa.builder import FunctionBuilder
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import Register
from repro.loader.binary_format import DataObject
from repro.plugins import resolve_engine
from repro.runtime.speculation import TeapotNestingPolicy
from repro.sanitizers.policy import KasperPolicy

ENGINES = ("legacy", "jit")

#: Scratch registers the generated sequences compute in.  R6 is reserved
#: as the data-buffer base, R7 stays zero, SP/FP belong to the frame.
WORK_REGS = (Register.R0, Register.R1, Register.R2,
             Register.R3, Register.R4, Register.R5)

BUF_SIZE = 256
IN_SIZE = 64

# -- instruction-sequence strategies ----------------------------------------

_reg = st.sampled_from(WORK_REGS)
_imm = st.integers(min_value=-128, max_value=1 << 40)
_size = st.sampled_from((1, 2, 4, 8))
_alu = st.sampled_from(("add", "sub", "mul", "and_", "or_", "xor",
                        "shl", "shr", "sar"))
_cc_jump = st.sampled_from(("je", "jne", "jl", "jle", "jg", "jge",
                            "jb", "jae", "ja", "jbe"))


def _disp(size: int):
    return st.integers(min_value=0, max_value=BUF_SIZE - size)


_op = st.one_of(
    st.tuples(st.just("mov_imm"), _reg, _imm),
    st.tuples(st.just("mov_reg"), _reg, _reg),
    st.tuples(st.just("alu_imm"), _alu, _reg, _imm),
    st.tuples(st.just("alu_reg"), _alu, _reg, _reg),
    st.tuples(st.just("neg"), _reg),
    st.tuples(st.just("not"), _reg),
    st.tuples(st.just("cmp"), _reg, _imm),
    st.tuples(st.just("test"), _reg, _reg),
    st.tuples(st.just("lea"), _reg, _disp(8)),
    _size.flatmap(lambda s: st.tuples(st.just("load"), _reg,
                                      _disp(s), st.just(s))),
    _size.flatmap(lambda s: st.tuples(st.just("store_reg"), _disp(s),
                                      _reg, st.just(s))),
    _size.flatmap(lambda s: st.tuples(st.just("store_imm"), _disp(s),
                                      _imm, st.just(s))),
    st.tuples(st.just("push"), _reg),
    st.tuples(st.just("pop"), _reg),
)

_ops = st.lists(_op, min_size=1, max_size=24)
_input = st.binary(min_size=IN_SIZE, max_size=IN_SIZE)


def _emit_ops(fn: FunctionBuilder, ops, balance_stack: bool = True) -> None:
    """Emit a drawn op sequence; POPs only run against prior PushES so the
    frame stays intact (unbalanced stacks are only allowed on speculated
    paths, where the rollback discards them)."""
    depth = 0
    for op in ops:
        kind = op[0]
        if kind == "mov_imm":
            fn.mov(Reg(op[1]), Imm(op[2]))
        elif kind == "mov_reg":
            fn.mov(Reg(op[1]), Reg(op[2]))
        elif kind == "alu_imm":
            getattr(fn, op[1])(Reg(op[2]), Imm(op[3]))
        elif kind == "alu_reg":
            getattr(fn, op[1])(Reg(op[2]), Reg(op[3]))
        elif kind == "neg":
            fn.neg(Reg(op[1]))
        elif kind == "not":
            fn.not_(Reg(op[1]))
        elif kind == "cmp":
            fn.cmp(Reg(op[1]), Imm(op[2]))
        elif kind == "test":
            fn.test(Reg(op[1]), Reg(op[2]))
        elif kind == "lea":
            fn.lea(Reg(op[1]), Mem(base=Register.R6, disp=op[2]))
        elif kind == "load":
            fn.load(Reg(op[1]), Mem(base=Register.R6, disp=op[2]),
                    size=op[3])
        elif kind == "store_reg":
            fn.store(Mem(base=Register.R6, disp=op[1]), Reg(op[2]),
                     size=op[3])
        elif kind == "store_imm":
            fn.store(Mem(base=Register.R6, disp=op[1]),
                     Imm(op[2] & 0xFF), size=op[3])
        elif kind == "push":
            fn.push(Reg(op[1]))
            depth += 1
        elif kind == "pop":
            if not balance_stack or depth > 0:
                fn.pop(Reg(op[1]))
                depth = max(0, depth - 1)
    if balance_stack:
        for _ in range(depth):
            fn.pop(Reg(Register.R7))


def _build_binary(body) -> "TelfBinary":
    """Assemble main(): taint IN_SIZE input bytes, seed the work registers
    from them, run ``body(fn)``, return 0."""
    fn = FunctionBuilder("main")
    fn.prologue(16)
    fn.lea(Reg(Register.R6), Mem(disp=Label("scratch")))
    fn.lea(Reg(Register.R1), Mem(disp=Label("inbuf")))
    fn.mov(Reg(Register.R2), Imm(IN_SIZE))
    fn.ecall("read_input")
    fn.lea(Reg(Register.R5), Mem(disp=Label("inbuf")))
    for i, reg in enumerate(WORK_REGS[:4]):
        fn.load(Reg(reg), Mem(base=Register.R5, disp=8 * i), size=8)
    fn.lea(Reg(Register.R6), Mem(disp=Label("scratch")))
    body(fn)
    fn.mov(Reg(Register.R0), Imm(0))
    fn.epilogue()
    program = AsmProgram(
        functions=[fn.build()],
        data_objects=[DataObject("scratch", bytes(BUF_SIZE)),
                      DataObject("inbuf", bytes(IN_SIZE))],
    )
    return Assembler().assemble(program)


def _build_emulator(binary, engine: str):
    emulator_cls, controller_cls = resolve_engine(engine)
    controller = controller_cls(TeapotNestingPolicy())
    return emulator_cls(binary, controller=controller, policy=KasperPolicy(),
                        coverage=CoverageRuntime())


def _final_state(emulator, binary):
    """Everything a block computes: registers, flags, memory, DIFT tags."""
    machine = emulator.machine
    scratch = binary.symbol("scratch").address
    dift = emulator.dift
    return {
        "registers": machine.snapshot_registers(),
        "flags": machine.flags.snapshot(),
        "memory": bytes(machine.memory.read_int(scratch + i, 1)
                        for i in range(BUF_SIZE)),
        "register_tags": tuple(dift.register_tags),
        "flags_tag": dift.flags_tag,
        "memory_tags": tuple(dift.get_mem_tag(scratch + i, 1)
                             for i in range(BUF_SIZE)),
        "coverage": (emulator.coverage.normal.covered(),
                     emulator.coverage.speculative.covered()),
    }


def _assert_engines_agree(binary, data: bytes):
    outcomes = {}
    for engine in ENGINES:
        emulator = _build_emulator(binary, engine)
        record = result_record(emulator.run(data))
        outcomes[engine] = (record, _final_state(emulator, binary))
    assert outcomes["jit"][0] == outcomes["legacy"][0], (
        f"jit record diverged from legacy on input {data[:16].hex()}"
    )
    assert outcomes["jit"][1] == outcomes["legacy"][1], (
        f"jit final state diverged from legacy on input {data[:16].hex()}"
    )
    return outcomes


# -- properties -------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_ops, data=_input)
def test_straight_line_blocks_match_single_step(ops, data):
    """Random straight-line sequences: identical state on both engines."""
    binary = _build_binary(lambda fn: _emit_ops(fn, ops))
    _assert_engines_agree(binary, data)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(st.tuples(_ops, _cc_jump, _imm),
                       min_size=1, max_size=3),
       tail=_ops, data=_input)
def test_branchy_blocks_match_single_step(chunks, tail, data):
    """Random forward-branching sequences: every fall-through/taken split
    compiles into conditional block exits that must behave identically."""
    def body(fn):
        for ops, jump, threshold in chunks:
            _emit_ops(fn, ops)
            fn.cmp(Reg(Register.R0), Imm(threshold))
            label = fn.fresh_label()
            getattr(fn, jump)(Label(label))
            fn.add(Reg(Register.R1), Imm(1))
            fn.label(label)
        _emit_ops(fn, tail)

    binary = _build_binary(body)
    _assert_engines_agree(binary, data)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, min_size=1, max_size=12),
       boundary=st.integers(min_value=0, max_value=12), data=_input)
def test_mid_block_rollback_at_every_boundary(ops, boundary, data):
    """A speculated random sequence with a forced rollback at a drawn
    instruction boundary: the jit's journal rollback must restore the
    same state the legacy snapshot restores."""
    boundary = min(boundary, len(ops))

    def body(fn):
        # The guard reads tainted input; the crafted high byte makes the
        # architectural path always jump over the speculated sequence.
        fn.load(Reg(Register.R1), Mem(base=Register.R5, disp=0), size=8)
        fn.cmp(Reg(Register.R1), Imm(1000))
        label = fn.fresh_label()
        fn.jae(Label(label))
        # Architecturally dead: runs only inside speculation simulation,
        # ends in a serializing fence that forces a mid-block rollback.
        _emit_ops(fn, ops[:boundary], balance_stack=False)
        fn.lfence()
        _emit_ops(fn, ops[boundary:], balance_stack=False)
        fn.label(label)

    data = bytes([data[0]]) + b"\xff" + data[2:]  # force inbuf[0:8] >= 1000
    binary = TeapotRewriter(TeapotConfig()).instrument(_build_binary(body))
    outcomes = _assert_engines_agree(binary, data)
    record = outcomes["legacy"][0]
    assert record["spec_stats"]["simulations_started"] >= 1, (
        "the guarded branch never speculated — the property is vacuous"
    )
