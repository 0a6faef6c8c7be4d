"""The fault model (paper §3).

Transient single-bit flips in the *result value* of hardware instructions:

* **eligible**: ALU/FPU binary operations, address arithmetic (``gep``),
  casts, comparisons, selects, and values returned from calls;
* **excluded**: loads and stores (memory and caches are ECC-protected),
  control flow (branches — handled by control-flow checking techniques),
  phis (a compiler artifact, not a hardware instruction), allocas (frame
  pointer bookkeeping), atomics (memory-sourced), and void-valued
  instructions.
"""

from __future__ import annotations

from typing import List

from ..ir.function import Function
from ..ir.instructions import (
    BinaryOperator,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from ..ir.module import Module


def is_injectable(inst: Instruction) -> bool:
    """Whether the fault model allows flipping this instruction's result."""
    if not inst.produces_value():
        return False
    if isinstance(inst, (BinaryOperator, GEPInst, CastInst, ICmpInst, FCmpInst, SelectInst)):
        return True
    if isinstance(inst, CallInst):
        # Values returned from calls are register contents (paper §3);
        # IPAS's own check intrinsics are excluded (they are void anyway,
        # but be explicit for future check variants).
        return not inst.callee.name.startswith("ipas.check")
    return False


def injectable_instructions(module: Module) -> List[Instruction]:
    """All eligible static instructions of a module, in a stable order."""
    return [inst for inst in module.instructions() if is_injectable(inst)]


def result_bits(inst: Instruction) -> int:
    """Number of flippable bits in the instruction's result value.

    Raises :class:`TypeError` for result types the fault model has no
    register representation for (void, labels, aggregates) — such an
    instruction should never have passed :func:`is_injectable`, so a
    clear error here beats an ``AttributeError`` deep in a campaign.
    """
    t = inst.type
    if t.is_pointer():
        return 64
    if t.is_float() or t.is_integer():
        bits = getattr(t, "bits", None)
        if isinstance(bits, int) and bits > 0:
            return bits
    raise TypeError(
        f"no register representation for {inst.opcode!r} result type "
        f"{t!r}: expected a pointer, float, or sized integer"
    )


class FaultSite:
    """One concrete fault: (static instruction, dynamic occurrence, bit)."""

    __slots__ = ("instruction", "occurrence", "bit")

    def __init__(self, instruction: Instruction, occurrence: int, bit: int):
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        if not 0 <= bit < result_bits(instruction):
            raise ValueError(
                f"bit {bit} out of range for {instruction.opcode} "
                f"({result_bits(instruction)} bits)"
            )
        self.instruction = instruction
        self.occurrence = occurrence
        self.bit = bit

    def __repr__(self) -> str:
        fn = self.instruction.function
        return (
            f"<FaultSite {self.instruction.opcode} in "
            f"{fn.name if fn else '?'} occ={self.occurrence} bit={self.bit}>"
        )
