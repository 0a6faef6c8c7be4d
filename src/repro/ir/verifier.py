"""IR verifier: structural and SSA well-formedness checks.

Run after the frontend, after each optimization pass, and after the IPAS
duplication pass; a protected module must be exactly as well-formed as the
original, so the verifier is the safety net for the whole pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .block import BasicBlock
from .function import Function
from .instructions import Instruction, PhiNode
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerificationError(Exception):
    """Raised when a module violates an IR invariant."""


def verify_function(fn: Function, errors: List[str]) -> None:
    name = fn.name
    if fn.is_declaration:
        return
    blocks: Set[BasicBlock] = set(fn.blocks)
    if not fn.blocks:
        errors.append(f"{name}: function body has no blocks")

    # Structural checks per block.
    defined: Set[int] = {id(a) for a in fn.args}
    all_insts: Set[int] = set()
    for block in fn.blocks:
        if block.parent is not fn:
            errors.append(f"{name}/{block.name}: block parent link is wrong")
        if not block.is_terminated():
            errors.append(f"{name}/{block.name}: block lacks a terminator")
        seen_non_phi = False
        for i, inst in enumerate(block.instructions):
            all_insts.add(id(inst))
            if inst.parent is not block:
                errors.append(
                    f"{name}/{block.name}: instruction parent link is wrong"
                )
            if isinstance(inst, PhiNode):
                if seen_non_phi:
                    errors.append(f"{name}/{block.name}: phi after non-phi instruction")
            else:
                seen_non_phi = True
            if inst.is_terminator():
                if i != len(block.instructions) - 1:
                    errors.append(
                        f"{name}/{block.name}: terminator not at end of block"
                    )
                for succ in block.successors():
                    if succ not in blocks:
                        errors.append(
                            f"{name}/{block.name}: branch to foreign block {succ.name}"
                        )
            if inst.produces_value():
                defined.add(id(inst))

    # Phi / predecessor consistency: the incoming-block set must exactly
    # match the CFG predecessors — a missing edge would read an undefined
    # value in the interpreter, an extra one would mask a CFG bug.  One
    # predecessor map for the function, each block once per successor in
    # block order, as ``BasicBlock.predecessors`` lists them.
    predecessors: Dict[int, List[BasicBlock]] = {id(b): [] for b in fn.blocks}
    for block in fn.blocks:
        for k in {id(s) for s in block.successors()}:
            if k in predecessors:
                predecessors[k].append(block)
    for block in fn.blocks:
        # a block another function claims lists that function's blocks
        preds = predecessors[id(block)] if block.parent is fn else block.predecessors()
        for phi in block.phis():
            if len(phi.operands) != len(phi.incoming_blocks):
                errors.append(
                    f"{name}/{block.name}: phi has {len(phi.operands)} values for "
                    f"{len(phi.incoming_blocks)} incoming blocks"
                )
            if len(phi.incoming_blocks) != len(set(map(id, phi.incoming_blocks))):
                errors.append(
                    f"{name}/{block.name}: phi has duplicate incoming blocks"
                )
            for incoming in phi.incoming_blocks:
                if incoming not in blocks:
                    errors.append(
                        f"{name}/{block.name}: phi incoming block "
                        f"{incoming.name} belongs to another function"
                    )
            incoming_ids = {id(b) for b in phi.incoming_blocks}
            pred_ids = {id(p) for p in preds}
            missing = [p.name for p in preds if id(p) not in incoming_ids]
            extra = [
                b.name for b in phi.incoming_blocks if id(b) not in pred_ids
            ]
            if missing:
                errors.append(
                    f"{name}/{block.name}: phi incoming values missing for "
                    f"predecessor(s) {missing}"
                )
            if extra:
                errors.append(
                    f"{name}/{block.name}: phi incoming values from "
                    f"non-predecessor block(s) {extra}"
                )

    # Operand sanity and use-list symmetry.
    for block in fn.blocks:
        for inst in block.instructions:
            for idx, op in enumerate(inst.operands):
                if (inst, idx) not in op.uses:
                    errors.append(
                        f"{name}/{block.name}: use-list of {op!r} is missing "
                        f"({inst!r}, {idx})"
                    )
                if isinstance(op, Instruction):
                    if id(op) not in all_insts:
                        errors.append(
                            f"{name}/{block.name}: operand {op!r} of {inst!r} is not "
                            f"in this function"
                        )
                elif isinstance(op, Argument):
                    if op.parent is not fn:
                        errors.append(
                            f"{name}/{block.name}: argument operand from another "
                            "function"
                        )
                else:
                    if not isinstance(op, (Constant, UndefValue, GlobalVariable)):
                        errors.append(
                            f"{name}/{block.name}: unexpected operand kind {op!r}"
                        )

    # SSA dominance: defs must dominate uses.
    if not errors:
        _verify_dominance(fn, errors)


def _verify_dominance(fn: Function, errors: List[str]) -> None:
    # Imported here to avoid a package-level import cycle (analysis imports ir).
    from ..analysis.dominators import DominatorTree

    try:
        dom = DominatorTree(fn)
    except Exception as exc:  # malformed CFG already reported elsewhere
        errors.append(f"{fn.name}: could not build dominator tree: {exc}")
        return
    reachable = set(dom.reachable_blocks)
    order = {}
    for block in fn.blocks:
        for i, inst in enumerate(block.instructions):
            order[id(inst)] = i
    for block in fn.blocks:
        if block not in reachable:
            continue
        for inst in block.instructions:
            if isinstance(inst, PhiNode):
                for value, pred in inst.incoming():
                    if isinstance(value, Instruction):
                        vb = value.parent
                        if vb in reachable and pred in reachable:
                            if not dom.dominates(vb, pred):
                                errors.append(
                                    f"{fn.name}/{block.name}: phi incoming "
                                    f"{value!r} does not dominate edge from "
                                    f"{pred.name}"
                                )
                continue
            for op in inst.operands:
                if not isinstance(op, Instruction):
                    continue
                ob = op.parent
                if ob is None or ob not in reachable:
                    continue
                if ob is block:
                    if order[id(op)] >= order[id(inst)]:
                        errors.append(
                            f"{fn.name}/{block.name}: {op!r} used before defined"
                        )
                else:
                    if not dom.dominates(ob, block):
                        errors.append(
                            f"{fn.name}/{block.name}: def of {op!r} in {ob.name} "
                            f"does not dominate use in {block.name}"
                        )


def verify_module(module: Module) -> None:
    """Raise :class:`VerificationError` if the module is malformed."""
    errors: List[str] = []
    for fn in module.functions.values():
        if fn.parent is not module:
            errors.append(f"{fn.name}: function parent link is wrong")
        verify_function(fn, errors)
    if errors:
        preview = "\n  ".join(errors[:20])
        more = f"\n  ... and {len(errors) - 20} more" if len(errors) > 20 else ""
        raise VerificationError(f"module {module.name} is invalid:\n  {preview}{more}")
