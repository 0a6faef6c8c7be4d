"""Simulated OpenMP: outlined parallel regions on shared memory.

The paper (§4.4.1) supports OpenMP through the standard lowering: the
compiler *outlines* each parallel region into a function that the runtime
invokes once per thread.  This module is that runtime, simulated: the user
(or a frontend) writes the outlined function explicitly —

    void region(int tid, int nthreads) { ... }    // an "outlined" region

— and :class:`OmpRegion` invokes it for every thread id against **shared**
memory (the same interpreter state), with per-thread cycle accounting.

Threads execute sequentially in tid order, which is semantically equivalent
to any interleaving for data-race-free regions (the only kind OpenMP
guarantees anything about) and keeps the simulation deterministic; for
cross-thread reductions the region should use ``atomicrmw`` (exposed by the
IR) or per-thread slots combined after the region, exactly as real OpenMP
code does.

Timing model: the region's wall time is the *maximum* of the per-thread
cycle counts (threads run concurrently on real hardware), plus a fixed
fork/join overhead; everything outside regions is serial.  Because IPAS
never instruments the runtime itself (paper §4.4.1), protected and
unprotected programs pay identical fork/join costs and the slowdown ratio
reflects computation only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..interp.compiler import CompiledModule
from ..interp.errors import ExecutionError
from ..interp.interpreter import Interpreter, RunResult
from ..ir.module import Module

#: fixed fork/join cost per parallel region (cycles)
FORK_JOIN_COST = 400


class OmpRegionResult:
    """Outcome of one parallel region execution."""

    def __init__(self, thread_cycles: List[int], status: str, error: str = ""):
        self.thread_cycles = thread_cycles
        self.status = status
        self.error = error

    @property
    def region_cycles(self) -> int:
        """Critical-path time: the slowest thread plus fork/join."""
        return max(self.thread_cycles, default=0) + FORK_JOIN_COST

    def __repr__(self) -> str:
        return f"<OmpRegionResult {self.status} threads={len(self.thread_cycles)}>"


class OmpRuntime:
    """Runs outlined parallel regions of one module on shared memory.

    The outlined function must take ``(int tid, int nthreads)`` (more
    arguments may follow; they are forwarded from ``run_region``).
    """

    def __init__(
        self,
        module_or_compiled: Union[Module, CompiledModule],
        nthreads: int,
    ):
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self.interp = Interpreter(module_or_compiled)
        self.nthreads = nthreads
        self.serial_cycles = 0
        self.parallel_cycles = 0
        self._started = False

    def set_global_override(self, name: str, value) -> None:
        self.interp.set_global_override(name, value)

    def start(self) -> None:
        """Initialise shared memory (globals); call before the first region."""
        self.interp.reset()
        self.interp.budget = self.interp.rbudget = Interpreter.NO_BUDGET
        self._started = True

    def run_serial(self, entry: str, args: Tuple = ()) -> object:
        """Run a function serially on the shared state (setup/teardown)."""
        if not self._started:
            self.start()
        before = self.interp.cycles
        result = self.interp.call(self.interp.cm.get_function_index(entry), args)
        self.serial_cycles += self.interp.cycles - before
        return result

    def run_region(self, outlined: str, extra_args: Tuple = ()) -> OmpRegionResult:
        """Invoke ``outlined(tid, nthreads, *extra_args)`` for every thread.

        Threads share the interpreter's memory; each thread's cycles are
        measured separately and the region contributes the maximum (plus
        fork/join) to the job clock.
        """
        if not self._started:
            self.start()
        index = self.interp.cm.get_function_index(outlined)
        fn = self.interp.cm.cfuncs[index].fn
        if len(fn.args) < 2:
            raise ValueError(
                f"outlined function {outlined} must take (tid, nthreads, ...)"
            )
        thread_cycles: List[int] = []
        for tid in range(self.nthreads):
            before = self.interp.cycles
            try:
                self.interp.call(index, (tid, self.nthreads) + tuple(extra_args))
            except ExecutionError as exc:
                # A thread failing takes the whole region (and team) down.
                thread_cycles.append(self.interp.cycles - before)
                self.parallel_cycles += max(thread_cycles) + FORK_JOIN_COST
                return OmpRegionResult(
                    thread_cycles, "failed", f"{type(exc).__name__}: {exc}"
                )
            thread_cycles.append(self.interp.cycles - before)
        self.parallel_cycles += max(thread_cycles, default=0) + FORK_JOIN_COST
        return OmpRegionResult(thread_cycles, "ok")

    @property
    def job_cycles(self) -> int:
        """Serial time plus the accumulated critical paths of all regions."""
        return self.serial_cycles + self.parallel_cycles

    def read_global(self, name: str):
        return self.interp.read_global(name)
