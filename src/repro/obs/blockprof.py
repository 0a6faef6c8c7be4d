"""Opt-in per-block wall-time attribution for the block interpreter.

The interpreter already attributes *cycles* per block for free: a
profiled run counts executions per global block id (``RunResult.profile``)
and every compiled block carries its static cycle cost.  Wall time is the
missing half — Python-level block closures have wildly different real
costs per simulated cycle.

Like fault injection, profiling works by *swapping compiled block
functions*: :class:`BlockProfiler` replaces all three of every
``CompiledFunction``'s dispatch tables, ``block_fns``, the loop-region
table ``region_fns`` (which resync-armed warm trials run too) and the
profiled table ``profiled_fns`` (built or not), with per-block timing wrappers
while active and restores the originals on exit.  The dispatch hot loop
is untouched — with the profiler disarmed the interpreter executes the exact same closures as
before, so disabled-mode overhead is zero by construction (the same
property the injection trap points have).

Timing wrappers do perturb *wall-clock* numbers (each block pays two
``perf_counter`` calls) but never simulated state: cycle counts, outputs,
and outcomes are bit-identical with the profiler armed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["BlockProfiler", "hot_block_report", "render_block_report"]


class BlockProfiler:
    """Context manager accumulating per-gid wall seconds and hit counts.

    ::

        with BlockProfiler(interp.cm) as prof:
            interp.run(entry)
        report = prof.report()

    Nested arming of the same ``CompiledModule`` is refused — the wrapper
    tables must not wrap themselves.
    """

    def __init__(self, cm):
        self.cm = cm
        self.wall: List[float] = [0.0] * cm.total_blocks
        self.hits: List[int] = [0] * cm.total_blocks
        self._saved: Optional[List[Tuple]] = None

    def _wrap(self, fn, gid: int):
        wall = self.wall
        hits = self.hits
        perf = time.perf_counter

        def timed(frame, state, _fn=fn, _gid=gid):
            t0 = perf()
            try:
                return _fn(frame, state)
            finally:
                wall[_gid] += perf() - t0
                hits[_gid] += 1

        return timed

    def __enter__(self) -> "BlockProfiler":
        if self._saved is not None:
            raise RuntimeError("BlockProfiler is already armed")
        if getattr(self.cm, "_block_profiler_armed", False):
            raise RuntimeError("another BlockProfiler is armed on this module")
        self._saved = []
        for cf in self.cm.cfuncs:
            self._saved.append((cf.block_fns, cf.region_fns, cf.profiled_fns))
            # Every table gets the wrapped per-block functions: a region
            # function would run a whole loop nest past the wrappers.
            wrapped = [
                self._wrap(fn, block.gid)
                for fn, block in zip(cf.block_fns, cf.blocks)
            ]
            cf.block_fns = cf.region_fns = cf.profiled_fns = wrapped
        self.cm._block_profiler_armed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._saved is not None
        for cf, saved in zip(self.cm.cfuncs, self._saved):
            cf.block_fns, cf.region_fns, cf.profiled_fns = saved
        self._saved = None
        self.cm._block_profiler_armed = False

    def report(self, top: Optional[int] = None) -> Dict:
        """Hot-block attribution joined with block identity and cycle cost."""
        return hot_block_report(self.cm, self.hits, self.wall, top=top)


def hot_block_report(
    cm, hits: List[int], wall: Optional[List[float]] = None,
    top: Optional[int] = None,
) -> Dict:
    """Build the per-block attribution report.

    ``hits`` is a per-gid execution count (either a profiler's or a
    ``RunResult.profile`` from a ``profile=True`` run); ``wall`` is the
    optional per-gid wall-seconds column.  Cycles are ``hits × static
    block cost`` — exact under the deterministic cost model.
    """
    rows = []
    for cf in cm.cfuncs:
        for block in cf.blocks:
            n = hits[block.gid] if block.gid < len(hits) else 0
            if not n:
                continue
            row = {
                "function": cf.name,
                "block": block.block.name,
                "gid": block.gid,
                "hits": n,
                "cost": block.cost,
                "cycles": n * block.cost,
            }
            if wall is not None:
                row["wall_seconds"] = wall[block.gid]
            rows.append(row)
    rows.sort(key=lambda r: (-r["cycles"], r["gid"]))
    total_cycles = sum(r["cycles"] for r in rows)
    total_wall = sum(r.get("wall_seconds", 0.0) for r in rows)
    if top:
        rows = rows[:top]
    return {
        "kind": "ipas-blockprofile",
        "module": cm.module.name,
        "total_cycles": total_cycles,
        "total_wall_seconds": total_wall,
        "blocks": rows,
    }


def render_block_report(report: Dict, limit: int = 20) -> str:
    lines = [
        f"hot blocks — module {report['module']}, "
        f"{report['total_cycles']} cycles attributed",
        f"{'function':<20} {'block':<12} {'hits':>8} {'cycles':>10} "
        f"{'cyc%':>5}  {'wall ms':>9}",
    ]
    total = report["total_cycles"] or 1
    for row in report["blocks"][:limit]:
        wall_ms = row.get("wall_seconds")
        lines.append(
            f"{row['function']:<20.20} {row['block']:<12.12} "
            f"{row['hits']:>8} {row['cycles']:>10} "
            f"{100.0 * row['cycles'] / total:>4.1f}%  "
            + (f"{1000.0 * wall_ms:>9.3f}" if wall_ms is not None else f"{'-':>9}")
        )
    return "\n".join(lines)
