#!/usr/bin/env python
"""Run a protected workload under the simulated MPI runtime (paper §6.4).

Protects CoMD with IPAS, then runs the protected and unprotected programs
SPMD at 1-8 ranks and reports the strong-scaling slowdown curve — the
paper's Fig. 8 claim is that it stays flat, because IPAS never instruments
communication.

Also demonstrates the failure semantics of §4.4.1: a fault detected on one
rank aborts the whole job (an observable system-level symptom).

Run:  IPAS_SCALE=quick python examples/mpi_scaling.py
"""

import random

from repro.core import ExperimentScale, IpasPipeline
from repro.faults import Campaign, FaultSite, Transient1Bit
from repro.parallel import MpiJob
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("comd")
    scale = ExperimentScale.from_env()
    print(f"workload: {workload.description}")

    print("\ntraining IPAS ...")
    pipeline = IpasPipeline(workload, scale)
    variant = pipeline.protect_all()[0]
    print(f"  best config: {variant.config}")
    print(f"  duplicated {variant.report.duplicated_fraction:.0%} of eligible instructions")

    clean_module = workload.compile()
    print("\nstrong scaling (fault-free):")
    print(f"  {'ranks':>5}  {'clean cycles':>14}  {'protected cycles':>17}  slowdown")
    for ranks in (1, 2, 4, 8):
        clean = MpiJob(clean_module, ranks, overrides=workload.inputs[1]).run()
        prot = MpiJob(variant.module, ranks, overrides=workload.inputs[1]).run()
        assert clean.status == "ok" and prot.status == "ok"
        slowdown = prot.job_cycles / clean.job_cycles
        print(
            f"  {ranks:>5}  {clean.job_cycles:>14}  {prot.job_cycles:>17}  "
            f"{slowdown:.3f}x"
        )

    print("\nfault detected on one rank aborts the job (paper §4.4.1):")
    # Pick an instruction that the classifier protected (it feeds an
    # ipas.check) and flip a high bit mid-run on rank 1 of a 4-rank job.
    from repro.ir import is_check_intrinsic

    protected_job = MpiJob(variant.module, 4, overrides=workload.inputs[1])
    target = next(
        inst
        for inst in variant.module.instructions()
        if inst.type.is_float()
        and not inst.name.endswith(".dup")
        and any(
            u.opcode == "call" and is_check_intrinsic(u.callee)
            for u in inst.users
        )
    )
    flip = Transient1Bit().injection_for(FaultSite(target, 2, 62))
    result = protected_job.run(injection=(flip, 1))
    print(f"  job status: {result.status}")
    print(f"  per-rank:   {result.statuses}")


if __name__ == "__main__":
    main()
