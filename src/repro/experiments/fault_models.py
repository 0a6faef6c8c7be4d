"""Cross-fault-model evaluation: how outcome mixes and protection
choices shift when the corruption model changes.

The paper's campaigns (and IPAS's training labels) assume a single
transient bit-flip.  This driver re-runs the same workload under every
registered :class:`~repro.faults.models.FaultModel` — unprotected and
under full duplication — and reports, per model:

* the outcome mix (symptom / detected / masked / SOC fractions),
* the duplication detection rate (how much of the single-bit safety net
  survives multi-bit, pattern, and multi-shot corruption),
* the set of static sites that produced an SOC — the labels an IPAS
  classifier would train on — and how that set shifts against the
  default model (sites gained/lost), i.e. how far a transient-1bit
  protection choice transfers to the other models.

``python -m repro.experiments.fault_models [workload]`` prints the
table; CI runs it as a smoke test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..faults.models import FAULT_MODELS, get_fault_model
from ..faults.outcomes import Outcome
from ..faults.parallel import run_campaign
from ..faults.spec import CampaignSpec
from ..protect import FullDuplicationSelector, duplicate_instructions
from ..workloads.registry import get_workload
from .reporting import banner, format_table, outcome_row, percent

#: enough trials to see every outcome class without making CI crawl
DEFAULT_TRIALS = 80


def _site_key(inst) -> str:
    fn = inst.function
    block = inst.parent
    index = block.instructions.index(inst) if block is not None else -1
    return (
        f"{fn.name if fn else '?'}:"
        f"{block.name if block else '?'}[{index}]"
    )


def _run(workload_name, module, model, trials, seed, n_jobs):
    spec = CampaignSpec(
        workload=workload_name, trials=trials, seed=seed, fault_model=model
    )
    return run_campaign(spec.build(module), trials, seed=seed, n_jobs=n_jobs)


def run_fault_model_evaluation(
    workload_name: str = "fft",
    model_specs: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> Dict:
    """Outcome mixes and SOC-site shifts for every fault model.

    Returns a JSON-compatible dict; the per-model entries appear in
    registry order (``model_specs`` overrides the sweep).  Each entry
    carries the unprotected and full-duplication outcome fractions, the
    unprotected SOC-site keys, and the gained/lost site sets relative to
    the default ``transient-1bit`` model.
    """
    specs = list(model_specs) if model_specs is not None else list(FAULT_MODELS)
    protected_module = get_workload(workload_name).compile()
    duplicate_instructions(
        protected_module, FullDuplicationSelector().select(protected_module)
    )

    entries: List[Dict] = []
    for spec in specs:
        model = get_fault_model(spec)
        unprotected = _run(workload_name, None, spec, trials, seed, n_jobs)
        protected = _run(workload_name, protected_module, spec, trials, seed, n_jobs)
        soc_sites = sorted(
            {
                _site_key(r.site.instruction)
                for r in unprotected.records
                if r is not None and r.outcome is Outcome.SOC
            }
        )
        entries.append(
            {
                "spec": model.spec(),
                "multi_shot": model.multi_shot,
                "unprotected": unprotected.counts.as_dict(),
                "protected": protected.counts.as_dict(),
                "soc_sites": soc_sites,
            }
        )

    baseline_sites = set(entries[0]["soc_sites"]) if entries else set()
    for entry in entries:
        sites = set(entry["soc_sites"])
        entry["sites_gained"] = sorted(sites - baseline_sites)
        entry["sites_lost"] = sorted(baseline_sites - sites)

    return {
        "kind": "ipas-fault-models",
        "workload": workload_name,
        "trials": trials,
        "seed": seed,
        "models": entries,
    }


def format_fault_model_table(result: Dict) -> str:
    """The per-model outcome table plus the protection-choice shift list."""
    headers = [
        "model", "symptom", "detected", "masked", "soc",
        "soc(full-dup)", "soc sites", "+sites", "-sites",
    ]
    rows = []
    for entry in result["models"]:
        rows.append(
            [entry["spec"]]
            + outcome_row(entry["unprotected"])
            + [
                percent(entry["protected"].get("soc", 0.0)),
                len(entry["soc_sites"]),
                len(entry["sites_gained"]),
                len(entry["sites_lost"]),
            ]
        )
    lines = [
        banner(
            f"fault-model sweep — {result['workload']}, "
            f"{result['trials']} trials per campaign"
        ),
        format_table(headers, rows),
        "",
        "+sites/-sites: unprotected SOC sites gained/lost vs "
        "transient-1bit — the label shift an IPAS classifier would "
        "train on under that model.",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="per-fault-model outcome and protection-shift sweep"
    )
    parser.add_argument("workload", nargs="?", default="fft")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument(
        "--models", default=None,
        help="comma-separated model specs (default: the full registry)",
    )
    args = parser.parse_args(argv)
    specs = args.models.split(",") if args.models else None
    result = run_fault_model_evaluation(
        args.workload, specs, trials=args.trials, seed=args.seed, n_jobs=args.jobs
    )
    print(format_fault_model_table(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
