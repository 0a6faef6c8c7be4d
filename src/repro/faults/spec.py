"""One campaign spec: the knobs that decide a campaign's records.

Records are a pure function of (module, input, seed, fault model), and
:class:`CampaignSpec` is the one path from those knobs to a ``Campaign``:
parsed from argv (``from_args``), service JSON (``from_json``) or
keywords; validated in ``__post_init__``, naming the bad key;
canonicalized (defaults filled in, the fault model spelled canonically);
built by ``build``.  Registry form names a ``workload`` and its
``input`` (a library caller may pass its own ``Workload`` object
instead of a name); source form carries scil ``source`` and a module
``name``.
Knobs that cannot change records (workers, checkpoint, chaos,
observability, supervision) stay ``Campaign.run`` arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

from .models import get_fault_model


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value) -> bool:
    return _int(value) and value >= 0


def _text(value) -> bool:
    return isinstance(value, str) and bool(value)


def _optional(check):
    return lambda value: value is None or check(value)


#: field -> (check, what a valid value is); ``None`` fields take defaults
_CHECKS = {
    "workload": (_optional(lambda v: _text(v) or _is_workload(v)), "a workload name"),
    "source": (_optional(_text), "scil source text"),
    "trials": (lambda v: _int(v) and v > 0, "a positive integer"),
    "seed": (_int, "an integer"),
    "input": (_int, "an integer"),
    "name": (_text, "a non-empty string"),
    "entry": (_optional(_text), "a non-empty string"),
    "budget_factor": (
        _optional(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                  and math.isfinite(v) and v > 0),
        "a positive number",
    ),
    "protect": (lambda v: v in ("none", "full"), "'none' or 'full'"),
    "recover": (lambda v: isinstance(v, bool), "true or false"),
    "max_rollbacks": (_count, "a non-negative integer"),
    "snapshot_period": (_count, "a non-negative integer"),
    "warm_start": (lambda v: isinstance(v, bool), "true or false"),
    "snapshot_stride": (_count, "a non-negative integer"),
    "fault_model": (_optional(lambda v: isinstance(v, str)), "a spec string"),
}


def _is_workload(value) -> bool:
    from ..workloads.base import Workload

    return isinstance(value, Workload)


def _workload(value):
    """The caller's ``Workload`` object as is, else the registry's by name."""
    if _is_workload(value):
        return value
    from ..workloads import get_workload

    try:
        return get_workload(value)
    except KeyError as exc:
        raise ValueError(f"spec 'workload': {exc.args[0]}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that decides a campaign's outcome records."""

    workload: Optional[str] = None  # or a library caller's Workload
    source: Optional[str] = None
    name: str = "kernel"
    entry: Optional[str] = None  # the workload's; "main" for source
    input: int = 1
    trials: Optional[int] = None  # required
    seed: int = 0
    budget_factor: Optional[float] = None  # the workload's; 20.0 for source
    protect: str = "none"
    recover: bool = False
    max_rollbacks: int = 8
    snapshot_period: int = 0
    warm_start: bool = False
    snapshot_stride: int = 0  # 0 = auto
    fault_model: Optional[str] = None  # transient-1bit

    def __post_init__(self):
        for key, (ok, what) in _CHECKS.items():
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"spec {key!r} must be {what}, got {value!r}")
        if (self.workload is None) == (self.source is None):
            raise ValueError("spec needs exactly one of 'workload' or 'source'")
        try:
            filled = {"fault_model": get_fault_model(self.fault_model).spec()}
        except ValueError as exc:
            raise ValueError(f"spec 'fault_model': {exc}") from None
        if self.workload:
            workload = _workload(self.workload)
            if self.input not in workload.inputs:
                raise ValueError(
                    f"spec 'input' must be one of {sorted(workload.inputs)} "
                    f"for workload {workload.name!r}, got {self.input!r}"
                )
            if self.name != "kernel":
                raise ValueError("spec 'name' is for source specs only")
            if isinstance(self.workload, str):
                filled["workload"] = workload.name
            filled.update(entry=self.entry or workload.entry,
                          budget_factor=self.budget_factor or workload.budget_factor)
        else:
            if self.input != 1:
                raise ValueError(f"spec 'input' needs a workload, got {self.input!r}")
            filled.update(entry=self.entry or "main",
                          budget_factor=self.budget_factor or 20.0)
        for key, value in filled.items():  # canonicalize the frozen fields
            object.__setattr__(self, key, value)

    @classmethod
    def from_json(cls, data) -> "CampaignSpec":
        """Parse service JSON; a ``None`` value means the default."""
        if not isinstance(data, dict):
            raise ValueError(f"spec must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown spec key(s): {', '.join(unknown)}")
        return cls(**{k: v for k, v in data.items() if v is not None}).standalone()

    @classmethod
    def from_args(cls, args) -> "CampaignSpec":
        """Parse ``inject``/``submit`` argv (``repro.cli``'s campaign flags)."""
        names = [f.name for f in fields(cls) if hasattr(args, f.name)]
        return cls(**{name: getattr(args, name) for name in names}).standalone()

    def standalone(self) -> "CampaignSpec":
        """Refuse what only a caller-supplied module can honour; every
        argv and JSON spec compiles its own module."""
        if self.recover and self.protect != "full":
            raise ValueError(
                "spec 'recover' needs duplication checks to fire: combine "
                "it with protect 'full'"
            )
        return self

    def to_json(self) -> Dict:
        """Every field with its default filled in (the journal form)."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def canonical(self) -> str:
        """Stable text form, the service's dedup key."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def build(self, module=None, *, recovery=None):
        """Construct (but do not run) the campaign.

        The same spec always yields the same fingerprint, which is what
        makes journal replay sound.  A caller already holding a protected
        module (an IPAS variant) passes it in; otherwise the spec compiles
        its own, fully duplicated under protect 'full'.  A library caller
        may arm its own ``RecoveryPolicy`` as is, in place of ``recover``."""
        from .. import compile_source
        from ..interp import Interpreter
        from ..protect import FullDuplicationSelector, duplicate_instructions
        from ..recover.runtime import RecoveryPolicy
        from .campaign import Campaign, OutputVerifier

        workload = _workload(self.workload) if self.workload else None
        if module is None:
            self.standalone()
            module = workload.compile() if workload else compile_source(
                self.source, name=self.name)
            if self.protect == "full":
                duplicate_instructions(module, FullDuplicationSelector().select(module))
        if workload:
            interp = workload.make_interpreter(self.input, module=module)
            verifier = workload.verifier()
        else:
            interp, verifier = Interpreter(module), OutputVerifier()
        if self.recover:
            if recovery is not None:
                raise ValueError("spec 'recover' and a recovery policy are exclusive")
            recovery = RecoveryPolicy(max_rollbacks=self.max_rollbacks,
                                      snapshot_period=self.snapshot_period)
        return Campaign(
            interp,
            verifier=verifier,
            entry=self.entry,
            budget_factor=self.budget_factor,
            recovery=recovery,
            warm_start=self.warm_start,
            snapshot_stride=self.snapshot_stride or None,
            fault_model=self.fault_model,
        )
