"""repro.service — campaign-as-a-service.

A fault-tolerant asyncio coordinator (:mod:`.coordinator`) exposes a
line-delimited JSON API over localhost sockets: submit a campaign,
stream its progress, fetch its results.  Durability rides on the
checkpoint-v2 format (a write-ahead job journal plus one campaign
checkpoint per job, :mod:`.journal`); work is distributed to socket
workers (:mod:`.worker`) as leased trial-chunks with heartbeat deadlines
and at-most-once commit; submission is idempotent on the campaign
fingerprint; and with no workers reachable the coordinator degrades to
the in-process serial engine.  :class:`.client.ServiceClient` is the
blocking client the CLI uses.

The service contract is the campaign contract, promoted one level:
outcome records served by the service are bit-identical to a cold
in-process ``Campaign.run`` — including under coordinator kill/restart,
dropped acks, delayed replies, and worker connection resets
(:class:`repro.faults.chaos.ServiceChaos` injects all four).
"""

from .client import ServiceClient, ServiceError
from .coordinator import CoordinatorServer
from .journal import JobJournal
from .worker import run_worker

__all__ = [
    "CoordinatorServer",
    "JobJournal",
    "ServiceClient",
    "ServiceError",
    "run_worker",
]
