"""Socket worker: leases trial-chunks from a coordinator and runs them.

Deliberately synchronous — the worker's job is CPU-bound interpretation,
not concurrency.  Per connection it handshakes (``hello``), then loops
``lease → run → ack``, stamping every outbound message with an in-order
sequence number.  Campaigns are built from the lease's spec and cached
per job id, so one golden run serves a worker's whole share of a job;
the rebuilt fingerprint is checked against the job id, making version
skew between coordinator and worker a loud error instead of a silent
plan mismatch.

Failure behavior mirrors the supervised fork pool's, from the other
side: a connection loss or an ack that was sent but never confirmed
triggers reconnect with a fresh handshake, and the unconfirmed ack is
*resent once* on the new connection.  If the coordinator already
committed or requeued the chunk, that resend is discarded as stale —
the worker does not care which; it just keeps leasing.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Optional

from ..faults.parallel import TrialPlan
from ..faults.spec import CampaignSpec
from .protocol import Channel, ProtocolError


def _job_plan(spec: Dict, job_id: str) -> TrialPlan:
    """The job's trial plan, which a worker caches across leases."""
    parsed = CampaignSpec.from_json(spec)
    plan = TrialPlan(parsed.build(), parsed.trials, parsed.seed)
    if plan.fingerprint != job_id:
        raise RuntimeError(
            f"worker built fingerprint {plan.fingerprint} for job {job_id}: "
            f"coordinator/worker version skew"
        )
    return plan


def run_worker(
    host: str,
    port: int,
    ack_timeout: float = 30.0,
    reconnect_attempts: int = 8,
    idle_exit: Optional[float] = None,
    log=None,
) -> int:
    """Serve one coordinator until shutdown; returns a process exit code.

    ``ack_timeout`` bounds every wait for a coordinator reply.
    ``reconnect_attempts`` bounds *consecutive* failed connections —
    any successful handshake resets the budget.  ``idle_exit`` (seconds)
    makes a worker with nothing to lease exit 0, for drain-and-stop
    deployments; ``None`` idles forever.
    """
    plans: Dict[str, TrialPlan] = {}
    pending_ack: Optional[Dict] = None
    failures = 0
    idle_since: Optional[float] = None

    def say(text: str) -> None:
        if log is not None:
            log(text)

    while True:
        try:
            channel = Channel(host, port, timeout=ack_timeout)
        except OSError:
            failures += 1
            if failures > reconnect_attempts:
                say(f"giving up after {failures} failed connections")
                return 1
            time.sleep(min(0.1 * (2 ** (failures - 1)), 2.0))
            continue
        seq = 0

        def send(message: Dict) -> None:
            nonlocal seq
            seq += 1
            message["seq"] = seq
            channel.send(message)

        try:
            hello = None
            send({"op": "hello", "role": "worker"})
            hello = channel.recv(timeout=ack_timeout)
            if hello is None or not hello.get("ok"):
                raise ConnectionError(f"handshake refused: {hello!r}")
            failures = 0
            say(f"connected as {hello.get('worker')}")
            if pending_ack is not None:
                # The previous connection died between our ack and the
                # coordinator's confirmation.  Resend once; ``ack-stale``
                # (the expected reply — our lease died with the
                # connection) and ``ack-ok`` both mean we can move on.
                send(
                    {
                        "op": "ack",
                        "lease": pending_ack["lease"],
                        "records": pending_ack["records"],
                    }
                )
                reply = channel.recv(timeout=ack_timeout)
                if reply is None:
                    raise ConnectionError("connection lost resending ack")
                say(f"resent unconfirmed ack: {reply.get('op')}")
                pending_ack = None

            while True:
                send({"op": "lease"})
                grant = channel.recv(timeout=ack_timeout)
                if grant is None:
                    raise ConnectionError("connection lost awaiting lease")
                if not grant.get("ok"):
                    raise ConnectionError(f"lease refused: {grant.get('error')}")
                if grant.get("op") == "idle":
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif idle_exit is not None and now - idle_since >= idle_exit:
                        say("idle limit reached, exiting")
                        return 0
                    time.sleep(grant.get("backoff", 0.1))
                    continue
                idle_since = None
                job_id = grant["job"]
                plan = plans.get(job_id)
                if plan is None:
                    plan = plans[job_id] = _job_plan(grant["spec"], job_id)
                heartbeat_every = max(grant.get("timeout", 15.0) / 3.0, 0.05)
                last_beat = time.monotonic()
                records = []
                error: Optional[str] = None
                try:
                    for i in grant["indexes"]:
                        records.append(plan.run_entry(i))
                        now = time.monotonic()
                        if now - last_beat >= heartbeat_every:
                            last_beat = now
                            send({"op": "heartbeat", "lease": grant["lease"]})
                except Exception as exc:
                    # A trial raising is an engine bug, not a fault-model
                    # outcome; report it so the job fails loudly instead
                    # of the lease cycling forever.
                    error = f"{type(exc).__name__}: {exc}"
                ack = {"op": "ack", "lease": grant["lease"], "records": records}
                if error is not None:
                    ack["error"] = error
                send(ack)
                try:
                    confirm = channel.recv(timeout=ack_timeout)
                except OSError:
                    confirm = None
                if confirm is None:
                    pending_ack = {"lease": grant["lease"], "records": records}
                    raise ConnectionError("ack unconfirmed")
        except (OSError, ConnectionError, ProtocolError, socket.timeout) as exc:
            say(f"connection lost: {exc}")
            channel.close()
            if hello is None:
                failures += 1
                if failures > reconnect_attempts:
                    say(f"giving up after {failures} failed handshakes")
                    return 1
            time.sleep(0.05)
            continue
        except KeyError as exc:
            say(f"malformed grant (missing {exc}); disconnecting")
            channel.close()
            return 1
