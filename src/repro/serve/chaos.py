"""Chaos-under-load for the daemon (the serve-chaos CI job).

:func:`run_serve_chaos` boots a real server on a loopback socket and
drives it with M concurrent clients whose requests carry seeded fault
scripts — recovered worker crashes, retry-exhausting crash storms,
slow-morsel delays with and without deadlines — interleaved with pings,
followed by targeted scenarios the concurrent sweep cannot express:

* **circuit breaking** — consecutive doomed cold builds of one relation
  open its circuit; the next probe sheds with a typed ``CircuitOpen``;
  after the decay window a half-open trial succeeds and closes it;
* **mid-stream disconnect** — a raw client reads one chunk and aborts
  the connection; the server must cancel the remaining morsels, release
  the admission slot, and stay live;
* **worker kill** (parallel backend only) — a pool worker is
  SIGKILLed mid-sweep; self-healing respawns it and answers stay
  bit-identical.

The resilience contract under every injected fault: a request either
streams a **bit-identical** answer (checked against a direct in-process
pipeline run) or fails with a **typed** error (``DeadlineExceeded``,
``CircuitOpen``, ``UnrecoveredFaultError``, ...) — never a hung
connection, never a dead daemon.  The post-sweep ``health`` probe must
report every worker live, every circuit closed, and zero in-flight
requests.  :func:`serve_source` makes this the ``serve`` source of the
one chaos runner (:func:`repro.faults.chaos.run_checks`); the post-storm
health payload rides in its ``chaos-checks.json`` artifact.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Dict, List, Optional

from repro.faults.chaos import Checks, Source
from repro.serve.client import ProbeReply, ServeClient
from repro.serve.engine import ServeEngine
from repro.serve.protocol import encode_message
from repro.serve.server import ServeServer
from repro.serve.smoke import direct_summary, workload_specs

#: Morsel size of every chaos probe: small enough that the default-sized
#: probe side streams several chunks (slow faults and disconnects need
#: morsel boundaries to land on).
CHAOS_MORSEL_TUPLES = 1024

#: Seconds an open circuit waits before half-open, in the chaos server.
CHAOS_CIRCUIT_RESET_SECONDS = 0.2

#: The per-request fault scripts the concurrent sweep cycles through.
SCRIPTS = ("clean", "crash", "doomed", "slow", "slow-deadline")


def _script_fields(script: str, rng: random.Random,
                   n_morsels: int) -> Dict[str, object]:
    """The probe kwargs one script adds (faults and/or deadline)."""
    if script == "clean":
        return {}
    if script == "crash":
        return {"faults": [{"kind": "worker-crash", "point": "task",
                            "occurrence": rng.randint(1, n_morsels)}]}
    if script == "doomed":
        return {"faults": [{"kind": "worker-crash", "point": "task",
                            "occurrence": rng.randint(1, n_morsels),
                            "repeat": 9}]}
    if script == "slow":
        # A seeded delay with no deadline: priced, charged, harmless.
        return {"faults": [{"kind": "slow", "point": "slow",
                            "occurrence": rng.randint(1, n_morsels),
                            "seconds": 0.5}]}
    # slow-deadline: a 10-simulated-second morsel against a 50ms budget —
    # the charge alone trips the deadline, no wall-clock sleeping, so the
    # outcome is deterministic on any machine.
    return {"faults": [{"kind": "slow", "point": "slow",
                        "occurrence": 1, "seconds": 10.0}],
            "deadline_ms": 50.0}


def _expected(script: str) -> Optional[str]:
    """Error kind a script must produce (None = must succeed)."""
    return {"doomed": "UnrecoveredFaultError",
            "slow-deadline": "DeadlineExceeded"}.get(script)


def _check_reply(checks: Checks, label: str, script: str,
                 reply: ProbeReply, want_summary: Dict[str, int]) -> None:
    """One reply against the bit-identical-or-typed-error contract."""
    want_error = _expected(script)
    if want_error is None:
        ok = reply.ok and reply.summary == want_summary
        detail = (f"type={reply.response.get('type')} "
                  f"summary={reply.summary}")
        if script in ("crash", "slow") and reply.ok:
            reports = reply.result.get("faults", [])
            ok = ok and len(reports) == 1 and reports[0].get("recovered")
            detail += f" reports={len(reports)}"
        checks.record(f"{label} [{script}] bit-identical answer", ok, detail)
    else:
        checks.record(
            f"{label} [{script}] typed {want_error}",
            (reply.error or {}).get("kind") == want_error,
            str(reply.error or reply.response.get("type")))


async def _client_worker(checks: Checks, port: int, relation: str,
                         probe_spec: Dict, jobs: List[Dict],
                         want_summary: Dict[str, int],
                         client_id: int) -> None:
    """One concurrent client: its share of the sweep, pings interleaved."""
    client = ServeClient(port=port)
    await client.connect()
    try:
        for i, job in enumerate(jobs):
            reply = await client.probe(
                relation, probe_spec,
                morsel_tuples=CHAOS_MORSEL_TUPLES,
                trace_id=f"chaos-c{client_id}-{i}", **job["fields"])
            _check_reply(checks, f"c{client_id}-{i}", job["script"], reply,
                         want_summary)
            if i % 3 == 0:
                pong = await client.ping()
                checks.record(f"c{client_id}-{i} daemon answers ping",
                              pong.get("type") == "pong",
                              str(pong.get("type")))
    finally:
        await client.close()


async def _disconnect_scenario(checks: Checks, server: ServeServer,
                               relation: str, probe_spec: Dict) -> None:
    """A raw client that reads one chunk, then aborts the connection."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    # Minimum-size morsels: enough chunks that the request is guaranteed
    # to still be in flight when the abort lands, on any backend.
    writer.write(encode_message({
        "op": "probe", "request_id": "chaos-disconnect",
        "relation_id": relation, "probe": probe_spec,
        "morsel_tuples": 64,
        "trace_id": "chaos-disconnect"}))
    await writer.drain()
    first = await asyncio.wait_for(reader.readline(), timeout=30.0)
    checks.record("disconnector received its first chunk",
                  b'"chunk"' in first, str(first[:80]))
    writer.transport.abort()  # RST: the next server write must fail
    # The server must notice, cancel the rest, and free the slot.
    for _ in range(200):
        if (server.disconnects >= 1
                and server.engine.admission.inflight == 0):
            break
        await asyncio.sleep(0.05)
    checks.record("disconnect cancelled the request and freed its slot",
                  server.disconnects >= 1
                  and server.engine.admission.inflight == 0,
                  f"disconnects={server.disconnects} "
                  f"inflight={server.engine.admission.inflight}")


async def _circuit_scenario(checks: Checks, client: ServeClient,
                            relation: str, probe_spec: Dict,
                            threshold: int,
                            want_summary: Dict[str, int]) -> None:
    """Doomed cold builds open the circuit; decay + clean probe closes it."""
    doom = [{"kind": "capacity-overflow", "point": "capacity", "repeat": 9}]
    for i in range(threshold):
        reply = await client.probe(relation, probe_spec, faults=doom,
                                   morsel_tuples=CHAOS_MORSEL_TUPLES,
                                   trace_id=f"chaos-circuit-doom-{i}")
        checks.record(
            f"failing cold build #{i + 1} surfaces typed error",
            (reply.error or {}).get("kind") == "UnrecoveredFaultError",
            str(reply.error))
    shed = await client.probe(relation, probe_spec,
                              morsel_tuples=CHAOS_MORSEL_TUPLES,
                              trace_id="chaos-circuit-shed")
    checks.record("open circuit sheds with typed CircuitOpen",
                  (shed.error or {}).get("kind") == "CircuitOpen",
                  str(shed.error))
    checks.record("CircuitOpen carries retry_in_seconds",
                  "retry_in_seconds" in (shed.error or {}).get("context", {}),
                  str((shed.error or {}).get("context")))
    await asyncio.sleep(CHAOS_CIRCUIT_RESET_SECONDS + 0.05)
    trial = await client.probe(relation, probe_spec,
                               morsel_tuples=CHAOS_MORSEL_TUPLES,
                               trace_id="chaos-circuit-trial")
    checks.record("half-open trial closes the circuit with a clean build",
                  trial.ok and trial.summary == want_summary,
                  f"type={trial.response.get('type')} "
                  f"summary={trial.summary}")


def _maybe_engage_pool():
    """The live worker pool under the parallel backend, else None."""
    from repro.exec.backend import PARALLEL, current_backend
    from repro.exec.parallel.pool import availability, get_pool
    if current_backend() != PARALLEL or not availability()[0]:
        return None
    pool = get_pool()
    return pool if pool.uses_processes else None


async def _scenario(checks: Checks, n: int, theta: float, seed: int,
                    clients: int, requests: int) -> Dict:
    rng = random.Random(seed)
    engine = ServeEngine(
        circuit_reset_seconds=CHAOS_CIRCUIT_RESET_SECONDS)
    server = ServeServer(engine=engine, drain_seconds=2.0)
    await server.start()
    serve_loop = asyncio.ensure_future(server.serve_until_shutdown())
    control = ServeClient(port=server.port)
    await control.connect()
    hot, flaky = "chaos-hot", "chaos-flaky"
    build_spec, probe_spec = workload_specs("zipf", n, seed, theta=theta)
    flaky_build, flaky_probe = workload_specs("uniform", max(n // 4, 256),
                                              seed + 1)
    n_morsels = -(-n // CHAOS_MORSEL_TUPLES)
    try:
        await control.register(hot, build_spec)
        await control.register(flaky, flaky_build)

        # Ground truth from a direct in-process pipeline run.
        want = direct_summary(build_spec, probe_spec)
        flaky_want = direct_summary(flaky_build, flaky_probe)
        baseline = await control.probe(hot, probe_spec,
                                       morsel_tuples=CHAOS_MORSEL_TUPLES,
                                       trace_id="chaos-baseline")
        checks.record("baseline probe matches the direct run",
                      baseline.ok and baseline.summary == want,
                      f"{baseline.summary} vs {want}")

        # Concurrent sweep: seeded scripts spread over M clients.
        jobs: List[List[Dict]] = [[] for _ in range(clients)]
        for i in range(requests):
            script = SCRIPTS[i % len(SCRIPTS)]
            jobs[i % clients].append(
                {"script": script,
                 "fields": _script_fields(script, rng, n_morsels)})
        pool = _maybe_engage_pool()
        sweep = asyncio.gather(*[
            _client_worker(checks, server.port, hot, probe_spec,
                           jobs[c], want, c)
            for c in range(clients)])
        if pool is not None:
            # Kill one real worker mid-sweep; self-healing must absorb it.
            await asyncio.sleep(0.05)
            killed = pool.kill_worker(0)
            checks.record("chaos killed a live pool worker",
                          killed is not None, str(killed))
        await sweep

        # Targeted scenarios the sweep cannot express.
        await _circuit_scenario(checks, control, flaky, flaky_probe,
                                engine.cache.circuit_threshold, flaky_want)
        await _disconnect_scenario(checks, server, hot, probe_spec)

        # The daemon must still be fully live after the whole storm.
        checks.record("daemon answers ping after the storm",
                      (await control.ping()).get("type") == "pong")
        health = await control.health()
        workers = health.get("workers", {})
        checks.record(
            "post-sweep health: every worker live",
            not workers.get("processes")
            or workers.get("alive") == workers.get("workers"),
            str(workers))
        checks.record("post-sweep health: all circuits closed",
                      health["metrics"]["serve.health.open_circuits"] == 0,
                      str(health.get("circuits")))
        checks.record("post-sweep health: zero in-flight requests",
                      health["metrics"]["serve.health.inflight"] == 0,
                      str(health["metrics"]))
        checks.record("post-sweep health verdict is ok",
                      health.get("ok") is True, json.dumps(health))
        bye = await control.shutdown()
        checks.record("shutdown answers bye", bye.get("type") == "bye")
    finally:
        await control.close()
        await server.close()
        await serve_loop
    return {"theta": theta, "clients": clients, "requests": requests,
            "health": health}


def serve_source(tuples: int = 8192, theta: float = 1.0, seed: int = 7,
                 clients: int = 4, requests: int = 20) -> Source:
    """The storm against an in-process daemon; its extra artifact payload
    is the post-storm ``health``."""
    def scenario(checks: Checks) -> Dict:
        return asyncio.run(_scenario(checks, tuples, theta, seed,
                                     max(1, clients), max(1, requests)))

    return Source("serve", seed, tuples, scenario)
