"""End-to-end smoke scenario for the join service (the serve-smoke CI job).

One call to :func:`run_smoke` boots a real daemon on a loopback socket
and drives the full serving contract through an actual client
connection:

1. **overlapping cold probes** — two concurrent requests race on the
   same cold cache key; the build must run exactly once (single flight)
   and both answers must be identical;
2. **warm cache hit** — a third probe must skip the build phase (no
   ``build`` span, ``serve.cache_hit == 1``) and stream the exact same
   chunks;
3. **bit-identity** — the served answer must match a direct in-process
   pipeline run on the same seeded relations;
4. **fault surface** — a recovered injected crash changes nothing about
   the answer; an unrecoverable one comes back as a typed error, not a
   dead connection;
5. **admission** — an over-budget probe is refused with a typed
   :class:`~repro.errors.AdmissionError` payload;
6. **artifact** — the server's JSONL trace file reloads into full
   :class:`~repro.exec.result.JoinResult` records, one per completed
   probe.

:func:`run_smoke` is the ``smoke`` source of the one chaos runner
(:func:`repro.faults.chaos.run_checks`): exit status 0 means every check
passed; failures are listed on stdout.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.data.relation import JoinInput
from repro.exec.serialize import results_from_jsonl_file
from repro.faults.chaos import Checks, Source, run_checks
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.engine import ServeEngine
from repro.serve.protocol import relation_from_spec
from repro.serve.server import ServeServer


def _smoke_max_morsels(n: int) -> int:
    """Morsel budget of the smoke server: roomy for default-sized probes,
    but half of what a 64-tuple morsel probe of ``n`` tuples needs — so
    check 5 can exceed it with a legitimate relation size, whatever
    ``n`` the run uses (n >= 128)."""
    return max(1, (n // 64) // 2)


def workload_specs(generator: str, n: int, seed: int,
                   **params) -> Tuple[Dict, Dict]:
    """(build, probe) relation specs of one seeded workload."""
    spec = {"generator": generator, "n": n, "seed": seed, **params}
    return dict(spec, side="r"), dict(spec, side="s")


def direct_summary(build_spec: Dict, probe_spec: Dict) -> Dict[str, int]:
    """The served-answer summary of a direct in-process cbase run."""
    from repro.api import make_join

    result = make_join("cbase").run(JoinInput(
        r=relation_from_spec(build_spec), s=relation_from_spec(probe_spec)))
    return {"count": result.output_count,
            "checksum": result.output_checksum}


async def _scenario(checks: Checks, n: int, theta: float, seed: int,
                    trace_path: Optional[Path]) -> None:
    engine = ServeEngine(
        admission=AdmissionController(max_morsels=_smoke_max_morsels(n)))
    server = ServeServer(engine=engine, trace_path=trace_path)
    await server.start()
    serve_loop = asyncio.ensure_future(server.serve_until_shutdown())
    client = ServeClient(port=server.port)
    await client.connect()
    relation = "smoke"
    build_spec, probe_spec = workload_specs("zipf", n, seed, theta=theta)
    try:
        pong = await client.ping()
        checks.equal("ping answers pong", pong.get("type"), "pong")

        registered = await client.register(relation, build_spec)
        checks.equal("relation registers at version 1",
                     registered.get("version"), 1)

        # 1. Overlapping cold probes: single-flight build, identical answers.
        cold_a, cold_b = await asyncio.gather(
            client.probe(relation, probe_spec, trace_id="smoke-cold-a"),
            client.probe(relation, probe_spec, trace_id="smoke-cold-b"))
        checks.record("both overlapping cold probes answer",
                      cold_a.ok and cold_b.ok,
                      f"{cold_a.response.get('type')} / "
                      f"{cold_b.response.get('type')}")
        stats = await client.stats()
        checks.equal("overlapping cold probes build exactly once",
                     stats["cache"]["builds"], 1)
        checks.record(
            "one cold probe piggybacked on the in-flight build",
            stats["cache"]["build_waits"] == 1
            and not (cold_a.cache_hit or cold_b.cache_hit),
            f"build_waits={stats['cache']['build_waits']}")
        summary_a, summary_b = cold_a.summary, cold_b.summary
        checks.equal("overlapping answers are bit-identical",
                     summary_a, summary_b)
        cold = cold_a if not cold_a.result["meta"].get("build_shared") \
            else cold_b
        checks.equal("the building probe carries the build phase",
                     [p["name"] for p in cold.result["phases"]],
                     ["build", "probe"])

        # 2. Warm cache hit: no build span, cache-hit metric set.
        warm = await client.probe(relation, probe_spec,
                                  trace_id="smoke-warm")
        checks.record("warm probe is a cache hit", warm.cache_hit,
                      str(warm.response.get("type")))
        checks.equal("warm probe skips the build phase entirely",
                     [p["name"] for p in warm.result["phases"]], ["probe"])
        warm_metrics = warm.result["trace"]["metrics"]
        checks.equal("warm trace reports serve.cache_hit == 1",
                     warm_metrics.get("serve.cache_hit", {}).get("value"), 1)
        checks.record("warm trace reports no cache miss",
                      "serve.cache_miss" not in warm_metrics
                      or warm_metrics["serve.cache_miss"]["value"] == 0,
                      str(warm_metrics.get("serve.cache_miss")))
        checks.equal("warm answer matches the cold answer",
                     warm.summary, summary_a)
        strip = [
            {k: c[k] for k in ("index", "tuples", "count", "checksum")}
            for c in warm.chunks]
        strip_cold = [
            {k: c[k] for k in ("index", "tuples", "count", "checksum")}
            for c in cold_a.chunks]
        checks.equal("warm streamed chunks identical to cold",
                     strip, strip_cold)

        # 3. Bit-identity against a direct in-process pipeline run.
        checks.equal(
            "served answer bit-identical to a direct cbase run",
            summary_a, direct_summary(build_spec, probe_spec))

        # 4a. Recovered injected fault: same answer, fault report attached.
        faulty = await client.probe(
            relation, probe_spec, trace_id="smoke-fault",
            faults=[{"kind": "worker-crash", "point": "task"}])
        checks.record("probe with an injected crash still answers",
                      faulty.ok, str(faulty.response.get("type")))
        if faulty.ok:
            checks.equal("recovered-fault answer is bit-identical",
                         faulty.summary, summary_a)
            reports = faulty.result.get("faults", [])
            checks.record(
                "recovered fault is reported on the result",
                len(reports) == 1 and reports[0].get("recovered") is True,
                str(reports))

        # 4b. Unrecoverable fault: typed error, connection survives.
        doomed = await client.probe(
            relation, probe_spec, trace_id="smoke-doomed",
            faults=[{"kind": "worker-crash", "point": "task", "repeat": 9}])
        checks.record(
            "exhausted retries surface as a typed error",
            (doomed.error or {}).get("kind") == "UnrecoveredFaultError",
            str(doomed.response.get("type")))
        checks.record(
            "the typed error carries the failure report",
            bool((doomed.error or {}).get("report", {}).get("retries")),
            str(doomed.error))

        # 5. Admission control: an over-budget probe is refused, typed.
        refused = await client.probe(relation, probe_spec, morsel_tuples=64,
                                     trace_id="smoke-refused")
        checks.record(
            "over-budget probe refused with AdmissionError",
            (refused.error or {}).get("kind") == "AdmissionError",
            str(refused.response.get("type")))
        checks.record("connection survives refusals and typed errors",
                      (await client.ping()).get("type") == "pong")

        # 6. Unknown relation: typed ServeError.
        missing = await client.probe("no-such-relation", probe_spec)
        checks.record(
            "unknown relation answers a typed ServeError",
            (missing.error or {}).get("kind") == "ServeError",
            str(missing.response.get("type")))

        stats = await client.stats()
        checks.equal("stats counts the completed probes",
                     stats["completed"], 4)
        checks.record("stats counts cache hits",
                      stats["cache"]["hits"] >= 3,
                      str(stats["cache"]))
        bye = await client.shutdown()
        checks.equal("shutdown answers bye", bye.get("type"), "bye")
    finally:
        await client.close()
        await server.close()
        await serve_loop

    if trace_path is not None:
        loaded = results_from_jsonl_file(trace_path)
        checks.equal("JSONL trace artifact holds one line per answer",
                     len(loaded), 4)
        checks.record(
            "trace artifact lines reload as full results with traces",
            all(r.trace is not None and r.meta.get("served")
                for r in loaded),
            str([r.algorithm for r in loaded]))


def run_smoke(n: int = 4096, theta: float = 1.0, seed: int = 42,
              trace_out: Optional[Union[str, Path]] = None) -> int:
    """Run the scenario; returns a process exit code (0 = all green)."""
    trace_path = Path(trace_out) if trace_out else None
    if trace_path is not None and trace_path.exists():
        trace_path.unlink()

    def scenario(checks: Checks) -> None:
        asyncio.run(_scenario(checks, n, theta, seed, trace_path))

    return run_checks("serve smoke", Source("smoke", seed, n, scenario))
