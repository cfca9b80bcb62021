"""The ``serve-mix`` workload: the join daemon under a seeded request mix.

The daemon (``perf/daemon.py``, i.e. ``repro serve``) runs in its own
process; this process is its only client, over two connections.  The mix
is 95% probes (a fresh zipf probe side each) and 5% writes that register
a new version of the build relation, so the next probe builds cold.

* Reference step, open loop: requests leave on a seeded Poisson schedule
  at :data:`RATE`, whether or not earlier ones have finished, and each
  latency is timed from the request's *scheduled* send time, so a stall
  also charges the requests queued behind it.  The generator's own
  lateness is reported; when more than 1% of sends left over
  :data:`MAX_GEN_LAG_S` late the run is invalid, since client stalls
  would then show up as server latency.  (One late send cannot move the
  p90; a stalled generator can.)
* Saturation step, closed loop: each connection sends its next request
  as soon as the previous one is answered; probe tuples joined per second
  is the daemon's throughput at full load.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
from stats import percentile
from workloads import (PINNED_SEED, SERVE_LAYERS, TUPLE_BYTES, answer,
                       load_expected, peak_rss_mib, phase_metrics)

NAME = "serve-mix"
PERF_DIR = Path(__file__).resolve().parent

RATE = 20.0
#: Every n-th request is a write (5%); a fixed share keeps the number of
#: cold builds per run independent of the seed.
WRITE_EVERY = 20
BUILD_TUPLES = 1 << 16
PROBE_TUPLES = 4096
THETA = 0.5
CONNECTIONS = 2
#: Share of ``--seconds`` given to the reference step; the saturation
#: step gets the rest.  Trace runs spend it all on the reference step.
REFERENCE_SHARE = 0.75
#: Untimed probes first (fewer than WRITE_EVERY, so all are probes).
WARMUP_PROBES = 5
#: Every n-th served probe is re-joined directly and compared.
CHECK_EVERY = 20
MAX_GEN_LAG_S = 0.020
RELATION_ID = "R"
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 15.0


def build_spec(seed: int) -> Dict:
    return {"generator": "zipf", "n": BUILD_TUPLES, "theta": THETA,
            "seed": seed, "side": "r"}


def probe_spec(seed: int) -> Dict:
    return {"generator": "zipf", "n": PROBE_TUPLES, "theta": THETA,
            "seed": seed, "side": "s"}


@dataclass
class Request:
    index: int
    kind: str  # "probe" or "write"
    seed: int
    scheduled: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    reply: object = None  # ProbeReply for probes, the response for writes
    error: Optional[str] = None

    @property
    def trace_id(self) -> str:
        return f"p{self.index}"

    @property
    def latency_s(self) -> float:
        """From the scheduled send: a late send counts against the request."""
        return self.done - self.scheduled

    @property
    def service_s(self) -> float:
        """From the actual send."""
        return self.done - self.sent

    @property
    def ok_probe(self) -> bool:
        return self.kind == "probe" and self.error is None


class RequestPlan:
    """The seeded request stream: kinds, data seeds and Poisson gaps."""

    def __init__(self, seed: int):
        self.base = seed << 20
        self._gaps = random.Random(seed)
        self._count = 0

    def next(self) -> Request:
        self._count += 1
        kind = "write" if self._count % WRITE_EVERY == 0 else "probe"
        return Request(self._count, kind, self.base + self._count)

    def gap(self) -> float:
        return self._gaps.expovariate(RATE)


async def _send(client, versions: Dict[int, int], req: Request,
                 clock=time.perf_counter) -> None:
    req.sent = clock()
    try:
        if req.kind == "write":
            response = await client.register(RELATION_ID,
                                             build_spec(req.seed))
            req.reply = response
            if response.get("type") == "registered":
                versions[int(response["version"])] = req.seed
            else:
                req.error = f"register failed: {response.get('error')}"
        else:
            reply = await client.probe(RELATION_ID, probe_spec(req.seed),
                                       trace_id=req.trace_id)
            req.reply = reply
            if not reply.ok:
                req.error = f"probe failed: {reply.error}"
    except Exception as exc:  # one failed request; the load goes on
        req.error = f"{type(exc).__name__}: {exc}"
    req.done = clock()


async def open_loop(clients, plan: RequestPlan, versions: Dict[int, int],
                    seconds: float, clock=time.perf_counter,
                    sleep=asyncio.sleep) -> Tuple[List[Request], List[float]]:
    """Send on the seeded schedule for ``seconds``; returns the requests
    and the generator's lateness per send."""
    start = due = clock()
    requests: List[Request] = []
    lags: List[float] = []
    tasks = []
    while True:
        due += plan.gap()
        if due > start + seconds:
            break
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        lags.append(max(0.0, clock() - due))
        req = plan.next()
        req.scheduled = due
        requests.append(req)
        tasks.append(asyncio.ensure_future(_send(
            clients[len(requests) % len(clients)], versions, req, clock)))
    await asyncio.gather(*tasks)
    return requests, lags


async def closed_loop(clients, plan: RequestPlan, versions: Dict[int, int],
                      seconds: float) -> Tuple[List[Request], float]:
    """Each connection sends its next request when the last is answered."""
    start = time.perf_counter()
    requests: List[Request] = []

    async def caller(client):
        while time.perf_counter() < start + seconds:
            req = plan.next()
            req.scheduled = time.perf_counter()
            requests.append(req)
            await _send(client, versions, req)

    await asyncio.gather(*(caller(c) for c in clients))
    return requests, time.perf_counter() - start


async def _start_daemon(out: Path, spans_path: Optional[Path]):
    command = [sys.executable, str(PERF_DIR / "daemon.py")]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    command += ["--", "serve", "--host", "127.0.0.1", "--port", "0"]
    with open(out / f"{NAME}.daemon.log", "w") as log:
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=log)
    return proc


async def _daemon_port(proc) -> int:
    line = await asyncio.wait_for(proc.stdout.readline(),
                                  DAEMON_START_TIMEOUT_S)
    text = line.decode()
    if "listening on" not in text:
        raise RuntimeError(f"daemon did not start: {text!r}")
    return int(text.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])


async def _stop_daemon(proc, clients) -> None:
    """Shut the daemon down over the protocol, else terminate, else kill."""
    try:
        if clients and proc.returncode is None:
            await asyncio.wait_for(clients[0].shutdown(),
                                   DAEMON_STOP_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError):
        pass
    for client in clients:
        await client.close()
    try:
        await asyncio.wait_for(proc.communicate(), DAEMON_STOP_TIMEOUT_S)
    except asyncio.TimeoutError:
        proc.terminate()
        try:
            await asyncio.wait_for(proc.wait(), DAEMON_STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


def _served_answer(reply) -> List:
    result = reply.result
    return answer(result["output_count"], result["output_checksum"],
                  sum(p["simulated_seconds"] for p in result["phases"]))


def _check(requests: List[Request], versions: Dict[int, int]
           ) -> Tuple[int, List[str]]:
    """(failed requests, problems): errors, replies whose streamed chunks
    disagree with their result line, and every ``CHECK_EVERY``-th probe
    re-joined directly with cbase-npj on the R version it reports."""
    from repro import make_join
    from repro.cpu.no_partition_join import NoPartitionConfig
    from repro.data.relation import JoinInput
    from repro.serve.protocol import relation_from_spec

    # One simulated thread: the answer does not depend on the thread
    # count, and a single probe segment indexes the build side once.
    direct_join = make_join("cbase-npj", NoPartitionConfig(n_threads=1))

    build_sides = {}
    failed, problems = 0, []
    probes = [r for r in requests if r.ok_probe]
    for req in requests:
        if req.error is not None:
            failed += 1
            problems.append(f"request {req.index}: {req.error}")
    for position, req in enumerate(probes):
        streamed = req.reply.summary
        got = _served_answer(req.reply)
        wrong = [streamed["count"], streamed["checksum"]] != got[:2]
        if not wrong and position % CHECK_EVERY == 0:
            version = req.reply.result["meta"]["version"]
            if version not in versions:
                problems.append(f"probe {req.index}: reply names unknown "
                                f"R version {version}")
                failed += 1
                continue
            if version not in build_sides:
                build_sides[version] = relation_from_spec(
                    build_spec(versions[version]))
            direct = direct_join.run(JoinInput(
                r=build_sides[version],
                s=relation_from_spec(probe_spec(req.seed))))
            wrong = [direct.output_count, direct.output_checksum] != got[:2]
        if wrong:
            failed += 1
            problems.append(f"probe {req.index}: served answer {got[:2]} "
                            "is wrong")
    return failed, problems


def run_serve(seed: int, seconds: float, mode: str, out: Path,
              launched: float) -> Dict:
    return asyncio.run(_run(seed, seconds, mode, out, launched))


async def _run(seed: int, seconds: float, mode: str, out: Path,
               launched: float) -> Dict:
    from repro.serve.client import ServeClient

    spans_path = out / f"{NAME}.daemon-spans.json" if mode == "trace" \
        else None
    proc = await _start_daemon(out, spans_path)
    clients = []
    try:
        port = await _daemon_port(proc)
        for _ in range(CONNECTIONS):
            clients.append(await ServeClient(port=port).connect())
        plan = RequestPlan(seed)
        versions: Dict[int, int] = {}
        first = await clients[0].register(RELATION_ID, build_spec(plan.base))
        versions[int(first["version"])] = plan.base
        setup_end = time.perf_counter()
        report: Dict = {"setup_s": setup_end - launched}
        if mode == "setup":
            return report
        warmup = [plan.next() for _ in range(WARMUP_PROBES)]
        for req in warmup:
            await _send(clients[0], versions, req)
        ref_seconds = seconds if mode == "trace" else seconds * REFERENCE_SHARE
        # A full collection here takes ~10 ms, long enough to make the
        # generator late; this process collects after the measured steps.
        gc.disable()
        ref_start = time.perf_counter()
        reference, lags = await open_loop(clients, plan, versions,
                                          ref_seconds)
        ref_end = time.perf_counter()
        saturation, sat_seconds = [], 0.0
        if mode == "measure":
            saturation, sat_seconds = await closed_loop(
                clients, plan, versions, seconds - ref_seconds)
        rss = peak_rss_mib(proc.pid)
    finally:
        gc.enable()
        await _stop_daemon(proc, clients)

    failed, problems = _check(reference + saturation, versions)
    problems += [f"warm-up request {r.index}: {r.error}"
                 for r in warmup if r.error is not None]
    seen = {"cold": _served_answer(warmup[0].reply)
            if warmup[0].ok_probe else None,
            "warm": _served_answer(warmup[1].reply)
            if warmup[1].ok_probe else None}
    if seed == PINNED_SEED and load_expected()[NAME] != seen:
        problems.append(f"warm-up answers {seen} != pinned "
                        f"{load_expected()[NAME]} in expected.json")
        failed = len(reference) + len(saturation)
    lag_p99_ms = percentile(lags, 99) * 1e3
    if lag_p99_ms > MAX_GEN_LAG_S * 1e3:
        problems.append(f"invalid run: 1% of sends left over "
                        f"{lag_p99_ms:.1f} ms late (limit "
                        f"{MAX_GEN_LAG_S * 1e3:.0f} ms)")
    probes = [r for r in reference if r.ok_probe]
    writes = [r for r in reference if r.kind == "write" and r.error is None]
    cold = [r for r in probes if not r.reply.cache_hit]
    report.update(
        attempted=len(reference) + len(saturation), failed=failed,
        problems=problems, answers=seen, ops=len(probes),
        extras={
            "gen_lag_ms.max": max(lags) * 1e3,
            "gen_lag_ms.p99": lag_p99_ms,
            "cold_probe_ms.p50": _p50_ms(cold),
            "register_ms.p50": _p50_ms(writes),
            "reference_requests": len(reference),
            "saturation_requests": len(saturation),
        })
    if mode == "measure":
        sat_probes = sum(1 for r in saturation if r.ok_probe)
        report["metrics"] = {
            "op_ms.p50": percentile([r.latency_s for r in probes], 50) * 1e3,
            "op_ms.p90": percentile([r.latency_s for r in probes], 90) * 1e3,
            "tuples_per_s": PROBE_TUPLES * sat_probes / sat_seconds,
            "peak_rss_mib": rss,
        }
    else:
        report.update(_trace_report(spans_path, reference, probes, setup_end,
                                    ref_start, ref_end, out))
    return report


def _p50_ms(requests: List[Request]) -> Optional[float]:
    if not requests:
        return None
    return statistics.median(r.latency_s for r in requests) * 1e3


def _trace_report(spans_path: Path, reference: List[Request],
                  probes: List[Request], setup_end: float, ref_start: float,
                  ref_end: float, out: Path) -> Dict:
    with open(spans_path) as fh:
        daemon = json.load(fh)
    spans_path.unlink()
    spans = [layers.Span._make(s) for s in daemon["spans"]]
    window = layers.in_window(spans, [r.trace_id for r in probes],
                              ref_start, ref_end)
    n_ops = len(reference)
    metrics = layers.layer_metrics(
        spans, window, n_ops, (BUILD_TUPLES + PROBE_TUPLES) * TUPLE_BYTES,
        daemon["wrapper_seconds"], setup_end)
    phase_wall: Dict[str, float] = {}
    for req in probes:
        for phase in req.reply.result["phases"]:
            phase_wall[phase["name"]] = (phase_wall.get(phase["name"], 0.0)
                                         + phase["wall_seconds"])
    metrics.update(phase_metrics(phase_wall, n_ops))
    engine = {s.op: s.end - s.start for s in window
              if s.name == layers.REQUEST_SPAN}
    outside = [r.service_s - engine[r.trace_id] for r in probes
               if r.trace_id in engine]
    metrics["serve.outside_engine_ms"] = (statistics.median(outside) * 1e3
                                          if outside else 0.0)
    client = [layers.Span(r.index, None, f"client.{r.kind}", r.sent, r.done,
                          r.trace_id if r.kind == "probe" else None, None,
                          True) for r in reference]
    path = out / f"{NAME}.spans.jsonl"
    layers.write_spans(spans, path, process="daemon")
    layers.write_spans(client, path, mode="a", process="client")
    return {"metrics": metrics,
            "trace_problems": layers.check_trace(NAME, SERVE_LAYERS, window,
                                                 metrics)}
