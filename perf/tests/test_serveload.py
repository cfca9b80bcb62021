import asyncio

import pytest

from repro.serve.client import ProbeReply
from serveload import Request, open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class FixedPlan:
    """Probes every 50 ms."""

    def __init__(self):
        self.count = 0

    def gap(self):
        return 0.05

    def next(self):
        self.count += 1
        return Request(self.count, "probe", self.count)


class FakeClient:
    def __init__(self, clock, service_s):
        self.clock = clock
        self.service_s = service_s

    async def probe(self, relation_id, spec, trace_id=""):
        self.clock.now += self.service_s
        return ProbeReply(response={"type": "result"})


def test_latency_is_timed_from_the_scheduled_send():
    clock = FakeClock()
    overshoot = {2: 0.030}  # the generator wakes 30 ms late for request 2
    wakes = []

    async def sleep(delay):
        wake_at = clock.now + delay
        await asyncio.sleep(0)  # let already-sent requests run
        wakes.append(None)
        clock.now = max(clock.now, wake_at) + overshoot.get(len(wakes), 0.0)

    client = FakeClient(clock, service_s=0.010)
    requests, lags = asyncio.run(open_loop(
        [client], FixedPlan(), {}, seconds=0.22, clock=clock, sleep=sleep))

    assert [r.scheduled for r in requests] == pytest.approx(
        [100.05, 100.10, 100.15, 100.20])
    assert lags == pytest.approx([0.0, 0.030, 0.0, 0.0])
    late = requests[1]
    assert late.sent - late.scheduled == pytest.approx(0.030)
    assert late.service_s == pytest.approx(0.010)
    assert late.latency_s == pytest.approx(0.040)
    assert all(r.error is None for r in requests)
    for r in requests:
        assert r.latency_s >= r.service_s
