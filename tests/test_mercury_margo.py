"""Tests for Mercury RPC and Margo providers."""

import numpy as np
import pytest

from repro.margo import MargoInstance, Provider
from repro.mercury import MercuryInstance, RpcError, RpcTimeout, RpcUnknown
from repro.na import Fabric, VirtualPayload
from repro.sim import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


# ---------------------------------------------------------------------------
# Mercury
def test_rpc_roundtrip(sim, fabric):
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)

    def double(hg, x):
        yield hg.sim.timeout(0.01)
        return x * 2

    server.register_rpc("double", double)
    got = []

    def caller(sim, client, server):
        result = yield from client.forward(server.address, "double", 21)
        got.append((result, sim.now))

    sim.spawn(caller(sim, client, server))
    sim.run()
    result, t = got[0]
    assert result == 42
    assert t > 0.01  # handler compute + two message transits


def test_rpc_unknown(sim, fabric):
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)
    got = []

    def caller(sim, client, server):
        try:
            yield from client.forward(server.address, "nope")
        except RpcUnknown:
            got.append("unknown")

    sim.spawn(caller(sim, client, server))
    sim.run()
    assert got == ["unknown"]


def test_rpc_handler_error_propagates(sim, fabric):
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)

    def bad(hg, x):
        yield hg.sim.timeout(0)
        raise ValueError("broken handler")

    server.register_rpc("bad", bad)
    got = []

    def caller(sim, client, server):
        try:
            yield from client.forward(server.address, "bad")
        except RpcError as err:
            got.append(str(err))

    sim.spawn(caller(sim, client, server))
    sim.run()
    assert "broken handler" in got[0]
    assert not isinstance(got[0], RpcTimeout)


def test_rpc_timeout_on_dead_server(sim, fabric):
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)
    server.finalize()
    got = []

    def caller(sim, client, server_addr):
        try:
            yield from client.forward(server_addr, "anything", timeout=0.5)
        except RpcTimeout:
            got.append(sim.now)

    sim.spawn(caller(sim, client, server.address))
    sim.run()
    assert got == [pytest.approx(0.5)]


def test_rpc_that_beats_its_deadline_leaves_no_reference_cycle(sim, fabric, monkeypatch):
    """The reply-or-deadline race of ``forward`` is gone once the caller
    has resumed — with the cyclic collector off, so by reference count
    alone. The cancelled deadline timer used to keep the race's
    callback, and the race kept the reply event and its message."""
    import gc
    import weakref

    import repro.mercury.rpc as rpc_module
    from repro.sim import AnyOf

    class Tracked(AnyOf):
        __slots__ = ("__weakref__",)

    races = []

    def tracked(*args):
        race = Tracked(*args)
        races.append(weakref.ref(race))
        return race

    monkeypatch.setattr(rpc_module, "AnyOf", tracked)
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)

    def echo(_hg, value):
        return value
        yield

    server.register_rpc("echo", echo)
    got = []

    def caller():
        got.append((yield from client.forward(server.address, "echo", 7, timeout=1.0)))

    gc.disable()
    try:
        sim.spawn(caller())
        sim.run()
        assert len(races) == 1 and races[0]() is None
    finally:
        gc.enable()
    assert got == [7]
    assert sim.now < 1.0 and sim.queue_stats()["cancels"] == 1


def test_rpc_concurrent_handlers_interleave(sim, fabric):
    """Two in-flight RPCs to the same server run concurrently."""
    server = MercuryInstance(sim, fabric, "server", 0)
    client = MercuryInstance(sim, fabric, "client", 1)

    def slow(hg, x):
        yield hg.sim.timeout(1.0)
        return x

    server.register_rpc("slow", slow)
    done = []

    def caller(sim, client, server, tag):
        result = yield from client.forward(server.address, "slow", tag)
        done.append((result, round(sim.now, 4)))

    sim.spawn(caller(sim, client, server, "a"))
    sim.spawn(caller(sim, client, server, "b"))
    sim.run()
    # Both finish ~1s + network, not ~2s (concurrent ULTs, not serialized).
    assert len(done) == 2
    assert all(t < 1.5 for _, t in done)


def test_rpc_large_input_costs_more_time(sim, fabric):
    def run_with_payload(payload):
        s = Simulation()
        f = Fabric(s)
        server = MercuryInstance(s, f, "server", 0)
        client = MercuryInstance(s, f, "client", 1)

        def echo(hg, x):
            yield hg.sim.timeout(0)
            return None

        server.register_rpc("echo", echo)
        t = {}

        def caller(s, client, server):
            yield from client.forward(server.address, "echo", payload)
            t["t"] = s.now

        s.spawn(caller(s, client, server))
        s.run()
        return t["t"]

    small = run_with_payload(b"x")
    big = run_with_payload(np.zeros(1 << 20, dtype=np.uint8))
    assert big > small


def test_forward_after_finalize_rejected(sim, fabric):
    client = MercuryInstance(sim, fabric, "client", 0)
    client.finalize()
    with pytest.raises(RpcError):
        # generator raises on first advance
        next(client.forward(client.address, "x"))
    client.finalize()  # idempotent


# ---------------------------------------------------------------------------
# Margo providers
class EchoProvider(Provider):
    def __init__(self, margo, name="echo"):
        super().__init__(margo, name)
        self.export("say", self.say)
        self.export("stage", self.stage)

    def say(self, input):
        yield self.margo.sim.timeout(0)
        return f"echo:{input}"

    def stage(self, handle):
        payload = yield self.margo.bulk_pull(handle)
        self.staged = payload
        return "staged"


def test_provider_namespacing(sim, fabric):
    server = MargoInstance(sim, fabric, "server", 0)
    client = MargoInstance(sim, fabric, "client", 1)
    EchoProvider(server, "echo-a")
    EchoProvider(server, "echo-b")
    got = []

    def caller(sim, client, server):
        a = yield from client.provider_call(server.address, "echo-a", "say", "hi")
        b = yield from client.provider_call(server.address, "echo-b", "say", "yo")
        got.extend([a, b])

    sim.spawn(caller(sim, client, server))
    sim.run()
    assert got == ["echo:hi", "echo:yo"]


def test_duplicate_provider_rejected(sim, fabric):
    server = MargoInstance(sim, fabric, "server", 0)
    EchoProvider(server, "echo")
    with pytest.raises(ValueError):
        EchoProvider(server, "echo")


def test_bulk_pull_via_provider_rpc(sim, fabric):
    """The Colza stage pattern: ship a MemoryHandle, server pulls."""
    server = MargoInstance(sim, fabric, "server", 0)
    client = MargoInstance(sim, fabric, "client", 1)
    provider = EchoProvider(server, "pipe")
    data = np.arange(64, dtype=np.float32)

    def caller(sim, client, server, data):
        handle = client.expose(data)
        result = yield from client.provider_call(server.address, "pipe", "stage", handle)
        assert result == "staged"

    sim.spawn(caller(sim, client, server, data))
    sim.run()
    assert np.array_equal(provider.staged, data)


def test_margo_compute_serializes_on_xstream(sim, fabric):
    margo = MargoInstance(sim, fabric, "proc", 0)
    ends = []

    def worker(margo, out):
        yield from margo.compute(1.0)
        out.append(margo.sim.now)

    margo.spawn(worker(margo, ends))
    margo.spawn(worker(margo, ends))
    sim.run()
    assert ends == [1.0, 2.0]


def test_margo_finalize_detaches_providers(sim, fabric):
    margo = MargoInstance(sim, fabric, "proc", 0)
    EchoProvider(margo, "echo")
    margo.finalize()
    assert margo.providers == {}
    assert margo.address.uri not in fabric._endpoints
    margo.finalize()  # idempotent


def test_virtual_payload_rpc(sim, fabric):
    """Virtual payloads flow through RPC/bulk like real ones."""
    server = MargoInstance(sim, fabric, "server", 0)
    client = MargoInstance(sim, fabric, "client", 1)
    provider = EchoProvider(server, "pipe")
    vp = VirtualPayload((1 << 22,), "uint8")  # 4 MiB virtual

    def caller(sim, client, server, vp):
        handle = client.expose(vp)
        yield from client.provider_call(server.address, "pipe", "stage", handle)

    sim.spawn(caller(sim, client, server, vp))
    sim.run()
    assert provider.staged is vp
