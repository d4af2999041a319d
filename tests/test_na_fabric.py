"""Tests for the fabric: delivery, matching, FIFO, RDMA, payloads."""

import numpy as np
import pytest

from repro.na import Address, Fabric, MemoryHandle, NAError, VirtualPayload, get_cost_model, payload_nbytes
from repro.sim import AnyOf, Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


def make_pair(fabric, model="mona", nodes=(0, 1)):
    m = get_cost_model(model)
    a = fabric.register("a", nodes[0], m)
    b = fabric.register("b", nodes[1], m)
    return a, b


# ---------------------------------------------------------------------------
# addresses & payloads
def test_address_equality_ordering_hash():
    a1 = Address("na+sim://n0/a")
    a2 = Address("na+sim://n0/a")
    b = Address("na+sim://n0/b")
    assert a1 == a2 and hash(a1) == hash(a2)
    assert a1 < b and b > a1
    assert a1 != "na+sim://n0/a"
    assert Address.make("nid00001", "svc").uri == "na+sim://nid00001/svc"
    with pytest.raises(ValueError):
        Address("")
    with pytest.raises(AttributeError):
        a1.uri = "x"


def test_payload_nbytes_variants():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(b"12345") == 5
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(VirtualPayload((4, 4), "float32")) == 64
    assert payload_nbytes({"k": 1}) > 0  # pickled size


def test_virtual_payload_properties():
    vp = VirtualPayload((128, 128, 128), "int64")
    assert vp.size == 128**3
    assert vp.nbytes == 128**3 * 8
    scalar = VirtualPayload((), "float64")
    assert scalar.size == 1 and scalar.nbytes == 8


def test_virtual_payload_sizes_are_exact_python_ints():
    """``size`` / ``nbytes`` are ``math.prod`` of the shape: what the
    ``np.prod`` formula gave wherever that was right, and exact where
    int64 wrapped around."""

    def old_size(shape):
        return int(np.prod(shape)) if shape else 1

    shapes = [(), (0, 3), (7,), (128, 128, 121), (np.int64(64), np.int32(3), 5), tuple(np.array([4, 5]))]
    for shape in shapes:
        for dtype in ("uint8", "int32", "float64"):
            vp = VirtualPayload(shape, dtype)
            assert vp.size == old_size(shape)
            assert vp.nbytes == old_size(shape) * np.dtype(dtype).itemsize == payload_nbytes(vp)
            assert type(vp.size) is int and type(vp.nbytes) is int
    huge = VirtualPayload((1 << 31, 1 << 31, 4), "float64")
    with np.errstate(over="ignore"):
        assert old_size(huge.shape) == 0  # what int64 made of 2**64
    assert huge.size == 1 << 64 and huge.nbytes == 1 << 67


# ---------------------------------------------------------------------------
# send / recv
def test_send_recv_roundtrip(sim, fabric):
    a, b = make_pair(fabric)
    got = []

    def sender(sim, a, b):
        yield a.send(b.address, b"hello", tag=7)

    def receiver(sim, b, out):
        msg = yield b.recv(tag=7)
        out.append((msg.payload, msg.source, sim.now))

    sim.spawn(sender(sim, a, b))
    sim.spawn(receiver(sim, b, got))
    sim.run()
    payload, source, t = got[0]
    assert payload == b"hello"
    assert source == a.address
    assert t == pytest.approx(get_cost_model("mona").p2p_time(5), rel=1e-9)


def test_recv_before_send_and_after_send(sim, fabric):
    a, b = make_pair(fabric)
    got = []

    def receiver(sim, b, out):
        msg = yield b.recv()
        out.append(msg.payload)
        msg = yield b.recv()
        out.append(msg.payload)

    def sender(sim, a, b):
        yield a.send(b.address, "first")
        yield sim.timeout(1.0)
        yield a.send(b.address, "second")

    sim.spawn(receiver(sim, b, got))
    sim.spawn(sender(sim, a, b))
    sim.run()
    assert got == ["first", "second"]


def test_tag_and_source_matching(sim, fabric):
    m = get_cost_model("mona")
    a = fabric.register("a", 0, m)
    b = fabric.register("b", 0, m)
    c = fabric.register("c", 1, m)
    got = []

    def receiver(sim, c, out):
        msg = yield c.recv(tag="wanted", source=b.address)
        out.append(msg.payload)

    def senders(sim):
        yield a.send(c.address, "wrong-source", tag="wanted")
        yield b.send(c.address, "wrong-tag", tag="other")
        yield b.send(c.address, "right", tag="wanted")

    sim.spawn(receiver(sim, c, got))
    sim.spawn(senders(sim))
    sim.run()
    assert got == ["right"]
    assert len(c._mailbox.messages) == 2  # unmatched messages remain queued


def test_fifo_no_overtaking_same_pair(sim, fabric):
    """A huge message sent first must arrive before a tiny one sent
    immediately after (per-pair FIFO)."""
    a, b = make_pair(fabric)
    got = []

    def sender(sim, a, b):
        a.send(b.address, np.zeros(1 << 20, dtype=np.uint8), tag=1)
        a.send(b.address, b"x", tag=2)
        yield sim.timeout(0)

    def receiver(sim, b, out):
        first = yield b.recv()
        second = yield b.recv()
        out.extend([first.tag, second.tag])

    sim.spawn(sender(sim, a, b))
    sim.spawn(receiver(sim, b, got))
    sim.run()
    assert got == [1, 2]


def test_send_to_unknown_address_is_dropped(sim, fabric):
    a, _ = make_pair(fabric)
    ghost = Address("na+sim://nid00009/ghost")
    done = []

    def sender(sim, a):
        yield a.send(ghost, b"into the void")
        done.append(sim.now)

    sim.spawn(sender(sim, a))
    sim.run()
    assert len(done) == 1  # datagram semantics: sender completes


def test_send_to_deregistered_endpoint_dropped_in_flight(sim, fabric):
    a, b = make_pair(fabric)

    def sender(sim, a, b):
        a.send(b.address, np.zeros(1 << 20, dtype=np.uint8))
        yield sim.timeout(0)

    sim.spawn(sender(sim, a, b))
    sim.run(until=1e-9)
    fabric.deregister(b)
    sim.run()
    assert b.address.uri not in fabric._endpoints


def test_ops_on_deregistered_endpoint_rejected(sim, fabric):
    a, b = make_pair(fabric)
    fabric.deregister(a)
    with pytest.raises(NAError):
        a.send(b.address, b"x")
    with pytest.raises(NAError):
        a.recv()


def test_duplicate_registration_rejected(sim, fabric):
    m = get_cost_model("mona")
    fabric.register("dup", 0, m)
    with pytest.raises(NAError):
        fabric.register("dup", 0, m)


def test_recv_timeout_pattern_with_cancel(sim, fabric):
    """The SWIM idiom: race a recv against a timeout, cancel the loser."""
    a, b = make_pair(fabric)
    outcome = []

    def prober(sim, b, out):
        rx = b.recv(tag="ack")
        idx, value = yield AnyOf(sim, [rx, sim.timeout(0.5)])
        if idx == 1:
            b.cancel_recv(rx)
            out.append("timeout")
        else:
            out.append("ack")

    sim.spawn(prober(sim, b, outcome))
    sim.run()
    assert outcome == ["timeout"]

    # A message sent later should remain deliverable to a fresh recv.
    got = []

    def late_sender(sim, a, b):
        yield a.send(b.address, "late", tag="ack")

    def late_receiver(sim, b, out):
        msg = yield b.recv(tag="ack")
        out.append(msg.payload)

    sim.spawn(late_sender(sim, a, b))
    sim.spawn(late_receiver(sim, b, got))
    sim.run()
    assert got == ["late"]


def test_same_node_faster_than_internode(sim):
    def elapsed(nodes):
        local = Simulation()
        fabric = Fabric(local)
        m = get_cost_model("mona")
        a = fabric.register("a", nodes[0], m)
        b = fabric.register("b", nodes[1], m)
        t = {}

        def sender(local, a, b):
            yield a.send(b.address, np.zeros(4096, dtype=np.uint8))
            t["done"] = local.now

        local.spawn(sender(local, a, b))
        local.run()
        return t["done"]

    assert elapsed((0, 0)) < elapsed((0, 1))


def test_counters(sim, fabric):
    a, b = make_pair(fabric)

    def sender(sim, a, b):
        yield a.send(b.address, b"abcd")

    sim.spawn(sender(sim, a, b))
    sim.run()
    assert fabric.messages_sent == 1
    assert fabric.bytes_sent == 4


def test_nbytes_override(sim, fabric):
    a, b = make_pair(fabric)

    def sender(sim, a, b):
        yield a.send(b.address, {"meta": "tiny"}, nbytes=1 << 20)

    sim.spawn(sender(sim, a, b))
    sim.run()
    assert fabric.bytes_sent == 1 << 20


# ---------------------------------------------------------------------------
# RDMA
def test_rdma_pull_fetches_payload(sim, fabric):
    a, b = make_pair(fabric)
    data = np.arange(1000, dtype=np.float64)
    handle = a.expose(data)
    assert handle.nbytes == 8000
    assert not isinstance(handle.payload, VirtualPayload)
    got = []

    def puller(sim, b, handle, out):
        payload = yield fabric.rdma_pull(b, handle)
        out.append((payload, sim.now))

    sim.spawn(puller(sim, b, handle, got))
    sim.run()
    payload, t = got[0]
    assert np.array_equal(payload, data)
    assert t == pytest.approx(get_cost_model("mona").rdma_time(8000), rel=1e-9)


def test_rdma_pull_virtual_payload(sim, fabric):
    a, b = make_pair(fabric)
    vp = VirtualPayload((1 << 20,), "uint8")
    handle = a.expose(vp)
    assert isinstance(handle.payload, VirtualPayload)
    got = []

    def puller(sim, b, handle, out):
        payload = yield fabric.rdma_pull(b, handle)
        out.append(payload)

    sim.spawn(puller(sim, b, handle, got))
    sim.run()
    assert got == [vp]


def test_rdma_same_node_faster(sim, fabric):
    m = get_cost_model("mona")
    a = fabric.register("x", 0, m)
    b_same = fabric.register("same", 0, m)
    b_far = fabric.register("far", 1, m)
    data = np.zeros(1 << 20, dtype=np.uint8)
    handle = a.expose(data)
    times = {}

    def puller(sim, ep, tag):
        yield fabric.rdma_pull(ep, handle)
        times[tag] = sim.now

    local = Simulation()
    # run both in isolated sims for clean timing
    for tag, node in (("same", 0), ("far", 1)):
        s = Simulation()
        f = Fabric(s)
        owner = f.register("o", 0, m)
        puller_ep = f.register("p", node, m)
        h = owner.expose(data)
        t = {}

        def body(s, f, puller_ep, h, t):
            yield f.rdma_pull(puller_ep, h)
            t["t"] = s.now

        s.spawn(body(s, f, puller_ep, h, t))
        s.run()
        times[tag] = t["t"]
    assert times["same"] < times["far"]
