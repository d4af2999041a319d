"""A message's ``na.send`` span is one transit row: ``Tracer.depart`` as it
leaves, ``Tracer.arrive`` as it lands. Everything a reader sees — the
records, the digest, the Chrome export, the ``.spans`` rows (in-flight
ones included) and what ``on_end`` callbacks are handed — must be what
the span handle path (``tests/oracles/transit_spans.py``: ``begin_async``
at send, ``end`` at arrival) produced, in a scene that reads the trace
mid-flight, drops, duplicates and delays messages, clears the tracer
with messages in flight and toggles tracing on both sides of a transit.
"""

import json

from repro.na import Fabric, get_cost_model
from repro.na.fabric import LinkAction
from repro.sim import Simulation
from repro.telemetry import chrome_trace_events
from tests.oracles import transit_spans


def _fields(span):
    """Everything a reader can see of a span row."""
    return (
        span.id, span.name, span.start, span.end, list(span.tags.items()), span.parent,
        span.task, span.detached, span.recorded, [child.id for child in span.children],
        span.store.first_id,
    )


def _trace(tracer):
    return {
        "records": tracer.to_records(),
        "digest": tracer.digest(),
        "chrome": json.dumps(chrome_trace_events(tracer), sort_keys=True),
        "rows": [_fields(span) for span in tracer.spans],
    }


def _verdict(src, dest, size, tag):
    return {
        "dup": LinkAction(duplicate=True),
        "drop": LinkAction(drop=True),
        "slow": LinkAction(delay=0.5),
    }.get(tag)


def _scene():
    """What a reader sees at each step of the scene."""
    sim = Simulation(seed=1)
    fabric = Fabric(sim)
    model = get_cost_model("mona")
    eps = [fabric.register(f"p{i}", i // 2, model) for i in range(4)]
    ended, seen, delivered = [], {}, []
    sim.trace.on_end.append(lambda span: ended.append(_fields(span)))
    sim.add_interceptor("na.send", _verdict)

    def sender(k):
        with sim.trace.span("rpc", k=k):
            for tag in ("a", "dup", "drop", "slow", "b"):
                eps[k].send(eps[(k + 1) % 4].address, b"x" * (64 * (k + 1)), tag=tag)
            yield sim.timeout(1e-3)
        eps[k].send(eps[(k + 2) % 4].address, [k, "late"], tag="late")

    def receiver(k):
        while True:
            msg = yield eps[k].recv()
            delivered.append((k, msg.tag, msg.nbytes, msg.arrived_at))

    for k in range(4):
        sim.spawn(receiver(k), name=f"rx{k}")
    for k in range(4):
        sim.spawn(sender(k), name=f"tx{k}")
    sim.run(until=1e-7)
    seen["in flight"] = _trace(sim.trace)
    fabric.quiesce(eps[3])  # p3 crashes: what is on its way there is dropped
    eps[0].send(eps[1].address, b"root", tag="root")  # outside any task
    sim.trace.enabled = False
    eps[1].send(eps[2].address, b"unseen", tag="unseen")  # never recorded...
    sim.trace.enabled = True  # ... although it lands with tracing on
    eps[2].send(eps[0].address, b"seen!", tag="seen")
    sim.trace.enabled = False  # lands with tracing off: still closed
    sim.run(until=5e-4)
    sim.trace.enabled = True
    seen["toggled"] = _trace(sim.trace)
    cleared = sim.trace.spans
    sim.trace.clear()  # the "slow" ones and the "late" ones are in flight
    sim.run(until=2e-3)
    seen["after clear"] = _trace(sim.trace)
    sim.run()
    seen["drained"] = _trace(sim.trace)
    seen["cleared store"] = [_fields(span) for span in cleared]
    seen["on_end"] = ended
    seen["delivered"] = delivered
    seen["counters"] = (fabric.messages_sent, fabric.bytes_sent, sim.metrics.snapshot())
    return seen


def test_transit_rows_read_as_the_span_handles_did(monkeypatch):
    rows = _scene()
    transit_spans.install(monkeypatch)
    handles = _scene()
    assert rows.keys() == handles.keys()
    for step in rows:
        assert rows[step] == handles[step], step


def test_the_scene_covers_what_it_claims():
    seen = _scene()
    in_flight = [row for row in seen["in flight"]["rows"] if row[1] == "na.send"]
    assert len(in_flight) == 4 * 5 and all(row[3] is None for row in in_flight)
    assert all([key for key, _ in row[4]] == ["src", "dest", "nbytes"] for row in in_flight)
    sends = {row[4][2][1]: row for row in seen["cleared store"] if row[1] == "na.send"}
    assert len(b"unseen") not in sends  # sent with tracing off
    assert sends[len(b"seen!")][3] is not None  # landed with tracing off
    assert sends[len(b"root")][6] == ""  # sent outside any task
    dropped = [row for row in seen["cleared store"] if ("dropped", True) in row[4]]
    assert len(dropped) == 4 + 4  # the "drop" ones, and the rest of those bound for p3
    assert [tag for _, tag, *_ in seen["delivered"]].count("dup") == 2 * 3
    late = [row for row in seen["on_end"] if row[1] == "na.send" and row[10] > 0]
    assert len(late) == 3  # sent after clear(), into the new store (crashed p3 sends none)
    slow = [row for row in seen["on_end"] if row[1] == "na.send" and row[3] > 0.5]
    # The "slow" ones, and the "b" ones and the root send FIFO-queued
    # behind them, landed after clear() into the store they left from.
    assert len(slow) == 4 + 4 + 1 and all(row[10] == 0 for row in slow)
