"""Wire sizes are declared, not pickled.

``payload_nbytes`` must reproduce every row of
``tests/golden/wire_sizes.json`` — recorded (``tests/oracles/wire_sizes.py``)
when ``Address`` and ssg ``Update`` records were still priced by pickling
them — without serialising anything a rule knows, and the hot path must
never reach the counted fallback.
"""

import copy
import json
import pickle

import pytest

from repro.bench.harness import ColzaExperiment
from repro.core.pipelines import IsoSurfaceScript
from repro.na import Address, VirtualPayload, payload_nbytes
from repro.na.payload import FALLBACK_SIZED
from repro.ssg.view import Status, Update
from tests.oracles import wire_sizes

with open(wire_sizes.GOLDEN) as _fh:
    GOLDEN = json.load(_fh)
GROUPS = wire_sizes.groups()


def _refuse_to_pickle(*args, **kwargs):
    raise AssertionError("pickle.dumps called to size a payload")


def test_golden_table_and_generator_agree_on_shape():
    assert list(GOLDEN) == list(GROUPS)
    assert {k: len(v) for k, v in GOLDEN.items()} == {k: len(v) for k, v in GROUPS.items()}
    assert sum(map(len, GOLDEN.values())) > 4000


@pytest.mark.parametrize("group", [g for g in GROUPS if g != "fallback"])
def test_declared_sizes_reproduce_the_recorded_ones(group, monkeypatch):
    monkeypatch.setattr(pickle, "dumps", _refuse_to_pickle)
    before = sum(FALLBACK_SIZED.values())
    assert [payload_nbytes(p) for p in GROUPS[group]] == GOLDEN[group]
    assert sum(FALLBACK_SIZED.values()) == before


def test_unknown_objects_are_priced_by_the_fallback_and_counted():
    before = FALLBACK_SIZED.copy()
    assert [payload_nbytes(p) for p in GROUPS["fallback"]] == GOLDEN["fallback"]
    assert FALLBACK_SIZED - before == {"range": 1, "frozenset": 1, "slice": 1}


def test_formula_beyond_the_recorded_ranges():
    """Past 255 URI bytes / incarnation 255 the declared formula is the
    contract: linear in the encoded URI, blind to the incarnation."""
    long_uri = Address("u" * 1000)
    assert payload_nbytes(long_uri) == 1000 + 62
    assert payload_nbytes(Address("é" * 200)) == 400 + 62
    for status in Status:
        sizes = {payload_nbytes(Update(status, long_uri, inc)) for inc in (0, 255, 256, 2 ** 40)}
        assert sizes == {1000 + 62 + 90 + len(status.value)}


# ---------------------------------------------------------------------------
# Address: copyable and picklable, and the fix moves no wire byte
def test_address_round_trips_through_copy_and_pickle():
    a = Address.make("nid00003", "colza-7")
    clones = [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    clones += [pickle.loads(pickle.dumps(a, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in clones:
        assert b == a and hash(b) == hash(a) and b.uri == a.uri
        assert payload_nbytes(b) == payload_nbytes(a) == len(a.uri) + 62
        assert {a: 1}[b] == 1
        with pytest.raises(AttributeError):
            b.uri = "x"


def test_records_holding_addresses_deepcopy():
    members = [Address.make(f"nid{i:05d}", "s") for i in range(4)]
    update = Update(Status.SUSPECT, members[2], 9)
    assert copy.deepcopy(update) == update
    assert payload_nbytes(copy.deepcopy(update)) == payload_nbytes(update)
    assert copy.deepcopy(members) == members
    snapshot = {"view": members, "dead": members[0], "updates": [update]}
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone == snapshot and payload_nbytes(clone) == payload_nbytes(snapshot)
    assert sorted(clone["view"]) == members


# ---------------------------------------------------------------------------
def test_steady_state_iteration_with_swim_running_never_pickles(monkeypatch):
    exp = ColzaExperiment(
        4, 8, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        seed=5, width=32, height=32, library="libcolza-iso.so",
    ).setup()
    blocks = [[(c, VirtualPayload((2048,), "float64"))] for c in range(8)]
    exp.run_iteration(1, blocks)

    sim = exp.sim
    probes = sim.metrics.get("ssg.probes").value
    messages = sim.metrics.get("na.messages_sent").value
    monkeypatch.setattr(pickle, "dumps", _refuse_to_pickle)
    before = sum(FALLBACK_SIZED.values())
    exp.run_iteration(2, blocks)
    sim.run(until=sim.now + 3.0)  # a dozen protocol periods of gossip
    assert sim.metrics.get("ssg.probes").value >= probes + 20
    assert sim.metrics.get("na.messages_sent").value > messages + 100
    assert sum(FALLBACK_SIZED.values()) == before
