"""Tests for the Catalyst layer: co-processor, scripts, cost model."""

import numpy as np
import pytest

from repro.catalyst import CoProcessor, PipelineCostModel, cells_of
from repro.catalyst.script import CatalystScript, RenderContext
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all
from repro.vtk import ImageData, UnstructuredGrid
from repro.vtk.parallel import MonaController


# ---------------------------------------------------------------------------
# cost model
def test_cells_of_variants():
    assert cells_of(None) == 0
    assert cells_of(VirtualPayload((4, 4), "int32")) == 16
    assert cells_of(np.zeros(7)) == 7
    img = ImageData(dims=(3, 3, 3))
    assert cells_of(img) == 8  # num_cells
    tet = UnstructuredGrid(np.zeros((4, 3)), [[0, 1, 2, 3]])
    assert cells_of(tet) == 1
    assert cells_of(object()) == 0


def test_cost_model_linear():
    costs = PipelineCostModel()
    assert costs.contour(0) == 0
    assert costs.contour(2_000_000) == pytest.approx(2_000_000 * costs.contour_per_cell)
    assert costs.volume(10) == pytest.approx(10 * costs.volume_per_cell)
    assert costs.raster(256 * 256) == pytest.approx(256 * 256 * costs.raster_per_pixel)
    assert costs.merge(5) + costs.clip(5) > 0


def test_cost_model_calibration_anchors():
    """The constants encode the figure anchors (see costs.py docstring)."""
    costs = PipelineCostModel()
    # Fig. 6: 268M points over 4 servers ~ 8 s.
    assert costs.contour(268_000_000 // 4) == pytest.approx(8.0, rel=0.02)
    # Fig. 7: ~400M cells over 8 procs ~ 60 s at iterations 25-26.
    assert costs.volume(400_000_000 // 8) == pytest.approx(60.0, rel=0.02)
    assert costs.init_seconds == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# scripts / frequency
class CountingScript(CatalystScript):
    def __init__(self, frequency=1):
        super().__init__(frequency)
        self.runs = 0

    def run(self, ctx):
        self.runs += 1
        yield from ctx.charge(0.5)
        ctx.results["ran"] = True


def make_coproc_env(script):
    sim = Simulation()
    _, instances, comms = build_mona_world(sim, 1)
    controller = MonaController(comms[0])
    coproc = CoProcessor(name="t", width=16, height=16)
    coproc.initialize(script, controller)

    def charge(seconds):
        yield sim.timeout(seconds)

    return sim, coproc, charge


def test_frequency_validation():
    with pytest.raises(ValueError):
        CatalystScript(frequency=0)


def test_coprocess_requires_initialize():
    coproc = CoProcessor()
    with pytest.raises(RuntimeError):
        next(coproc.coprocess(1, [], lambda s: iter(())))


def test_frequency_gates_iterations():
    script = CountingScript(frequency=3)
    sim, coproc, charge = make_coproc_env(script)

    def body():
        outcomes = []
        for it in (3, 4, 5, 6):
            result = yield from coproc.coprocess(it, [], charge)
            outcomes.append(result is not None)
        return outcomes

    results = run_all(sim, [body()])
    assert results[0] == [True, False, False, True]
    assert script.runs == 2


def test_init_cost_charged_once():
    script = CountingScript()
    sim, coproc, charge = make_coproc_env(script)

    def body():
        t0 = sim.now
        yield from coproc.coprocess(1, [], charge)
        first = sim.now - t0
        t0 = sim.now
        yield from coproc.coprocess(2, [], charge)
        second = sim.now - t0
        return first, second

    (first, second), = run_all(sim, [body()])
    assert first == pytest.approx(coproc.costs.init_seconds + 0.5)
    assert second == pytest.approx(0.5)


def test_update_controller_bumps_generation():
    script = CountingScript()
    sim, coproc, charge = make_coproc_env(script)
    gen0 = coproc.process_module.controller_generation
    _, _, comms = build_mona_world(sim, 1, name_prefix="other")
    coproc.update_controller(MonaController(comms[0]))
    assert coproc.process_module.controller_generation == gen0 + 1


def test_process_module_guards():
    from repro.vtk.parallel import VtkProcessModule

    pm = VtkProcessModule("x")
    with pytest.raises(RuntimeError):
        pm.get_global_controller()
    with pytest.raises(TypeError):
        pm.set_global_controller("not a controller")


def test_render_context_rank_size():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 2)
    ctx = RenderContext(
        controller=MonaController(comms[1]), blocks=[], charge=None
    )
    assert ctx.rank == 1 and ctx.controller.communicator.comm.size == 2
