"""Calibration: MoNA's *emergent* 512-process bxor reduce vs Table II.

MoNA collectives have no lookup table: their cost arises from the tree
algorithm over the calibrated p2p model. Each size must land within
±35 % of the paper's MoNA column. The exact values, the factor over
Cray-mpich and the log-P scaling are rows of ``test_fidelity.FIDELITY``;
this file reads the same once-per-session Table II run.
"""

import pytest

from repro.bench.experiments.table2_reduce import PAPER_TABLE2_US
from tests.test_fidelity import produce


@pytest.mark.parametrize("nbytes,paper_us", sorted(PAPER_TABLE2_US["mona"].items()))
def test_emergent_mona_reduce_matches_table2_band(nbytes, paper_us):
    measured = produce("table2")["mona"][nbytes] * 1e6
    assert measured == pytest.approx(paper_us, rel=0.35), (
        f"MoNA reduce({nbytes}B) = {measured:.1f}µs, paper {paper_us}µs"
    )
