"""Paper-scale verification (opt-in).

These run the paper's actual 1024-node configurations — minutes of
pure-Python simulation each — so they are skipped unless
``REPRO_FULL=1`` is set.  On a 2-vCPU Intel Xeon VM (Python 3.11),
``test_32ary_2flat_clos_ad_ur_full`` took 316 s with CLOS AD routing
through its generic ``route()`` and 190 s once its event-kernel path
read the shared route table's ascent rows.  The regular suite covers the same claims at
reduced scale; these confirm them at the paper's operating point.
"""

import os

import pytest

from repro.core import ClosAD, DimensionOrder
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import SimulationConfig, Simulator
from repro.traffic import UniformRandom, adversarial

paper_scale = pytest.mark.skipif(
    os.environ.get("REPRO_FULL") != "1",
    reason="paper-scale run; set REPRO_FULL=1 to enable",
)


@paper_scale
def test_32ary_2flat_min_wc_collapse():
    """Figure 4(b) at the paper's scale: MIN on the worst case is
    pinned at 1/32 ~ 3%."""
    sim = Simulator(
        FlattenedButterfly(32, 2), DimensionOrder(), adversarial(),
        SimulationConfig(seed=1),
    )
    thr = sim.measure_saturation_throughput(warmup=2000, measure=2000)
    assert thr == pytest.approx(1 / 32, abs=0.005)


@paper_scale
def test_32ary_2flat_clos_ad_wc_half():
    sim = Simulator(
        FlattenedButterfly(32, 2), ClosAD(), adversarial(),
        SimulationConfig(seed=1),
    )
    thr = sim.measure_saturation_throughput(warmup=2000, measure=2000)
    assert thr == pytest.approx(0.5, abs=0.03)


@paper_scale
def test_32ary_2flat_clos_ad_ur_full():
    sim = Simulator(
        FlattenedButterfly(32, 2), ClosAD(), UniformRandom(),
        SimulationConfig(seed=1),
    )
    thr = sim.measure_saturation_throughput(warmup=2000, measure=2000)
    assert thr > 0.9


def test_paper_scale_configs_constructible():
    """Always-on sanity: the paper's exact networks build instantly
    even when their simulation is skipped."""
    fb = FlattenedButterfly(32, 2)
    assert fb.num_terminals == 1024
    assert fb.router_radix == 63
    assert len(fb.channels) == 992
