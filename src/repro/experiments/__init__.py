"""One experiment harness per paper figure/table.

Each module exposes ``run(scale="ci"|"paper") -> ExperimentResult``;
:data:`ALL_EXPERIMENTS` maps experiment ids to their modules, importing
each on first lookup.  Run one from the command line with
``python -m repro.experiments <id>``.
"""

import importlib
from collections.abc import Mapping

from .common import ExperimentResult, Scale, Table, resolve_scale


class _Registry(Mapping):
    """Experiment id -> harness module.  A module is imported the first
    time its id is looked up, so running one experiment loads only its
    own harness."""

    def __init__(self, modules) -> None:
        self._modules = modules

    def __getitem__(self, name):
        return importlib.import_module(f"{__name__}.{self._modules[name]}")

    def __iter__(self):
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


ALL_EXPERIMENTS = _Registry({
    "fig01": "fig01_construction",
    "fig02": "fig02_scalability",
    "fig03": "fig03_ghc",
    "fig04": "fig04_routing",
    "fig05": "fig05_batch",
    "fig06": "fig06_topologies",
    "fig07": "fig07_cable_cost",
    "fig10": "fig10_link_cost",
    "fig11": "fig11_cost",
    "fig12": "fig12_design",
    "fig13": "fig13_cost_vs_n",
    "fig15": "fig15_power",
    "table02": "table02_constants",
    "table04": "table04_configs",
    "ext_torus": "ext_torus",
    "ext_datacenter": "ext_datacenter",
    "ext_layout": "ext_layout",
    "ext_patterns": "ext_patterns",
    "ext_packet_size": "ext_packet_size",
    "ext_resilience": "ext_resilience",
    "ext_wire_delay": "ext_wire_delay",
})

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "Scale",
    "Table",
    "resolve_scale",
]
