"""Explicit cabinet floor-plan model (an ablation of Section 4.2).

The paper estimates cable lengths with closed forms — ``L_avg = E/3``
for the flattened butterfly's global dimensions, ``E/4`` for the folded
Clos, a geometric series for the hypercube — over a square floor of
edge ``E = sqrt(N/D)``.  This module checks those heuristics by
actually *placing* cabinets on a 2-D grid and measuring the Manhattan
length of every inter-router channel:

* :class:`FloorPlan` — cabinets on a near-square grid with aisle
  spacing, matching Table 3's density;
* :func:`measure_flattened_butterfly` — Figure 8(c)'s placement
  (dimension-1 subsystems as cabinet pairs, dimension 2 across
  columns, dimension 3 across rows) with per-channel measurement;
* :func:`measure_folded_clos` — leaf cabinets around central router
  cabinets (Figure 9(a)).

The ablation benchmark compares these measured averages against the
closed forms used by the census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.scaling import PackagedFlatConfig, packaged_config
from .packaging import PackagingModel


@dataclass(frozen=True)
class FloorPlan:
    """Cabinets placed on a grid of ``columns`` x ``rows`` positions.

    Cabinet pitch is the Table 3 footprint, with the depth doubled for
    aisles (the same assumption behind the density constant).
    """

    num_cabinets: int
    columns: int
    packaging: PackagingModel

    @classmethod
    def square(
        cls, num_nodes: int, packaging: Optional[PackagingModel] = None
    ) -> "FloorPlan":
        """Near-square floor plan for ``num_nodes`` nodes."""
        packaging = packaging or PackagingModel()
        cabinets = packaging.num_cabinets(num_nodes)
        # Choose columns so the floor is as square as possible in
        # meters (cabinet width != depth).
        width, depth = packaging.cabinet_footprint_m
        depth *= 2.0  # aisle spacing
        best = 1
        best_aspect = float("inf")
        for columns in range(1, cabinets + 1):
            rows = math.ceil(cabinets / columns)
            aspect = abs(math.log((columns * width) / (rows * depth)))
            if aspect < best_aspect:
                best_aspect = aspect
                best = columns
        return cls(num_cabinets=cabinets, columns=best, packaging=packaging)

    @property
    def rows(self) -> int:
        return math.ceil(self.num_cabinets / self.columns)

    def position_m(self, cabinet: int) -> Tuple[float, float]:
        """Center of ``cabinet`` in meters."""
        if not 0 <= cabinet < self.num_cabinets:
            raise ValueError(f"cabinet {cabinet} out of range")
        width, depth = self.packaging.cabinet_footprint_m
        depth *= 2.0
        col = cabinet % self.columns
        row = cabinet // self.columns
        return ((col + 0.5) * width, (row + 0.5) * depth)

    def distance_m(self, cabinet_a: int, cabinet_b: int) -> float:
        """Manhattan distance between two cabinet centers."""
        ax, ay = self.position_m(cabinet_a)
        bx, by = self.position_m(cabinet_b)
        return abs(ax - bx) + abs(ay - by)

    def extent_m(self) -> Tuple[float, float]:
        """Floor dimensions in meters."""
        width, depth = self.packaging.cabinet_footprint_m
        return (self.columns * width, self.rows * depth * 2.0)


@dataclass
class MeasuredLengths:
    """Per-class measured cable statistics of one placed network."""

    name: str
    backplane_channels: int
    cable_channels: int
    mean_cable_m: float
    max_cable_m: float

    @property
    def total_channels(self) -> int:
        return self.backplane_channels + self.cable_channels


def _cabinet_of_node(node: int, packaging: PackagingModel) -> int:
    return node // packaging.nodes_per_cabinet


def measure_flattened_butterfly(
    num_nodes: int,
    packaging: Optional[PackagingModel] = None,
    config: Optional[PackagedFlatConfig] = None,
    placement: str = "fig8",
) -> MeasuredLengths:
    """Place a packaged flattened butterfly on the floor and measure
    every inter-router channel.

    Placements:

    * ``"fig8"`` — Figure 8(c): dimension-1 subsystems are cabinet
      groups forming grid cells, dimension 2 runs along grid columns
      and dimension 3 along grid rows, so higher-dimension cables are
      axis-aligned (the layout behind the paper's ``L_avg = E/3``).
    * ``"row-major"`` — naive placement by node index on a near-square
      grid; an ablation showing what the axis-aligned layout buys.
    """
    packaging = packaging or PackagingModel()
    cfg = config or packaged_config(num_nodes)
    if cfg.num_terminals != num_nodes:
        raise ValueError(
            f"config covers {cfg.num_terminals} nodes, asked for {num_nodes}"
        )
    if placement not in ("fig8", "row-major"):
        raise ValueError(f"unknown placement {placement!r}")
    c = cfg.concentration
    routers = range(cfg.num_routers)
    # Each router's cabinet and floor position, computed once per
    # placement: two routers share a cabinet iff their cabinets are
    # equal.
    if placement == "row-major":
        plan = FloorPlan.square(num_nodes, packaging)
        cabinet = [
            _cabinet_of_node(router * c, packaging) for router in routers
        ]
        position = [plan.position_m(cab) for cab in cabinet]
    else:
        # Figure 8(c): each (d2, d3) grid cell holds one dimension-1
        # subsystem of m1 routers spread over group_cabs cabinets laid
        # side by side within the cell.
        m1 = cfg.dims[0]
        group_nodes = c * m1
        group_cabs = max(1, math.ceil(group_nodes / packaging.nodes_per_cabinet))
        routers_per_cab = max(1, m1 // group_cabs)
        width, depth = packaging.cabinet_footprint_m
        depth *= 2.0  # aisle spacing

        # Grid cells hold dimension-1 subsystems.  With three
        # dimensions, dimension 2 indexes columns and dimension 3 rows
        # (Figure 8(c)); with two, cells form a near-square grid (the
        # one global dimension then spans both axes — which is why the
        # E/3 heuristic is optimistic for 2-dimensional machines, see
        # the layout ablation benchmark).
        total_cells = max(1, cfg.num_routers // m1)
        if cfg.n_prime >= 3:
            cells_x = cfg.dims[1]
        else:
            cells_x = max(1, math.ceil(math.sqrt(total_cells)))

        def cabinet_coords(router: int) -> Tuple[int, int]:
            d1 = router % m1
            cell = router // m1
            sub = min(d1 // routers_per_cab, group_cabs - 1)
            return ((cell % cells_x) * group_cabs + sub, cell // cells_x)

        cabinet = [cabinet_coords(router) for router in routers]
        position = [
            ((col + 0.5) * width, (row + 0.5) * depth) for col, row in cabinet
        ]

    backplane = 0
    cable = 0
    total_m = 0.0
    max_m = 0.0
    stride = 1
    for extent, mult in zip(cfg.dims, cfg.multiplicity):
        for router in routers:
            own = (router // stride) % extent
            xa, ya = position[router]
            home = cabinet[router]
            for m in range(extent):
                if m == own:
                    continue
                peer = router + (m - own) * stride
                if cabinet[peer] == home:
                    backplane += mult
                    continue
                xb, yb = position[peer]
                length = max(
                    abs(xa - xb) + abs(ya - yb), packaging.short_cable_m
                )
                cable += mult
                total_m += length * mult
                max_m = max(max_m, length)
        stride *= extent
    mean = total_m / cable if cable else 0.0
    return MeasuredLengths(
        name=f"flattened butterfly (c={cfg.concentration}, dims={cfg.dims})",
        backplane_channels=backplane,
        cable_channels=cable,
        mean_cable_m=mean,
        max_cable_m=max_m,
    )


def measure_folded_clos(
    num_nodes: int,
    packaging: Optional[PackagingModel] = None,
) -> MeasuredLengths:
    """Place folded-Clos leaf cabinets on the floor with the router
    cabinet(s) at the center (Figure 9(a)) and measure every leaf
    up/down channel pair's cable run."""
    packaging = packaging or PackagingModel()
    plan = FloorPlan.square(num_nodes, packaging)
    # Central point of the floor.
    extent_x, extent_y = plan.extent_m()
    center = (extent_x / 2.0, extent_y / 2.0)
    backplane = 0
    cable = 0
    total_m = 0.0
    max_m = 0.0
    # Every node's leaf router sends 1 up + 1 down channel (per unit of
    # bisection) to the central cabinet.
    for cabinet in range(plan.num_cabinets):
        x, y = plan.position_m(cabinet)
        length = abs(x - center[0]) + abs(y - center[1])
        channels = 2 * min(
            packaging.nodes_per_cabinet,
            num_nodes - cabinet * packaging.nodes_per_cabinet,
        )
        if length < 1e-9:
            backplane += channels
            continue
        length = max(length, packaging.short_cable_m)
        cable += channels
        total_m += length * channels
        max_m = max(max_m, length)
    mean = total_m / cable if cable else 0.0
    return MeasuredLengths(
        name="folded Clos (central router cabinet)",
        backplane_channels=backplane,
        cable_channels=cable,
        mean_cable_m=mean,
        max_cable_m=max_m,
    )


def heuristic_vs_measured(
    num_nodes: int, packaging: Optional[PackagingModel] = None
) -> Dict[str, Tuple[float, float]]:
    """(heuristic, measured) mean global cable length for the
    flattened butterfly (E/3) and folded Clos (E/4) at ``num_nodes``."""
    packaging = packaging or PackagingModel()
    edge = packaging.edge_length(num_nodes)
    fb = measure_flattened_butterfly(num_nodes, packaging)
    clos = measure_folded_clos(num_nodes, packaging)
    return {
        "flattened butterfly": (edge / 3.0, fb.mean_cable_m),
        "folded Clos": (edge / 4.0, clos.mean_cable_m),
    }
