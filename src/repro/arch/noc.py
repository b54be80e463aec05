"""On-chip network model for the YOLoC floorplan (Fig. 9).

Fig. 9 draws a NoC joining the ROM-CiM macros, SRAM-CiM macros, cache,
and controller; the paper's energy accounting then treats on-chip
activation movement as part of the buffer term.  This module checks
that simplification instead of assuming it: a 2-D mesh with XY routing
(the standard CiM-accelerator fabric), analytic per-hop energy, and a
layer-to-tile traffic mapper.

The expected outcome — and the reason the paper can ignore it — is that
NoC transport energy is a single-digit percentage of the CiM compute
energy for every benchmark model (see the ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.models.profile import ModelProfile

Coord = Tuple[int, int]


@dataclass(frozen=True)
class MeshNocSpec:
    """A ``rows x cols`` 2-D mesh with XY dimension-ordered routing."""

    rows: int = 4
    cols: int = 4
    #: Energy to move one bit across one router + link hop (pJ/bit).
    #: 28nm-class on-chip links are ~two orders cheaper than the
    #: SIMBA off-package link (1.17 pJ/b).
    hop_energy_pj_per_bit: float = 0.012

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"mesh must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def tile_coord(self, index: int) -> Coord:
        if not 0 <= index < self.n_tiles:
            raise IndexError(f"tile {index} outside a {self.rows}x{self.cols} mesh")
        return divmod(index, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """XY-routing hop count (Manhattan distance)."""
        (r1, c1), (r2, c2) = self.tile_coord(src), self.tile_coord(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def graph(self) -> nx.Graph:
        """The mesh as a networkx graph (tile index nodes)."""
        grid = nx.grid_2d_graph(self.rows, self.cols)
        return nx.relabel_nodes(
            grid, {coord: coord[0] * self.cols + coord[1] for coord in grid.nodes}
        )

    def route(self, src: int, dst: int) -> List[int]:
        """The XY route as a tile sequence (X first, then Y)."""
        (r1, c1), (r2, c2) = self.tile_coord(src), self.tile_coord(dst)
        path = [src]
        c = c1
        while c != c2:
            c += 1 if c2 > c else -1
            path.append(r1 * self.cols + c)
        r = r1
        while r != r2:
            r += 1 if r2 > r else -1
            path.append(r * self.cols + c2)
        return path

    def transfer_energy_pj(self, bits: float, src: int, dst: int) -> float:
        return bits * self.hops(src, dst) * self.hop_energy_pj_per_bit


@dataclass
class NocTrafficReport:
    """Per-inference NoC cost of one layer-to-tile mapping."""

    spec: MeshNocSpec
    flows: List[Tuple[str, int, int, float]] = field(default_factory=list)

    @property
    def total_bits(self) -> float:
        return sum(bits for _, _, _, bits in self.flows)

    @property
    def total_energy_pj(self) -> float:
        return sum(
            self.spec.transfer_energy_pj(bits, src, dst)
            for _, src, dst, bits in self.flows
        )

    def link_loads(self) -> Dict[Tuple[int, int], float]:
        """Bits crossing each mesh link, for hotspot analysis."""
        loads: Dict[Tuple[int, int], float] = {}
        for _, src, dst, bits in self.flows:
            path = self.spec.route(src, dst)
            for a, b in zip(path, path[1:]):
                key = (min(a, b), max(a, b))
                loads[key] = loads.get(key, 0.0) + bits
        return loads

    @property
    def max_link_load_bits(self) -> float:
        loads = self.link_loads()
        return max(loads.values()) if loads else 0.0


def map_layers_to_tiles(
    profile: ModelProfile,
    spec: Optional[MeshNocSpec] = None,
    activation_bits: int = 8,
) -> NocTrafficReport:
    """Place weight layers on mesh tiles and collect inter-layer flows.

    Layers are placed in execution order along a serpentine scan of the
    mesh (the natural floorplan for a feed-forward chain: consecutive
    layers are physically adjacent, so most flows are one hop).  Each
    layer's output feature map travels from its tile to the next
    layer's tile.
    """
    spec = spec if spec is not None else MeshNocSpec()
    layers = profile.weight_layers()
    if not layers:
        raise ValueError("model has no weight layers to place")

    def serpentine(index: int) -> int:
        tile = index % spec.n_tiles
        row, col = divmod(tile, spec.cols)
        if row % 2 == 1:
            col = spec.cols - 1 - col
        return row * spec.cols + col

    report = NocTrafficReport(spec=spec)
    for current, nxt in zip(layers, layers[1:]):
        bits = current.output_activations * activation_bits
        src = serpentine(layers.index(current))
        dst = serpentine(layers.index(nxt))
        report.flows.append((current.name, src, dst, float(bits)))
    return report


def noc_share_of_compute(
    profile: ModelProfile,
    compute_energy_pj: float,
    spec: Optional[MeshNocSpec] = None,
    activation_bits: int = 8,
) -> float:
    """NoC transport energy as a fraction of CiM compute energy.

    The number that justifies Fig. 9's simplification: when this is a
    few percent, folding NoC transport into the buffer term is sound.
    """
    if compute_energy_pj <= 0:
        raise ValueError("compute energy must be positive")
    report = map_layers_to_tiles(profile, spec, activation_bits)
    return report.total_energy_pj / compute_energy_pj
