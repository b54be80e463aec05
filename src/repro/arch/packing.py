"""Weight-to-subarray packing optimization.

Section 4.3.2: "The weight mapping scheme is optimized in a way of
storing the weights of different layers to the same sub-array, so as to
achieve high ADC utilization and thus reduced latency."

A layer whose unrolled matrix is 27 x 16 occupies a fraction of a
128 x 32-word subarray: 27 of 128 word lines, 16 of 32 logical columns.
Mapped alone it wastes ~90% of the array *and* of the ADC conversions
spent on its passes.  This module reproduces the optimization as 2-D
shelf packing: tiles cut to the subarray geometry are co-located in
row bands ("shelves") of shared subarrays using first-fit-decreasing,
and the result reports array utilization and the latency model's pass
count next to the naive one-tile-per-subarray mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cim.macro import MacroConfig
from repro.models.profile import ModelProfile


@dataclass(frozen=True)
class WeightTile:
    """One subarray-sized (or smaller) piece of a layer's weight matrix."""

    layer_name: str
    rows: int
    cols: int  # logical (multi-bit word) columns

    @property
    def words(self) -> int:
        return self.rows * self.cols


@dataclass
class Shelf:
    """A horizontal row band of a subarray holding tiles side by side."""

    row_start: int
    height: int
    used_cols: int = 0
    tiles: List[WeightTile] = field(default_factory=list)


@dataclass
class SubarrayAssignment:
    """Tiles co-located in one physical subarray, organised in shelves."""

    shelves: List[Shelf] = field(default_factory=list)

    @property
    def tiles(self) -> List[WeightTile]:
        return [tile for shelf in self.shelves for tile in shelf.tiles]

    def used_rows(self) -> int:
        return sum(shelf.height for shelf in self.shelves)

    def passes(self, cols_per_pass: int) -> int:
        """Serial macro passes to read every stored word once.

        Each shelf activates its own row band; its columns stream
        through the shared ADC bank ``cols_per_pass`` at a time.
        """
        return sum(
            math.ceil(shelf.used_cols / cols_per_pass) for shelf in self.shelves
        )


@dataclass
class PackingResult:
    """Outcome of mapping a model's weight layers onto subarrays."""

    assignments: List[SubarrayAssignment]
    config: MacroConfig
    total_words: int

    @property
    def n_subarrays(self) -> int:
        return len(self.assignments)

    @property
    def array_utilization(self) -> float:
        """Stored words / capacity of all allocated subarrays."""
        capacity = self.n_subarrays * self.config.rows * self.config.logical_columns
        return self.total_words / capacity if capacity else 0.0

    @property
    def total_passes(self) -> int:
        cols_per_pass = max(1, self.config.n_adcs // self.config.weight_bits)
        return sum(a.passes(cols_per_pass) for a in self.assignments)


def _cut_tiles(profile: ModelProfile, config: MacroConfig) -> List[WeightTile]:
    """Cut every weight layer into subarray-geometry tiles."""
    tiles: List[WeightTile] = []
    for layer in profile.weight_layers():
        rows, cols = layer.matrix_shape
        for r0 in range(0, rows, config.rows):
            tile_rows = min(config.rows, rows - r0)
            for c0 in range(0, cols, config.logical_columns):
                tile_cols = min(config.logical_columns, cols - c0)
                tiles.append(WeightTile(layer.name, tile_rows, tile_cols))
    return tiles


def pack_naive(
    profile: ModelProfile, config: Optional[MacroConfig] = None
) -> PackingResult:
    """One-tile-per-subarray baseline mapping."""
    config = config if config is not None else MacroConfig()
    tiles = _cut_tiles(profile, config)
    assignments = [
        SubarrayAssignment(
            shelves=[Shelf(0, tile.rows, used_cols=tile.cols, tiles=[tile])]
        )
        for tile in tiles
    ]
    return PackingResult(
        assignments=assignments,
        config=config,
        total_words=sum(tile.words for tile in tiles),
    )


def pack_first_fit(
    profile: ModelProfile, config: Optional[MacroConfig] = None
) -> PackingResult:
    """First-fit-decreasing 2-D shelf packing across layers.

    Tiles are sorted by height (rows, descending): each is placed on
    the first shelf with enough free columns and height; failing that a
    new shelf opens in the first subarray with enough free rows;
    failing that a new subarray opens.  Different layers therefore
    share subarrays both side-by-side (columns) and stacked (rows) —
    the paper's "weights of different layers to the same sub-array".
    """
    config = config if config is not None else MacroConfig()
    tiles = sorted(_cut_tiles(profile, config), key=lambda t: (-t.rows, -t.cols))
    assignments: List[SubarrayAssignment] = []
    max_cols = config.logical_columns
    max_rows = config.rows

    for tile in tiles:
        placed = False
        for assignment in assignments:
            for shelf in assignment.shelves:
                if tile.rows <= shelf.height and tile.cols <= max_cols - shelf.used_cols:
                    shelf.tiles.append(tile)
                    shelf.used_cols += tile.cols
                    placed = True
                    break
            if placed:
                break
            if tile.rows <= max_rows - assignment.used_rows():
                shelf = Shelf(
                    row_start=assignment.used_rows(),
                    height=tile.rows,
                    used_cols=tile.cols,
                    tiles=[tile],
                )
                assignment.shelves.append(shelf)
                placed = True
                break
        if not placed:
            assignments.append(
                SubarrayAssignment(
                    shelves=[Shelf(0, tile.rows, used_cols=tile.cols, tiles=[tile])]
                )
            )
    return PackingResult(
        assignments=assignments,
        config=config,
        total_words=sum(tile.words for tile in tiles),
    )


def compare_packings(
    profile: ModelProfile, config: Optional[MacroConfig] = None
) -> dict:
    """Naive vs optimized packing: the section 4.3.2 ablation."""
    config = config if config is not None else MacroConfig()
    naive = pack_naive(profile, config)
    packed = pack_first_fit(profile, config)
    return {
        "naive_subarrays": naive.n_subarrays,
        "packed_subarrays": packed.n_subarrays,
        "subarray_saving": naive.n_subarrays / packed.n_subarrays,
        "naive_array_utilization": naive.array_utilization,
        "packed_array_utilization": packed.array_utilization,
        "naive_passes": naive.total_passes,
        "packed_passes": packed.total_passes,
    }
