from __future__ import annotations

import random
from pathlib import Path

import pytest

from mapfkit import GridMap, Instance, VertexGraph, parse_map
from mapfkit.bench import generate_map

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def corridor_grid() -> GridMap:
    return parse_map(fixture_text("corridor.map"))


@pytest.fixture(scope="session")
def tunnel_grid() -> GridMap:
    """3-wide bar with a 3-cell stem under the middle; junction has degree 3.

    Vertex ids: 0 1 2 across the bar, 3 4 5 down the stem.
    """
    return parse_map(fixture_text("tunnel.map"))


@pytest.fixture(scope="session")
def tunnel_instance(tunnel_grid: GridMap) -> Instance:
    """Two agents facing each other in the stem; they must swap."""
    return Instance(grid=tunnel_grid, starts=(3, 4), goals=(4, 3))


@pytest.fixture(scope="session")
def tunnel4_instance() -> Instance:
    """Four stacked agents reversing their order through one junction."""
    grid = parse_map(fixture_text("tunnel4.map"))
    stem = [grid.vertex_at(2, r) for r in range(1, 6)]
    return Instance(grid=grid, starts=tuple(stem[:4]), goals=tuple(reversed(stem[:4])))


@pytest.fixture(scope="session")
def swap2_instance() -> Instance:
    """Two agents exchanging on a 2-cell map: unsolvable."""
    grid = parse_map(fixture_text("swap2.map"))
    return Instance(grid=grid, starts=(0, 1), goals=(1, 0))


@pytest.fixture(scope="session")
def branch_graph() -> VertexGraph:
    """Path a-b-c plus d above b with an extra d-c edge, then e right of c.

    Not a grid: d is adjacent to both b and c. Used to exercise priority
    inheritance exactly as in the three-agent crossing scenario.
    Ids: a=0, b=1, c=2, d=3, e=4.
    """
    return VertexGraph(
        [
            (1,),  # a
            (0, 2, 3),  # b
            (1, 3, 4),  # c
            (1, 2),  # d
            (2,),  # e
        ]
    )


def random_instance(
    rng: random.Random,
    width: int,
    height: int,
    density: float,
    n: int,
    connected_only: bool = False,
) -> Instance | None:
    """Sample an instance with starts/goals drawn over all passable cells."""
    grid = generate_map(width, height, density, rng)
    if connected_only:
        from mapfkit.bench import largest_component

        pool = largest_component(grid)
    else:
        pool = list(range(grid.num_vertices))
    if len(pool) < n:
        return None
    starts = tuple(rng.sample(pool, n))
    goals = tuple(rng.sample(pool, n))
    return Instance(grid=grid, starts=starts, goals=goals)
