"""Grid graphs: map parsing, neighbor queries, and BFS distance tables.

Maps use the MovingAI benchmark ``.map`` format. Passable cells receive
dense vertex ids in row-major order, so all solver code works on plain
integers instead of coordinates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

UNREACHABLE = -1

_PASSABLE_CHARS = frozenset(".G")
_BLOCKED_CHARS = frozenset("@OTSW")

# Neighbor offsets in the fixed order up, right, down, left. Keeping this
# order deterministic means all run-to-run variation comes from seeded RNGs.
_OFFSETS = ((0, -1), (1, 0), (0, 1), (-1, 0))


class MapParseError(ValueError):
    """A ``.map`` file violated the expected format."""


@dataclass(frozen=True)
class DistTable:
    """Shortest-path lengths (number of moves) from every vertex to ``target``.

    ``dist[target]`` is 0 and vertices with no path hold ``UNREACHABLE``.
    """

    target: int
    dist: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.dist[v]

    def __len__(self) -> int:
        return len(self.dist)


class VertexGraph:
    """Unweighted undirected graph addressed by dense integer vertex ids.

    Adjacency must be symmetric: ``u in adjacency[v]`` exactly when
    ``v in adjacency[u]``. This is not checked. Distance tables search out
    of their target, so on a one-way arc they give distances from the
    target, not to it.

    The graph is immutable after construction. Distance tables are computed
    lazily per target vertex and cached; the cache is lock-guarded so a
    shared graph can serve concurrent solver runs.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in adjacency
        )
        self._dist_tables: dict[int, DistTable] = {}
        self._dist_lock = threading.Lock()

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists indexed by vertex id, for tight solver loops."""
        return self._adjacency

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < len(self._adjacency):
            raise ValueError(f"invalid vertex id {v!r}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Adjacent vertices of ``v`` in a fixed deterministic order."""
        self.check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adjacency[v])

    def dist_table(self, target: int) -> DistTable:
        table = self._dist_tables.get(target)
        if table is None:
            with self._dist_lock:
                table = self._dist_tables.get(target)
                if table is None:
                    table = bfs_dist_table(self, target)
                    self._dist_tables[target] = table
        return table


# A graph built from an explicit adjacency list, for non-grid layouts in
# tests and experiments: the solver stack only needs this interface.
ExplicitGraph = VertexGraph


class GridMap(VertexGraph):
    """Four-connected grid with per-cell passability.

    Vertices are the passable cells, numbered 0..|V|-1 in row-major order.
    Coordinates are (x, y) = (column, row) with (0, 0) at the top left.
    """

    def __init__(self, width: int, height: int, passable: Sequence[bool]):
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        if len(passable) != width * height:
            raise ValueError("passable grid size does not match dimensions")
        self.width = width
        self.height = height
        self.passable: tuple[bool, ...] = tuple(bool(p) for p in passable)

        cell_to_vertex = [-1] * (width * height)
        vertex_cells: list[int] = []
        for cell, ok in enumerate(self.passable):
            if ok:
                cell_to_vertex[cell] = len(vertex_cells)
                vertex_cells.append(cell)
        self._cell_to_vertex = tuple(cell_to_vertex)
        self._vertex_cells = tuple(vertex_cells)

        adjacency: list[tuple[int, ...]] = []
        for cell in vertex_cells:
            x, y = cell % width, cell // width
            row: list[int] = []
            for dx, dy in _OFFSETS:
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    nv = cell_to_vertex[ny * width + nx]
                    if nv >= 0:
                        row.append(nv)
            adjacency.append(tuple(row))
        super().__init__(adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.passable == other.passable
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.passable))

    def __repr__(self) -> str:
        return (
            f"GridMap({self.width}x{self.height}, "
            f"|V|={self.num_vertices})"
        )

    def vertex_at(self, x: int, y: int) -> int:
        """Vertex id of the passable cell at (x, y); raises if blocked."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell ({x}, {y}) is outside the map")
        v = self._cell_to_vertex[y * self.width + x]
        if v < 0:
            raise ValueError(f"cell ({x}, {y}) is blocked")
        return v

    def coords(self, v: int) -> tuple[int, int]:
        self.check_vertex(v)
        cell = self._vertex_cells[v]
        return cell % self.width, cell // self.width

    def to_text(self) -> str:
        """Serialize back to ``.map`` format ('.' passable, '@' blocked)."""
        lines = ["type octile", f"height {self.height}", f"width {self.width}", "map"]
        for y in range(self.height):
            row = self.passable[y * self.width : (y + 1) * self.width]
            lines.append("".join("." if p else "@" for p in row))
        return "\n".join(lines) + "\n"


def parse_map(text: str) -> GridMap:
    """Parse MovingAI ``.map`` text into a :class:`GridMap`.

    Header is four lines: ``type octile``, ``height H``, ``width W``, ``map``,
    followed by H rows of W terrain characters. ``.`` and ``G`` are passable;
    ``@``, ``O``, ``T``, ``S`` and ``W`` are blocked (swamp and water are
    treated conservatively as impassable). Errors name the offending
    1-based line number. Accepts LF or CRLF newlines.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4:
        raise MapParseError("line 1: truncated header")
    if lines[0].split() != ["type", "octile"]:
        raise MapParseError(f"line 1: expected 'type octile', got {lines[0]!r}")

    def _header_int(idx: int, key: str) -> int:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise MapParseError(f"line {idx + 1}: expected '{key} <n>', got {lines[idx]!r}")
        try:
            value = int(parts[1])
        except ValueError:
            raise MapParseError(f"line {idx + 1}: '{key}' is not an integer") from None
        if value <= 0:
            raise MapParseError(f"line {idx + 1}: '{key}' must be positive")
        return value

    height = _header_int(1, "height")
    width = _header_int(2, "width")
    if lines[3].strip() != "map":
        raise MapParseError(f"line 4: expected 'map', got {lines[3]!r}")

    rows = lines[4:]
    if len(rows) != height:
        raise MapParseError(
            f"line {len(lines)}: expected {height} map rows, found {len(rows)}"
        )
    passable: list[bool] = []
    for r, row in enumerate(rows):
        lineno = 5 + r
        if len(row) != width:
            raise MapParseError(
                f"line {lineno}: row has {len(row)} cells, expected {width}"
            )
        for ch in row:
            if ch in _PASSABLE_CHARS:
                passable.append(True)
            elif ch in _BLOCKED_CHARS:
                passable.append(False)
            else:
                raise MapParseError(f"line {lineno}: unknown terrain character {ch!r}")
    return GridMap(width, height, passable)


def bfs_dist_table(graph: VertexGraph, target: int) -> DistTable:
    """Exact BFS shortest-path lengths from all vertices to ``target``."""
    graph.check_vertex(target)
    adjacency = graph.adjacency
    dist = [UNREACHABLE] * len(adjacency)
    dist[target] = 0
    frontier = [target]
    d = 0
    while frontier:
        d += 1
        reached: list[int] = []
        add = reached.append
        for v in frontier:
            for u in adjacency[v]:
                if dist[u] == UNREACHABLE:
                    dist[u] = d
                    add(u)
        frontier = reached
    return DistTable(target=target, dist=tuple(dist))
