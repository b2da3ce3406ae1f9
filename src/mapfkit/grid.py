"""Grid graphs: map parsing, neighbor queries, and BFS distance tables.

Maps use the MovingAI benchmark ``.map`` format. Passable cells receive
dense vertex ids in row-major order, so all solver code works on plain
integers instead of coordinates.
"""

from __future__ import annotations

import operator
from functools import cached_property
from types import MappingProxyType
from typing import Sequence

UNREACHABLE = -1

_PASSABLE_CHARS = frozenset(".G")
_BLOCKED_CHARS = frozenset("@OTSW")

# Neighbor offsets in the fixed order up, right, down, left. Keeping this
# order deterministic means all run-to-run variation comes from seeded RNGs.
_OFFSETS = ((0, -1), (1, 0), (0, 1), (-1, 0))


class MapParseError(ValueError):
    """A ``.map`` file violated the expected format."""


class DistTable:
    """Shortest-path lengths (number of moves) from every vertex to ``target``.

    The table is a breadth-first search out of ``target`` that runs only as
    far as its reads need. The read contract: after ``settle(v)``, the
    ``entries`` of ``v`` and of its neighbours are final and stay so; code
    outside this module relies on nothing else. Inside it, unsearched
    entries hold ``pending`` (|V| + 1), and every vertex at most ``level``
    (the last complete BFS level) from ``target`` is final. Once the
    frontier runs dry, the remaining pending entries become
    ``UNREACHABLE`` and ``level`` becomes ``pending``.

    ``table[v]`` settles ``v`` and returns its distance; :meth:`finish`
    searches to the end, and ``dist`` finishes and returns every distance
    as a tuple. ``dist[target]`` is 0 and vertices with no path hold
    ``UNREACHABLE``. A table is single-threaded mutable state until it is
    finished.
    """

    __slots__ = ("target", "entries", "pending", "level", "_frontier", "_adjacency")

    def __init__(self, graph: VertexGraph, target: int):
        self.target = graph.check_vertex(target)
        self._adjacency = graph.adjacency
        self.pending = len(self._adjacency) + 1
        self.entries = [self.pending] * len(self._adjacency)
        self.entries[self.target] = 0
        self.level = 0
        self._frontier = [self.target]

    def settle(self, v: int) -> None:
        """Search until ``v`` and every neighbour of ``v`` hold final entries."""
        entries = self.entries
        while entries[v] >= self.level:
            self._advance()

    def _advance(self) -> None:
        """Complete the next BFS level, or end the search if none is left."""
        entries = self.entries
        pending = self.pending
        frontier = self._frontier
        if not frontier:
            entries[:] = [UNREACHABLE if d == pending else d for d in entries]
            self.level = pending
            return
        d = self.level + 1
        reached: list[int] = []
        add = reached.append
        adjacency = self._adjacency
        for v in frontier:
            for u in adjacency[v]:
                if entries[u] == pending:
                    entries[u] = d
                    add(u)
        self._frontier = reached
        self.level = d

    @property
    def searched(self) -> int:
        """Number of vertices whose entry is final."""
        return len(self.entries) - self.entries.count(self.pending)

    def finish(self) -> None:
        """Search to the end: every entry is final afterwards."""
        while self.level < self.pending:
            self._advance()

    @property
    def dist(self) -> tuple[int, ...]:
        self.finish()
        return tuple(self.entries)

    def __getitem__(self, v: int) -> int:
        entries = self.entries
        if entries[v] >= self.level:
            self.settle(v)
        return entries[v]


class VertexGraph:
    """Unweighted undirected graph addressed by dense integer vertex ids.

    Every neighbour id must be a vertex id, 0 to |V| - 1; anything else
    raises ``ValueError``. Adjacency must be symmetric: ``u in
    adjacency[v]`` exactly when ``v in adjacency[u]``. This is not checked.
    Distance tables search out of their target, so on a one-way arc they
    give distances from the target, not to it.

    The graph is immutable after construction and keeps no distance
    tables, so one graph can serve concurrent solver runs. Each table
    belongs to the caller that created it with :func:`bfs_dist_table`.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in adjacency
        )
        size = len(self._adjacency)
        for v, row in enumerate(self._adjacency):
            for u in row:
                if not 0 <= u < size:
                    raise ValueError(
                        f"vertex {v} has neighbour {u!r}, not a vertex id in [0, {size})"
                    )

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists indexed by vertex id, for tight solver loops."""
        return self._adjacency

    def check_vertex(self, v: int) -> int:
        """``v`` as an ``int``; raises ``ValueError`` unless it is a vertex id.

        Any integer type that ``operator.index`` accepts, NumPy's included,
        is a valid id type.
        """
        try:
            vertex = operator.index(v)
        except TypeError:
            raise ValueError(f"invalid vertex id {v!r}") from None
        if not 0 <= vertex < len(self._adjacency):
            raise ValueError(f"invalid vertex id {v!r}")
        return vertex

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Adjacent vertices of ``v`` in a fixed deterministic order."""
        return self._adjacency[self.check_vertex(v)]

    def degree(self, v: int) -> int:
        return len(self._adjacency[self.check_vertex(v)])

    def dist_table(self, target: int) -> DistTable:
        """A new distance table to ``target``, searched to the end.

        Its callers are the benchmark harness and tests; a solve reads lazy tables.
        """
        table = bfs_dist_table(self, target)
        table.finish()
        return table


class GridMap(VertexGraph):
    """Four-connected grid with per-cell passability.

    Vertices are the passable cells, numbered 0..|V|-1 in row-major order.
    Coordinates are (x, y) = (column, row) with (0, 0) at the top left.

    Solution files name cells as ``(x,y)`` text. :attr:`coord_texts` and
    :attr:`coord_vertices` translate between that text and vertex ids by
    lookup, for solutions with at least twice as many cells as the grid
    has vertices. Each is built on its first use, not at construction,
    and is never changed afterwards, so a shared grid can serve
    concurrent readers (two threads that race to build one build equal
    values).
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
        cell = self._vertex_cells[self.check_vertex(v)]
        return cell % self.width, cell // self.width

    @cached_property
    def coord_texts(self) -> tuple[str, ...]:
        """``"(x,y)"`` of every vertex, indexed by vertex id."""
        width = self.width
        columns = [f"({x}," for x in range(width)]
        rows = [f"{y})" for y in range(self.height)]
        return tuple(
            [columns[cell % width] + rows[cell // width] for cell in self._vertex_cells]
        )

    @cached_property
    def coord_vertices(self) -> MappingProxyType[str, int]:
        """Vertex id of every passable cell, keyed by its ``"x,y"`` text.

        Keys are :attr:`coord_texts` without the parentheses, so they are
        canonical: decimal with no sign, leading zero or space.
        """
        texts = self.coord_texts
        return MappingProxyType({text[1:-1]: v for v, text in enumerate(texts)})

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
    """A new distance table to ``target``, searched only as far as it is read."""
    return DistTable(graph, target)
