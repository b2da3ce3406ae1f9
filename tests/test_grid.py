from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from mapfkit import (
    GridMap,
    Instance,
    MapParseError,
    SolverOptions,
    UNREACHABLE,
    VertexGraph,
    bfs_dist_table,
    format_solution,
    parse_map,
    parse_solution,
    solve,
    validate,
)
from mapfkit.bench import generate_map

from conftest import fixture_text


def _map_text(rows: list[str]) -> str:
    return (
        f"type octile\nheight {len(rows)}\nwidth {len(rows[0])}\nmap\n"
        + "\n".join(rows)
        + "\n"
    )


class TestParseMap:
    def test_corridor(self):
        grid = parse_map(_map_text(["..."]))
        assert grid.num_vertices == 3
        assert grid.degree(1) == 2
        assert grid.degree(0) == 1
        assert grid.degree(2) == 1

    def test_l_shape(self):
        grid = parse_map(_map_text([".@", ".."]))
        assert grid.num_vertices == 3
        assert sorted(grid.degree(v) for v in range(3)) == [1, 1, 2]
        assert grid.degree(grid.vertex_at(0, 1)) == 2

    def test_bundled_random_32_32_20(self):
        grid = parse_map(fixture_text("random-32-32-20.map"))
        assert grid.width == 32 and grid.height == 32
        assert grid.num_vertices == 819

    def test_crlf_tolerated(self):
        grid = parse_map(_map_text(["..", ".."]).replace("\n", "\r\n"))
        assert grid.num_vertices == 4

    def test_terrain_characters(self):
        grid = parse_map(_map_text([".G", "SW", "@O", "T."]))
        assert grid.num_vertices == 3  # G passable; S, W, @, O, T blocked

    @pytest.mark.parametrize(
        "text, line",
        [
            ("type quad\nheight 1\nwidth 1\nmap\n.\n", "line 1"),
            ("type octile\nheight x\nwidth 1\nmap\n.\n", "line 2"),
            ("type octile\nheight 1\nwidth 0\nmap\n\n", "line 3"),
            ("type octile\nheight 1\nwidth 1\nmop\n.\n", "line 4"),
            ("type octile\nheight 2\nwidth 1\nmap\n.\n", "line"),
            ("type octile\nheight 1\nwidth 2\nmap\n.\n", "line 5"),
            ("type octile\nheight 1\nwidth 1\nmap\n?\n", "line 5"),
        ],
    )
    def test_errors_name_lines(self, text, line):
        with pytest.raises(MapParseError, match=line):
            parse_map(text)


class TestNeighbors:
    def test_interior_has_four(self):
        grid = parse_map(_map_text(["...", "...", "..."]))
        center = grid.vertex_at(1, 1)
        assert len(grid.neighbors(center)) == 4

    def test_order_up_right_down_left(self):
        grid = parse_map(_map_text(["...", "...", "..."]))
        assert grid.neighbors(grid.vertex_at(1, 1)) == (
            grid.vertex_at(1, 0),
            grid.vertex_at(2, 1),
            grid.vertex_at(1, 2),
            grid.vertex_at(0, 1),
        )

    def test_corner_has_two(self):
        grid = parse_map(_map_text(["...", "...", "..."]))
        assert len(grid.neighbors(grid.vertex_at(0, 0))) == 2

    def test_corridor_end_has_one(self):
        grid = parse_map(_map_text(["..."]))
        assert len(grid.neighbors(0)) == 1

    def test_invalid_vertex_rejected(self):
        grid = parse_map(_map_text(["..."]))
        with pytest.raises(ValueError):
            grid.neighbors(3)
        with pytest.raises(ValueError):
            grid.degree(-1)

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_neighbour_outside_the_graph_rejected(self, bad):
        # -1 used to wrap to the last vertex, and ids past the end failed
        # only once a solve read them.
        with pytest.raises(ValueError, match=f"vertex 1 has neighbour {bad}"):
            VertexGraph([(1,), (0, bad)])

    def test_symmetry_on_random_maps(self):
        rng = random.Random(5)
        for _ in range(20):
            grid = generate_map(8, 8, rng.uniform(0.0, 0.4), rng)
            for v in range(grid.num_vertices):
                for u in grid.neighbors(v):
                    assert v in grid.neighbors(u)


class TestDistTable:
    def test_corridor_from_left_end(self):
        grid = parse_map(_map_text(["...."]))
        table = bfs_dist_table(grid, 0)
        assert list(table.dist) == [0, 1, 2, 3]

    def test_isolated_component_unreachable(self):
        grid = parse_map(_map_text([".@."]))
        table = bfs_dist_table(grid, 0)
        assert table[0] == 0
        assert table[1] == UNREACHABLE

    def test_empty_32x32_opposite_corners(self):
        grid = GridMap(32, 32, [True] * (32 * 32))
        table = bfs_dist_table(grid, grid.vertex_at(0, 0))
        assert table[grid.vertex_at(31, 31)] == 62

    def test_bfs_consistency_on_random_maps(self):
        rng = random.Random(11)
        for _ in range(10):
            grid = generate_map(10, 10, rng.uniform(0.0, 0.35), rng)
            target = rng.randrange(grid.num_vertices)
            table = grid.dist_table(target)
            for v in range(grid.num_vertices):
                for u in grid.neighbors(v):
                    if table[v] != UNREACHABLE and table[u] != UNREACHABLE:
                        assert abs(table[v] - table[u]) <= 1

    def test_cached_table_is_complete(self, tunnel_grid):
        table = tunnel_grid.dist_table(2)
        assert table.level == table.pending
        assert table.searched == tunnel_grid.num_vertices
        assert table.entries == reference_bfs(tunnel_grid.adjacency, 2)

    def test_numpy_vertex_ids(self, tunnel_grid):
        np = pytest.importorskip("numpy")
        v = np.int64(3)
        table = bfs_dist_table(tunnel_grid, v)
        assert type(table.target) is int and table.target == 3
        assert table.dist == bfs_dist_table(tunnel_grid, 3).dist
        assert tunnel_grid.dist_table(v).dist == tunnel_grid.dist_table(3).dist
        assert tunnel_grid.neighbors(v) == tunnel_grid.neighbors(3)
        assert tunnel_grid.degree(v) == tunnel_grid.degree(3)
        assert type(tunnel_grid.check_vertex(v)) is int
        for bad in (3.0, "3", None, np.float64(3)):
            with pytest.raises(ValueError):
                bfs_dist_table(tunnel_grid, bad)
            with pytest.raises(ValueError):
                tunnel_grid.dist_table(bad)

    def test_graph_holds_no_mutable_state(self):
        grid = parse_map(fixture_text("tunnel.map"))
        before = set(vars(grid))
        instance = Instance(grid=grid, starts=(3, 4), goals=(4, 3))
        grid.dist_table(3)
        bfs_dist_table(grid, 4)[0]
        outcome = solve(instance, SolverOptions(iteration_budget=200, seed=0))
        assert validate(instance, outcome.solution) is None
        text = format_solution(outcome.solution, grid)
        assert parse_solution(text, grid) == outcome.solution
        state = vars(grid)
        assert not [k for k, v in state.items() if isinstance(v, (dict, list, set))]
        assert before <= set(state) <= before | {"coord_texts", "coord_vertices"}


def reference_bfs(adjacency, target: int) -> list[int]:
    """Plain queue-based BFS: the reference ``bfs_dist_table`` must equal."""
    dist = [UNREACHABLE] * len(adjacency)
    dist[target] = 0
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if dist[u] == UNREACHABLE:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


@st.composite
def grids_with_target(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 0.6))
    passable = [draw(st.floats(0.0, 1.0)) >= density for _ in range(width * height)]
    # An optional fully blocked column cuts the map in two, so that cells
    # unreachable from the target are common.
    wall = draw(st.none() | st.integers(0, width - 1))
    if wall is not None:
        for y in range(height):
            passable[y * width + wall] = False
    if not any(passable):
        passable[draw(st.integers(0, width * height - 1))] = True
    grid = GridMap(width, height, passable)
    target = draw(st.integers(0, grid.num_vertices - 1))
    return grid, target


@st.composite
def explicit_graphs_with_target(draw):
    n = draw(st.integers(1, 25))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    rows: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        rows[a].add(b)
        rows[b].add(a)
    graph = VertexGraph([sorted(row) for row in rows])
    return graph, draw(st.integers(0, n - 1))


class TestBfsAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(grids_with_target())
    def test_grid(self, case):
        grid, target = case
        table = bfs_dist_table(grid, target)
        assert table.target == target
        assert isinstance(table.dist, tuple)
        assert list(table.dist) == reference_bfs(grid.adjacency, target)

    @settings(max_examples=150, deadline=None)
    @given(explicit_graphs_with_target())
    def test_explicit_graph(self, case):
        graph, target = case
        assert list(bfs_dist_table(graph, target).dist) == reference_bfs(
            graph.adjacency, target
        )


def _read_in_random_order(graph, target, order_seed):
    """Read a fresh table at half its vertices in a shuffled order, then finish it."""
    expected = reference_bfs(graph.adjacency, target)
    table = bfs_dist_table(graph, target)
    order = list(range(graph.num_vertices))
    random.Random(order_seed).shuffle(order)
    for v in order[: len(order) // 2 + 1]:
        assert table[v] == expected[v]
        # Settling v makes v and every neighbour final.
        for u in (v, *graph.adjacency[v]):
            assert table.entries[u] == expected[u]
    assert list(table.dist) == expected
    assert isinstance(table.dist, tuple)


class TestLazyTable:
    @settings(max_examples=150, deadline=None)
    @given(grids_with_target(), st.integers(0, 2**32 - 1))
    def test_random_reads_then_dist_grid(self, case, order_seed):
        _read_in_random_order(*case, order_seed)

    @settings(max_examples=150, deadline=None)
    @given(explicit_graphs_with_target(), st.integers(0, 2**32 - 1))
    def test_random_reads_then_dist_explicit_graph(self, case, order_seed):
        _read_in_random_order(*case, order_seed)

    @settings(max_examples=150, deadline=None)
    @given(grids_with_target(), st.data())
    def test_one_read_searches_one_level_past_the_vertex(self, case, data):
        grid, target = case
        expected = reference_bfs(grid.adjacency, target)
        v = data.draw(st.integers(0, grid.num_vertices - 1))
        table = bfs_dist_table(grid, target)
        table[v]
        if expected[v] == UNREACHABLE:
            # Only a search that ran dry can tell a vertex is unreachable.
            assert table.level == table.pending
            assert table.entries == expected
        else:
            assert table.level == expected[v] + 1
            assert table.searched == sum(
                1 for d in expected if d != UNREACHABLE and d <= table.level
            )
            assert all(
                e == (d if d != UNREACHABLE and d <= table.level else table.pending)
                for e, d in zip(table.entries, expected)
            )

    def test_fresh_table_has_searched_only_its_target(self, tunnel_grid):
        table = bfs_dist_table(tunnel_grid, 3)
        assert (table.level, table.searched) == (0, 1)
        assert table.entries[3] == 0


def test_serialize_reparse_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        grid = generate_map(7, 5, rng.uniform(0.0, 0.5), rng)
        again = parse_map(grid.to_text())
        assert again == grid
        assert again.num_vertices == grid.num_vertices
