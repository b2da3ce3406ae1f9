"""Call-boundary tracer for the mapfkit engine, installed from outside.

The tracer replaces public engine functions with timing wrappers at the
place where their caller looks them up (``lacam.solve`` resolves
``plan_step`` through ``mapfkit.lacam``, ``VertexGraph.dist_table``
resolves ``bfs_dist_table`` through ``mapfkit.grid``, and so on), so the
engine's source is never edited. Spans are aggregated in memory per name:
call count, inclusive time, self time (inclusive minus the time of traced
spans opened inside it), and how many calls returned ``None`` or raised.
Calls are also counted per (parent span, child span) pair, which is how
rewire relaxations are counted: edge-cost calls made inside ``rewire``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # Calls that returned None or raised.
    empty: int = 0


class Tracer:
    """Aggregating span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], int] = {}
        # One [name, child seconds] entry per open span.
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        edges = self.edges
        clock = self._clock

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if result is None:
                    stats.empty += 1
                if stack:
                    stack[-1][1] += elapsed
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        return traced

    def wrap_factory(self, name: str, factory: Callable) -> Callable:
        """Wrap the callables that ``factory`` returns, not ``factory`` itself."""

        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced engine boundary; see the module docstring."""
        import mapfkit.core as core
        import mapfkit.grid as grid
        import mapfkit.lacam as lacam
        import mapfkit.pibt as pibt

        if self._saved:
            raise RuntimeError("tracer is already installed")
        spans = (
            (grid, "parse_map", "grid.parse_map"),
            (grid, "bfs_dist_table", "grid.bfs_dist_table"),
            (grid.VertexGraph, "dist_table", "grid.dist_table"),
            (core, "parse_scenario", "core.parse_scenario"),
            (core, "validate", "core.validate"),
            (core, "format_solution", "core.format_solution"),
            (core, "parse_solution", "core.parse_solution"),
            (lacam, "solve", "lacam.solve"),
            (lacam, "generate_configuration", "lacam.generate_configuration"),
            (lacam, "low_level_expand", "lacam.low_level_expand"),
            (lacam, "rewire", "lacam.rewire"),
            (lacam, "heuristic", "core.heuristic"),
            (lacam, "plan_step", "pibt.plan_step"),
            (pibt, "swap_required_and_possible", "pibt.swap_required_and_possible"),
        )
        try:
            for owner, attr, name in spans:
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
            self._patch(
                lacam,
                "edge_cost_fn",
                self.wrap_factory("core.edge_cost", lacam.edge_cost_fn),
            )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
