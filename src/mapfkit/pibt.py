"""One-step configuration generation with priority inheritance.

Given a configuration, :func:`plan_step` produces a connected successor by
assigning each agent a next vertex greedily by goal distance. When the
desired vertex is occupied by a not-yet-planned agent, that agent is planned
first (priority inheritance); if it cannot make way, the requester falls
back to its next candidate (backtracking).

The optional swap mechanism detects head-to-head patterns in narrow
passages with two bounded emulations and makes the blocked agent retreat,
pulling its counterpart along, so the pair can rotate around a vertex of
degree three or more instead of livelocking.

Externally imposed pins (agent -> vertex for the next step) are honored
exactly; they are how the high-level search steers this generator.
"""

from __future__ import annotations

import functools
import random
from array import array
from typing import Callable, Iterator, Sequence

from . import grid
from .core import Config
from .grid import UNREACHABLE, DistTable, VertexGraph

_NO_AGENT = -1
_UNDECIDED = -1


class PinError(ValueError):
    """Pins were malformed: off-neighborhood or mutually colliding."""


def step_counts(previous: Sequence[int], q: Config, goals: Config) -> array:
    """Per agent, the steps taken since it last stood on its goal, at ``q``.

    An agent off its goal gains one, an agent on it starts over at zero. The
    counts are packed as ``'H'``, and as ``'I'`` while any count is above
    65,535: a long run can keep an agent off its goal that long.
    """
    counts = [s + 1 if v != goal else 0 for s, v, goal in zip(previous, q, goals)]
    try:
        return array("H", counts)
    except OverflowError:
        return array("I", counts)


def step_order(steps: Sequence[int]) -> list[int]:
    """Agents by descending step count, ties by ascending id.

    This is PIBT's dynamic priority, the order :func:`plan_step` plans in:
    the sort is stable and ``reverse`` keeps tied agents in their ascending
    order.
    """
    return sorted(range(len(steps)), key=steps.__getitem__, reverse=True)


class PibtContext:
    """Reusable per-run state for the step generator.

    Holds the graph, per-agent goal distance tables, the agents' dynamic
    priority as :func:`step_counts` in ``steps`` (read only by a
    :func:`plan_step` call given no ``order``, through :func:`step_order`),
    and the RNG seeded from ``seed``. The context owns its distance tables: it
    creates them with ``mapfkit.grid.bfs_dist_table`` and they are searched
    only as far as the step generator and the search read them; the step
    generator reads them as ``DistTable``'s read contract allows. A context
    is single-threaded mutable state; use one per solver run. Contexts for
    different runs are independent, and creating one changes nothing
    outside it: :func:`plan_step` plans inheritance chains on an explicit
    stack, so no recursion limit is raised.
    """

    def __init__(
        self,
        graph: VertexGraph,
        goals: Sequence[int],
        seed: int = 0,
        swap_enabled: bool = True,
    ):
        self.graph = graph
        self.goals: Config = tuple(map(graph.check_vertex, goals))
        self.n = len(self.goals)
        self.rng = random.Random(seed)
        self.swap_enabled = swap_enabled
        self.steps = array("H", [0]) * self.n
        self.dist_tables = [grid.bfs_dist_table(graph, g) for g in self.goals]
        # Candidate lists are at most one longer than the largest degree.
        self._shuffle_steps = _shuffle_step_table(
            max(map(len, graph.adjacency), default=0) + 1
        )
        self._adjacency = graph.adjacency
        # Scratch reused across calls: vertex -> agent occupancy maps.
        self._occupied_from = [_NO_AGENT] * graph.num_vertices
        self._occupied_to = [_NO_AGENT] * graph.num_vertices


def update_priorities(ctx: PibtContext, q: Config) -> None:
    """Advance the context's step counts after the agents reached ``q``."""
    ctx.steps = step_counts(ctx.steps, q, ctx.goals)


def _fisher_yates_steps(length: int) -> tuple[tuple[int, int], ...]:
    """The (k, bits) pairs of ``Random.shuffle`` over ``length`` items.

    For each k from the last index down to 1, ``Random._randbelow(k + 1)``
    draws ``getrandbits(bits)`` with ``bits = (k + 1).bit_length()`` until
    the value is at most k.
    """
    return tuple((k, (k + 1).bit_length()) for k in range(length - 1, 0, -1))


@functools.cache
def _shuffle_step_table(longest: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``_fisher_yates_steps(m)`` for every length m up to ``longest``."""
    return tuple(_fisher_yates_steps(m) for m in range(longest + 1))


def _shuffle(
    items: list[int],
    steps: tuple[tuple[int, int], ...],
    getrandbits: Callable[[int], int],
) -> None:
    """Shuffle ``items`` in place exactly as ``Random.shuffle`` would.

    ``steps`` is ``_fisher_yates_steps(len(items))`` and ``getrandbits`` the
    bound method of the generator; the draws, and so the permutation and
    the generator's state afterwards, are those of ``rng.shuffle(items)``.
    """
    for k, bits in steps:
        r = getrandbits(bits)
        while r > k:
            r = getrandbits(bits)
        items[k], items[r] = items[r], items[k]


def plan_step(
    ctx: PibtContext,
    q_from: Config,
    pins: dict[int, int] | None = None,
    order: Sequence[int] | None = None,
) -> Config | None:
    """Compute one connected successor of ``q_from``, or None on failure.

    Pinned agents receive exactly their pinned vertex. Remaining agents are
    assigned in ``order``, by default :func:`step_order` of the context's
    step counts; per agent, candidates are its neighbors plus staying put,
    sorted by distance to its goal, read after settling its table at its
    vertex, with ties broken by a seeded shuffle and unreachable ones last.
    An agent that wants the vertex of an agent not yet planned is set aside
    on an explicit stack while that agent is planned first, so chains of any
    length need no recursion. Failure (None) occurs only when the pins leave
    some agent without any legal assignment. Malformed pins raise
    :class:`PinError` instead; each pin is checked as it is written into the
    occupancy map, so the first malformed one in dict order is named. When
    every agent is pinned and the pins are well-formed, the pins are the
    answer and no random number is drawn. However the call ends, the
    context's scratch maps are left empty.
    """
    n = ctx.n
    if len(q_from) != n:
        raise ValueError("configuration length does not match context")
    adjacency = ctx._adjacency
    occ_from = ctx._occupied_from
    occ_to = ctx._occupied_to
    q_to: list[int] = [_UNDECIDED] * n
    touched_to: list[int] = []
    touch = touched_to.append

    try:
        for i, v in enumerate(q_from):
            occ_from[v] = i
        if pins:
            for agent, v in pins.items():
                if not 0 <= agent < n:
                    raise PinError(f"pin names unknown agent {agent}")
                here = q_from[agent]
                if v != here and v not in adjacency[here]:
                    raise PinError(f"pin for agent {agent} is outside its neighborhood")
                if occ_to[v] != _NO_AGENT:
                    raise PinError(f"agents {occ_to[v]} and {agent} pinned to one vertex")
                k = occ_from[v]
                if k != _NO_AGENT and q_to[k] == here:
                    raise PinError(f"agents {k} and {agent} pinned to exchange vertices")
                q_to[agent] = v
                occ_to[v] = agent
                touch(v)
            if len(pins) == n:
                # Every pin is checked against every other: no collision or
                # exchange is left, and no agent is left to plan.
                return tuple(q_to)

        tables = ctx.dist_tables
        shuffle_steps = ctx._shuffle_steps
        getrandbits = ctx.rng.getrandbits
        swap_enabled = ctx.swap_enabled
        # Agents waiting for the agent they push, each with what it needs to
        # go on: (agent, its vertex, the iterator over its candidates, the
        # candidate it reserved, its best candidate, its swap partner).
        waiting: list[tuple[int, int, Iterator[int], int, int, int]] = []
        wait = waiting.append
        resume = waiting.pop

        if order is None:
            order = step_order(ctx.steps)
        for i in order:
            if q_to[i] != _UNDECIDED:
                continue
            rest = None
            while True:
                if rest is None:
                    # Plan agent i: order its candidates.
                    here = q_from[i]
                    cand = [*adjacency[here], here]
                    _shuffle(cand, shuffle_steps[len(cand)], getrandbits)
                    table = tables[i]
                    table.settle(here)
                    dist = table.entries
                    # Stable sort by distance; ties keep their shuffled order.
                    # UNREACHABLE (-1) would sort first, so only then sort
                    # again with it ranked after every distance.
                    cand.sort(key=dist.__getitem__)
                    if dist[cand[0]] == UNREACHABLE:
                        cand.sort(
                            key=lambda u, d=dist: d[u] if d[u] != UNREACHABLE else len(d)
                        )

                    partner = _NO_AGENT
                    if swap_enabled:
                        partner_or_none = swap_required_and_possible(
                            ctx, i, q_from, cand[0], occ_from
                        )
                        # Staying put clears no target: skip the call that
                        # would say so.
                        if partner_or_none is None and cand[0] != here:
                            partner_or_none = _clear_target(
                                ctx, i, q_from, cand[0], occ_from
                            )
                        if partner_or_none is not None:
                            partner = partner_or_none
                            cand.reverse()
                    head = cand[0]
                    rest = iter(cand)

                # Reserve i's next free candidate.
                for v in rest:
                    if occ_to[v] != _NO_AGENT:
                        continue
                    k = occ_from[v]
                    if k != _NO_AGENT and k != i and q_to[k] == here:
                        continue  # the agent leaving v would be exchanged with i
                    occ_to[v] = i
                    touch(v)
                    q_to[i] = v
                    if k != _NO_AGENT and k != i and q_to[k] == _UNDECIDED:
                        # k must make way first; i waits for its answer.
                        wait((i, here, rest, v, head, partner))
                        i = k
                        rest = None
                    break
                else:
                    # No candidate is free: i stays, on the vertex its pusher
                    # (if any) reserved, which then tries its next candidate.
                    q_to[i] = here
                    occ_to[here] = i
                    touch(here)
                    if waiting:
                        i, here, rest, v, head, partner = resume()
                        continue
                    break
                if rest is None:
                    continue

                # i keeps v. Each agent waiting on the chain keeps its own
                # reservation in turn, and one that took its best candidate
                # pulls its swap partner onto the vertex it left, if legal.
                while True:
                    if v == head and partner != _NO_AGENT and q_to[partner] == _UNDECIDED:
                        k = occ_from[here]
                        if occ_to[here] == _NO_AGENT and not (
                            k != _NO_AGENT and k != partner and q_to[k] == q_from[partner]
                        ):
                            q_to[partner] = here
                            occ_to[here] = partner
                            touch(here)
                    if not waiting:
                        break
                    i, here, rest, v, head, partner = resume()
                break

        # Pins can force an agent into an unresolvable stay; reject such
        # outputs. Pinned agents keep their pins and moves are adjacent by
        # construction, so only collisions need re-checking: an agent that
        # does not own its final vertex in the occupancy map was overwritten.
        for i in range(n):
            v = q_to[i]
            if v == _UNDECIDED or occ_to[v] != i:
                return None
            if v != q_from[i]:
                k = occ_from[v]
                if k != _NO_AGENT and k != i and q_to[k] == q_from[i]:
                    return None
        return tuple(q_to)
    finally:
        for v in touched_to:
            occ_to[v] = _NO_AGENT
        for v in q_from:
            occ_from[v] = _NO_AGENT


def _best_step_toward(
    adjacency: Sequence[Sequence[int]], table: Sequence[int], v: int
) -> int | None:
    """Neighbor of ``v`` strictly closer to ``table``'s target; ties break by id."""
    here = table[v]
    if here == UNREACHABLE:
        return None
    best: int | None = None
    best_d = here
    for u in adjacency[v]:
        d = table[u]
        if d == UNREACHABLE or d >= here:
            continue
        if d < best_d or (d == best_d and best is not None and u < best):
            best, best_d = u, d
    return best


def _swap_required(
    ctx: PibtContext,
    pusher_goal: int,
    table: DistTable,
    v_pusher: int,
    v_retreater: int,
) -> bool:
    """Emulate the pusher advancing into the retreater's cell.

    The retreater always backs off to its cell other than the pusher's,
    ignoring all other agents. The swap is required if the retreater gets
    cornered in a dead end, or if the pusher arrives at its goal while the
    retreater's only improving move is through that goal. It is not required
    once the retreater reaches a vertex of degree above two. The walk is
    bounded by the vertex count; running out of budget counts as no.
    The pusher stands next to the retreater, so with symmetric adjacency a
    corridor vertex leaves one cell to back off to and no distance is read
    there; ``table``, the retreater's goal table, is read (settled) only
    once the pusher is on its goal.
    """
    adjacency = ctx._adjacency
    for _ in range(len(adjacency)):
        row = adjacency[v_retreater]
        if len(row) < 2:
            return True
        if v_pusher == pusher_goal:
            table.settle(v_retreater)
            return _best_step_toward(adjacency, table.entries, v_retreater) == pusher_goal
        if len(row) > 2:
            return False
        v_pusher, v_retreater = v_retreater, row[row[0] == v_pusher]
    return False


def _swap_possible(ctx: PibtContext, v_advancer: int, v_retreater: int) -> bool:
    """Emulate the reversed direction: the retreater backs away instead.

    Possible once the retreater stands on a vertex of degree above two
    (room to rotate); impossible if it hits a dead end. Bounded like
    :func:`_swap_required`, and like it reads no distance: in a corridor the
    cell away from the advancer is the only one left.
    """
    adjacency = ctx._adjacency
    for _ in range(len(adjacency)):
        row = adjacency[v_retreater]
        if len(row) > 2:
            return True
        if len(row) < 2:
            return False
        v_advancer, v_retreater = v_retreater, row[row[0] == v_advancer]
    return False


def swap_required_and_possible(
    ctx: PibtContext,
    i: int,
    q_from: Config,
    best_candidate: int,
    occupied_from: Sequence[int],
) -> int | None:
    """Agent to swap with when ``i``'s best move is blocked head-on, else None.

    Fires only when another agent sits on ``i``'s best candidate vertex and
    that vertex has degree two or less. Both emulations must agree: the swap
    is required (first emulation) and possible (second, reversed emulation).
    ``occupied_from`` maps each vertex to the agent on it in ``q_from``, or
    to -1.
    """
    if best_candidate == q_from[i]:
        return None
    j = occupied_from[best_candidate]
    if j == _NO_AGENT or j == i:
        return None
    if len(ctx._adjacency[best_candidate]) > 2:
        return None
    if _swap_required(
        ctx, ctx.goals[i], ctx.dist_tables[j], q_from[i], q_from[j]
    ) and _swap_possible(ctx, q_from[j], q_from[i]):
        return j
    return None


def _clear_target(
    ctx: PibtContext,
    i: int,
    q_from: Config,
    best_candidate: int,
    occupied_from: Sequence[int],
) -> int | None:
    """Detect an agent behind ``i`` that is due to swap with ``i``.

    Covers the junction-clearing pattern: some neighbor agent k wants to
    travel through ``i``'s cell and beyond, so the two emulations are run
    one step ahead, as if k already stood on ``i``'s cell and ``i`` on its
    best candidate. A hit makes ``i`` retreat exactly like a direct swap.
    """
    here = q_from[i]
    if best_candidate == here:
        return None
    tables = ctx.dist_tables
    for u in ctx._adjacency[here]:
        k = occupied_from[u]
        if k == _NO_AGENT or k == i or q_from[k] == best_candidate:
            continue
        if _swap_required(
            ctx, ctx.goals[k], tables[i], here, best_candidate
        ) and _swap_possible(ctx, best_candidate, here):
            return k
    return None
