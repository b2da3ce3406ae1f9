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

import random
import sys
from typing import Callable, Sequence

from .core import Config
from .grid import UNREACHABLE, VertexGraph

_NO_AGENT = -1
_UNDECIDED = -1


class PinError(ValueError):
    """Pins were malformed: off-neighborhood or mutually colliding."""


def initial_priorities(n: int) -> list[float]:
    """Base priorities: zero integer part, agent-id fraction as tie-break."""
    return [(n - i - 1) / n for i in range(n)]


def bumped_priorities(
    previous: Sequence[float], q: Config, goals: Config
) -> list[float]:
    """Advance priorities by one step taken at configuration ``q``.

    Agents away from their goal gain 1; agents on their goal reset to the
    base value. The fractional agent-id tie-break is preserved, so all
    priorities stay pairwise distinct.
    """
    n = len(q)
    base = initial_priorities(n)
    return [
        previous[i] + 1.0 if q[i] != goals[i] else base[i] for i in range(n)
    ]


def priority_order(priorities: Sequence[float]) -> list[int]:
    """Agents by descending priority, the order :func:`plan_step` plans in."""
    return sorted(range(len(priorities)), key=lambda i: -priorities[i])


class PibtContext:
    """Reusable per-run state for the step generator.

    Holds the graph, per-agent goal distance tables, the dynamic priority
    vector (read only by a :func:`plan_step` call given no ``order``), and
    the RNG seeded from ``seed``. A context is single-threaded mutable
    state; use one per solver run. Contexts for different runs are
    independent.
    """

    def __init__(
        self,
        graph: VertexGraph,
        goals: Sequence[int],
        seed: int = 0,
        swap_enabled: bool = True,
        priorities: Sequence[float] | None = None,
    ):
        self.graph = graph
        self.goals: Config = tuple(goals)
        self.n = len(self.goals)
        self.rng = random.Random(seed)
        self.swap_enabled = swap_enabled
        if priorities is None:
            self.priorities = initial_priorities(self.n)
        else:
            if len(priorities) != self.n:
                raise ValueError("priorities length must match agent count")
            self.priorities = list(priorities)
        self.dist_tables = [graph.dist_table(g) for g in self.goals]
        # Per-solve invariants of the hot loop, read once instead of per agent.
        self._dists = [table.dist for table in self.dist_tables]
        self._big = graph.num_vertices + 1
        # Candidate lists are at most one longer than the largest degree.
        longest = max(map(len, graph.adjacency), default=0) + 1
        self._shuffle_steps = [_fisher_yates_steps(m) for m in range(longest + 1)]
        # Inheritance chains recurse at most one frame set per agent.
        needed = 3 * self.n + 500
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        self._adjacency = graph.adjacency
        # Scratch reused across calls: vertex -> agent occupancy maps.
        self._occupied_from = [_NO_AGENT] * graph.num_vertices
        self._occupied_to = [_NO_AGENT] * graph.num_vertices


def update_priorities(ctx: PibtContext, q: Config) -> None:
    """Bump the context's priorities after the agents reached ``q``."""
    ctx.priorities = bumped_priorities(ctx.priorities, q, ctx.goals)


def pin_problem(graph: VertexGraph, q_from: Config, pins: dict[int, int]) -> str | None:
    """Why the pins are malformed, or None if they are acceptable."""
    if not pins:
        return None
    n = len(q_from)
    adjacency = graph.adjacency
    targets: dict[int, int] = {}
    at: dict[int, int] = {}
    for agent, v in pins.items():
        if not 0 <= agent < n:
            return f"pin names unknown agent {agent}"
        here = q_from[agent]
        if v != here and v not in adjacency[here]:
            return f"pin for agent {agent} is outside its neighborhood"
        if v in targets:
            return f"agents {targets[v]} and {agent} pinned to one vertex"
        targets[v] = agent
        at[here] = agent
    for agent, v in pins.items():
        other = at.get(v)
        if other is not None and other != agent and pins[other] == q_from[agent]:
            return f"agents {agent} and {other} pinned to exchange vertices"
    return None


def _fisher_yates_steps(length: int) -> tuple[tuple[int, int], ...]:
    """The (k, bits) pairs of ``Random.shuffle`` over ``length`` items.

    For each k from the last index down to 1, ``Random._randbelow(k + 1)``
    draws ``getrandbits(bits)`` with ``bits = (k + 1).bit_length()`` until
    the value is at most k.
    """
    return tuple((k, (k + 1).bit_length()) for k in range(length - 1, 0, -1))


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
    assigned in ``order``, by default :func:`priority_order` of the
    context's priorities; per agent, candidates are its neighbors plus
    staying put, sorted by distance to its goal with ties broken by a
    seeded shuffle. Failure (None) occurs only when the pins leave some
    agent without any legal assignment. Malformed pins raise
    :class:`PinError` instead.
    """
    if len(q_from) != ctx.n:
        raise ValueError("configuration length does not match context")
    if pins is None:
        pins = {}
    problem = pin_problem(ctx.graph, q_from, pins)
    if problem is not None:
        raise PinError(problem)

    adjacency = ctx._adjacency
    dists = ctx._dists
    big = ctx._big
    shuffle_steps = ctx._shuffle_steps
    getrandbits = ctx.rng.getrandbits
    swap_enabled = ctx.swap_enabled
    occ_from = ctx._occupied_from
    occ_to = ctx._occupied_to
    q_to: list[int] = [_UNDECIDED] * ctx.n
    touched_to: list[int] = []
    touch = touched_to.append

    for i, v in enumerate(q_from):
        occ_from[v] = i
    for agent, v in pins.items():
        q_to[agent] = v
        occ_to[v] = agent
        touch(v)

    def assign(i: int) -> bool:
        """Plan agent ``i``; returns False if it had to stay put blocked."""
        here = q_from[i]
        cand = [*adjacency[here], here]
        _shuffle(cand, shuffle_steps[len(cand)], getrandbits)
        dist = dists[i]
        # Stable sort by distance; UNREACHABLE (-1) would sort first, so only
        # then sort again with unreachable candidates ranked last. Ties keep
        # their shuffled order either way.
        cand.sort(key=dist.__getitem__)
        if dist[cand[0]] == UNREACHABLE:
            cand.sort(key=lambda u: dist[u] if dist[u] != UNREACHABLE else big)

        partner = _NO_AGENT
        if swap_enabled:
            partner_or_none = swap_required_and_possible(
                ctx, i, q_from, cand[0], occ_from
            )
            if partner_or_none is None:
                partner_or_none = _clear_target(ctx, i, q_from, cand[0], occ_from)
            if partner_or_none is not None:
                partner = partner_or_none
                cand.reverse()
        head = cand[0]

        for v in cand:
            if occ_to[v] != _NO_AGENT:
                continue
            k = occ_from[v]
            if k != _NO_AGENT and k != i and q_to[k] == here:
                continue  # the agent leaving v would be exchanged with i
            occ_to[v] = i
            touch(v)
            q_to[i] = v
            if k != _NO_AGENT and k != i and q_to[k] == _UNDECIDED:
                if not assign(k):
                    # k ended up staying on v; our reservation was replaced.
                    continue
            if v == head and partner != _NO_AGENT and q_to[partner] == _UNDECIDED:
                _pull(partner, here)
            return True
        q_to[i] = here
        occ_to[here] = i
        touch(here)
        return False

    def _pull(agent: int, target: int) -> None:
        """Pull ``agent`` onto the vertex just vacated, if that stays legal."""
        if occ_to[target] != _NO_AGENT:
            return
        k = occ_from[target]
        if k != _NO_AGENT and k != agent and q_to[k] == q_from[agent]:
            return
        q_to[agent] = target
        occ_to[target] = agent
        touch(target)

    if order is None:
        order = priority_order(ctx.priorities)
    for i in order:
        if q_to[i] == _UNDECIDED:
            assign(i)

    # Pins can force an agent into an unresolvable stay; reject such outputs.
    # Adjacency holds by construction, so only collisions need re-checking:
    # an agent whose final vertex is owned by someone else in the occupancy
    # map was overwritten, i.e. two agents share a vertex.
    ok = True
    for i in range(ctx.n):
        v = q_to[i]
        if v == _UNDECIDED or occ_to[v] != i:
            ok = False
            break
        if v != q_from[i]:
            k = occ_from[v]
            if k != _NO_AGENT and k != i and q_to[k] == q_from[i]:
                ok = False
                break

    result = tuple(q_to)
    for v in q_from:
        occ_from[v] = _NO_AGENT
    for v in touched_to:
        occ_to[v] = _NO_AGENT

    if not ok:
        return None
    for agent, v in pins.items():
        if result[agent] != v:
            return None
    return result


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
    table: Sequence[int],
    v_pusher: int,
    v_retreater: int,
) -> bool:
    """Emulate the pusher advancing into the retreater's cell.

    The retreater always backs off to its best cell other than the pusher's,
    ignoring all other agents. The swap is required if the retreater gets
    cornered in a dead end, or if the pusher arrives at its goal while the
    retreater's only improving move is through that goal. It is not required
    once the retreater reaches a vertex of degree above two. The walk is
    bounded by the vertex count; running out of budget counts as no.
    ``table`` holds the distances to the retreater's goal.
    """
    adjacency = ctx._adjacency
    big = ctx._big
    for _ in range(len(adjacency)):
        row = adjacency[v_retreater]
        deg = len(row)
        if deg == 1:
            return True
        if v_pusher == pusher_goal:
            return _best_step_toward(adjacency, table, v_retreater) == pusher_goal
        if deg > 2:
            return False
        cells = [u for u in row if u != v_pusher]
        if not cells:
            return True
        step = min(cells, key=lambda u: (table[u] if table[u] != UNREACHABLE else big, u))
        v_pusher, v_retreater = v_retreater, step
    return False


def _swap_possible(
    ctx: PibtContext,
    table: Sequence[int],
    v_advancer: int,
    v_retreater: int,
) -> bool:
    """Emulate the reversed direction: the retreater backs away instead.

    Possible once the retreater stands on a vertex of degree above two
    (room to rotate); impossible if it hits a dead end. Bounded like
    :func:`_swap_required`; ``table`` holds the distances to the
    retreater's goal.
    """
    adjacency = ctx._adjacency
    big = ctx._big
    for _ in range(len(adjacency)):
        row = adjacency[v_retreater]
        deg = len(row)
        if deg > 2:
            return True
        if deg == 1:
            return False
        cells = [u for u in row if u != v_advancer]
        if not cells:
            return False
        step = min(cells, key=lambda u: (table[u] if table[u] != UNREACHABLE else big, u))
        v_advancer, v_retreater = v_retreater, step
    return False


def swap_required_and_possible(
    ctx: PibtContext,
    i: int,
    q_from: Config,
    best_candidate: int,
    occupied_from: Sequence[int] | None = None,
) -> int | None:
    """Agent to swap with when ``i``'s best move is blocked head-on, else None.

    Fires only when another agent sits on ``i``'s best candidate vertex and
    that vertex has degree two or less. Both emulations must agree: the swap
    is required (first emulation) and possible (second, reversed emulation).
    """
    if best_candidate == q_from[i]:
        return None
    if occupied_from is not None:
        j = occupied_from[best_candidate]
        if j == _NO_AGENT:
            return None
    else:
        try:
            j = q_from.index(best_candidate)
        except ValueError:
            return None
    if j == i:
        return None
    if len(ctx._adjacency[best_candidate]) > 2:
        return None
    dists = ctx._dists
    if _swap_required(
        ctx, ctx.goals[i], dists[j], q_from[i], q_from[j]
    ) and _swap_possible(ctx, dists[i], q_from[j], q_from[i]):
        return j
    return None


def _clear_target(
    ctx: PibtContext,
    i: int,
    q_from: Config,
    best_candidate: int,
    occupied_from: Sequence[int],
) -> int | None:
    """Detect an agent behind ``i`` whose swap with ``i`` is pending.

    Covers the junction-clearing pattern: some neighbor agent k wants to
    travel through ``i``'s cell and beyond, so the two emulations are run
    one step ahead, as if k already stood on ``i``'s cell and ``i`` on its
    best candidate. A hit makes ``i`` retreat exactly like a direct swap.
    """
    here = q_from[i]
    if best_candidate == here:
        return None
    dists = ctx._dists
    for u in ctx._adjacency[here]:
        k = occupied_from[u]
        if k == _NO_AGENT or k == i:
            continue
        if q_from[k] == best_candidate:
            continue
        if _swap_required(
            ctx, ctx.goals[k], dists[i], here, best_candidate
        ) and _swap_possible(ctx, dists[k], best_candidate, here):
            return k
    return None
