"""Correctness check applied to every solve the benchmark makes.

Everything here uses only public mapfkit calls and runs outside the timed
region. A check must never reject an answer a correct engine may give, so
each workload states which statuses it accepts (see ``workloads.py``).
"""

from __future__ import annotations

from mapfkit import Objective, Solution, solution_cost, validate

SOLVED = ("OPTIMAL", "SUBOPTIMAL")


def check_outcome(
    instance,
    objective: Objective,
    status: str,
    cost: int | None,
    solution: Solution | None,
    lower_bound: int,
    accepted: tuple[str, ...],
    optimum: int | None = None,
) -> list[str]:
    """Problems with one solve's answer; an empty list means it is correct.

    ``optimum`` is the oracle's optimal cost, when it was computed.
    """
    problems: list[str] = []
    if status not in accepted:
        problems.append(f"status {status}, expected one of {', '.join(accepted)}")
    if status not in SOLVED:
        if solution is not None or cost is not None:
            problems.append(f"status {status} came with a solution or a cost")
        return problems
    if solution is None or cost is None:
        problems.append(f"status {status} came without a solution and cost")
        return problems
    # validate() sets the verified flag; check a copy so the caller's is untouched.
    violation = validate(instance, Solution(configs=list(solution.configs)))
    if violation is not None:
        problems.append(f"invalid solution: {violation.describe()}")
        return problems
    recomputed = solution_cost(objective, solution.configs, instance.goals)
    if recomputed != cost:
        problems.append(f"reported cost {cost}, solution costs {recomputed}")
    if recomputed < lower_bound:
        problems.append(f"cost {recomputed} is below the lower bound {lower_bound}")
    if optimum is not None:
        if status == "OPTIMAL" and recomputed != optimum:
            problems.append(f"OPTIMAL cost {recomputed}, oracle optimum {optimum}")
        elif recomputed < optimum:
            problems.append(f"cost {recomputed} beats the oracle optimum {optimum}")
    return problems
