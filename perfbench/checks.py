"""Correctness checks on the program's outputs.

Every check tests a property the method must have, or compares with a
computation made apart from the path under test (a fresh monolithic
cost estimate, an in-process cache-free evaluation).  None compares
with a stored copy of earlier output.  A violated property raises
:class:`~common.CheckFailed`; ``selftest.py`` hands each check a
deliberately wrong output and asserts it is rejected.
"""

from __future__ import annotations

from common import CheckFailed, require
from repro.core.assignment import objective_value
from repro.core.costs import estimate_cost
from repro.errors import ReproError


def check_legal_and_fits(label: str, ctx, assignment, te=None) -> None:
    """Every chain is legal and the assignment fits every layer.

    With a TE schedule the double-buffered copies must fit as well.
    """
    try:
        ctx.chains(assignment)
    except ReproError as error:
        raise CheckFailed(f"{label}: illegal copy chain: {error}") from None
    require(ctx.fits(assignment), f"{label}: assignment exceeds a layer's capacity")
    if te is not None:
        require(
            ctx.fits(assignment, te.extra_buffer_uids),
            f"{label}: TE double buffers exceed a layer's capacity",
        )


def check_scenarios(label: str, result, objective, ctx) -> None:
    """The four scenarios of one exploration are mutually consistent.

    * ``mhla``, ``mhla_te`` and ``ideal`` share one assignment, so their
      energies are equal (TE moves transfers in time, never adds any);
    * cycles satisfy ``ideal <= mhla_te <= mhla``;
    * step 1 is no worse than out-of-the-box on the cell's objective;
    * the assignment is legal and fits, with and without TE buffers;
    * the ``mhla_te`` report equals a fresh monolithic ``estimate_cost``.
    """
    oob, mhla, te, ideal = (
        result.scenario(name) for name in ("oob", "mhla", "mhla_te", "ideal")
    )
    require(
        mhla.energy_nj == te.energy_nj == ideal.energy_nj,
        f"{label}: energies differ across mhla/mhla_te/ideal "
        f"({mhla.energy_nj!r}, {te.energy_nj!r}, {ideal.energy_nj!r})",
    )
    require(
        ideal.cycles <= te.cycles <= mhla.cycles,
        f"{label}: cycles break ideal <= mhla_te <= mhla "
        f"({ideal.cycles!r}, {te.cycles!r}, {mhla.cycles!r})",
    )
    require(
        objective_value(mhla.report, objective)
        <= objective_value(oob.report, objective),
        f"{label}: mhla is worse than out-of-the-box on {objective.value}",
    )
    check_legal_and_fits(label, ctx, mhla.assignment, te.te)
    fresh = estimate_cost(ctx, te.assignment, te=te.te)
    require(
        (fresh.cycles, fresh.energy_nj) == (te.cycles, te.energy_nj),
        f"{label}: mhla_te report ({te.cycles!r}, {te.energy_nj!r}) differs "
        f"from a fresh estimate ({fresh.cycles!r}, {fresh.energy_nj!r})",
    )


def check_portfolio(
    label: str, ctx, objective, assignment, value: float, greedy_value: float
) -> None:
    """The portfolio is never worse than greedy and reports its true value."""
    require(
        value <= greedy_value,
        f"{label}: portfolio value {value!r} above greedy {greedy_value!r}",
    )
    check_legal_and_fits(label, ctx, assignment)
    fresh = objective_value(estimate_cost(ctx, assignment), objective)
    require(
        fresh == value,
        f"{label}: portfolio reports {value!r}, a fresh estimate of its "
        f"assignment gives {fresh!r}",
    )


def check_simulation(
    label: str, ideal_cycles: float, sim_te: float, sim_mhla: float
) -> None:
    """Prefetching never slows the simulated run; nothing beats ideal."""
    require(
        ideal_cycles <= sim_te <= sim_mhla,
        f"{label}: simulated cycles break ideal <= sim(mhla_te) <= "
        f"sim(mhla) ({ideal_cycles!r}, {sim_te!r}, {sim_mhla!r})",
    )


def check_served_result(key: str, served: dict, reference: dict) -> None:
    """A served ``result`` equals the cache-free in-process evaluation."""
    for name, scenario in reference["scenarios"].items():
        got = served.get("scenarios", {}).get(name, {})
        for field in ("cycles", "energy_nj"):
            require(
                got.get(field) == scenario[field],
                f"{key[:12]}: served {name} {field} {got.get(field)!r} "
                f"differs from the reference {scenario[field]!r}",
            )
    require(served == reference, f"{key[:12]}: served result differs")


def check_fleet(
    unique_keys: list[str], outcomes: list[list[dict]], evaluated: list[int]
) -> None:
    """A fleet fill evaluated each unique cell exactly once.

    *outcomes* holds each server's ``batch`` rows; *evaluated* each
    server's ``evaluated`` counter for the fill.
    """
    expected = sorted(unique_keys)
    for index, rows in enumerate(outcomes):
        require(
            all(row.get("status") == "done" for row in rows),
            f"server {index}: not every batch outcome is done",
        )
        require(
            sorted(row["key"] for row in rows) == expected,
            f"server {index}: batch keys differ from the local cell keys",
        )
    require(
        sum(evaluated) == len(expected),
        f"fleet evaluated {sum(evaluated)} cells for {len(expected)} "
        "unique keys",
    )
