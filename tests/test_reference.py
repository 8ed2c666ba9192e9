import ast
import hashlib
import itertools
import re
from pathlib import Path

import pytest

from loopdetect import (
    CycleStructure,
    Outcome,
    StepBudgetExceeded,
    brent_detect,
    build_rho,
    floyd_detect,
    predict_detection_hop,
    simulate,
    visited_set_oracle,
)

FOUR_CYCLE = (1, 2, 3, 0)           # 0 -> 1 -> 2 -> 3 -> 0
SHORT_CHAIN = (1, 2, None)          # 0 -> 1 -> 2 -> terminal
RHO_1_2 = (1, 2, 1)                 # 0 -> 1 -> 2 -> 1


def next_of(table):
    return table.__getitem__


@pytest.mark.parametrize("detect", [brent_detect, floyd_detect])
def test_detects_pure_cycle(detect):
    assert detect(0, next_of(FOUR_CYCLE), 100) is True
    assert visited_set_oracle(0, next_of(FOUR_CYCLE), 100) is not None


@pytest.mark.parametrize("detect", [brent_detect, floyd_detect])
def test_terminal_chain_has_no_cycle(detect):
    assert detect(0, next_of(SHORT_CHAIN), 100) is False
    assert detect(0, next_of((1, None)), 100) is False


@pytest.mark.parametrize("detect", [brent_detect, floyd_detect])
def test_detects_tailed_cycle(detect):
    assert detect(0, next_of(RHO_1_2), 100) is True


@pytest.mark.parametrize("detect", [brent_detect, floyd_detect])
def test_detects_self_loop(detect):
    assert detect(0, next_of((0,)), 100) is True


def test_visited_set_oracle_structures():
    assert visited_set_oracle(0, next_of(RHO_1_2), 100) == CycleStructure(1, 2)
    assert visited_set_oracle(0, next_of((None,)), 100) is None
    assert visited_set_oracle(0, next_of((0,)), 100) == CycleStructure(0, 1)
    assert visited_set_oracle(0, next_of(FOUR_CYCLE), 100) == CycleStructure(0, 4)
    assert type(visited_set_oracle(0, next_of(RHO_1_2), 100)) is CycleStructure


@pytest.mark.parametrize("walker", [brent_detect, floyd_detect, visited_set_oracle])
def test_budget_exhaustion_raises(walker):
    # 64-cycle cannot be resolved in 3 steps
    table = tuple((i + 1) % 64 for i in range(64))
    with pytest.raises(StepBudgetExceeded):
        walker(0, next_of(table), 3)


@pytest.mark.parametrize("walker", [brent_detect, floyd_detect, visited_set_oracle])
@pytest.mark.parametrize("max_steps", [0, -5, 2.5, True])
def test_rejects_nonpositive_budget(walker, max_steps):
    with pytest.raises(ValueError, match=f"got {re.escape(repr(max_steps))}$"):
        walker(0, next_of((0,)), max_steps)


def all_graphs_with_terminals(n):
    """Every successor assignment over n nodes where each node maps to a
    node or a terminal: (n+1)^n graphs."""
    choices = list(range(n)) + [None]
    return itertools.product(choices, repeat=n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_agreement_exhaustive_with_terminals(n):
    budget = 3 * n + 4
    for table in all_graphs_with_terminals(n):
        next_fn = next_of(table)
        for start in range(n):
            expected = visited_set_oracle(start, next_fn, budget) is not None
            assert brent_detect(start, next_fn, budget) is expected, (table, start)
            assert floyd_detect(start, next_fn, budget) is expected, (table, start)


# frozen from the nested-loop detectors: a change to any verdict, message
# or successor call shows here
DETECTOR_LOG_SHA256 = "64c46dc7f7dafb1c8bfb279d6bef05605682ed1f56417cdad1f74def7ce69cdf"


def test_detectors_pinned_exhaustively():
    # every graph with terminals on up to 4 nodes, every start, budgets
    # 1..3n+5: each detector's verdict or exception, and every successor call
    lines = []
    for n in range(1, 5):
        for table in all_graphs_with_terminals(n):
            for start in range(n):
                for budget in range(1, 3 * n + 6):
                    for detect in (brent_detect, floyd_detect, visited_set_oracle):
                        calls = []

                        def next_fn(elem):
                            calls.append(elem)
                            return table[elem]

                        try:
                            verdict = repr(detect(start, next_fn, budget))
                        except Exception as exc:
                            verdict = f"{type(exc).__name__}: {exc}"
                        lines.append(
                            f"{detect.__name__} {table} {start} {budget}: "
                            f"{verdict} {len(calls)} {calls}"
                        )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DETECTOR_LOG_SHA256


def test_reference_imports_nothing_from_the_package():
    # the oracles must not depend on the code they verify
    import loopdetect.reference

    tree = ast.parse(Path(loopdetect.reference.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] != "loopdetect", ast.unparse(node)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_budget_sufficiency(n):
    # 3n + 4 steps always suffice, cycles and terminals alike
    budget = 3 * n + 4
    for table in all_graphs_with_terminals(n):
        next_fn = next_of(table)
        for start in range(n):
            visited_set_oracle(start, next_fn, budget)
            brent_detect(start, next_fn, budget)
            floyd_detect(start, next_fn, budget)


def test_budget_of_three_steps_per_node_suffices_on_rho_walks():
    # StepBudgetExceeded's documented bound; floyd_detect needs all of it
    # at mu = 0, lam = 1
    for mu in range(33):
        for lam in range(1, 33):
            next_fn = next_of((*range(1, mu + lam), mu))
            budget = 3 * (mu + lam)
            assert brent_detect(0, next_fn, budget) is True, (mu, lam)
            assert floyd_detect(0, next_fn, budget) is True, (mu, lam)
            assert visited_set_oracle(0, next_fn, budget) == (mu, lam)


@pytest.mark.parametrize(
    "mu,lam,expected",
    [
        # snapshots at hops 1 and 2 are overwritten before any revisit;
        # the hop-4 snapshot is revisited three hops later
        (0, 3, 7),
        # first power-of-two snapshot inside the cycle that survives long
        # enough is 4; revisit lands at 6
        (3, 2, 6),
        # origin self-loop: the initialization snapshot is still current
        (0, 1, 1),
        (2, 4, 8),
        (0, 255, 511),
        (1, 1, 2),
    ],
)
def test_predict_detection_hop_examples(mu, lam, expected):
    assert predict_detection_hop(CycleStructure(mu, lam)) == expected


def test_detection_hop_is_within_three_times_the_loop_size():
    # the README's bound: hop < 3 (mu + lam), and < 2 (mu + lam) when mu >= lam
    for mu in range(300):
        for lam in range(1, 300):
            hop = predict_detection_hop(CycleStructure(mu, lam))
            assert hop < (2 if mu >= lam else 3) * (mu + lam), (mu, lam, hop)
    # and 3 is tight: mu = 0, lam = 2^k + 1 fires at 3 * 2^k + 1
    for k in range(16):
        lam = 2**k + 1
        assert predict_detection_hop(CycleStructure(0, lam)) == 3 * lam - 2


def test_predict_rejects_bad_shapes():
    with pytest.raises(ValueError):
        predict_detection_hop(CycleStructure(0, 0))
    with pytest.raises(ValueError):
        predict_detection_hop(CycleStructure(-1, 2))


def test_predictor_matches_simulation_small_grid():
    # full grid runs in the acceptance suite; keep a quick version here
    for mu in range(0, 17):
        for lam in range(1, 17):
            graph = build_rho(mu, lam, ids=range(mu + lam))
            trace = simulate(graph, 0)
            predicted = predict_detection_hop(CycleStructure(mu, lam))
            assert trace.outcome is Outcome.DETECTED, (mu, lam)
            assert trace.at_hop == predicted, (mu, lam)
            assert predicted <= 2 * max(mu, lam, 1) + lam
