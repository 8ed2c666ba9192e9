"""Centralized cycle-detection routines used as ground truth.

Everything here walks an abstract successor function directly, with the
whole walk in one place, and serves as the oracle the packet-level
machinery is tested against: two constant-memory tortoise-and-hare
detectors (Brent's power-of-two scheme and Floyd's double-speed hare),
an exact visited-set walker, and a closed-form predictor for the hop at
which the in-band scheme fires.

A successor function maps an element to its next element, or to None for
a terminal (an element with no successor). It must be deterministic and
effectively immutable for the duration of a call.
"""

from typing import Any, Callable, NamedTuple, Optional

NextFn = Callable[[Any], Optional[Any]]


class StepBudgetExceeded(RuntimeError):
    """Walk neither terminated nor revealed a cycle within the step budget.

    Signals the caller's budget is too small; cannot happen for a walk
    known to cycle when the budget exceeds 2*(mu + lam) + lam.
    """


class CycleStructure(NamedTuple):
    """Shape of an eventually-cyclic walk: a tail of ``mu`` nodes leading
    into a cycle of ``lam`` nodes."""

    mu: int
    lam: int


def brent_detect(start: Any, next_fn: NextFn, max_steps: int) -> bool:
    """Cycle detection with a tortoise that teleports at powers of two.

    The hare advances one element per step; the tortoise is re-anchored to
    the hare's position each time the step count crosses a power of two.
    Between anchors the tortoise is compared against every hare position,
    so the walk state is just (tortoise, hare, power, hops) and the
    successor function advances exactly once per step.

    Returns True when tortoise and hare meet, False when the hare falls
    off a terminal. Raises StepBudgetExceeded after ``max_steps`` successor
    evaluations without either.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    hare = start
    power = 1
    hops = 0
    while True:
        tortoise = hare
        power *= 2
        while True:
            if hops >= max_steps:
                raise StepBudgetExceeded(f"no verdict within {max_steps} steps")
            hops += 1
            hare = next_fn(hare)
            if tortoise == hare or hops >= power or hare is None:
                break
        if tortoise == hare or hare is None:
            break
    return tortoise == hare


def floyd_detect(start: Any, next_fn: NextFn, max_steps: int) -> bool:
    """Classic two-pointer cycle detection: hare moves twice per tortoise step.

    Returns True as soon as the pointers coincide, False if the hare
    reaches a terminal. The budget counts successor evaluations, like
    brent_detect.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    remaining = max_steps

    def step(elem: Any) -> Any:
        nonlocal remaining
        if remaining == 0:
            raise StepBudgetExceeded(f"no verdict within {max_steps} steps")
        remaining -= 1
        return next_fn(elem)

    tortoise = start
    hare = start
    while True:
        hare = step(hare)
        if hare is None:
            return False
        hare = step(hare)
        if hare is None:
            return False
        tortoise = step(tortoise)
        if tortoise == hare:
            return True


def visited_set_oracle(
    start: Any, next_fn: NextFn, max_steps: int
) -> CycleStructure | None:
    """Exact ground truth by remembering every visited element.

    This is the memory-hungry strawman the in-band scheme exists to avoid;
    here it only verifies the others. Returns the exact (mu, lam) on the
    first revisit, or None if the walk reaches a terminal.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    first_seen = {start: 0}
    elem = start
    for step in range(1, max_steps + 1):
        elem = next_fn(elem)
        if elem is None:
            return None
        if elem in first_seen:
            entry = first_seen[elem]
            return CycleStructure(mu=entry, lam=step - entry)
        first_seen[elem] = step
    raise StepBudgetExceeded(f"no verdict within {max_steps} steps")


def predict_detection_hop(structure: CycleStructure) -> int:
    """Hop at which receive_packet first fires on a (mu, lam) walk with
    all-distinct node ids.

    The snapshot taken at hop p survives through hop 2p (the comparison at
    2p still sees it), so the snapshot that catches the loop is the
    smallest p in {0, 1, 2, 4, 8, ...} that lies on the cycle (p >= mu)
    and whose revisit arrives before it is overwritten (lam <= p). The
    origin snapshot p = 0 survives only to hop 1, so it catches nothing
    but a self-looping origin. Detection then lands at p + lam.

    This is a derived formula, validated against the simulator over an
    exhaustive (mu, lam) grid; the test suite, not the formula, is
    authoritative.
    """
    mu, lam = structure
    if type(mu) is not int:
        raise ValueError(f"tail length must be an int, got {mu!r}")
    if mu < 0:
        raise ValueError(f"tail length must be >= 0, got {mu}")
    if type(lam) is not int:
        raise ValueError(f"cycle length must be an int, got {lam!r}")
    if lam < 1:
        raise ValueError(f"cycle length must be >= 1, got {lam}")
    if mu == 0 and lam == 1:
        return 1
    p = 1
    while p < mu or p < lam:
        p *= 2
    return p + lam
