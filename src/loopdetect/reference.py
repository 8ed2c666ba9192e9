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

The package's one integer check, ``_check_int``, lives here because this
module imports nothing from the package: the oracles can use it without
depending on the code they verify, and every other module imports it from
here.
"""

from typing import Any, Callable, NamedTuple, Optional

NextFn = Callable[[Any], Optional[Any]]


def _check_int(name: str, value, least: int, most: int | None = None) -> None:
    """The one check of every integer argument: ValueError naming ``value``
    unless it is exactly an int (True and 1.0 fail) in [least, most or no end]."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if most is None:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    elif not least <= value <= most:
        raise ValueError(f"{name} must be within [{least}, {most}], got {value}")


class StepBudgetExceeded(RuntimeError):
    """Walk neither terminated nor revealed a cycle within the step budget.

    Signals the caller's budget is too small; cannot happen for a walk
    known to cycle when the budget is at least 3*(mu + lam), the steps
    floyd_detect needs on a self-loop.
    """


class CycleStructure(NamedTuple):
    """Shape of an eventually-cyclic walk: a tail of ``mu`` nodes leading
    into a cycle of ``lam`` nodes."""

    mu: int
    lam: int


def brent_detect(start: Any, next_fn: NextFn, max_steps: int) -> bool:
    """Cycle detection with a tortoise that teleports at powers of two.

    The hare advances one element per step; the tortoise is re-anchored to
    the hare's position each time the step count reaches a power of two.
    Between anchors the tortoise is compared against every hare position,
    so the walk state is just (tortoise, hare, power, step) and the
    successor function advances exactly once per step.

    Returns True when tortoise and hare meet, False when the hare falls
    off a terminal. Raises StepBudgetExceeded after ``max_steps`` successor
    evaluations without either.
    """
    _check_int("max_steps", max_steps, 1)
    tortoise = hare = start
    power = 2
    for step in range(1, max_steps + 1):
        hare = next_fn(hare)
        if tortoise == hare:
            return True
        if hare is None:
            return False
        if step == power:
            tortoise = hare
            power *= 2
    raise StepBudgetExceeded(f"no verdict within {max_steps} steps")


def floyd_detect(start: Any, next_fn: NextFn, max_steps: int) -> bool:
    """Classic two-pointer cycle detection: hare moves twice per tortoise step.

    Of every three steps the first two move the hare and the third the
    tortoise. Returns True as soon as the pointers coincide, False if the
    hare reaches a terminal. The budget counts successor evaluations, like
    brent_detect.
    """
    _check_int("max_steps", max_steps, 1)
    tortoise = hare = start
    for step in range(1, max_steps + 1):
        if step % 3:
            hare = next_fn(hare)
            if hare is None:
                return False
        else:
            tortoise = next_fn(tortoise)
            if tortoise == hare:
                return True
    raise StepBudgetExceeded(f"no verdict within {max_steps} steps")


def visited_set_oracle(
    start: Any, next_fn: NextFn, max_steps: int
) -> CycleStructure | None:
    """Exact ground truth by remembering every visited element.

    This is the memory-hungry strawman the in-band scheme exists to avoid;
    here it only verifies the others. Returns the exact (mu, lam) on the
    first revisit, or None if the walk reaches a terminal.
    """
    _check_int("max_steps", max_steps, 1)
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
    _check_int("tail length", mu, 0)
    _check_int("cycle length", lam, 1)
    if mu == 0 and lam == 1:
        return 1
    p = 1
    while p < mu or p < lam:
        p *= 2
    return p + lam
