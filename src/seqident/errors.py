"""Exception types shared across the package."""

from __future__ import annotations


class SeqidentError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(SeqidentError):
    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("directed cycle: " + " -> ".join(cycle + (cycle[0],)))


class UnknownLabel(SeqidentError):
    pass


class DuplicateEdge(SeqidentError):
    pass


class TooManyNodes(SeqidentError):
    pass


class UnknownNode(SeqidentError):
    pass


class OverlappingSets(SeqidentError):
    pass


class EmptyQuerySet(SeqidentError):
    pass


class StageOutOfRange(SeqidentError):
    pass


class InvalidParentSpec(SeqidentError):
    pass


class StateSpaceTooLarge(SeqidentError):
    pass


class StateOutOfRange(SeqidentError):
    pass


class MissingConfiguration(SeqidentError):
    pass


class EnumerationTooLarge(SeqidentError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        # str() refuses integers of more than 4300 digits
        shown = count if count.bit_length() <= 256 else f"over 10**{(count.bit_length() - 1) * 30103 // 100000}"
        super().__init__(f"{shown} strategies exceed the enumeration cap of {cap}")


class PositivityViolation(SeqidentError):
    def __init__(self, stage: int, history: dict[str, int], action_state: int):
        self.stage = stage
        self.history = dict(history)
        self.action_state = action_state
        rendered = ", ".join(f"{v}={s}" for v, s in history.items()) or "(empty history)"
        super().__init__(
            f"stage {stage}: action state {action_state} has zero observational "
            f"probability at reachable history {rendered}"
        )


class InternalTheorem2Violation(SeqidentError):
    """The general criterion passed while simple stability failed on a
    full-history problem satisfying both regularity assumptions.  This is
    impossible for correct check implementations, so reaching it signals
    a bug rather than a valid verdict."""
