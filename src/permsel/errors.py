"""Exception types shared across the package."""


class PermselError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(PermselError):
    """An exhaustive enumeration would exceed the configured work budget."""


class AttemptsExhaustedError(PermselError):
    """The generate-and-verify loop ran out of attempts without success."""


class NotStronglyConnectedError(PermselError):
    """The network is not strongly connected: gossip refuses it, a broadcast stalls."""


class QuasiGossipFailedError(PermselError):
    """The quasi-gossip postcondition did not hold at the end of the run."""


class GossipIncompleteError(PermselError):
    """The final audit found a node missing some rumor after gossip."""
