"""Exception types shared across the package."""


class PermselError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(PermselError):
    """An exhaustive enumeration would exceed the configured work budget."""


class AttemptsExhaustedError(PermselError):
    """The generate-and-verify loop ran out of attempts without success."""


class NotStronglyConnectedError(PermselError):
    """Gossip requires a strongly connected network."""


class UnreachableNodeError(NotStronglyConnectedError):
    """Broadcast cannot complete: some node is unreachable from the source."""

    def __init__(self, source: int, node: int):
        self.source = source
        self.node = node
        super().__init__(f"node {node} is not reachable from source {source}")


class QuasiGossipFailedError(PermselError):
    """The quasi-gossip postcondition did not hold at the end of the run."""


class GossipIncompleteError(PermselError):
    """The final audit found a node missing some rumor after gossip."""
