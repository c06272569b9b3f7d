"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A solver stalled or lost precision and refuses to return an answer."""


class BudgetExhausted(RuntimeError):
    """A node/time budget ran out before the search finished.

    ``nodes`` counts the search nodes spent before the budget ran out.
    """

    def __init__(self, message, nodes=0):
        super().__init__(message)
        self.nodes = nodes


class EmptyUnion(ValueError):
    """Every piece handed to a hull construction was empty."""


class UnsupportedGame(ValueError):
    """The chosen algorithm cannot take this game as posed.

    ``full_enumeration`` raises it for a player with a continuous
    variable, and cut-and-play for a player whose feasible set is
    unbounded.
    """


class InfeasibleGame(RuntimeError):
    """Some player has an empty feasible set."""


class DocumentError(ValueError):
    """A document failed parsing or validation; ``path`` names the field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
