"""Exception hierarchy shared by all modules."""


class GraphError(Exception):
    """Base class for all library errors."""


class DisconnectedGraph(GraphError):
    pass


class ParseError(GraphError):
    pass


class BudgetExceeded(GraphError):
    pass


class InvalidParams(GraphError):
    pass


class UnsupportedField(GraphError):
    pass


class NotDistanceRegular(GraphError):
    """Raised with a witness pair showing a non-constant intersection count.

    Attributes: x, y (vertex pair), i (distance), kind ('c'|'a'|'b'),
    expected and got (the two conflicting counts).  For kind
    'eccentricity', got is x's eccentricity i and expected the diameter.
    """

    def __init__(self, x, y, i, kind, expected, got):
        self.x, self.y, self.i = x, y, i
        self.kind, self.expected, self.got = kind, expected, got
        if kind == "eccentricity":
            what = (
                f"vertex {x} has eccentricity {got}, not the diameter "
                f"{expected} (pair ({x}, {y}))"
            )
        else:
            what = f"{kind}_{i} is {expected} elsewhere but {got} for the pair ({x}, {y})"
        super().__init__(f"not distance-regular: {what}")


class IrrationalSpectrum(GraphError):
    pass


class NegativeKrein(GraphError):
    """A Krein parameter came out negative; this signals an upstream bug."""


class ExactnessError(GraphError):
    """An exact identity that a computation relies on did not hold.

    Raised where a result is checked after it is computed; it signals a
    bug, not bad input.
    """


class NotThin(GraphError):
    pass


class NotALadder(GraphError):
    pass


class DecompositionUnavailable(GraphError):
    pass
