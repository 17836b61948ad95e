"""Exception hierarchy shared by all pseudoloc modules."""


class PseudolocError(Exception):
    """Base class for all pseudoloc errors."""


class GraphConstructionError(PseudolocError):
    """Input cannot be turned into a valid graph."""


class VertexOutOfRange(GraphConstructionError):
    pass


class SelfLoop(GraphConstructionError):
    pass


class DuplicateEdge(GraphConstructionError):
    pass


class Disconnected(GraphConstructionError):
    pass


class MalformedGraph6(GraphConstructionError):
    pass


class NotPseudotree(PseudolocError):
    """The graph has more edges than vertices (no pseudotree structure)."""


class SizeCapExceeded(PseudolocError):
    """Instance is larger than the configured exact-computation cap."""


class KOutOfRange(PseudolocError):
    """Requested k lies outside [2, k_dimensional_value(G)]."""
