"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(SchedulingError):
    """A number, id or setting outside its allowed range."""


# graph construction / queries

class EmptyGraph(SchedulingError):
    pass


class DuplicateTaskId(SchedulingError):
    pass


class DuplicateEdge(SchedulingError):
    pass


class SelfLoop(SchedulingError):
    pass


class UnknownEdgeEndpoint(SchedulingError):
    pass


class CycleDetected(SchedulingError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(map(repr, self.cycle)))  # repr: one line, whatever the ids


class NotReady(SchedulingError):
    """Selected task does not currently have height 1."""


# platform

class UnknownMachine(SchedulingError):
    pass


class NoLinkDefined(SchedulingError):
    pass


class NonPositiveSpeed(InvalidValue):
    pass


class NonPositiveBandwidth(InvalidValue):
    pass


# evaluation

class InvalidOrder(SchedulingError):
    """Chromosome order is not a dependency-respecting permutation."""


# documents / generator

class DocumentSyntaxError(SchedulingError):
    """Malformed JSON; message carries line/column."""


class SchemaError(SchedulingError):
    """Well-formed JSON that does not match the document schema."""


class InfeasibleSpec(SchedulingError):
    """Random-DAG spec that cannot produce a valid instance."""
