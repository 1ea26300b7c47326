"""Exception hierarchy for the reproduction library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ImproperColoringError(ReproError):
    """A produced coloring assigns equal colors to two adjacent vertices."""

    def __init__(self, u, v, color):
        self.u = u
        self.v = v
        self.color = color
        super().__init__(
            f"improper coloring: adjacent vertices {u} and {v} share color {color}"
        )


class PaletteExceededError(ReproError):
    """A coloring uses a color outside the allowed palette."""

    def __init__(self, vertex, color, palette_size):
        self.vertex = vertex
        self.color = color
        self.palette_size = palette_size
        super().__init__(
            f"vertex {vertex} received color {color} outside palette of size "
            f"{palette_size}"
        )


class ListViolationError(ReproError):
    """A list-coloring assigned a vertex a color not on its list."""

    def __init__(self, vertex, color):
        self.vertex = vertex
        self.color = color
        super().__init__(f"vertex {vertex} received color {color} not on its list")


class ParameterError(ReproError, ValueError):
    """An argument was outside its documented domain.

    Subclasses :class:`ValueError` as well so callers validating inputs
    can keep the standard idiom (``except ValueError``) without importing
    this package's hierarchy; library code catches it as
    :class:`ReproError` like everything else.
    """


class StreamProtocolError(ReproError):
    """The streaming contract was violated (bad token, pass misuse, ...)."""


class EdgeFileError(StreamProtocolError, ValueError):
    """A binary edge file is malformed (bad magic, truncated, odd length).

    Subclasses :class:`ValueError` as well so callers probing untrusted
    files can use the standard idiom without importing this package's
    hierarchy.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written, parsed, or applied.

    Raised for wrong-magic / truncated / corrupt ``REPROCK1`` files, for
    snapshot payloads that do not match the algorithm they are loaded
    into, and for resume requests the checkpoint cannot satisfy (e.g. a
    checkpoint of a caller-supplied stream resumed without one).
    """


class ServiceError(ReproError):
    """A coloring-service request was invalid or hit a dead session."""


class ServiceBusyError(ServiceError):
    """The service shed a request under load; retry after ``retry_after``.

    Raised when a worker's bounded queue or shared-memory ring is full,
    or while a crashed worker's sessions are being recovered.  Nothing
    was applied — the request is safe to retry verbatim.
    """

    def __init__(self, message="service busy; retry later", retry_after=0.05):
        self.retry_after = float(retry_after)
        super().__init__(message)


class GuaranteeViolationError(ReproError):
    """A run broke a paper-stated guarantee its registry entry declares.

    Raised by strict verification (``RunSpec.verify="strict"`` and the
    ``repro verify`` sweep); carries the failing checks for reporting.
    """

    def __init__(self, algorithm, violations):
        self.algorithm = algorithm
        self.violations = list(violations)
        detail = "; ".join(
            f"{c.name}: observed {c.observed} > bound {c.bound}"
            for c in self.violations
        )
        super().__init__(f"{algorithm} guarantee violation: {detail}")


class AlgorithmFailure(ReproError):
    """A randomized algorithm hit its (small-probability) failure event.

    For example, Algorithm 3's query fails when all of its ``D_{curr,j}``
    sketch buffers were invalidated (paper, Line 15).  The failure is part of
    the algorithm's ``delta`` error budget, so it is reported as a distinct
    exception rather than a generic error.
    """


class AdversaryError(ReproError):
    """An adversary violated the game's rules (duplicate edge, degree cap...)."""
