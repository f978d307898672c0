"""Exception hierarchy for the MiddleWhere reproduction.

Every error raised by the library derives from :class:`MiddleWhereError`
so applications can catch library failures with a single ``except``.
"""

from __future__ import annotations


class MiddleWhereError(Exception):
    """Base class for all errors raised by this library."""


class GeometryError(MiddleWhereError):
    """Invalid geometry (degenerate rectangle, bad polygon, ...)."""


class GlobError(MiddleWhereError):
    """A GLOB string could not be parsed or resolved."""


class CoordinateFrameError(MiddleWhereError):
    """Unknown coordinate frame, or no transform between two frames."""


class WorldModelError(MiddleWhereError):
    """Inconsistent world model (duplicate ids, unknown parents, ...)."""


class SchemaError(MiddleWhereError):
    """A row does not match its table schema."""


class QueryError(MiddleWhereError):
    """Malformed or unanswerable spatial-database query."""


class SensorError(MiddleWhereError):
    """Invalid sensor specification or reading."""


class CalibrationError(SensorError):
    """A sensor adapter could not be calibrated into the common model."""


class FusionError(MiddleWhereError):
    """The fusion engine was given inconsistent inputs."""


class ConflictError(FusionError):
    """Conflicting sensor readings could not be resolved."""


class ServiceError(MiddleWhereError):
    """Location Service failure (unknown object, bad subscription, ...)."""


class UnknownObjectError(ServiceError):
    """Queried a mobile object the service has never seen."""


class PrivacyError(ServiceError):
    """A query was refused because of a privacy policy."""


class FaultInjectionError(MiddleWhereError):
    """Misconfigured fault plan or injector."""


class InvariantViolation(MiddleWhereError):
    """A chaos-run invariant did not hold (see docs/FAULTS.md)."""


class StorageError(MiddleWhereError):
    """Durable-storage failure (WAL, snapshot or recovery)."""


class WalCorruptionError(StorageError):
    """A WAL record failed its checksum away from the torn tail."""


class SimulatedCrash(StorageError):
    """A fault-plan kill point fired inside the durability layer.

    Raised by :class:`repro.faults.WalCrashInjector` to simulate a
    process kill mid-append / mid-fsync / mid-snapshot / mid-compaction;
    everything the layer had durably written before the crash must be
    recoverable, and nothing after it may have been applied.

    ``landed`` counts the records of a batched write (and so the rows
    of a batched insert) that landed before the killed one.
    """

    landed: int = 0


class OrbError(MiddleWhereError):
    """Object-request-broker failure."""


class TransportError(OrbError):
    """The underlying transport failed (connection refused, closed, ...)."""


class NamingError(OrbError):
    """Name not found in, or duplicated within, the naming service."""


class RemoteInvocationError(OrbError):
    """The remote servant raised; carries the remote error message."""

    def __init__(self, remote_type: str, remote_message: str) -> None:
        super().__init__(f"{remote_type}: {remote_message}")
        self.remote_type = remote_type
        self.remote_message = remote_message


class PipelineError(MiddleWhereError):
    """Streaming ingestion pipeline failure (misuse, shutdown races)."""


class IntakeOverflowError(PipelineError):
    """A bounded intake queue refused a reading (``reject`` policy)."""


class ReasoningError(MiddleWhereError):
    """Logic-engine failure (bad rule, unbound variable, ...)."""


class SimulationError(MiddleWhereError):
    """Simulation misconfiguration (unreachable rooms, bad deployment)."""
