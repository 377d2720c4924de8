"""Flux jobspec model and validation.

A jobspec is the canonical serialized job description submitted to a
Flux instance over RPC (the real system uses the canonical jobspec
V1 YAML/JSON).  We model the fields the scheduler and launcher
consume: the resource request, an optional walltime estimate (used by
the backfill policy), and launch attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..exceptions import JobspecError
from ..platform.spec import ResourceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.cluster import Grant


@dataclass(frozen=True)
class Jobspec:
    """A validated Flux job description.

    Parameters
    ----------
    command:
        The executable (or an opaque task tag); informational.
    resources:
        Cores / GPUs / node-exclusivity requested.
    duration:
        Simulated payload runtime [s]; also serves as the walltime
        estimate consumed by the EASY-backfill policy.
    urgency:
        0-31 priority (16 = default), higher runs earlier within policy.
    attributes:
        Free-form launch attributes (environment, cwd, ...).
    """

    command: str
    resources: ResourceSpec = field(default_factory=ResourceSpec)
    duration: float = 0.0
    urgency: int = 16
    attributes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.command:
            raise JobspecError("jobspec needs a command")
        if self.duration < 0:
            raise JobspecError(f"negative duration {self.duration}")
        if not 0 <= self.urgency <= 31:
            raise JobspecError(f"urgency must be in [0, 31], got {self.urgency}")

    def validate_against(self, total_cores: int, total_gpus: int) -> None:
        """Raise :class:`JobspecError` if this job can never fit the
        instance's resource pool (unsatisfiable request)."""
        if self.resources.cores > total_cores:
            raise JobspecError(
                f"job needs {self.resources.cores} cores; instance has "
                f"{total_cores}"
            )
        if self.resources.gpus > total_gpus:
            raise JobspecError(
                f"job needs {self.resources.gpus} gpus; instance has "
                f"{total_gpus}"
            )


class FluxJobState:
    """Flux job lifecycle states (subset of the real event model)."""

    DEPEND = "DEPEND"     #: accepted, dependencies (none here) pending
    SCHED = "SCHED"       #: waiting for resources
    RUN = "RUN"           #: payload executing
    CLEANUP = "CLEANUP"   #: payload done, resources being released
    INACTIVE = "INACTIVE" #: fully retired

    ORDER = (DEPEND, SCHED, RUN, CLEANUP, INACTIVE)


@dataclass(slots=True)
class FluxJob:
    """Mutable per-job record kept inside a Flux instance."""

    job_id: str
    spec: Jobspec
    state: str = FluxJobState.DEPEND
    submit_time: float = 0.0
    alloc_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    exception: Optional[str] = None
    #: The job's placement while it holds resources.
    grant: Optional["Grant"] = None
    #: Position in the instance's ingest order; the scheduling-order
    #: tie-breaker (see :func:`repro.flux.scheduler.order_key`).
    ingest_seq: int = 0

    @property
    def done(self) -> bool:
        return self.state == FluxJobState.INACTIVE

    @property
    def failed(self) -> bool:
        return self.exception is not None
