"""A minimal deterministic discrete-event simulation (DES) kernel.

This package is the foundation of the reproduction: simulated MPI ranks
are generator coroutines (:class:`Process`) scheduled by a
:class:`Simulator`, and all timing in the reproduced figures is the
simulated clock of this kernel.

The design follows the classic process-interaction style (cf. SimPy, which
is not available offline): processes ``yield`` one event at a time;
stores provide blocking FIFO gets; resources model contended hardware.
There are no condition events: a process that waits on several traffic
classes reads them from one store (see :mod:`repro.mpi.matching`).
"""

from .errors import DeadlockError, EventStateError, ProcessError, SimulationError
from .events import Event, Timeout
from .kernel import Simulator
from .process import Process
from .resources import Resource
from .stores import Store, StoreGet

__all__ = [
    "DeadlockError",
    "Event",
    "EventStateError",
    "Process",
    "ProcessError",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "StoreGet",
    "Timeout",
]
