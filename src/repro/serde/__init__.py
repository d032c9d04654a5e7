"""Message sizes and records (the *cereal* substitute).

See paper Section IV-C: YGM supports variable-length messages via cereal.
The simulation times a packet by its encoded length, so this package
sizes the encoding (with container support and a user-type registry)
and defines the NumPy structured-record fast path for bulk numeric
traffic.  The byte encoder and decoder live with the parallel engine's
wire codec, the only code that ships the bytes.
"""

from .records import RecordSpec
from .registry import clear_registry, register, registered
from .sizing import SerdeError, packed_size, packed_size_many

__all__ = [
    "RecordSpec",
    "SerdeError",
    "clear_registry",
    "packed_size",
    "packed_size_many",
    "register",
    "registered",
]
