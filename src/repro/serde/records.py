"""Fixed-width record messages: the vectorized fast path.

Mirrors the mpi4py convention taught in the HPC guides: generic Python
objects are sized through the (flexible, slower) :mod:`repro.serde.sizing`, while
bulk numeric traffic uses NumPy structured arrays with a fixed
:class:`RecordSpec` -- zero per-message Python overhead, byte-exact sizes.

YGM applications that move millions of tiny messages (degree counting,
label updates, SpMV partial products) declare a record spec once and then
use the mailbox's ``send_batch`` API.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

import numpy as np

FieldSpec = Sequence[Tuple[str, Union[str, np.dtype]]]


class RecordSpec:
    """A named fixed-width message layout backed by a structured dtype.

    Example
    -------
    >>> spec = RecordSpec("labels", [("vertex", "u8"), ("label", "u8")])
    >>> batch = spec.empty(3)
    >>> batch["vertex"] = [5, 6, 7]
    >>> spec.itemsize
    16
    """

    def __init__(self, name: str, fields: FieldSpec):
        self.name = name
        self.dtype = np.dtype(list(fields))
        if self.dtype.hasobject:
            raise ValueError("record specs must be fixed-width (no object fields)")

    @property
    def itemsize(self) -> int:
        """Bytes per record on the wire."""
        return self.dtype.itemsize

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self.dtype.names

    def empty(self, n: int) -> np.ndarray:
        """An uninitialised batch of ``n`` records."""
        return np.empty(n, dtype=self.dtype)

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=self.dtype)

    def build(self, **columns: np.ndarray) -> np.ndarray:
        """Assemble a batch from per-field column arrays.

        All columns must have the same length; missing fields raise.
        """
        names = set(self.field_names)
        if set(columns) != names:
            raise ValueError(
                f"record {self.name!r} needs fields {sorted(names)}, "
                f"got {sorted(columns)}"
            )
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        out = self.empty(lengths.pop())
        for field, col in columns.items():
            out[field] = col
        return out

    def nbytes(self, batch: np.ndarray) -> int:
        """Wire size of a batch of records."""
        return batch.size * self.itemsize

    def validate(self, batch: np.ndarray) -> np.ndarray:
        if batch.dtype != self.dtype:
            raise TypeError(
                f"batch dtype {batch.dtype} does not match record "
                f"{self.name!r} dtype {self.dtype}"
            )
        return batch

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RecordSpec)
            and other.name == self.name
            and other.dtype == self.dtype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecordSpec({self.name!r}, itemsize={self.itemsize})"
