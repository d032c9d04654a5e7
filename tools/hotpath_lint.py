#!/usr/bin/env python
"""Hot-path lint: no per-message entry objects in the mailbox data plane.

Scalar messages travel the injection -> coalescing -> packet -> delivery
pipeline as struct-of-arrays columns (``P2PColumns``) and nothing else;
the one per-message entry class left, ``BcastEntry``, is only allowed at
its two *handler boundaries* -- broadcast injection in
``Mailbox.post_bcast`` and broadcast re-forwarding in
``Mailbox._handle_packet``.  Anywhere else in the mailbox or coalescing
layers, constructing one silently reintroduces a per-message allocation
-- results stay correct, so only this lint catches the regression.

A second rule guards the PDES export path: the shared-memory ring
transport (``repro.pdes.rings`` / ``wire`` / ``worker`` / ``engine``)
moves export batches through the serde-based columnar wire codec, and
``pickle`` must not appear there -- no ``import pickle`` and no
``pickle.dumps`` / ``pickle.loads`` -- except in the opaque-payload
envelope, ``wire._pack_obj`` / ``wire._unpack_obj``, which pickles
only a payload value serde cannot encode.  Anywhere else a ``pickle``
use means someone put a Python-object serializer back on the batch
path.  Results stay bit-identical either way, so again only this lint
catches it.

PR 9 added a third rule for the in-network combining pass
(``repro.core.routing.combiner``): the group-by must stay vectorized --
one ``lexsort``, one adjacent-equality scan, one ``reduceat`` per
reduced field.  The only Python loops allowed there iterate over the
combiner's *field lists* (``key_fields`` / ``reduce_fields``, a handful
of names), never over records; a ``for``/``while``/comprehension over
anything else is a per-record loop sneaking back onto the re-bin path.

A fourth rule keeps the ring fast path clock-free:
``SpscRing.try_push`` / ``begin_pop`` / ``commit_pop`` make no clock
reads and no recorder calls -- no ``perf_counter`` / ``monotonic`` /
``time`` and no ``span`` / ``instant`` / ``record`` / ``counter`` /
``progress``.  The always-on :class:`RingStats` integer bumps are the
only telemetry allowed there; a timing call on that path would tax
every batch, and there is no recorder to feed.

A fifth rule guards the remote-packet path (``repro.machine.topology``,
and its import-side replay in ``repro.pdes.worker``): one object per
packet.  A remote packet is one in-flight entry (``_InFlight``) that the
kernel pops once per stage.  Inside ``Machine.transmit_remote``, every
method of ``_InFlight`` and the parallel engine's ``inject_arrival``,
each of these is a violation:

- a call to ``.process(``, ``.process_batch(`` or ``Process(``;
- a ``lambda``, a nested ``def`` or a call to ``partial(`` (a closure
  per packet costs about what a generator resume saves);
- a call to ``.schedule(``, ``.timeout(`` or ``.hold(`` (a second event
  object per stage; the entry is pushed itself, and takes a NIC through
  ``Resource._request``).

Only ``transmit_remote``, the sender's generator, may ``yield``.
Results stay bit-identical if someone puts any of these back, so only
this lint, the event budget and the resume budget in
``tests/machine/test_topology.py`` would notice.

PR 22 added a sixth rule for scalar payload sizing
(``repro.serde.sizing``): sizing allocates nothing.  The mailbox needs
only the encoded *length* of a scalar payload, so ``packed_size`` and
every function in the size table ``_SIZE_HANDLERS`` (and whatever
module-level helpers they reach) compute it by arithmetic: no
``bytearray(`` / ``bytes(`` / ``sorted(``, no call to ``pack`` /
``pack_into`` / ``pack_many`` / ``_pack_*`` and no reference to the
encoder's table, and ``.encode(`` only in the non-ASCII branch of the
``str`` row.  Packing into a scratch buffer and taking ``len()`` gives
the same number, so only this lint (and the clock) would notice it
coming back.

A seventh rule guards the route tables: hops come only from a table.
A static route depends on the machine shape alone, so
``RoutingScheme.hop_table`` tabulates it once per rank.  Re-binning is a
``take`` from it plus a radix sort, and a scalar ``post`` is one index
into its list view (``RoutingScheme.hop_list``, held by the mailbox).
Inside ``RoutingScheme.bin_by_hop`` and ``Mailbox._route`` (the one
routing pass over every point-to-point run: a received packet's record
batches and scalar runs alike, and every injected or re-binned run) any
reference to ``next_hop`` or ``next_hop_vec`` (called or not, nested
helpers included) is a violation; inside ``Mailbox.post`` so is
``_hop_keys``.  Evaluating the route per call gives the same hops, so
only this lint and the counter gate's ``core.routing.calls`` would
notice.

An eighth rule keeps lineage at the handler boundary: one delivery loop
per entry kind.  In ``repro.core.mailbox`` a function calls a receive
callback (``recv``, ``self.recv``, ``self.recv_batch`` or
``self.recv_bcast``; nested helpers count as part of their method) from
at most one site, and no loop that calls one of them names ``prof``,
``_prof``, ``lin`` or ``lins``.  A profiled delivery wraps the callback
once (``LineageProfiler.handler`` / ``batch_handler``) and then runs the
same loop as an unprofiled one.  A profiled twin of a delivery loop
records the same lineage, so only this lint would notice it coming back.

A ninth rule quarantines the parallel engine: no module under
``src/repro`` outside ``src/repro/pdes`` imports ``repro.pdes``, by
absolute or relative import.  The serial layers carry no parallel-DES
hook; the engine reaches into them, never the other way round.

Usage::

    python tools/hotpath_lint.py [--root PATH]

Exits 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Entry classes that must not be built per-message on the fast path.
FORBIDDEN = {"BcastEntry"}

#: Files that make up the batch fast path, relative to the repo root.
HOT_FILES = (
    "src/repro/core/mailbox.py",
    "src/repro/core/coalescing.py",
)

#: ``(file, qualname)`` sites where per-message objects are legitimate:
#: the broadcast handler boundaries.
ALLOWED_SITES = {
    ("src/repro/core/mailbox.py", "Mailbox.post_bcast"),
    ("src/repro/core/mailbox.py", "Mailbox._handle_packet"),
}

#: PDES export-path files where ``pickle`` must not appear (the ring
#: transport serializes through :mod:`repro.pdes.wire` instead).
PICKLE_FREE_FILES = (
    "src/repro/pdes/rings.py",
    "src/repro/pdes/wire.py",
    "src/repro/pdes/worker.py",
    "src/repro/pdes/engine.py",
)

#: ``(file, qualname)`` sites allowed to pickle: the opaque-payload
#: envelope for values serde cannot encode.
PICKLE_ALLOWED_SITES = {
    ("src/repro/pdes/wire.py", "_pack_obj"),
    ("src/repro/pdes/wire.py", "_unpack_obj"),
}

#: Files whose loops may only iterate per-*field*, never per-record.
VECTORIZED_FILES = ("src/repro/core/routing/combiner.py",)

#: Ring fast-path file and the methods that must stay clock/recorder-free.
RING_FILES = ("src/repro/pdes/rings.py",)
RING_FAST_METHODS = {
    "SpscRing.try_push",
    "SpscRing.begin_pop",
    "SpscRing.commit_pop",
}

#: Calls forbidden inside the ring fast path: clock reads and
#: recording verbs.  Matched by callee name, so both ``time()``
#: and ``time.monotonic()`` trip it.
RING_FORBIDDEN_CALLS = {
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "thread_time",
    "monotonic",
    "monotonic_ns",
    "time",
    "time_ns",
    "clock_gettime",
    "span",
    "instant",
    "complete",
    "counter",
    "record",
    "progress",
}

#: Remote-packet path files and the functions on them (plus every method
#: of the in-flight class), and the one that may be a generator.
PACKET_SITES = {
    "src/repro/machine/topology.py": {"Machine.transmit_remote"},
    "src/repro/pdes/worker.py": {"inject_arrival"},
}
PACKET_FILES = tuple(PACKET_SITES)
PACKET_CLASS = "_InFlight"
PACKET_GENERATOR = "Machine.transmit_remote"
PACKET_FORBIDDEN_CALLS = {
    "process", "process_batch", "Process", "partial", "schedule", "timeout",
    "hold",
}


#: Serde file whose size column must stay arithmetic, the table literal
#: that names the column, and the public entry point into it.
SIZING_FILES = ("src/repro/serde/sizing.py",)
SIZING_TABLE = "_SIZE_HANDLERS"
SIZING_ENTRY = "packed_size"
SIZING_FORBIDDEN_CALLS = {
    "bytearray", "bytes", "sorted", "pack", "pack_into", "pack_many",
}

#: Methods that read hops from a route table only (file -> method ->
#: the route functions it must not reach for): the re-binning kernel, the
#: mailbox's routing pass over a packet's entries and the scalar post.
BINNING_FORBIDDEN = frozenset({"next_hop", "next_hop_vec"})
BINNING_SITES = {
    "src/repro/core/routing/base.py": {
        "RoutingScheme.bin_by_hop": BINNING_FORBIDDEN,
    },
    "src/repro/core/mailbox.py": {
        "Mailbox._route": BINNING_FORBIDDEN,
        "Mailbox.post": BINNING_FORBIDDEN | {"_hop_keys"},
    },
}


#: Files whose receive-callback calls sit at one site per function, the
#: callbacks, and the lineage names a loop that calls one must not use.
DELIVERY_FILES = ("src/repro/core/mailbox.py",)
RECV_CALLBACKS = {"recv", "recv_batch", "recv_bcast"}
LINEAGE_NAMES = {"prof", "_prof", "lin", "lins"}

#: The package tree scanned for imports of the quarantined package, and
#: that package (its own modules may import it).
QUARANTINE_ROOT = "src/repro"
QUARANTINE_PACKAGE = "repro.pdes"


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class _HotPathVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in FORBIDDEN:
            qualname = ".".join(self.stack) or "<module>"
            if (self.relpath, qualname) not in ALLOWED_SITES:
                self.violations.append(
                    (self.relpath, node.lineno, qualname, name)
                )
        self.generic_visit(node)


class _PickleVisitor(ast.NodeVisitor):
    """Flags any route to the pickle serializer: imports and attribute use."""

    _MODULES = {"pickle", "cPickle", "_pickle"}

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _flag(self, node, what: str) -> None:
        qualname = ".".join(self.stack) or "<module>"
        if (self.relpath, qualname) not in PICKLE_ALLOWED_SITES:
            self.violations.append((self.relpath, node.lineno, qualname, what))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in self._MODULES:
                self._flag(node, f"import {alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] in self._MODULES:
            self._flag(node, f"from {node.module} import ...")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self._MODULES:
            self._flag(node, f"{node.value.id}.{node.attr}")
        self.generic_visit(node)


class _VectorizedVisitor(ast.NodeVisitor):
    """Flags per-record Python loops in the combining pass.

    A loop's iterable is fine when it bottoms out in one of the
    combiner's field lists (``key_fields`` / ``reduce_fields``), possibly
    through a dict view (``.items()``/``.keys()``/``.values()``) or an
    order-only wrapper (``reversed``/``sorted``/``enumerate``/``tuple``/
    ``list``).  Everything else -- and any ``while`` -- is per-record.
    """

    _FIELD_ATTRS = {"key_fields", "reduce_fields"}
    _DICT_VIEWS = {"items", "keys", "values"}
    _WRAPPERS = {"reversed", "sorted", "enumerate", "tuple", "list"}

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _iter_allowed(self, node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in self._FIELD_ATTRS
        if isinstance(node, ast.Name):
            return node.id in self._FIELD_ATTRS
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._DICT_VIEWS:
                return self._iter_allowed(func.value)
            if isinstance(func, ast.Name) and func.id in self._WRAPPERS and node.args:
                return self._iter_allowed(node.args[0])
        return False

    def _flag(self, node, what: str) -> None:
        qualname = ".".join(self.stack) or "<module>"
        self.violations.append((self.relpath, node.lineno, qualname, what))

    def _check_loop(self, node, kind: str) -> None:
        if not self._iter_allowed(node.iter):
            self._flag(node, f"per-record {kind}")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node, "for loop")

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node, "for loop")

    def visit_While(self, node: ast.While) -> None:
        self._flag(node, "per-record while loop")
        self.generic_visit(node)

    def _check_comp(self, node, kind: str) -> None:
        for gen in node.generators:
            if not self._iter_allowed(gen.iter):
                self._flag(node, f"per-record {kind}")
                break
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comp(node, "comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node, "comprehension")


class _RingFastPathVisitor(ast.NodeVisitor):
    """Flags clock reads and recorder calls inside the ring fast path."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in RING_FORBIDDEN_CALLS:
            qualname = ".".join(self.stack) or "<module>"
            if qualname in RING_FAST_METHODS:
                self.violations.append(
                    (self.relpath, node.lineno, qualname, f"ring-hot {name}")
                )
        self.generic_visit(node)


class _PacketPathVisitor(ast.NodeVisitor):
    """Flags per-packet processes, closures and extra events.

    Nested helpers count as part of their method (a closure defined there
    runs per packet too), besides being a violation themselves.
    """

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.methods = PACKET_SITES.get(relpath, set())
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped

    def _method(self) -> "str | None":
        """The packet-path function being visited, else None."""
        for depth in (1, 2):
            method = ".".join(self.stack[:depth])
            if len(self.stack) >= depth and method in self.methods:
                return method
        if len(self.stack) >= 2 and self.stack[0] == PACKET_CLASS:
            return ".".join(self.stack[:2])
        return None

    def _flag(self, node, what: str) -> None:
        self.violations.append(
            (self.relpath, node.lineno, self._method(), f"packet-path {what}")
        )

    def visit_FunctionDef(self, node) -> None:
        method = self._method()
        if method and len(self.stack) > method.count("."):
            self._flag(node, "nested def")
        self._scoped(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self._method():
            self._flag(node, "lambda")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in PACKET_FORBIDDEN_CALLS and self._method():
            self._flag(node, name)
        self.generic_visit(node)

    def _yield(self, node) -> None:
        method = self._method()
        if method and method != PACKET_GENERATOR:
            self._flag(node, "yield")
        self.generic_visit(node)

    visit_Yield = _yield
    visit_YieldFrom = _yield


class _BinningVisitor(ast.NodeVisitor):
    """Flags route evaluation inside the re-binning kernels and ``post``.

    Nested helpers count as part of their method, as on the packet path.
    """

    def __init__(self, relpath: str, methods: dict) -> None:
        self.relpath = relpath
        self.methods = methods
        self.stack: list[str] = []
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _check(self, node, name: str) -> None:
        method = ".".join(self.stack[:2])
        if name in self.methods.get(method, ()):
            self.violations.append(
                (self.relpath, node.lineno, method, f"binning {name}")
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check(node, node.id)


def _is_recv_call(node) -> bool:
    """``recv(...)`` or ``self.recv(...)`` / ``recv_batch`` / ``recv_bcast``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "recv"
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and func.attr in RECV_CALLBACKS
    )


class _DeliveryVisitor(ast.NodeVisitor):
    """Flags a second receive-callback site in one method, and lineage
    names inside a loop that calls a receive callback."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.stack: list[str] = []
        self.sites: dict[str, int] = {}
        self.flagged: set = set()
        self.violations: list[tuple[str, int, str, str]] = []

    def _scoped(self, node) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = _scoped
    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped

    def _flag(self, node, what: str) -> None:
        if (node.lineno, what) not in self.flagged:  # nested loops see it twice
            self.flagged.add((node.lineno, what))
            method = ".".join(self.stack[:2]) or "<module>"
            self.violations.append((self.relpath, node.lineno, method, what))

    def visit_Call(self, node: ast.Call) -> None:
        if _is_recv_call(node):
            method = ".".join(self.stack[:2])
            self.sites[method] = self.sites.get(method, 0) + 1
            if self.sites[method] > 1:
                self._flag(node, "delivery second callback site")
        self.generic_visit(node)

    def _loop(self, node) -> None:
        inside = list(ast.walk(node))
        if any(_is_recv_call(n) for n in inside):
            for n in inside:
                name = getattr(n, "id", None) or getattr(n, "attr", None)
                if isinstance(n, (ast.Name, ast.Attribute)) and name in LINEAGE_NAMES:
                    self._flag(n, f"delivery lineage {name}")
        self.generic_visit(node)

    visit_For = _loop
    visit_AsyncFor = _loop
    visit_While = _loop
    visit_ListComp = _loop
    visit_SetComp = _loop
    visit_DictComp = _loop
    visit_GeneratorExp = _loop


def _isascii_sense(test) -> "bool | None":
    """True for ``x.isascii()``, False for ``not x.isascii()``, else None."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _isascii_sense(test.operand)
        return None if inner is None else not inner
    if isinstance(test, ast.Call) and _call_name(test) == "isascii":
        return True
    return None


class _SizingVisitor(ast.NodeVisitor):
    """Flags buffers, sorts and the pack column inside one sizing function."""

    def __init__(self, relpath: str, qualname: str, pack_names: set,
                 is_str_row: bool) -> None:
        self.relpath = relpath
        self.qualname = qualname
        self.pack_names = pack_names
        self.is_str_row = is_str_row
        self.nonascii = False
        #: Every other name the function loads: what it reaches is sizing too.
        self.names: set = set()
        self.violations: list[tuple[str, int, str, str]] = []

    def _flag(self, node, what: str) -> None:
        self.violations.append(
            (self.relpath, node.lineno, self.qualname, f"sizing {what}")
        )

    def _is_pack_name(self, name: str) -> bool:
        return name.startswith("_pack") or name in self.pack_names

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in SIZING_FORBIDDEN_CALLS or self._is_pack_name(name):
            self._flag(node, f"call {name}")
            for arg in node.args:  # the callee is already reported
                self.visit(arg)
            return
        if name == "encode" and not (self.is_str_row and self.nonascii):
            self._flag(node, "call encode")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._is_pack_name(node.id):
            self._flag(node, f"pack-column reference {node.id}")
        else:
            self.names.add(node.id)

    def _branch(self, node) -> None:
        sense = _isascii_sense(node.test) if self.is_str_row else None
        self.visit(node.test)
        for branch, nonascii in ((node.body, sense is False),
                                 (node.orelse, sense is True)):
            self.nonascii, outer = nonascii or self.nonascii, self.nonascii
            for child in branch if isinstance(branch, list) else [branch]:
                self.visit(child)
            self.nonascii = outer

    visit_If = _branch
    visit_IfExp = _branch


def lint_sizing(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    pack_names, size_names, str_row = {"_PACK_HANDLERS"}, {SIZING_ENTRY}, None
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if SIZING_TABLE not in {getattr(t, "id", None) for t in targets}:
            continue
        for key, size_fn in zip(node.value.keys, node.value.values):
            size_names.add(size_fn.id)
            if isinstance(key, ast.Name) and key.id == "str":
                str_row = size_fn.id
    # Everything the size column reaches by name is sizing code too.
    todo, reached = size_names & funcs.keys(), set()
    violations = []
    while todo:
        name = todo.pop()
        reached.add(name)
        visitor = _SizingVisitor(relpath, name, pack_names, name == str_row)
        visitor.visit(funcs[name])
        violations.extend(visitor.violations)
        todo |= (visitor.names & funcs.keys()) - reached
    return sorted(violations)


def lint_file(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _HotPathVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_pickle_free(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _PickleVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_vectorized(path: Path, relpath: str) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _VectorizedVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_ring_fast_path(
    path: Path, relpath: str
) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _RingFastPathVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_packet_path(
    path: Path, relpath: str
) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _PacketPathVisitor(relpath)
    visitor.visit(tree)
    return visitor.violations


def lint_binning(
    path: Path, relpath: str
) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _BinningVisitor(relpath, BINNING_SITES[relpath])
    visitor.visit(tree)
    return visitor.violations


def lint_delivery(
    path: Path, relpath: str
) -> list[tuple[str, int, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _DeliveryVisitor(relpath)
    visitor.visit(tree)
    return sorted(visitor.violations)


def lint_quarantine(root: Path) -> list[tuple[str, int, str, str]]:
    """Imports of the quarantined package from outside it (rule 9)."""
    base = root / QUARANTINE_ROOT
    quarantined = tuple(QUARANTINE_PACKAGE.split("."))
    violations = []
    for path in sorted(base.rglob("*.py")):
        package = path.relative_to(base.parent).parts[:-1]
        if package[: len(quarantined)] == quarantined:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # relative to this module's package
                    parent = package[: len(package) - node.level + 1]
                    module = ".".join(parent + ((module,) if module else ()))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name.split(".")[: len(quarantined)] == list(quarantined):
                    rel = path.relative_to(root).as_posix()
                    violations.append((rel, node.lineno, "<module>", f"pdes-import {name}"))
                    break
    return violations


def lint(root: Path) -> list[tuple[str, int, str, str]]:
    violations = []
    for rel in HOT_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_file(path, rel))
    for rel in PICKLE_FREE_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_pickle_free(path, rel))
    for rel in VECTORIZED_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_vectorized(path, rel))
    for rel in RING_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_ring_fast_path(path, rel))
    for rel in PACKET_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_packet_path(path, rel))
    for rel in SIZING_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_sizing(path, rel))
    for rel in BINNING_SITES:
        path = root / rel
        if path.exists():
            violations.extend(lint_binning(path, rel))
    for rel in DELIVERY_FILES:
        path = root / rel
        if path.exists():
            violations.extend(lint_delivery(path, rel))
    if (root / QUARANTINE_ROOT).is_dir():
        violations.extend(lint_quarantine(root))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: this script's parent's parent)",
    )
    args = parser.parse_args(argv)
    violations = lint(Path(args.root))
    for relpath, lineno, qualname, name in violations:
        if name.startswith("per-record"):
            print(
                f"{relpath}:{lineno}: {name} in {qualname} -- the combining "
                f"pass must stay vectorized (lexsort + reduceat); Python "
                f"loops there may only iterate over the combiner's field "
                f"lists, never over records",
                file=sys.stderr,
            )
        elif name.startswith("ring-hot "):
            print(
                f"{relpath}:{lineno}: {name[len('ring-hot '):]}() called in "
                f"{qualname} -- the ring push/pop fast path must stay free "
                f"of clock reads and recorder calls (RingStats integer "
                f"bumps are the only telemetry allowed here)",
                file=sys.stderr,
            )
        elif name.startswith("packet-path "):
            print(
                f"{relpath}:{lineno}: {name[len('packet-path '):]} in "
                f"{qualname} -- one object per packet: a remote packet is "
                f"one in-flight entry pushed once per stage (no Process, "
                f"generator, closure or extra event per packet)",
                file=sys.stderr,
            )
        elif name.startswith("sizing "):
            print(
                f"{relpath}:{lineno}: {name[len('sizing '):]} in {qualname} "
                f"-- sizing allocates nothing: packed_size and the size "
                f"column compute lengths by arithmetic (no buffers, no "
                f"sorting, no pack column; .encode only for non-ASCII str)",
                file=sys.stderr,
            )
        elif name.startswith("binning "):
            print(
                f"{relpath}:{lineno}: {name[len('binning '):]} in {qualname} "
                f"-- hops come only from a route table: re-binning takes "
                f"them from RoutingScheme.hop_table and a scalar post from "
                f"its list view, never from the route evaluated per call",
                file=sys.stderr,
            )
        elif name.startswith("delivery "):
            print(
                f"{relpath}:{lineno}: {name[len('delivery '):]} in {qualname} "
                f"-- one delivery loop per entry kind: call the receive "
                f"callback from one site, and wrap it once "
                f"(LineageProfiler.handler) instead of a profiled twin loop",
                file=sys.stderr,
            )
        elif name.startswith("pdes-import "):
            print(
                f"{relpath}:{lineno}: imports {name[len('pdes-import '):]} "
                f"-- the parallel engine is quarantined: no module outside "
                f"repro.pdes imports it (the engine reaches into the serial "
                f"layers, never the other way round)",
                file=sys.stderr,
            )
        elif "pickle" in name:
            print(
                f"{relpath}:{lineno}: {name} in {qualname} -- the PDES "
                f"export path must stay pickle-free (encode through "
                f"repro.pdes.wire; only its opaque-payload envelope, "
                f"{', '.join(sorted(q for _, q in PICKLE_ALLOWED_SITES))}, "
                f"may pickle)",
                file=sys.stderr,
            )
        else:
            print(
                f"{relpath}:{lineno}: {name}() constructed in {qualname} -- "
                f"the mailbox data plane must not allocate per-message entry "
                f"objects (allowed only at handler boundaries: "
                f"{', '.join(sorted(q for _, q in ALLOWED_SITES))})",
                file=sys.stderr,
            )
    if not violations:
        nfiles = (
            len(HOT_FILES) + len(PICKLE_FREE_FILES) + len(VECTORIZED_FILES)
            + len(RING_FILES) + len(PACKET_FILES) + len(SIZING_FILES)
            + len(BINNING_SITES) + len(DELIVERY_FILES) + 1
        )
        print(f"hotpath lint: OK ({nfiles} files)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
