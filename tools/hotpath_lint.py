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

PR 8 added a second rule for the PDES export path: the shared-memory
ring transport (``repro.pdes.rings`` / ``wire`` / ``worker`` /
``engine``) moves export batches through the serde-based columnar wire
codec, and ``pickle`` must never reappear there -- no ``import pickle``
and no ``pickle.dumps`` / ``pickle.loads`` calls.  (The legacy pipe
transport pickles *implicitly* through ``Connection.send``, which is
fine; an explicit ``pickle`` use in these modules means someone put a
Python-object serializer back on the hot path.)  Results stay
bit-identical either way, so again only this lint catches it.

PR 9 added a third rule for the in-network combining pass
(``repro.core.routing.combiner``): the group-by must stay vectorized --
one ``lexsort``, one adjacent-equality scan, one ``reduceat`` per
reduced field.  The only Python loops allowed there iterate over the
combiner's *field lists* (``key_fields`` / ``reduce_fields``, a handful
of names), never over records; a ``for``/``while``/comprehension over
anything else is a per-record loop sneaking back onto the re-bin path.

PR 10 added a fourth rule for the ring fast path: the flight recorder
(``repro.pdes.flight``) records per *window*, never per ring operation,
so ``SpscRing.try_push`` / ``begin_pop`` / ``commit_pop`` must stay
free of clock reads and recorder calls -- no ``perf_counter`` /
``monotonic`` / ``time`` and no ``span`` / ``instant`` / ``record`` /
``counter`` / ``progress``.  The always-on :class:`RingStats` integer
bumps are the only telemetry allowed there; a timing call on that path
taxes every batch whether or not anyone is recording.

PR 20 added a fifth rule for the remote-packet path
(``repro.machine.topology``): no process per packet.  The in-flight leg
of a remote packet is two scheduled callbacks, so inside
``Machine.transmit_remote``, ``Machine._arrive`` and
``Machine.inject_arrival`` a call to ``.process(``, ``.process_batch(``
or ``Process(`` is a violation, and ``_arrive`` / ``inject_arrival``
contain no ``yield`` (a generator there needs a process to drive it).
Results stay bit-identical if someone puts the detached process back,
so only this lint and the event-budget test in
``tests/machine/test_topology.py`` would notice.

PR 22 added a sixth rule for scalar payload sizing
(``repro.serde.packer``): sizing allocates nothing.  The mailbox needs
only the encoded *length* of a scalar payload, so ``packed_size`` and
every function in the size column of ``_TYPE_TABLE`` (and whatever
module-level helpers they reach) compute it by arithmetic: no
``bytearray(`` / ``bytes(`` / ``sorted(``, no call to ``pack`` /
``pack_into`` / ``pack_many`` / ``_pack_*`` and no reference to the pack
column, and ``.encode(`` only in the non-ASCII branch of the ``str``
row.  Packing into a scratch buffer and taking ``len()`` gives the same
number, so only this lint (and the clock) would notice it coming back.

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

#: PDES export-path files where ``pickle`` must never appear (the ring
#: transport serializes through :mod:`repro.pdes.wire` instead).
PICKLE_FREE_FILES = (
    "src/repro/pdes/rings.py",
    "src/repro/pdes/wire.py",
    "src/repro/pdes/worker.py",
    "src/repro/pdes/engine.py",
)

#: Files whose loops may only iterate per-*field*, never per-record.
VECTORIZED_FILES = ("src/repro/core/routing/combiner.py",)

#: Ring fast-path file and the methods that must stay clock/recorder-free.
RING_FILES = ("src/repro/pdes/rings.py",)
RING_FAST_METHODS = {
    "SpscRing.try_push",
    "SpscRing.begin_pop",
    "SpscRing.commit_pop",
}

#: Calls forbidden inside the ring fast path: clock reads and flight/
#: tracer recording verbs.  Matched by callee name, so both ``time()``
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

#: Remote-packet path file, the methods that must not spawn a process per
#: packet, and the subset that must stay plain (non-generator) callbacks.
PACKET_FILES = ("src/repro/machine/topology.py",)
PACKET_METHODS = {
    "Machine.transmit_remote",
    "Machine._arrive",
    "Machine.inject_arrival",
}
PACKET_CALLBACKS = {"Machine._arrive", "Machine.inject_arrival"}
PACKET_FORBIDDEN_CALLS = {"process", "process_batch", "Process"}


#: Serde file whose size column must stay arithmetic, the table literal
#: that names the column, and the public entry point into it.
SIZING_FILES = ("src/repro/serde/packer.py",)
SIZING_TABLE = "_TYPE_TABLE"
SIZING_ENTRY = "packed_size"
SIZING_FORBIDDEN_CALLS = {
    "bytearray", "bytes", "sorted", "pack", "pack_into", "pack_many",
}


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
    """Flags process launches and generator callbacks on the packet path.

    Nested helpers count as part of their method (``Machine._arrive``'s
    closures run per packet too).
    """

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

    def _method(self) -> str:
        return ".".join(self.stack[:2])

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in PACKET_FORBIDDEN_CALLS and self._method() in PACKET_METHODS:
            self.violations.append(
                (self.relpath, node.lineno, self._method(), f"packet-path {name}")
            )
        self.generic_visit(node)

    def _yield(self, node) -> None:
        if self._method() in PACKET_CALLBACKS:
            self.violations.append(
                (self.relpath, node.lineno, self._method(), "packet-path yield")
            )
        self.generic_visit(node)

    visit_Yield = _yield
    visit_YieldFrom = _yield


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
        for key, row in zip(node.value.keys, node.value.values):
            pack_fn, size_fn = (elt.id for elt in row.elts)
            pack_names.add(pack_fn)
            size_names.add(size_fn)
            if isinstance(key, ast.Name) and key.id == "str":
                str_row = size_fn
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
                f"of clock reads and recorder calls (the flight recorder "
                f"times per window, outside the ring; RingStats integer "
                f"bumps are the only telemetry allowed here)",
                file=sys.stderr,
            )
        elif name.startswith("packet-path "):
            print(
                f"{relpath}:{lineno}: {name[len('packet-path '):]} in "
                f"{qualname} -- no process per packet: the in-flight leg of "
                f"a remote packet is scheduled callbacks (sim.schedule / "
                f"Resource.hold), never a Process or a generator",
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
        elif "pickle" in name:
            print(
                f"{relpath}:{lineno}: {name} in {qualname} -- the PDES "
                f"export path must stay pickle-free (encode through "
                f"repro.pdes.wire; the pipe fallback pickles implicitly "
                f"via Connection.send)",
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
        )
        print(f"hotpath lint: OK ({nfiles} files)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
