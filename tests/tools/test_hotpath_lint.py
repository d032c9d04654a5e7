"""The hot-path lint guards the columnar data plane against regressions."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import hotpath_lint  # noqa: E402


def test_current_tree_is_clean():
    assert hotpath_lint.lint(REPO) == []


def test_cli_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hotpath_lint.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def _write_tree(tmp_path, mailbox_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "mailbox.py").write_text(mailbox_src)
    return root


def test_flags_entry_construction_outside_allowlist(tmp_path):
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def post_bcast(self, payload):\n"
        "        e = BcastEntry(0, payload, 0)\n"  # allowed boundary
        "    def post(self, dest):\n"  # no longer a boundary: violation
        "        return BcastEntry(dest, None, 0)\n"
        "    def _bin_by_hop(self, dests):\n"
        "        return [BcastEntry(d, None, 0) for d in dests]\n"  # violation
        "    def _handle_packet(self, pkt):\n"
        "        b = BcastEntry(0, None, 0)\n"  # allowed boundary
        "        def helper():\n"
        "            return BcastEntry(1, None, 0)\n",  # nested scope: violation
    )
    violations = hotpath_lint.lint(root)
    sites = [(qual, name) for _f, _line, qual, name in violations]
    assert ("Mailbox.post", "BcastEntry") in sites
    assert ("Mailbox._bin_by_hop", "BcastEntry") in sites
    assert ("Mailbox._handle_packet.helper", "BcastEntry") in sites
    assert len(violations) == 3


def test_attribute_qualified_construction_is_caught(tmp_path):
    root = _write_tree(
        tmp_path,
        "from repro.core import coalescing\n"
        "def flush():\n"
        "    return coalescing.BcastEntry(0, None, 0)\n",
    )
    ((_f, _line, qual, name),) = hotpath_lint.lint(root)
    assert (qual, name) == ("flush", "BcastEntry")


def _write_pdes_tree(tmp_path, wire_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "pdes"
    pkg.mkdir(parents=True)
    (pkg / "wire.py").write_text(wire_src)
    return root


def test_flags_pickle_import_in_pdes_export_path(tmp_path):
    root = _write_pdes_tree(tmp_path, "import pickle\n")
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert (qual, what) == ("<module>", "import pickle")


def test_flags_pickle_dumps_call_in_pdes_export_path(tmp_path):
    root = _write_pdes_tree(
        tmp_path,
        "def encode_batch(exports, out):\n"
        "    out += pickle.dumps(exports)\n",
    )
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert (qual, what) == ("encode_batch", "pickle.dumps")


def test_flags_from_pickle_import_and_cpickle_alias(tmp_path):
    root = _write_pdes_tree(
        tmp_path,
        "from pickle import dumps\nimport _pickle as fast\n",
    )
    whats = sorted(what for _f, _line, _q, what in hotpath_lint.lint(root))
    assert whats == ["from pickle import ...", "import _pickle"]


def test_pickle_rule_ignores_files_outside_export_path(tmp_path):
    # engine of another package: pickle is fine elsewhere in the tree
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "exec"
    pkg.mkdir(parents=True)
    (pkg / "pool.py").write_text("import pickle\n")
    assert hotpath_lint.lint(root) == []


def test_cli_reports_pickle_violation(tmp_path):
    root = _write_pdes_tree(tmp_path, "import pickle\n")
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "pickle-free" in proc.stderr


def test_cli_reports_violations_and_exits_nonzero(tmp_path):
    root = _write_tree(
        tmp_path,
        "def rebin():\n    return BcastEntry(0, None, 0)\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "BcastEntry() constructed in rebin" in proc.stderr


def _write_combiner_tree(tmp_path, combiner_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "core" / "routing"
    pkg.mkdir(parents=True)
    (pkg / "combiner.py").write_text(combiner_src)
    return root


def test_field_iteration_in_combiner_is_allowed(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "class Combiner:\n"
        "    def combine(self, dests, batch):\n"
        "        cols = [batch[f] for f in reversed(self.key_fields)]\n"
        "        for f in self.key_fields:\n"
        "            pass\n"
        "        for f, op in self.reduce_fields.items():\n"
        "            pass\n",
    )
    assert hotpath_lint.lint(root) == []


def test_flags_per_record_loop_in_combiner(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "class Combiner:\n"
        "    def combine(self, dests, batch):\n"
        "        out = []\n"
        "        for d, rec in zip(dests, batch):\n"  # violation: per-record
        "            out.append((d, rec))\n"
        "        return out\n",
    )
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert qual == "Combiner.combine"
    assert what == "per-record for loop"


def test_flags_per_record_comprehension_and_while(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "def merge(dests, batch):\n"
        "    keys = [tuple(r) for r in batch]\n"  # violation
        "    i = 0\n"
        "    while i < len(dests):\n"  # violation
        "        i += 1\n",
    )
    whats = sorted(what for _f, _line, _q, what in hotpath_lint.lint(root))
    assert whats == ["per-record comprehension", "per-record while loop"]


def _write_rings_tree(tmp_path, rings_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "pdes"
    pkg.mkdir(parents=True)
    (pkg / "rings.py").write_text(rings_src)
    return root


def test_flags_clock_read_in_ring_fast_path(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "from time import perf_counter\n"
        "class SpscRing:\n"
        "    def try_push(self, payload):\n"
        "        t0 = perf_counter()\n"  # violation: clock on the fast path
        "        return 0\n"
        "    def begin_pop(self):\n"
        "        self.tracer.record(1)\n"  # violation: recorder call
        "    def commit_pop(self):\n"
        "        self.stats.pops += 1\n",  # counter bump: allowed
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("SpscRing.begin_pop", "ring-hot record"),
        ("SpscRing.try_push", "ring-hot perf_counter"),
    ]


def test_ring_rule_ignores_slow_paths_and_other_classes(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "from time import perf_counter\n"
        "class SpscRing:\n"
        "    def release(self):\n"
        "        return perf_counter()\n"  # not a fast-path method
        "def send_batch(ring, exports, scratch):\n"
        "    return perf_counter()\n",  # module-level helper: fine
    )
    assert hotpath_lint.lint(root) == []


def test_cli_reports_ring_violation(tmp_path):
    root = _write_rings_tree(
        tmp_path,
        "import time\n"
        "class SpscRing:\n"
        "    def commit_pop(self):\n"
        "        self.t = time.monotonic()\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "ring push/pop fast path" in proc.stderr


def test_cli_reports_combining_violation(tmp_path):
    root = _write_combiner_tree(
        tmp_path,
        "def merge(dests):\n"
        "    for d in dests:\n"
        "        pass\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "must stay vectorized" in proc.stderr


def _write_topology_tree(tmp_path, topology_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "machine"
    pkg.mkdir(parents=True)
    (pkg / "topology.py").write_text(topology_src)
    return root


def test_flags_process_per_packet_on_the_remote_path(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def transmit_remote(self, src, dst):\n"
        "        yield self.nic_tx[0].hold(1.0)\n"  # sender's generator: fine
        "        self.sim.process(self._in_flight(dst))\n"  # violation
        "    def inject_arrival(self, t_wire, dst):\n"
        "        Process(self.sim, self._arrive(dst))\n"  # violation
        "    def _arrive(self, dst):\n"
        "        def delivered():\n"
        "            self.sim.process_batch([self.tail(dst)])\n"  # nested: violation
        "        yield self.nic_rx[0].hold(1.0)\n",  # violation: generator callback
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Machine._arrive", "packet-path process_batch"),
        ("Machine._arrive", "packet-path yield"),
        ("Machine.inject_arrival", "packet-path Process"),
        ("Machine.transmit_remote", "packet-path process"),
    ]


def test_packet_rule_ignores_other_methods_and_classes(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def transmit_local(self, src, dst):\n"
        "        yield self.sim.timeout(1.0)\n"
        "    def warm_up(self):\n"
        "        return self.sim.process(self.transmit_local(0, 1))\n"
        "class Other:\n"
        "    def _arrive(self):\n"
        "        yield self.sim.process(x)\n",
    )
    assert hotpath_lint.lint(root) == []


def test_cli_reports_packet_path_violation(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def _arrive(self, dst):\n"
        "        yield from self.nic_rx[0].timed(1.0)\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "no process per packet" in proc.stderr


def _write_packer_tree(tmp_path, packer_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "serde"
    pkg.mkdir(parents=True)
    (pkg / "packer.py").write_text(packer_src)
    return root


_PACKER_TABLE = (
    "_TYPE_TABLE = {\n"
    "    int: (_pack_int, _size_int),\n"
    "    str: (_pack_str, _size_str),\n"
    "    list: (_pack_list, _size_items),\n"
    "}\n"
    "_PACK_HANDLERS = {tp: row[0] for tp, row in _TYPE_TABLE.items()}\n"
    "_SIZE_HANDLERS = {tp: row[1] for tp, row in _TYPE_TABLE.items()}\n"
    "def pack(obj):\n"
    "    out = bytearray()\n"  # the pack column may allocate: not sizing code
    "    _PACK_HANDLERS[type(obj)](out, obj)\n"
    "    return bytes(out)\n"
)


def test_arithmetic_size_column_is_allowed(tmp_path):
    root = _write_packer_tree(
        tmp_path,
        "def _pack_str(out, obj):\n"
        "    out += obj.encode('utf-8')\n"  # pack column: free to encode
        "def _varint_len(n):\n"
        "    return (n.bit_length() + 6) // 7 or 1\n"
        "def _size_int(obj):\n"
        "    return 1 + _varint_len(obj)\n"
        "def _size_str(obj):\n"
        "    n = len(obj)\n"
        "    if not obj.isascii():\n"
        "        n = len(obj.encode('utf-8'))\n"  # the one allowed encode
        "    return 1 + _varint_len(n) + n\n"
        "def _size_items(obj):\n"
        "    return 2 + sum(_SIZE_HANDLERS.get(type(o), _size_other)(o) for o in obj)\n"
        "def _size_other(obj):\n"
        "    return 1 + packed_size(obj.state)\n"
        "def packed_size(obj):\n"
        "    return _SIZE_HANDLERS.get(type(obj), _size_other)(obj)\n"
        + _PACKER_TABLE,
    )
    assert hotpath_lint.lint(root) == []


def test_flags_packing_and_allocation_in_the_size_column(tmp_path):
    root = _write_packer_tree(
        tmp_path,
        "def _scratch_len(obj):\n"  # reached by name from the size column
        "    out = bytearray()\n"  # violation: buffer
        "    _PACK_HANDLERS[type(obj)](out, obj)\n"  # violation: pack column
        "    return len(out)\n"
        "def _size_int(obj):\n"
        "    return len(pack(obj))\n"  # violation: packs to measure
        "def _size_str(obj):\n"
        "    if obj.isascii():\n"
        "        return 2 + len(obj.encode('ascii'))\n"  # violation: ASCII branch
        "    return 2 + len(obj.encode('utf-8'))\n"  # violation: outside the branch
        "def _size_items(obj):\n"
        "    return sum(len(e) for e in sorted(bytes(o) for o in obj))\n"  # two
        "def _size_other(obj):\n"
        "    return _scratch_len(obj) if obj else _pack_other(None, obj)\n"
        "def packed_size(obj):\n"
        "    return _SIZE_HANDLERS.get(type(obj), _size_other)(obj)\n"
        + _PACKER_TABLE,
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("_scratch_len", "sizing call bytearray"),
        ("_scratch_len", "sizing pack-column reference _PACK_HANDLERS"),
        ("_size_int", "sizing call pack"),
        ("_size_items", "sizing call bytes"),
        ("_size_items", "sizing call sorted"),
        ("_size_other", "sizing call _pack_other"),
        ("_size_str", "sizing call encode"),
        ("_size_str", "sizing call encode"),
    ]


def test_encode_outside_the_str_row_is_flagged(tmp_path):
    root = _write_packer_tree(
        tmp_path,
        "def _size_int(obj):\n"
        "    return 1\n"
        "def _size_str(obj):\n"
        "    return 2 + len(obj)\n"
        "def _size_items(obj):\n"
        "    if not obj[0].isascii():\n"
        "        return len(obj[0].encode('utf-8'))\n"  # violation: not the str row
        "    return 2\n"
        "def packed_size(obj):\n"
        "    return _SIZE_HANDLERS[type(obj)](obj)\n"
        + _PACKER_TABLE,
    )
    ((_f, _line, qual, what),) = hotpath_lint.lint(root)
    assert (qual, what) == ("_size_items", "sizing call encode")


def test_cli_reports_sizing_violation(tmp_path):
    # The parent commit's shape: pack into a scratch buffer, take len().
    root = _write_packer_tree(
        tmp_path,
        "_SCRATCH = bytearray()\n"
        "def packed_size(obj):\n"
        "    _SCRATCH.clear()\n"
        "    _PACK_HANDLERS.get(type(obj), _pack_other)(_SCRATCH, obj)\n"
        "    return len(_SCRATCH)\n",
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tools" / "hotpath_lint.py"),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "sizing allocates nothing" in proc.stderr
