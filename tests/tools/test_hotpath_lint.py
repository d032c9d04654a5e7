"""The hot-path lint guards the columnar data plane against regressions."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import hotpath_lint  # noqa: E402


def test_current_tree_is_clean():
    # lint() skips a target that does not exist (fixture trees hold one
    # file each), so a renamed or deleted target would check nothing.
    targets = (
        hotpath_lint.HOT_FILES + hotpath_lint.PICKLE_FREE_FILES
        + hotpath_lint.VECTORIZED_FILES + hotpath_lint.RING_FILES
        + hotpath_lint.PACKET_FILES + hotpath_lint.SIZING_FILES
        + tuple(hotpath_lint.BINNING_SITES) + hotpath_lint.DELIVERY_FILES
    )
    assert [rel for rel in targets if not (REPO / rel).is_file()] == []
    # Likewise a renamed binning site (the mailbox's routing pass, the
    # scheme's kernel, post) would drop out of rule 7 unnoticed.
    for rel, methods in hotpath_lint.BINNING_SITES.items():
        tree = ast.parse((REPO / rel).read_text())
        defined = {
            f"{cls.name}.{fn.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        assert set(methods) <= defined, rel
    assert "Mailbox._route" in hotpath_lint.BINNING_SITES["src/repro/core/mailbox.py"]
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


def test_pickle_is_allowed_only_in_the_payload_envelope(tmp_path):
    root = _write_pdes_tree(
        tmp_path,
        "def _pack_obj(out, obj):\n"
        "    import pickle\n"  # the envelope: allowed
        "    out += pickle.dumps(obj)\n"
        "def _unpack_obj(buf, pos):\n"
        "    import pickle\n"  # its mirror: allowed
        "    return pickle.loads(buf), pos\n"
        "def encode_batch(exports, out):\n"
        "    import pickle\n"  # violation: the batch path proper
        "    out += pickle.dumps(exports)\n",
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("encode_batch", "import pickle"),
        ("encode_batch", "pickle.dumps"),
    ]


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


def _write_topology_tree(tmp_path, topology_src, worker_src=None):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "machine"
    pkg.mkdir(parents=True)
    (pkg / "topology.py").write_text(topology_src)
    if worker_src is not None:
        (root / "src" / "repro" / "pdes").mkdir()
        (root / "src" / "repro" / "pdes" / "worker.py").write_text(worker_src)
    return root


def test_flags_process_per_packet_on_the_remote_path(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def transmit_remote(self, src, dst):\n"
        "        yield entry\n"  # sender's generator: fine
        "        self.sim.process(self._in_flight(dst))\n"  # violation
        "class _InFlight(Event):\n"
        "    def _process(self):\n"
        "        self.sim.process_batch([self.tail()])\n"  # violation
        "        yield self.rx\n",  # violation: generator stage
        "def inject_arrival(machine, t_wire, dst):\n"
        "    Process(machine.sim, _tail(dst))\n",  # violation
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Machine.transmit_remote", "packet-path process"),
        ("_InFlight._process", "packet-path process_batch"),
        ("_InFlight._process", "packet-path yield"),
        ("inject_arrival", "packet-path Process"),
    ]


def test_flags_closures_and_extra_events_on_the_remote_path(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def transmit_remote(self, src, dst):\n"
        "        yield self.sim.timeout(self.net.send_overhead)\n"  # violation
        "        yield self.nic_tx[0].hold(1.0)\n"  # violation
        "        self.sim.schedule(1.0, partial(self.land, dst))\n"  # two
        "class _InFlight(Event):\n"
        "    def _process(self):\n"
        "        def delivered():\n"  # violation: nested def
        "            self.deliver(self.packet)\n"
        "        self.rx.hold(1.0).callbacks.append(delivered)\n"  # violation
        "    def _land(self):\n"
        "        functools.partial(self.deliver, self.packet)\n",  # violation
        "def inject_arrival(machine, t_wire, dst):\n"
        "    machine.sim.schedule_at(t_wire, lambda: None)\n",  # lambda
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Machine.transmit_remote", "packet-path hold"),
        ("Machine.transmit_remote", "packet-path partial"),
        ("Machine.transmit_remote", "packet-path schedule"),
        ("Machine.transmit_remote", "packet-path timeout"),
        ("_InFlight._land", "packet-path partial"),
        ("_InFlight._process", "packet-path hold"),
        ("_InFlight._process", "packet-path nested def"),
        ("inject_arrival", "packet-path lambda"),
    ]


def test_packet_rule_ignores_other_methods_and_classes(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class Machine:\n"
        "    def transmit_local(self, src, dst):\n"
        "        yield self.sim.timeout(1.0)\n"
        "    def warm_up(self):\n"
        "        return self.sim.process(self.transmit_local(0, 1))\n"
        "    def nic_utilisation(self):\n"
        "        return sum(map(lambda r: r.busy_time, self.nic_tx))\n"
        "class Other:\n"
        "    def _process(self):\n"
        "        def helper():\n"
        "            pass\n"
        "        yield self.sim.process(x)\n"
        "def transmit_remote():\n"
        "    return partial(print)\n",
    )
    assert hotpath_lint.lint(root) == []


def test_cli_reports_packet_path_violation(tmp_path):
    root = _write_topology_tree(
        tmp_path,
        "class _InFlight(Event):\n"
        "    def _process(self):\n"
        "        self.sim.schedule(1.0, self.deliver)\n",
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
    assert "one object per packet" in proc.stderr


def _write_packer_tree(tmp_path, packer_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "serde"
    pkg.mkdir(parents=True)
    (pkg / "sizing.py").write_text(packer_src)
    return root


_PACKER_TABLE = (
    "_SIZE_HANDLERS = {\n"
    "    int: _size_int,\n"
    "    str: _size_str,\n"
    "    list: _size_items,\n"
    "}\n"
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


def _write_binning_tree(tmp_path, base_src, mailbox_src):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro" / "core"
    (pkg / "routing").mkdir(parents=True)
    (pkg / "routing" / "base.py").write_text(base_src)
    (pkg / "mailbox.py").write_text(mailbox_src)
    return root


def test_hop_keys_from_the_key_step_are_allowed(tmp_path):
    root = _write_binning_tree(
        tmp_path,
        "class RoutingScheme:\n"
        "    def hop_table(self, cur):\n"  # the table is built from the route
        "        return self.next_hop_vec(cur, range(self.nranks))\n"
        "    def _hop_keys(self, cur, dests):\n"
        "        return self.hop_table(cur)[dests]\n"
        "    def bin_by_hop(self, cur, dests):\n"
        "        hops = self._hop_keys(cur, dests)\n"
        "        return hops, hops.argsort(kind='stable'), None, None\n",
        "class Mailbox:\n"
        "    def __init__(self, scheme, rank):\n"
        "        self._hops = scheme.hop_list(rank)\n"
        "    def post(self, dest, payload):\n"
        "        return self._hops[dest]\n"  # one index into the list view
        "    def _route(self, dests):\n"
        "        return self.scheme.bin_by_hop(self.rank, dests)\n"
        "    def flush(self, dests):\n"  # not a listed site: fine
        "        return self.scheme._hop_keys(self.rank, dests)\n",
    )
    assert hotpath_lint.lint(root) == []


def test_flags_route_evaluation_in_post(tmp_path):
    root = _write_binning_tree(
        tmp_path,
        "class RoutingScheme:\n"
        "    pass\n",
        "class Mailbox:\n"
        "    def post(self, dest, payload):\n"
        "        if dest < 0:\n"
        "            return self.scheme._hop_keys(self.rank, [dest])[0]\n"
        "        hop = self.scheme.next_hop_vec(self.rank, [dest])[0]\n"
        "        return hop or self.scheme.next_hop(self.rank, dest)\n"
        "    def _route(self, dests):\n"
        "        return self.scheme._hop_keys(self.rank, dests)\n",  # the key step: fine
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Mailbox.post", "binning _hop_keys"),
        ("Mailbox.post", "binning next_hop"),
        ("Mailbox.post", "binning next_hop_vec"),
    ]


def test_flags_route_evaluation_in_the_binning_kernels(tmp_path):
    root = _write_binning_tree(
        tmp_path,
        "class RoutingScheme:\n"
        "    def bin_by_hop(self, cur, dests):\n"
        "        hops = self.next_hop_vec(cur, dests)\n"  # violation: per call
        "        return hops, None, None, None\n"
        "class Other:\n"
        "    def bin_by_hop(self, cur, dests):\n"  # not the kernel: fine
        "        return self.next_hop_vec(cur, dests)\n",
        "class Mailbox:\n"
        "    def _route(self, dests):\n"
        "        route = self.scheme.next_hop\n"  # violation: referenced, not called
        "        def hop(d):\n"
        "            return next_hop(self.rank, d)\n"  # nested: violation
        "        return [route(self.rank, d) for d in dests], hop\n",
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Mailbox._route", "binning next_hop"),
        ("Mailbox._route", "binning next_hop"),
        ("RoutingScheme.bin_by_hop", "binning next_hop_vec"),
    ]


def test_cli_reports_binning_violation(tmp_path):
    # The parent commit's shape: the route evaluated on every re-bin.
    root = _write_binning_tree(
        tmp_path,
        "class RoutingScheme:\n"
        "    def bin_by_hop(self, cur, dests):\n"
        "        hops = self.next_hop_vec(cur, dests)\n"
        "        return hops, hops.argsort(kind='stable'), None, None\n",
        "class Mailbox:\n"
        "    pass\n",
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
    assert "hops come only from a route table" in proc.stderr


# ------------------------------------------------ rule 8: delivery loops
def test_flags_profiled_twin_of_a_delivery_loop(tmp_path):
    # The parent commit's shape: an unprofiled and a profiled loop.
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def _deliver_p2p_run(self, payloads, lins):\n"
        "        prof = self._prof\n"
        "        if prof is None:\n"
        "            for payload in payloads:\n"
        "                self.recv(payload)\n"
        "            return\n"
        "        for payload, lin in zip(payloads, lins):\n"  # violation: lin, lins
        "            prof.delivered(lin, self.rank, 0.0)\n"  # violation: prof, lin
        "            self.recv(payload)\n"  # violation: second site
        "    def _deliver_bcast(self, entry):\n"
        "        if entry.lin is None:\n"
        "            return self.recv_bcast(entry.payload)\n"
        "        def traced():\n"  # nested helper: part of the method
        "            self.recv_bcast(entry.payload)\n"  # violation: second site
        "        return traced\n",
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Mailbox._deliver_bcast", "delivery second callback site"),
        ("Mailbox._deliver_p2p_run", "delivery lineage lin"),
        ("Mailbox._deliver_p2p_run", "delivery lineage lin"),
        ("Mailbox._deliver_p2p_run", "delivery lineage lins"),
        ("Mailbox._deliver_p2p_run", "delivery lineage prof"),
        ("Mailbox._deliver_p2p_run", "delivery second callback site"),
    ]


def test_flags_lineage_in_any_loop_that_calls_a_callback(tmp_path):
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def _handle_mixed_run(self, entry, here):\n"
        "        recv = self.recv\n"
        "        return [recv(p) for p in entry.payloads if self._prof]\n"  # violation
        "    def _deliver_batch(self, entry):\n"
        "        while entry.lins is not None:\n"  # violation
        "            self.recv_batch(entry.batch)\n",
    )
    sites = sorted(
        (qual, what) for _f, _line, qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("Mailbox._deliver_batch", "delivery lineage lins"),
        ("Mailbox._handle_mixed_run", "delivery lineage _prof"),
    ]


def test_one_wrapped_delivery_loop_is_clean(tmp_path):
    # The handler-boundary shape: wrap once, then one loop.
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def _deliver_p2p_run(self, run):\n"
        "        recv = self.recv\n"
        "        if run.lins is not None:\n"  # outside the loop: fine
        "            recv = self._prof.handler(recv, run.lins, self.rank, 0.0)\n"
        "        for payload in run.payloads.tolist():\n"
        "            recv(payload)\n"
        "    def _recv_each(self, batch):\n"
        "        for item in batch:\n"
        "            self.recv(item)\n"
        "    def _profiled_loop_without_callbacks(self, lins):\n"
        "        for lin in lins:\n"  # calls no callback: fine
        "            self._prof.enqueue(lin, 0, 0, 0.0)\n",
    )
    assert hotpath_lint.lint(root) == []


def test_cli_reports_delivery_violation(tmp_path):
    root = _write_tree(
        tmp_path,
        "class Mailbox:\n"
        "    def post(self, dest, payload):\n"
        "        if self._prof is None:\n"
        "            self.recv(payload)\n"
        "            return\n"
        "        self.recv(payload)\n",
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
    assert "second callback site in Mailbox.post" in proc.stderr
    assert "one delivery loop per entry kind" in proc.stderr


def test_flags_pdes_imports_outside_the_pdes_package(tmp_path):
    root = tmp_path / "repo"
    pkg = root / "src" / "repro"
    for sub in ("core", "sim", "pdes"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from . import pdes\n"  # violation
        "from .pdes import PdesWorld\n"  # violation
        "from . import sim\n"
    )
    (pkg / "core" / "mailbox.py").write_text(
        "from ..pdes import worker\n"  # violation: relative
        "from ..pdesx import y\n"  # a different package
        "from .. import pdes\n"  # violation
    )
    (pkg / "sim" / "kernel.py").write_text(
        "import repro.pdes.engine as engine\n"  # violation: absolute
        "from repro import pdes\n"  # violation
        "import repro.pdesy\n"
    )
    (pkg / "pdes" / "engine.py").write_text(
        "from ..pdes import wire\n"  # the package itself may
        "from repro.pdes import rings\n"
    )
    sites = sorted(
        (rel, line, what) for rel, line, _qual, what in hotpath_lint.lint(root)
    )
    assert sites == [
        ("src/repro/__init__.py", 1, "pdes-import repro.pdes"),
        ("src/repro/__init__.py", 2, "pdes-import repro.pdes"),
        ("src/repro/core/mailbox.py", 1, "pdes-import repro.pdes"),
        ("src/repro/core/mailbox.py", 3, "pdes-import repro.pdes"),
        ("src/repro/sim/kernel.py", 1, "pdes-import repro.pdes.engine"),
        ("src/repro/sim/kernel.py", 2, "pdes-import repro.pdes"),
    ]
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hotpath_lint.py"), "--root", str(root)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "the parallel engine is quarantined" in proc.stderr


def test_pdes_quarantine_holds_on_the_current_tree():
    assert hotpath_lint.lint_quarantine(REPO) == []
    # The import-side arrival replay left the machine for the engine;
    # rule 5 follows it there, so a rename would drop out unnoticed.
    for rel, names in hotpath_lint.PACKET_SITES.items():
        tree = ast.parse((REPO / rel).read_text())
        defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        defined |= {
            f"{cls.name}.{fn.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        assert names <= defined, rel
    assert "inject_arrival" in hotpath_lint.PACKET_SITES["src/repro/pdes/worker.py"]
