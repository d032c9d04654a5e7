"""The invariant checker: passes on healthy runs, fires on injected faults.

The fault-injection tests feed the checker hand-crafted trace events (or
deliberately broken worlds) and assert each invariant actually detects
its violation -- mutation coverage for the checker itself, since the
healthy stack (hopefully) never trips it.
"""

import numpy as np
import pytest

from repro.apps import make_degree_counting
from repro.apps.degree_count import gather_global_degrees
from repro.check import InvariantChecker, InvariantViolation, run_checked
from repro.check.sequential import ref_degrees
from repro.core.context import YgmWorld
from repro.core.stats import MailboxStats
from repro.graph import er_stream
from repro.machine import small
from repro.mpi.world import World


def _quiescent_args(**overrides):
    args = dict(
        mailbox=0, epoch=1, rank=0, size=2,
        term_sent=10, term_received=10,
        entries_sent=10, entries_received=10, queued=0,
    )
    args.update(overrides)
    return args


# ---------------------------------------------------------------- healthy runs
def test_clean_run_passes_and_counts_epochs(checked_world):
    stream = er_stream(48, 30, seed=5)
    world, checker = checked_world(small(), scheme="nlnr")
    result = world.run(make_degree_counting(stream, batch_size=16))
    summary = checker.finalize(result)
    assert summary["epochs_checked"] == 1  # one wait_empty epoch
    assert summary["events_seen"] > 0
    degrees = gather_global_degrees(result.values, 48, world.nranks)
    assert np.array_equal(degrees, ref_degrees(stream, world.nranks))


def test_run_checked_helper():
    def rank_main(ctx):
        got = []
        mb = ctx.mailbox(recv=got.append, capacity=4)
        for i in range(6):
            yield from mb.send((ctx.rank + 1) % ctx.nranks, i)
        yield from mb.wait_empty()
        return sorted(got)

    result, checker = run_checked(small(), rank_main, scheme="node_local")
    assert result.values == [[0, 1, 2, 3, 4, 5]] * 4
    assert checker.epochs_checked == 1


# ------------------------------------------------------------- fault injection
def test_unbalanced_totals_detected():
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="unbalanced"):
        checker.tracer.instant(
            1.0, "mailbox", "quiescent", "rank 0",
            **_quiescent_args(term_sent=10, term_received=7),
        )


def test_buffered_messages_at_quiescence_detected():
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="still buffered"):
        checker.tracer.instant(
            1.0, "mailbox", "quiescent", "rank 0",
            **_quiescent_args(queued=3),
        )


def test_duplicate_epoch_report_detected():
    checker = InvariantChecker()
    checker.tracer.instant(
        1.0, "mailbox", "quiescent", "rank 0", **_quiescent_args()
    )
    with pytest.raises(InvariantViolation, match="twice"):
        checker.tracer.instant(
            2.0, "mailbox", "quiescent", "rank 0", **_quiescent_args()
        )


def test_total_disagreement_detected():
    checker = InvariantChecker()
    checker.tracer.instant(
        1.0, "mailbox", "quiescent", "rank 0", **_quiescent_args()
    )
    with pytest.raises(InvariantViolation, match="disagree"):
        checker.tracer.instant(
            2.0, "mailbox", "quiescent", "rank 1",
            **_quiescent_args(rank=1, term_sent=12, term_received=12),
        )


def test_partial_epoch_detected_at_finalize():
    checker = InvariantChecker()
    checker.tracer.instant(
        1.0, "mailbox", "quiescent", "rank 0", **_quiescent_args(size=4)
    )
    with pytest.raises(InvariantViolation, match="only some ranks"):
        checker.finalize()
    assert InvariantChecker(strict_epochs=False).finalize() is not None


def test_negative_resource_depth_detected():
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="negative"):
        checker.tracer.counter(1.0, "resource", "queue", "nic_tx[0]", -1)


def test_time_moving_backwards_detected():
    checker = InvariantChecker()
    world = checker.watch(World(small()))
    world.sim._now = 5.0
    checker.tracer.instant(5.0, "mailbox", "tick", "rank 0")
    world.sim._now = 1.0
    with pytest.raises(InvariantViolation, match="backwards"):
        checker.tracer.instant(1.0, "mailbox", "tick", "rank 0")


def test_undrained_unexpected_queue_detected():
    # An MPI send nobody ever receives parks a packet in the unexpected
    # queue; the checker must refuse to call that run clean.
    checker = InvariantChecker()
    world = checker.watch(World(small(nodes=1, cores_per_node=2)))

    def rank_main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, b"orphan", tag=0, nbytes=8)
        return None

    world.run(rank_main)
    with pytest.raises(InvariantViolation, match="unexpected queue"):
        checker.finalize()


def test_undrained_mailbox_inbox_reported_once_naming_every_kind():
    # A termination packet nobody progresses stays in the receiving
    # mailbox's inbox store.  That one store carries both the app and the
    # term kind, so the checker must report it once, naming both.
    checker = InvariantChecker()
    world = checker.watch(YgmWorld(small(nodes=1, cores_per_node=2)))

    def rank_main(ctx):
        mb = ctx.mailbox(recv=lambda v: None)
        if ctx.rank == 0:
            yield from ctx.comm.send(1, (0, 0), tag=("r", 0, 0), kind=mb._term_kind)
        return None

    world.run(rank_main)
    violations = []
    checker._fail = violations.append
    checker.finalize()
    assert len(violations) == 1, violations
    msg = violations[0]
    assert msg.startswith("rank 1: 1 undelivered packets")
    assert "('ygm', 0, 'app')" in msg and "('ygm', 0, 'term')" in msg


def test_conservation_checks_fire_on_bad_stats():
    checker = InvariantChecker()

    class FakeResult:
        mailbox_stats = MailboxStats(
            app_messages_sent=5, app_messages_delivered=4
        )
        per_rank_stats = [MailboxStats()] * 2

    with pytest.raises(InvariantViolation, match="not conserved"):
        checker.check_conservation(FakeResult())


# ------------------------------------------------------------------ wiring
def test_watch_rejects_foreign_tracer():
    from repro.trace import Tracer

    world = World(small(), tracer=Tracer())
    with pytest.raises(ValueError, match="different tracer"):
        InvariantChecker().watch(world)


def test_checker_requires_mailbox_category():
    from repro.trace import Tracer

    with pytest.raises(ValueError, match="mailbox"):
        InvariantChecker(tracer=Tracer(categories={"app"}))
