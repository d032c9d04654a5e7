"""Quiescence totals are partition-composable (satellite: termination).

The serial termination detector agrees on global ``last_totals`` while
each rank keeps its *own* round sample in ``last_contribution``.  The
identity the parallel engine's audit relies on: summing contributions
over any disjoint split of the ranks -- e.g. a 2-partition PDES split
-- reconstructs the agreed totals exactly.
"""

import pytest

from repro.core.context import YgmWorld
from repro.pdes import PdesError, PdesWorld
from repro.pdes.engine import PdesWorld as _Engine


def chatter(contexts):
    def rank_main(ctx):
        contexts.append(ctx)
        got = []
        mb = ctx.mailbox(recv=lambda m: got.append(m))
        for i in range(12):
            yield from mb.send((ctx.rank * 5 + i) % ctx.nranks, i)
        yield from mb.wait_empty()
        return len(got)

    return rank_main


def _samples(contexts):
    """(rank -> (totals, contribution)) for the single app mailbox."""
    out = {}
    for ctx in sorted(contexts, key=lambda c: c.world_rank):
        (mb,) = ctx.mailboxes
        out[ctx.world_rank] = (mb.term_totals, mb._term.last_contribution)
    return out


def test_contributions_sum_to_agreed_totals_on_a_two_partition_split():
    contexts = []
    YgmWorld(4, scheme="nlnr", seed=1, cores_per_node=2).run(chatter(contexts))
    samples = _samples(contexts)
    assert len(samples) == 8

    # Every rank agreed on the same global snapshot.
    totals = {t for t, _ in samples.values()}
    assert len(totals) == 1
    (totals,) = totals

    # The PDES node split: ranks 0-3 on partition 0, ranks 4-7 on 1.
    def group_sum(ranks):
        sent = sum(samples[r][1][0] for r in ranks)
        recv = sum(samples[r][1][1] for r in ranks)
        return sent, recv

    s0, r0 = group_sum(range(0, 4))
    s1, r1 = group_sum(range(4, 8))
    assert (s0 + s1, r0 + r1) == tuple(totals)
    # Each partition's share is a real share, not a copy of the totals.
    assert (s0, r0) != tuple(totals)
    assert (s1, r1) != tuple(totals)


def test_pdes_run_audits_the_identity_end_to_end():
    # PdesWorld._assemble runs _audit_term on every run; completing
    # without PdesError means the cross-partition identity held.
    contexts = []
    engine = PdesWorld(4, scheme="nlnr", seed=1, cores_per_node=2, workers=2)
    result = engine.run(chatter(contexts))
    assert sum(result.values) == 4 * 2 * 12  # every message delivered once


def test_audit_rejects_disagreeing_totals():
    engine = _Engine(4, cores_per_node=2, workers=2)
    term = {
        0: [(7, (10, 10), (6, 6))],
        1: [(7, (11, 11), (4, 4))],  # different agreed totals: protocol bug
    }
    with pytest.raises(PdesError, match="disagree"):
        engine._audit_term(term)


def test_audit_rejects_non_composing_contributions():
    engine = _Engine(4, cores_per_node=2, workers=2)
    term = {
        0: [(7, (10, 10), (6, 6))],
        1: [(7, (10, 10), (5, 4))],  # 11 != 10: lost/double-counted traffic
    }
    with pytest.raises(PdesError, match="composable"):
        engine._audit_term(term)
