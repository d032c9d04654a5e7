"""Lineage-log pin: the causal profiler's raw logs, byte for byte.

Every critical-path step of the ``6a/6b/7a/7b --profile`` cells is a
batch message, so no CLI check covers scalar, broadcast, mixed-run or
per-item-fallback lineage exactly.  This test does: one small workload
that exercises self-sends, chains posted from callbacks, ``send_many``,
broadcasts (injected and re-posted from a callback), routed scalar runs
that mix deliveries and forwards, and record batches, run on every
routing scheme, two machine shapes, with and without a combiner, with a
batch callback and with the per-item fallback (56 configurations).

For each configuration :data:`DIGESTS` holds the SHA-256 of all nine
:class:`~repro.trace.profile.LineageProfiler` logs plus the rank return
values and ``elapsed``.  The digests were recorded at commit 0b42285,
before lineage moved to the handler boundary, and must never be
regenerated from newer code: a mismatch means the lineage a profiled run
records has changed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import RecordSpec, YgmWorld
from repro.core.routing import SCHEMES, Combiner
from repro.machine import small
from repro.trace import Tracer

SPEC = RecordSpec("pin", [("k", "u4"), ("v", "u8"), ("hops", "u1")])
SUM_V = Combiner("sum_v", key_fields=("k", "hops"), reduce_fields={"v": "sum"})

#: The nine append-only logs of a LineageProfiler.
LOGS = (
    "msgs", "batch_msgs", "enq", "enq_batch", "packets", "pkt_members",
    "deliveries", "batch_deliveries", "spans",
)

SHAPES = ((2, 2), (4, 2))
CONFIGS = [
    (scheme, shape, combine, batch_cb)
    for scheme in sorted(SCHEMES)
    for shape in SHAPES
    for combine in (False, True)
    for batch_cb in (True, False)
]


def _config_id(cfg):
    scheme, (nodes, cores), combine, batch_cb = cfg
    return (
        f"{scheme}-{nodes}x{cores}-{'comb' if combine else 'plain'}-"
        f"{'batchcb' if batch_cb else 'fallback'}"
    )


def _pin_main(batch_cb, combine):
    def main(ctx):
        n, me = ctx.nranks, ctx.rank
        got = []
        mb = None

        def on_record(rec):
            k, v, hops = rec.tolist()
            got.append(("r", k, v, hops))
            if hops:
                dests = np.array([(me + 1) % n, me, k % n], dtype=np.int64)
                recs = SPEC.build(
                    k=np.array([k, k, k + 1], dtype="u4"),
                    v=np.full(3, v + 1, dtype="u8"),
                    hops=np.full(3, hops - 1, dtype="u1"),
                )
                mb.post_batch(dests, recs)

        def on_recv(msg):
            if isinstance(msg, np.void):
                on_record(msg)
                return
            got.append(msg)
            if isinstance(msg, tuple) and msg[0] == "chain" and msg[1]:
                # A chain posted from the callback; every third link is
                # a self-send, delivered at once from inside this one.
                nxt = me if msg[1] % 3 == 0 else (me + msg[1]) % n
                mb.post(nxt, ("chain", msg[1] - 1))

        def on_batch(batch):
            got.append(("batch", len(batch)))
            for rec in batch:
                on_record(rec)

        def on_bcast(msg):
            got.append(msg)
            _tag, origin, depth = msg
            if depth and me == (origin + 1) % n:
                mb.post_bcast(("b", me, depth - 1))
                mb.post(origin, ("chain", 1))

        mb = ctx.mailbox(
            recv=on_recv,
            recv_batch=on_batch if batch_cb else None,
            recv_bcast=on_bcast,
            capacity=8,
            combiner=SUM_V if combine else None,
        )
        rng = ctx.rng
        for i in range(16):
            yield from mb.send(int(rng.integers(n)), ("chain", i % 4))
        yield from mb.send(me, ("self", me))
        yield from mb.send_bcast(("b", me, 1 if me == 0 else 0))
        dests = rng.integers(n, size=12)
        dests[0] = me
        yield from mb.send_many(dests, [("many", me, j) for j in range(12)])
        dests = rng.integers(n, size=24).astype(np.int64)
        recs = SPEC.build(
            k=(dests % 3).astype("u4"),
            v=np.arange(24, dtype="u8"),
            hops=(np.arange(24) % 3 == 0).astype("u1"),
        )
        yield from mb.send_batch(dests, recs)
        yield from mb.wait_empty()
        yield from mb.send((me + 1) % n, ("late", me))
        while not (yield from mb.test_empty()):
            yield ctx.compute(1e-6)
        return got

    return main


def _plain(x):
    """JSON default hook: arrays and NumPy scalars become plain values."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"unexpected {type(x).__name__} in a lineage log")


def lineage_digest(cfg) -> str:
    scheme, (nodes, cores), combine, batch_cb = cfg
    tracer = Tracer(categories=(), profile=True)
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=11,
        tracer=tracer,
    )
    res = world.run(_pin_main(batch_cb, combine))
    prof = tracer.lineage
    doc = [[name, getattr(prof, name)] for name in LOGS]
    doc.append(["values", res.values])
    doc.append(["elapsed", res.elapsed])
    # Floats serialize by ``repr`` (exact); tuples and lists alike.
    text = json.dumps(doc, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


#: Recorded at commit 0b42285 (before lineage moved to the handler
#: boundary).  Never regenerate these from newer code.
DIGESTS = {
    "adaptive-2x2-plain-batchcb": "1bf3e2745cc2327949dc3987eeb13799574238f71187dc3b2912dfd490992ab2",
    "adaptive-2x2-plain-fallback": "4b054502747bd6790cc401cfd105089b1258881a4e20ee7e19606f5a603d852e",
    "adaptive-2x2-comb-batchcb": "bfed70e6e4867084a5fd59c37a99caae1051bb52653766ef889c001ec121d32f",
    "adaptive-2x2-comb-fallback": "8b840acc90f238a8fe70fd0b29f75e5cf8a54d20983936e19db20d6914b4dbfc",
    "adaptive-4x2-plain-batchcb": "66c98d73a601fd81fc0c0134abff4905e0183b1c6ad408b0a2eaea0b1f3c073a",
    "adaptive-4x2-plain-fallback": "6346bf7963e1aeefbecf730bcf4dccd7adba9547997b982f8ebc4c2247604335",
    "adaptive-4x2-comb-batchcb": "5383662786f1d1b85a0d3c1a43a8972e5088b118785bc1821aba19ed9ea7d18b",
    "adaptive-4x2-comb-fallback": "4a4e45e0215c562e37bf029adc010981f03137b615614d83bf5dccd4d8d3c39a",
    "nlnr-2x2-plain-batchcb": "6a492f2cfa2dd9e221409c51dffe1399675c0d4837e481b21f2951ac8ff6a90e",
    "nlnr-2x2-plain-fallback": "81d2d940165dc607eebc05bd8535bb44b01ed07900d5502d7c86ebfd47174003",
    "nlnr-2x2-comb-batchcb": "fa53347b45aba1f4837aa16aa5c3d9a145cd962d8ca1159a26910097cf4aaafc",
    "nlnr-2x2-comb-fallback": "dfb58fa6cfd8a14bcd8fda114357ba17740b2915433ca1aefdfed3b7ea095dfc",
    "nlnr-4x2-plain-batchcb": "e07423bca459c057b71b86f478410e6f3f6022c1e4890cabda4cedcde68ab0e5",
    "nlnr-4x2-plain-fallback": "e9af84313ea0e5441dc01f3e0ef9aaa6a5565c65e96dc4a5da0cc6ea75cd506d",
    "nlnr-4x2-comb-batchcb": "e6924e9518efba2bf6c8b0776edffa9c71bbec11df0393cc4a31aa2f36fd1290",
    "nlnr-4x2-comb-fallback": "880fad2dec088ddb441b88fceae0fab9aa1c56043807de74ff3839d68af10673",
    "nlnr_hybrid-2x2-plain-batchcb": "0419fceac709374c31e8d62d7e1481efc06eb9678c775ef1e57178586503947a",
    "nlnr_hybrid-2x2-plain-fallback": "48ba46621f48794a999f53114947b50253606832b208ef2fd3b2b234cd965f4f",
    "nlnr_hybrid-2x2-comb-batchcb": "3ba33403d2738e7a1521b0094cf37e62e34b4300c27be63061649e1db69f3b31",
    "nlnr_hybrid-2x2-comb-fallback": "5e70d5a418f55c2dd0fc1f4b5f6921e3fd83964954f220295254add130d99cca",
    "nlnr_hybrid-4x2-plain-batchcb": "ce7780a1e36ac93704de1dfc9cbcb558b686cab935bbc579e37560a1299a5807",
    "nlnr_hybrid-4x2-plain-fallback": "69b064495af5e5ecdd6d773fe6960a5b3c95620f1f60acb8d91c5c93830ff2b6",
    "nlnr_hybrid-4x2-comb-batchcb": "93a0be9e0c33a07874a2c555a55a8e3552e6980be55ac9cd656dc04567638611",
    "nlnr_hybrid-4x2-comb-fallback": "8121e2fab36e2308a10c7738832f35b260f7305ac52e5c4a4212c09d1a5abf02",
    "node_aware-2x2-plain-batchcb": "f9be038c98e1e51faccb96174a19df6699cfab9bcf399282b2a8b9946311c3ef",
    "node_aware-2x2-plain-fallback": "359784394a793b0c958630f60b94a6636e395343b7b89758b876c7f70d59fb04",
    "node_aware-2x2-comb-batchcb": "ad3fe94fdcc72f24ff5fcc7a9e18c6eddadcd442f2cee8390e3143497a7863ab",
    "node_aware-2x2-comb-fallback": "44524ff394e6f4f7a7181c5ccdb4fa5a96740162b61432c004e15e5d6c0df7ce",
    "node_aware-4x2-plain-batchcb": "09acc823ebd241234ee78abf196d0cd1d144acbd348f005dcc3ae35e9736c6ae",
    "node_aware-4x2-plain-fallback": "0925a3a45d8800893da8d0d7f31e17401b05019aea3d8a76c83d97174e548d56",
    "node_aware-4x2-comb-batchcb": "bc1ccd641484ed55e86006ddaf465012c3763ceea789fe1705189c868e0a3a67",
    "node_aware-4x2-comb-fallback": "66572b4c6f61368923729c77783ae1c27b52cc742756cc158cc4267f14bd7681",
    "node_local-2x2-plain-batchcb": "d87557e546eb0ba8c00a216639670f3108e8765bdb79c352b7939de7ffa95bcf",
    "node_local-2x2-plain-fallback": "0811826aeca3465ddfdaf18e24013afb35bac47433ff6666c65ce4e385c51ffe",
    "node_local-2x2-comb-batchcb": "264727ce7c9dabef947eea9ccbbf3f5b167986c485bfc66e0fd5380891278418",
    "node_local-2x2-comb-fallback": "b7ee1d33031ff091572f1090dcba7593b9380302dea4063337ed11f7bdb73a49",
    "node_local-4x2-plain-batchcb": "41c8eb0af180a3fc15ccba6f1771cc0fd5d65b9546e8396f532bef8b237c738d",
    "node_local-4x2-plain-fallback": "ce9dfe5b10a8f81e0b2f13f18ed6999f04046d32ba7575d8bdcc34a7c0897d8f",
    "node_local-4x2-comb-batchcb": "fe5aeb82accd05f3fe3a8f352dc0790ba1e5941eb3402efc8125a766e5149e80",
    "node_local-4x2-comb-fallback": "91d28da5ce9647742ee7c8ab22c01ecc7a2e145c33e25c216fb904a6cfeeaede",
    "node_remote-2x2-plain-batchcb": "070a7eb4bcab647f4eb755189918472db8760c9fc7fbb213a2666e15dca5dba3",
    "node_remote-2x2-plain-fallback": "49a73e5e9bc9fd84f0e0eeb7e16d49b6462ed87e5a9b8a7afc9f01a32eaa9cfd",
    "node_remote-2x2-comb-batchcb": "e77e97c6616c262d098503409664c7611e75861f84822f03cb63259df4884543",
    "node_remote-2x2-comb-fallback": "4bd82e1b9f51f2fcd313be286f9e3dac10bd53f2051bca67dfa03045183a8a82",
    "node_remote-4x2-plain-batchcb": "5824913f000d62cdd40205ac3605032a8951281d7d6216d9a60b6a415b807313",
    "node_remote-4x2-plain-fallback": "03a01f7addd1494eef78750af6c85e141691098cbc006e915a04aae50c74238e",
    "node_remote-4x2-comb-batchcb": "1a4260b96426dab3099a2d62b3cd64d2176e7a66e99c62f554bf08ee774f8344",
    "node_remote-4x2-comb-fallback": "59b0686647e5c6ac82846ffd759894b370f128c20fd0c340d72fc1f92f76ac14",
    "noroute-2x2-plain-batchcb": "4611ce5f40c86f3e32f3f3ef4c8baa1bf11f0bd4f85adafd8cdd669ab40b853a",
    "noroute-2x2-plain-fallback": "be35a611b2339869d8886935295ac3072fb15c5814c46339f6e1e9784803cb52",
    "noroute-2x2-comb-batchcb": "3c65e2fd8abfc8c5122abf6859394620f3110f25a85b8afb2a7d9f7d72ec5532",
    "noroute-2x2-comb-fallback": "e101b3a715359678509c2ae608d2304d3ed9b90cde32a3cd33510ba18d3340c6",
    "noroute-4x2-plain-batchcb": "b898fae9611a81aa80aa74a0f6f5920b2cb33aad7bdaf14c7647374a2f3f1bc1",
    "noroute-4x2-plain-fallback": "47fe4f1f3fce5e8d304ddb0c8b0846ee041355b876e91e46c6fe28bf03f5c7ca",
    "noroute-4x2-comb-batchcb": "5c4257efea9da9014068c45551141d28d75d4667376e282b9a4485bce4cc8792",
    "noroute-4x2-comb-fallback": "fb85cd904fc064e4dc8049fd647f8929694fd0d43e9e4abff1bc0f9952fbc2f8",
}


def test_every_configuration_is_pinned():
    assert sorted(DIGESTS) == sorted(_config_id(c) for c in CONFIGS)
    assert len(CONFIGS) == 56


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_lineage_logs_match_pin(cfg):
    assert lineage_digest(cfg) == DIGESTS[_config_id(cfg)]

