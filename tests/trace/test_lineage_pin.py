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
values and ``elapsed``, and :data:`ORDER_FREE` the SHA-256 of the same
run with every order taken out (:func:`order_free_digest`).  Both must
never be regenerated from newer code: a mismatch means the lineage a
profiled run records has changed.

The exact digests were recorded at commit 0b42285, before lineage moved
to the handler boundary, and re-recorded once, on the parent 0d43fa8,
when scalar runs began to route like record batches: a callback's post
during a mixed scalar run now lands ahead of all of its entry's forwards
instead of behind the forwards of the messages before it.  That moved
the order of deliveries, buffer entries and packet members in 48 of the
56 configurations (every scheme that forwards) and nothing else.  The
order-free digests were recorded at 0d43fa8, where the 0b42285 digests
still held, before the re-recording, and passed unchanged after it: they
hold what the 0b42285 recording pinned, apart from order.
"""

import hashlib
import json
from collections import Counter

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


def _run(cfg):
    scheme, (nodes, cores), combine, batch_cb = cfg
    tracer = Tracer(categories=(), profile=True)
    world = YgmWorld(
        small(nodes=nodes, cores_per_node=cores),
        scheme=scheme,
        seed=11,
        tracer=tracer,
    )
    res = world.run(_pin_main(batch_cb, combine))
    return res, tracer.lineage


def _sha256(doc) -> str:
    # Floats serialize by ``repr`` (exact); tuples and lists alike.
    text = json.dumps(doc, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def lineage_digest(cfg) -> str:
    res, prof = _run(cfg)
    doc = [[name, getattr(prof, name)] for name in LOGS]
    doc.append(["values", res.values])
    doc.append(["elapsed", res.elapsed])
    return _sha256(doc)


def order_free_digest(cfg) -> str:
    """What a run delivers and queues, blind to the order of both: each
    rank's values as a multiset, ``elapsed``, the length of every log but
    ``enq_batch``, and ``enq_batch``'s record total per ``(rank, hop,
    t)`` (how a rank's forwards to one hop at one instant are cut into
    rows is an order choice)."""
    res, prof = _run(cfg)
    per_hop = Counter()
    for lids, rank, hop, t in prof.enq_batch:
        per_hop[rank, hop, repr(t)] += len(lids)
    doc = [
        ["values", [sorted(map(repr, got)) for got in res.values]],
        ["elapsed", repr(res.elapsed)],
        ["lengths", [[n, len(getattr(prof, n))] for n in LOGS if n != "enq_batch"]],
        ["enq_batch", sorted(per_hop.items())],
    ]
    return _sha256(doc)


#: Recorded at commit 0b42285 (before lineage moved to the handler
#: boundary) and re-recorded once, on the parent 0d43fa8, when scalar
#: runs began to route like record batches.  Never regenerate these from
#: newer code.
DIGESTS = {
    "adaptive-2x2-plain-batchcb": "fae3b705757e831ccf94a874349a74c17a0bc43933779b047c5e2c17aa714fd7",
    "adaptive-2x2-plain-fallback": "21aeb1723c7be7101b873a3972f9cc7c60d0d6e5c512fe0fd14c49a06c0b36d6",
    "adaptive-2x2-comb-batchcb": "61c7820204d1e85bd6b64fbedd1b41cbd7b897d690d2682cff413deba6e99cc1",
    "adaptive-2x2-comb-fallback": "542214f558d03b9df3b37b3b8afc80330d53457c6ac30dd29e108521aeac150f",
    "adaptive-4x2-plain-batchcb": "b913cb8f213dc10adc6dc5de85691134845e8c5354c5d650891fab16fad548e7",
    "adaptive-4x2-plain-fallback": "b9caea83efdd8786a00bb5386fe031aaa61d24e583cb788560265a930a8c84cb",
    "adaptive-4x2-comb-batchcb": "597a76f64b0da43aa82a457f927e5d7bbcc956d878ee668c1c0ada887c248e4b",
    "adaptive-4x2-comb-fallback": "bda52df61d830e4a4093e266163a2eab4882af341ad9c920705c784cc87b2b07",
    "nlnr-2x2-plain-batchcb": "a330e4c102184e7305663fd0405e368cebd4abdeec869e1bf3ff0f2a837ff5fe",
    "nlnr-2x2-plain-fallback": "96e4f98c8e100b81be44d676434a45dfcf130614d1cbb79ef16638212c0793d3",
    "nlnr-2x2-comb-batchcb": "600ca0a58c466886fe7f29239cc78bef5bf6212a733ecceb0cc9ce2d418e9a7d",
    "nlnr-2x2-comb-fallback": "e59ec848b13d5415a6f86e54fac9e7618a505857136144e05c7f99a0ebeb9d2a",
    "nlnr-4x2-plain-batchcb": "ddc4335e184afe7d509175cc25b1b72c672dd3c672db41be8b8ae922539a7f26",
    "nlnr-4x2-plain-fallback": "cf03d091dc800e016cbd9197c0d6163c42789eb00d09b2a3f3255a072f8a955e",
    "nlnr-4x2-comb-batchcb": "fe1c0e3e99de38109472687349f3e855a8c8ca8a1ac9da282178029ac7149a0b",
    "nlnr-4x2-comb-fallback": "1caadd8d9d0a07f0beb6aef532c316076e2a0c2c87c6295118cf2685358ddd5e",
    "nlnr_hybrid-2x2-plain-batchcb": "89d92f8df68922d692da1dfa334242e33193809e146acbd4668f6cd1e9edfa68",
    "nlnr_hybrid-2x2-plain-fallback": "77e0c12968aa06d58ff239028f3577add39f079e9145396e4c87a924f0aafc55",
    "nlnr_hybrid-2x2-comb-batchcb": "1bb99fe9a24066bfd6e179c63cd9fc316e113ffb825e537e8db96bd732c2941d",
    "nlnr_hybrid-2x2-comb-fallback": "239a0341fed621dc82e203a6c795e9033768a208a31aba29719b1280576741ee",
    "nlnr_hybrid-4x2-plain-batchcb": "66a313825a1f024ca6d061ef8e1efbd0266f327e3e50cc452dae528e58f6646c",
    "nlnr_hybrid-4x2-plain-fallback": "7d214a030ffe995a0b957091ef38caf93353333f49977203f019a6b1a4a1a091",
    "nlnr_hybrid-4x2-comb-batchcb": "261b64cfcd960a140832edead64941f135eaec956c587688d71148beeb1af60e",
    "nlnr_hybrid-4x2-comb-fallback": "101a3529612f33664307028ec007ed28e988bf58259d1ad21e22ffbb93b653bb",
    "node_aware-2x2-plain-batchcb": "ad25a958013fa95a96338f28a622f71be2ea86335851efabf0a9ffccf34f3d7e",
    "node_aware-2x2-plain-fallback": "0432aced52b2b9e29d43cdae4f065d6655aa15dc799563ae84f1e24feac37b23",
    "node_aware-2x2-comb-batchcb": "697bd4b4229e8dadfabdaaa99933466c231c329c5b8ec7a07f88f9141ebe3976",
    "node_aware-2x2-comb-fallback": "aebb826a9662bca76a86f98dda3999ab69f7dd7ed76095603cf2b5152499e06e",
    "node_aware-4x2-plain-batchcb": "2bec590cd8631d19de8b38cbceaca582a23ab757a37169c649ad7809cb4b25d0",
    "node_aware-4x2-plain-fallback": "01222e4194bae81d754898ef550483c4555f4a050c3c887624183929d9a5dcda",
    "node_aware-4x2-comb-batchcb": "f2b0881bd92ef50e1055c9d327855ac4e7d4bf37c35c68d017d2347a72b1c4ca",
    "node_aware-4x2-comb-fallback": "5b9977ae5bdbf65907f06bbc2cec55fe67dc0aa63501f4e9a6ba2c22cfb8bb99",
    "node_local-2x2-plain-batchcb": "3a99aa6f4769efc6c0150e9fbb1b2a0e24289e2fa3170002d7fe171989ee20b2",
    "node_local-2x2-plain-fallback": "3cfc140634d48e16eb656bd1b914b9588885cefe9109bc972e385b13c0e4578f",
    "node_local-2x2-comb-batchcb": "7714070230b1bf43c4a9c81ebc3527e10d62e9317d072fbd2cd3854b6c8da3eb",
    "node_local-2x2-comb-fallback": "8b1457ef235f79c7146e6b09fffb8ca016321bd4ac397545aec9ac0cf68ea0fa",
    "node_local-4x2-plain-batchcb": "8c1af19a566da1cfdac3d78340c911786eaa27e99a4fde88487fe11bc0d3c3b3",
    "node_local-4x2-plain-fallback": "ed841580e6c65424120d7b15de34c120518ecb54eabb634b62bd6d8de1b2f8d0",
    "node_local-4x2-comb-batchcb": "60c362f9ff328804d13d7b18970d8f5e83d8c72934bd68b0d3205a6c8ce031fd",
    "node_local-4x2-comb-fallback": "b0be1764e1ab99fdba5f6ecf174134ef148b04e6b2d26cc4feeeba2ad854229f",
    "node_remote-2x2-plain-batchcb": "a58fb27ed7bd9bc259b24da95acbd41f8e86015fb89d977ac9efa66508bff69f",
    "node_remote-2x2-plain-fallback": "65a3fa3648e1c75836cef00fc16a9ac0b27b8d17a2b139ab263ca955c8616ebd",
    "node_remote-2x2-comb-batchcb": "8a1162a1ca475b35b79d58471ebc7467bc8db22e1bde414fce775c4f4619125f",
    "node_remote-2x2-comb-fallback": "06ce9878119631aa7de897e7c4db5b658926383ce2f285bd92406c73b6eabc9c",
    "node_remote-4x2-plain-batchcb": "d2dc1800974419a2224e98b6f8ef9ec77719d800c9ae0eba7996b8c74c8671e6",
    "node_remote-4x2-plain-fallback": "133920ebcf3dfd1362f323d83896bb8f0b8eb89f02bb2264da40385a11fc9ee0",
    "node_remote-4x2-comb-batchcb": "f0d533c89fa5c0bbe763c326ef3f88dba76b47cde5cc58da40997f9753ddbd97",
    "node_remote-4x2-comb-fallback": "81f44fef099bc3dbab0222de4bc4ee85472efa13e6c9d491e2304b0287df946e",
    "noroute-2x2-plain-batchcb": "4611ce5f40c86f3e32f3f3ef4c8baa1bf11f0bd4f85adafd8cdd669ab40b853a",
    "noroute-2x2-plain-fallback": "be35a611b2339869d8886935295ac3072fb15c5814c46339f6e1e9784803cb52",
    "noroute-2x2-comb-batchcb": "3c65e2fd8abfc8c5122abf6859394620f3110f25a85b8afb2a7d9f7d72ec5532",
    "noroute-2x2-comb-fallback": "e101b3a715359678509c2ae608d2304d3ed9b90cde32a3cd33510ba18d3340c6",
    "noroute-4x2-plain-batchcb": "b898fae9611a81aa80aa74a0f6f5920b2cb33aad7bdaf14c7647374a2f3f1bc1",
    "noroute-4x2-plain-fallback": "47fe4f1f3fce5e8d304ddb0c8b0846ee041355b876e91e46c6fe28bf03f5c7ca",
    "noroute-4x2-comb-batchcb": "5c4257efea9da9014068c45551141d28d75d4667376e282b9a4485bce4cc8792",
    "noroute-4x2-comb-fallback": "fb85cd904fc064e4dc8049fd647f8929694fd0d43e9e4abff1bc0f9952fbc2f8",
}

#: :func:`order_free_digest` per configuration, recorded at commit
#: 0d43fa8 (the last with the scalar deferred-forward path), before
#: :data:`DIGESTS` was re-recorded.  Never regenerate these from newer
#: code: they are what the 0b42285 recording pins apart from order.
ORDER_FREE = {
    "adaptive-2x2-plain-batchcb": "96b1fdd2b1fd42869e11303f683570c9dd994fb28065c7bffd9caf71484267c1",
    "adaptive-2x2-plain-fallback": "c19022c410e58437ad51263f56d8baa628acc953d17791e98005d4bd83736127",
    "adaptive-2x2-comb-batchcb": "f79d29e06dc1ebaf07800b3cbb7d7a2e0f40fa53ef8fd85cb3c9c3d049e32104",
    "adaptive-2x2-comb-fallback": "65c9d5b252d0911dfc8ab6a46d10b0cca1e5d6206fbbc3059b9ea69a8057fc0c",
    "adaptive-4x2-plain-batchcb": "4fc0a3a0efa99689422d577e11d9300b830494ac054c63220f14dbed84512028",
    "adaptive-4x2-plain-fallback": "c86e1663432572524437d12eaffba230e3ae8880e28f45f4f6c2b21ae427995a",
    "adaptive-4x2-comb-batchcb": "a1bab971cd3a0b07374564f13d5e6207b9661703989743d4684df72d3e0cc7ff",
    "adaptive-4x2-comb-fallback": "9ad4ae432d3079c1df7347a68e1b972d620e2a5a45efc036fc81866e241eef9b",
    "nlnr-2x2-plain-batchcb": "bc621cec5e0932d9f55e726af52eeabcbd550d4e6970c2e5d519896574aa4042",
    "nlnr-2x2-plain-fallback": "fb7ec4723aa9ff769c40ee5578c902c2b16cd1baeb03cf4fbdf90a242cd02ede",
    "nlnr-2x2-comb-batchcb": "b1fe60bb9580100baaa0309fcc5259adb0832ae634eacfd0b43264ef8b3a5086",
    "nlnr-2x2-comb-fallback": "dcaa8d0a4cd25cbb3d425d1bbfc055bffe0fd23a0d76c90f5f10a63396c5a61d",
    "nlnr-4x2-plain-batchcb": "14e8583646dfb83f7771c84ef1cfe125ff43164b49345cdc564306314e19a292",
    "nlnr-4x2-plain-fallback": "4cc9c6cd3a90d63189b3249565356c6a1f0b943a36f761512a339ab495fc2ffb",
    "nlnr-4x2-comb-batchcb": "5cf2c0cb623075c54f73db2f004fee15b76fd6c16bf29875c67158213d639ce0",
    "nlnr-4x2-comb-fallback": "9c8ae93eb4c079b77bc021b5a308b1f324f95605f515b062f0bc4c9f1f43c8f3",
    "nlnr_hybrid-2x2-plain-batchcb": "e65315151a605049866655f4660c3c37fc7474168c6eb9758f477b6a808e6c22",
    "nlnr_hybrid-2x2-plain-fallback": "c080d648b069d41b8f9239824c74d99d43a9fa4e79d568de4370f66d9e02dfff",
    "nlnr_hybrid-2x2-comb-batchcb": "b6bb5976732b98a8b253410c9750385dd77f0bdf9eedaa5597df3c2a692af44b",
    "nlnr_hybrid-2x2-comb-fallback": "5d4f663349095de01dd950b847480cca7f952729ce88bf7db1c24ce6416d94fd",
    "nlnr_hybrid-4x2-plain-batchcb": "76762f348a50c79da6e25538575e4ebba2ad8f4edd2e573ee00384069e75d833",
    "nlnr_hybrid-4x2-plain-fallback": "f4fb41f4605786eb2322c7fd73a813331d0f0f17bc15f0ae13a604544d82208e",
    "nlnr_hybrid-4x2-comb-batchcb": "69dcc53edf7b61ca5d6c72db6d8b35c64da5ca12a711aac1acea8d374237638d",
    "nlnr_hybrid-4x2-comb-fallback": "1085b346331c0fb4fabae71d8a87c1e44a4b27a8577c63706ec9846a56106763",
    "node_aware-2x2-plain-batchcb": "5e12c8f6bf7fc2ece512397f67d5385c9e71d484f42699fa5f7b92a95ecd0c6c",
    "node_aware-2x2-plain-fallback": "312fb30eb4580c98b9587e1e9e4c37b71e4b6e68c80b4827b831ab23e65eaaa9",
    "node_aware-2x2-comb-batchcb": "4e631c01df170a5a5b93dd19e3bb77528113932529a437c7b245d8de55ea4f0f",
    "node_aware-2x2-comb-fallback": "6ae55d041192e045be9b5c320f59ba3f0bf705a297bb6436fbd6b09be646218e",
    "node_aware-4x2-plain-batchcb": "05fbd4917e31e9833b587ea3e1167f6aa6d0252673435e1cc83fd7c442eff9a3",
    "node_aware-4x2-plain-fallback": "aa4cd801d5da4776e60087f2edd23b20eeb1e184dd9adcd7b82921fcc02ebb2b",
    "node_aware-4x2-comb-batchcb": "50baf8a1b09ab9e4bfc71f570c7df0a187b38c79f101ab1c929d830f5b821ed6",
    "node_aware-4x2-comb-fallback": "dfbd0aa289059b4754de83062f1fb5b6c3ba7f8891295a20ade883c5a38b7c9c",
    "node_local-2x2-plain-batchcb": "2e6dc5c7a8913de0c04aadb1b898c56209942ccec3473e17c55f429f773b2f7f",
    "node_local-2x2-plain-fallback": "00f02666f0ee1775abaedfdbf9bb335234f8e8d8a6444bf7b8820b4742bbd26a",
    "node_local-2x2-comb-batchcb": "3608cb98895b0946d0ecb7205521efda8cd6778154b9c9d0923166dc46d5530d",
    "node_local-2x2-comb-fallback": "e99053b127a75d8b708e37ce12fa91a3fa447bd6435a5e151c34b55ed36ac588",
    "node_local-4x2-plain-batchcb": "f9ee127abc65dbddc201235bef0fd90f583336e87538b154039148a6ae882783",
    "node_local-4x2-plain-fallback": "0004b939292b9fce656a8ca0063e3135f98536e3723050bd286d15bc22064966",
    "node_local-4x2-comb-batchcb": "016ede0742b8f59e17a5ee21176f992dee5799dee981058d2c73746bd2f69c84",
    "node_local-4x2-comb-fallback": "e42333b3adc0c78f5abe91d68d073ed8ab4b578d5079ff4226e28e92a5bc5b75",
    "node_remote-2x2-plain-batchcb": "f61af8d4c46d9f4c56e23b6929a588159efa9d7d22d2a9c57aa4d899db55e970",
    "node_remote-2x2-plain-fallback": "815127f1218356cc09708a7ef8861ea24633899a547656a74b8e0a90b94e3464",
    "node_remote-2x2-comb-batchcb": "c8e3a0ab96f1f67e6f6f85f774b243e86b67fced31a43da4c489cd0901697f79",
    "node_remote-2x2-comb-fallback": "730e247e8e3b4de8d773cb0b7ba37b803a476ec969d576d6fc2f20850712e2b4",
    "node_remote-4x2-plain-batchcb": "fad98d3d0ea867814a47e57fb1591a69d3af4615a4bf76e70f366504c6c8b933",
    "node_remote-4x2-plain-fallback": "97f5aa3507834b8d84b4f81d47e6b99c9159c4d749d876b5d129e2ac91bba9c1",
    "node_remote-4x2-comb-batchcb": "db34addfaf84d38cf326eedc6f7179f5e1f5041c1cbc2af23bf14f7180e2c388",
    "node_remote-4x2-comb-fallback": "7f36793873d4cd07c80074d509d094c00a4d3a6f0324183d963f4003bf296cdb",
    "noroute-2x2-plain-batchcb": "8fc5cf58cc14481e461eb5b153127f6eb7696e06851a59d61bbbea7cff16871f",
    "noroute-2x2-plain-fallback": "64ec1334614e357d7ee9f5e4477fda83895fb12bcb2c4a1aa2cefb40740d2655",
    "noroute-2x2-comb-batchcb": "89754ee4d41dfd97fffcf5a9933162716b95062adbf35943508dae61db74cd8b",
    "noroute-2x2-comb-fallback": "9e3e0402b8da32e58c19d8641b3cff7935ae922ffe85cc4000a3482bafdb3460",
    "noroute-4x2-plain-batchcb": "5e56bba4e7682a20cb6eff1f8c8c667870edcaadf4c12cbd2dbd21b6ede78d94",
    "noroute-4x2-plain-fallback": "093fa4e0e2cd89bc6c749e3700a57fa27d6d364d958723df81437f413099c8d1",
    "noroute-4x2-comb-batchcb": "ddd928ba489458131c9f6738972419085a87c0071b67ac60b08e508343113783",
    "noroute-4x2-comb-fallback": "db5370c8e8dc34ed8c45fb318bdb8248f30953466cd34a59bf9b8116fe1158ce",
}


def test_every_configuration_is_pinned():
    ids = sorted(_config_id(c) for c in CONFIGS)
    assert sorted(DIGESTS) == ids == sorted(ORDER_FREE)
    assert len(CONFIGS) == 56


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_lineage_logs_match_pin(cfg):
    assert lineage_digest(cfg) == DIGESTS[_config_id(cfg)]



@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_order_free_logs_match_pin(cfg):
    assert order_free_digest(cfg) == ORDER_FREE[_config_id(cfg)]
