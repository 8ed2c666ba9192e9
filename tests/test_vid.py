import math
import random

import pytest

from loopdetect import packet_digest, virtual_id
from oracles import SHA256_ABC_HEX, SHA256_EMPTY_HEX, sha256_ref

# frozen from sha256_ref, which is checked against the NIST vectors below
DIGEST_EMPTY_NONCE0_HEX = (
    "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"
)
VID_ALL_ZERO = 0xF5A5FD42D16A2030


def test_reference_sha256_matches_published_vectors():
    assert sha256_ref(b"").hex() == SHA256_EMPTY_HEX
    assert sha256_ref(b"abc").hex() == SHA256_ABC_HEX


def test_packet_digest_empty_payload_nonce_zero():
    got = packet_digest(b"", 0)
    assert got.hex() == DIGEST_EMPTY_NONCE0_HEX
    assert got == sha256_ref(b"\x00" * 4)


def test_packet_digest_matches_reference_on_varied_inputs():
    rng = random.Random(11)
    for _ in range(50):
        payload = rng.randbytes(rng.randint(0, 200))
        nonce = rng.getrandbits(32)
        assert packet_digest(payload, nonce) == sha256_ref(
            nonce.to_bytes(4, "big") + payload
        )


def test_packet_digest_deterministic():
    assert packet_digest(b"payload", 7) == packet_digest(b"payload", 7)


def test_packet_digest_nonce_changes_digest():
    assert packet_digest(b"P", 1) != packet_digest(b"P", 2)


def test_packet_digest_nonce_range():
    with pytest.raises(ValueError):
        packet_digest(b"", -1)
    with pytest.raises(ValueError):
        packet_digest(b"", 2**32)


def test_virtual_id_all_zero_inputs():
    assert virtual_id(b"\x00" * 32, b"\x00" * 32) == VID_ALL_ZERO
    assert virtual_id(b"\x00" * 32, b"\x00" * 32) == int.from_bytes(
        sha256_ref(b"\x00" * 64)[:8], "big"
    )


def test_virtual_id_matches_reference_on_varied_inputs():
    rng = random.Random(13)
    pairs = [(rng.randbytes(32), rng.randbytes(32)) for _ in range(50)]
    # digest and id both start with a byte >= 0x80, where a signed or
    # little-endian read would differ
    high = (bytes(32), b"\xff" * 32)
    assert sha256_ref(high[0] + high[1])[0] >= 0x80
    for trueid, digest in pairs + [high]:
        assert virtual_id(trueid, digest) == int.from_bytes(
            sha256_ref(trueid + digest)[:8], "big"
        )


def test_virtual_id_deterministic():
    trueid = bytes(range(32))
    digest = packet_digest(b"x", 9)
    assert virtual_id(trueid, digest) == virtual_id(trueid, digest)


def test_virtual_id_rejects_bad_lengths():
    with pytest.raises(ValueError):
        virtual_id(b"\x00" * 31, b"\x00" * 32)
    with pytest.raises(ValueError):
        virtual_id(b"\x00" * 32, b"\x00" * 33)


def test_distinct_trueids_distinct_vids():
    # a 64-bit collision in 10^4 draws would mean the hash is broken
    rng = random.Random(23)
    digest = packet_digest(b"shared packet", 5)
    seen = set()
    for _ in range(10_000):
        vid = virtual_id(rng.randbytes(32), digest)
        assert vid not in seen
        seen.add(vid)


def test_same_node_differs_across_nonces():
    rng = random.Random(29)
    for _ in range(1_000):
        trueid = rng.randbytes(32)
        payload = rng.randbytes(16)
        nonce_a = rng.getrandbits(32)
        nonce_b = (nonce_a + 1 + rng.getrandbits(16)) & 0xFFFFFFFF
        vid_a = virtual_id(trueid, packet_digest(payload, nonce_a))
        vid_b = virtual_id(trueid, packet_digest(payload, nonce_b))
        assert vid_a != vid_b


def test_vid_top_byte_uniformity():
    # scrambled tortoise identity: nonce -> vid should look uniform;
    # chi-squared over the top byte, threshold at the p = 0.001 quantile
    trueid = bytes(32)
    counts = [0] * 256
    samples = 10_000
    for nonce in range(samples):
        vid = virtual_id(trueid, packet_digest(b"anon", nonce))
        counts[vid >> 56] += 1
    expected = samples / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    dof = 255
    z_999 = 3.090232306167813
    critical = dof * (1 - 2 / (9 * dof) + z_999 * math.sqrt(2 / (9 * dof))) ** 3
    assert chi2 < critical, (chi2, critical)


def test_fresh_nonce_clears_forced_duplicate_once():
    # single concrete rescue; the 10^3-trial sweep is an acceptance criterion
    rng = random.Random(1)
    mask = (1 << 16) - 1
    trueids = [rng.randbytes(32) for _ in range(128)]
    payload = b"retransmit me"
    nonce = 0
    while True:
        digest = packet_digest(payload, nonce)
        vids = [virtual_id(t, digest) & mask for t in trueids]
        seen = {}
        dup = None
        for pos, v in enumerate(vids):
            if v in seen:
                dup = (seen[v], pos)
                break
            seen[v] = pos
        if dup is not None:
            break
        nonce += 1
    p, q = dup
    fresh = packet_digest(payload, nonce + 1)
    assert virtual_id(trueids[p], fresh) & mask != virtual_id(trueids[q], fresh) & mask
