"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Budgets and tolerances are
asserted, not just reported."""

import itertools
import random
import time

from loopdetect import (
    CollisionQuery,
    CycleStructure,
    FunctionalGraph,
    LoopHeader,
    Outcome,
    brent_detect,
    build_chain,
    build_rho,
    collision_probability_exact,
    decode,
    encode,
    floyd_detect,
    inject_duplicate,
    latency_table,
    packet_digest,
    predict_detection_hop,
    simulate,
    virtual_id,
    visited_set_oracle,
)

# frozen from the big-integer oracle (tests/oracles.py)
P_EXACT_8192_32 = 0.0077811204140481012


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_collision_one_percent_point():
    t0 = time.perf_counter()
    p = collision_probability_exact(CollisionQuery(8192, 32))
    elapsed = time.perf_counter() - t0
    ok = 0.005 <= p <= 0.015 and abs(p - P_EXACT_8192_32) <= 1e-15 and elapsed < 1.0
    report(1, ok, f"p_exact(n=8192, b=32) = {p:.16g} in [0.005, 0.015], {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence_exhaustive():
    n = 6
    ids = tuple(range(n))
    budget = 3 * n + 4
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for succ in itertools.product(range(n), repeat=n):
        graph = FunctionalGraph(ids, succ)
        next_fn = succ.__getitem__
        for start in range(n):
            checked += 1
            expected = visited_set_oracle(start, next_fn, budget) is not None
            agree = (
                brent_detect(start, next_fn, budget) is expected
                and floyd_detect(start, next_fn, budget) is expected
                and (simulate(graph, start).outcome is Outcome.DETECTED) is expected
            )
            if not agree:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 6**6 * 6 and disagreements == 0 and elapsed < 60.0
    report(
        2,
        ok,
        f"{checked} (graph, start) cases, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_detection_hop_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    bound_violations = 0
    cases = 0
    for mu in range(0, 65):
        for lam in range(1, 65):
            cases += 1
            trace = simulate(build_rho(mu, lam, ids=range(mu + lam)), 0)
            predicted = predict_detection_hop(CycleStructure(mu, lam))
            if trace.outcome is not Outcome.DETECTED or trace.at_hop != predicted:
                mismatches += 1
            if predicted > 2 * max(mu, lam, 1) + lam:
                bound_violations += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 4160 and mismatches == 0 and bound_violations == 0 and elapsed < 10.0
    report(
        3,
        ok,
        f"{cases} (mu, lam) cases, {mismatches} mismatches, "
        f"{bound_violations} bound violations, {elapsed:.1f}s",
    )


def test_criterion_4_soundness_on_random_chains():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    detected = 0
    for _ in range(10_000):
        length = rng.randint(1, 1024)
        trace = simulate(build_chain(length, seed=rng.getrandbits(64)), 0)
        if trace.outcome is Outcome.DETECTED:
            detected += 1
    elapsed = time.perf_counter() - t0
    ok = detected == 0
    report(4, ok, f"10000 acyclic chains, {detected} false detections, {elapsed:.1f}s")


def test_criterion_5_false_positive_geometry():
    near = simulate(inject_duplicate(build_chain(10, ids=range(100, 110)), 2, 3), 0)
    far = simulate(inject_duplicate(build_chain(128, ids=range(1000, 1128)), 2, 100), 0)
    near_ok = near.outcome is Outcome.DETECTED and near.at_hop == 3
    far_ok = far.outcome is Outcome.TERMINATED
    report(
        5,
        near_ok and far_ok,
        f"duplicate(2,3) -> {near.outcome.value}({near.at_hop}); "
        f"duplicate(2,100) -> {far.outcome.value}({far.at_hop})",
    )


def test_criterion_6_virtual_id_rescue():
    # small (16-bit) id space makes the pathological duplicate findable by
    # brute-force nonce search; rescue means the offending pair no longer
    # collides after one retransmission with a fresh nonce
    trials = 1000
    path_len = 128
    mask = (1 << 16) - 1
    rng = random.Random(0xA5)
    t0 = time.perf_counter()
    rescued = 0
    for _ in range(trials):
        trueids = [rng.randbytes(32) for _ in range(path_len)]
        payload = rng.randbytes(16)
        nonce = rng.getrandbits(32)
        dup = None
        while dup is None:
            digest = packet_digest(payload, nonce)
            seen = {}
            for pos, trueid in enumerate(trueids):
                vid = virtual_id(trueid, digest) & mask
                if vid in seen:
                    dup = (seen[vid], pos)
                    break
                seen[vid] = pos
            else:
                nonce = (nonce + 1) & 0xFFFFFFFF
        p, q = dup
        fresh = packet_digest(payload, (nonce + 1) & 0xFFFFFFFF)
        if virtual_id(trueids[p], fresh) & mask != virtual_id(trueids[q], fresh) & mask:
            rescued += 1
    elapsed = time.perf_counter() - t0
    ok = rescued >= 999
    report(6, ok, f"{rescued}/{trials} forced duplicates cleared by a fresh nonce, {elapsed:.1f}s")


def test_criterion_7_codec_roundtrip_cross_product():
    rng = random.Random(0xC0DEC)
    pairs = [(rng.getrandbits(64), rng.getrandbits(32)) for _ in range(1000)]
    t0 = time.perf_counter()
    failures = 0
    for tortoise, nonce in pairs:
        for hops in range(65536):
            header = LoopHeader(tortoise, hops)
            if decode(encode(header, nonce)) != (header, nonce):
                failures += 1
    elapsed = time.perf_counter() - t0
    pinned = encode(LoopHeader(0x0102030405060708, 0x090A), 0x0B0C0D0E)
    pinned_ok = pinned == bytes.fromhex("0102030405060708090a0b0c0d0e")
    ok = failures == 0 and pinned_ok
    report(
        7,
        ok,
        f"65536 hops x 1000 id/nonce pairs, {failures} roundtrip failures, "
        f"pinned example {'byte-exact' if pinned_ok else 'WRONG'}, {elapsed:.0f}s",
    )


def test_criterion_8_latency_table_rows():
    rows = latency_table([CycleStructure(2, 4), CycleStructure(0, 255)], 255)
    main_row, ttl_row = rows
    # cross-check both predicted hops against live simulation
    sims = [
        simulate(build_rho(2, 4, ids=range(6)), 0).at_hop,
        simulate(build_rho(0, 255, ids=range(255)), 0).at_hop,
    ]
    ok = (
        (main_row.brent_hop, main_row.ttl_hop) == (8, 255)
        and (ttl_row.brent_hop, ttl_row.ttl_hop) == (511, 255)
        and sims == [8, 511]
    )
    report(
        8,
        ok,
        f"(mu=2, lam=4): detection at {main_row.brent_hop} vs ttl {main_row.ttl_hop}; "
        f"ttl-favorable (mu=0, lam=255): {ttl_row.brent_hop} vs {ttl_row.ttl_hop}",
    )
