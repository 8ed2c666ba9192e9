import argparse
import errno
import hashlib
import importlib.util
import os
import random
import stat
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdetect import MAX_HOPS, CycleStructure, analysis, cli, simulator
from loopdetect.cli import main

# SHA-256 of collision tables as the term-by-term log1p sum printed them:
# a faster method must still print the same 12 digits in every cell
COLLISIONS_DEFAULT_SHA256 = "a2b5e7710a83950be03cec8f7afc7145a4aca5f6836ea1e9d9e8cd86d804fc2d"
COLLISIONS_32_8192_SHA256 = "a417e98254927abc83b67bb38488d0b518a4e208638c81274af0caa75196eb2c"
# SHA-256 of simulate traces as the one-getrandbits(64)-per-id draw printed
# them: node ids come from the seed, so a changed draw changes these bytes
SIMULATE_RHO_300_700_SEED_3_SHA256 = (
    "232e5e6121e9e6e45cfe05401cb46e487d1fb517e60bc7b553493c7ca7a3d48d"
)
SIMULATE_CHAIN_500_SHA256 = "c6813338c2eff384ef9e3d6ec57b30ab10f0521d3b6e42948f841f395ce2655e"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_rho_detects(capsys):
    code, out, _ = run(capsys, "simulate", "--mu", "0", "--lambda", "3", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "hop,node_id_hex,tortoise_hex,snapshot,outcome"
    assert lines[-1].endswith(",detected(7)")
    assert len(lines) == 2 + 7


def test_simulate_chain_terminates(capsys):
    code, out, _ = run(capsys, "simulate", "--chain", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1].endswith(",terminated(5)")


def test_simulate_is_deterministic(capsys):
    first = run(capsys, "simulate", "--mu", "2", "--lambda", "5", "--seed", "9")
    second = run(capsys, "simulate", "--mu", "2", "--lambda", "5", "--seed", "9")
    assert first == second


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--mu", "300", "--lambda", "700", "--seed", "3"], SIMULATE_RHO_300_700_SEED_3_SHA256),
        (["--chain", "500"], SIMULATE_CHAIN_500_SHA256),
    ],
)
def test_simulate_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "simulate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_seed_changes_ids(capsys):
    _, out_a, _ = run(capsys, "simulate", "--mu", "0", "--lambda", "2", "--seed", "1")
    _, out_b, _ = run(capsys, "simulate", "--mu", "0", "--lambda", "2", "--seed", "2")
    assert out_a != out_b


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["simulate", "--mu", "0"],
        ["simulate", "--chain", "3", "--mu", "1", "--lambda", "2"],
        ["simulate", "--mu", "-1", "--lambda", "2"],
        ["simulate", "--chain", "0"],
        ["latency", "--mu", "2"],
        ["latency", "--mu", "0", "--lambda", "0"],
        ["collisions", "--bits", "0"],
        ["collisions", "--lengths", "0"],
        ["nonsense"],
        [],
        ["simulate", "--chain", "3", "--max-hops", "2"],
        ["simulate", "--mu", "0", "--lambda", "0"],
        ["latency", "--mu", "1", "--lambda", "1", "--ttl", "0"],
        ["latency", "--mu", "-1", "--lambda", "1"],
        ["collisions", "--bits", "129"],
        ["collisions", "--bits", "24", "--lengths", "16", "0"],
        ["header", "encode", "--out", "a\x00b"],
        ["header", "encode", "--hops", 513],  # an in-process argv with a token that is not a str
        ["header", "decode", None],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["header", "encode", "--hops", "70000"], "usage: loopdetect header encode "),
        (["simulate", "--chain", "0"], "usage: loopdetect simulate "),
        (["collisions", "--bits", "0"], "usage: loopdetect collisions "),
        (["latency", "--mu", "0", "--lambda", "0"], "usage: loopdetect latency "),
        (["simulate", "--mu", "-1", "--lambda", "2"], "usage: loopdetect simulate "),
        (["simulate", "--mu", "0", "--lambda", "0"], "usage: loopdetect simulate "),
        (["latency", "--mu", "1", "--lambda", "1", "--ttl", "0"], "usage: loopdetect latency "),
        (["latency", "--mu", "-1", "--lambda", "1"], "usage: loopdetect latency "),
        (["collisions", "--bits", "129"], "usage: loopdetect collisions "),
        (["collisions", "--bits", "24", "--lengths", "16", "0"], "usage: loopdetect collisions "),
        (["header", "encode", "--out", "a\x00b"], "usage: loopdetect header encode "),
    ],
)
def test_handler_usage_errors_print_the_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert capsys.readouterr().err.startswith(usage)


# the CLI does not re-check these: the library function each one reaches
# rejects it, and its message, naming the value, is the CLI's error
@pytest.mark.parametrize(
    "argv, message",
    [
        (["latency", "--mu", "0", "--lambda", "0"], "cycle length must be >= 1, got 0"),
        (["simulate", "--mu", "0", "--lambda", "0"], "cycle length must be >= 1, got 0"),
        (["simulate", "--mu", "-1", "--lambda", "2"], "tail length must be >= 0, got -1"),
        (["simulate", "--chain", "0"], "chain length must be >= 1, got 0"),
        (["latency", "--mu", "1", "--lambda", "1", "--ttl", "0"],
         "ttl must be within [1, 65535], got 0"),
        (["latency", "--mu", "-1", "--lambda", "1"], "tail length must be >= 0, got -1"),
        (["collisions", "--bits", "129"], "id_bits must be within [1, 128], got 129"),
        (["collisions", "--bits", "24", "--lengths", "16", "0"], "path_length must be >= 1, got 0"),
        (["header", "encode", "--hops", "70000"], "hops must be within [0, 65535], got 70000"),
        # no baseline the header's counter can carry; a 401-digit ttl used to
        # overflow ttl / brent_hop into a traceback
        (["latency", "--mu", "0", "--lambda", "3", "--ttl", "65536"],
         "ttl must be within [1, 65535], got 65536"),
    ],
)
def test_library_rejection_names_the_value_and_writes_nothing(tmp_path, capsys, argv, message):
    target = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(target)])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: {message}\n")
    assert not target.exists()


def test_collisions_single_cell(capsys):
    code, out, _ = run(capsys, "collisions", "--bits", "32", "--lengths", "8192")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id_bits,path_length,p_exact,p_approx"
    p_exact = float(lines[1].split(",")[2])
    assert 0.005 <= p_exact <= 0.015


def test_collisions_default_grid(capsys):
    code, out, _ = run(capsys, "collisions")
    assert code == 0
    assert len(out.splitlines()) == 1 + 4 * 13


def test_collisions_deterministic(capsys):
    assert run(capsys, "collisions") == run(capsys, "collisions")


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], COLLISIONS_DEFAULT_SHA256),
        (["--bits", "32", "--lengths", "8192"], COLLISIONS_32_8192_SHA256),
    ],
)
def test_collisions_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "collisions", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_collisions_runtime_does_not_grow_with_length(capsys):
    # a term-by-term sum over 10**10 ids would take about half an hour
    start = time.perf_counter()
    code, out, _ = run(capsys, "collisions", "--bits", "64", "--lengths", "10000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1].startswith("64,10000000000,0.93349681458")


def test_latency_row(capsys):
    code, out, _ = run(capsys, "latency", "--mu", "2", "--lambda", "4", "--ttl", "255")
    assert code == 0
    assert out == "mu,lambda,brent_hop,ttl_hop,ratio\n2,4,8,255,31.875\n"


def test_latency_ttl_favorable_case(capsys):
    code, out, _ = run(capsys, "latency", "--mu", "0", "--lambda", "255", "--ttl", "255")
    assert code == 0
    assert out.splitlines()[1] == "0,255,511,255,0.499021526419"


def test_latency_just_inside_hop_counter_horizon(capsys):
    # detection at 32768 + 32767 = MAX_HOPS, the last hop the counter holds
    code, out, _ = run(capsys, "latency", "--mu", "0", "--lambda", "32767")
    assert code == 0
    assert out.splitlines()[1].startswith("0,32767,65535,255,")


@pytest.mark.parametrize("lam", ["32768", "40000"])
def test_latency_past_hop_counter_horizon_exits_2(tmp_path, capsys, lam):
    target = tmp_path / "latency.csv"
    code, out, err = run(capsys, "latency", "--mu", "0", "--lambda", lam, "--out", str(target))
    assert code == 2
    assert out == ""
    assert "horizon" in err
    assert not target.exists()


def _off_by_one(monkeypatch):
    # a predictor one hop late: the only way a valid argv reaches exit 3
    predict = analysis.predict_detection_hop
    monkeypatch.setattr(analysis, "predict_detection_hop", lambda case: predict(case) + 1)


def test_latency_mismatch_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    _off_by_one(monkeypatch)
    target = tmp_path / "latency.csv"
    code, out, err = run(capsys, "latency", "--mu", "2", "--lambda", "4", "--out", str(target))
    assert code == 3
    assert out == ""
    assert not target.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("loopdetect: predictor/simulation mismatch")


def test_latency_past_the_horizon_must_be_confirmed_by_the_live_run(monkeypatch, capsys):
    # a predictor that puts (2, 4) past the horizon: the live run detects,
    # so this is a disagreement (exit 3), not a horizon (exit 2)
    predict = analysis.predict_detection_hop
    monkeypatch.setattr(analysis, "predict_detection_hop", lambda case: predict(case) + MAX_HOPS)
    code, out, err = run(capsys, "latency", "--mu", "2", "--lambda", "4")
    assert (code, out) == (3, "")
    assert err == ("loopdetect: predictor/simulation mismatch for mu=2 lambda=4: "
                   "predicted 65543, simulated detected(8)\n")


@pytest.mark.parametrize(
    "code, argv",
    [
        (2, ["latency", "--mu", "0", "--lambda", "40000"]),
        (3, ["latency", "--mu", "2", "--lambda", "4"]),
        (65, ["header", "decode", "0102"]),
        (73, ["header", "encode", "--out", "."]),
    ],
)
def test_each_failure_is_one_stderr_line(tmp_path, monkeypatch, capsys, code, argv):
    if code == 3:
        _off_by_one(monkeypatch)
    monkeypatch.chdir(tmp_path)
    got, _, err = run(capsys, *argv)
    assert got == code
    assert len(err.splitlines()) == 1
    assert err.startswith("loopdetect: ")
    assert err.endswith("\n")


def _no_rows(trace):
    raise AssertionError("TraceStep rows were built")


def test_latency_and_simulate_never_build_trace_rows(monkeypatch, capsys):
    # both read the trace's columns only; a row per hop is work thrown away
    monkeypatch.setattr(simulator.SimTrace, "steps", property(_no_rows))
    code, out, _ = run(capsys, "latency", "--mu", "300", "--lambda", "700")
    assert code == 0
    assert out.startswith("mu,lambda,brent_hop,ttl_hop,ratio\n300,700,")
    code, _, err = run(capsys, "latency", "--mu", "0", "--lambda", "40000")
    assert code == 2
    assert "horizon" in err
    code, out, _ = run(capsys, "simulate", "--mu", "300", "--lambda", "700", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_RHO_300_700_SEED_3_SHA256


def _no_draw(rng, count):
    raise AssertionError("node ids were drawn")


def test_latency_draws_no_ids(monkeypatch, capsys):
    # latency's live run takes node positions as ids; simulate keeps its seed
    monkeypatch.setattr(simulator, "_draw_distinct_ids", _no_draw)
    code, out, _ = run(capsys, "latency", "--mu", "300", "--lambda", "700")
    assert code == 0
    assert out.startswith("mu,lambda,brent_hop,ttl_hop,ratio\n300,700,")
    code, _, err = run(capsys, "latency", "--mu", "0", "--lambda", "40000")
    assert code == 2
    assert "horizon" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "simulate", "--mu", "300", "--lambda", "700", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_RHO_300_700_SEED_3_SHA256


# shapes at the hop-counter horizon and at the longest tail it allows
HORIZON_EDGE_SHAPES = [
    (0, 32767), (0, 32768), (32768, 32767), (32769, 1), (1, 65535), (65535, 65535),
]


def _latency_shapes():
    """120 seeded log-uniform (mu, lambda) over the 16-bit square,
    then the edge shapes."""
    rng = random.Random(20261019)
    for _ in range(120):
        mu = min(int(2 ** rng.uniform(0, 16)), MAX_HOPS) - 1
        lam = min(int(2 ** rng.uniform(0, 16)), MAX_HOPS)
        yield mu, lam
    yield from HORIZON_EDGE_SHAPES


def test_latency_never_exits_3_on_valid_input(capsys):
    # each case prints the predictor's row, or the horizon line when the
    # predicted hop does not fit the counter; never a mismatch
    for mu, lam in _latency_shapes():
        hop = analysis.predict_detection_hop(CycleStructure(mu, lam))
        code, out, err = run(capsys, "latency", "--mu", str(mu), "--lambda", str(lam))
        if hop <= MAX_HOPS:
            row = "%d,%d,%d,255,%.12g\n" % (mu, lam, hop, 255 / hop)
            assert (code, out, err) == (0, "mu,lambda,brent_hop,ttl_hop,ratio\n" + row, "")
        else:
            assert (code, out) == (2, ""), (mu, lam)
            assert err == (f"loopdetect: mu={mu} lambda={lam} is past the hop-counter horizon: "
                           f"detection needs hop {hop} > {MAX_HOPS}, so the packet expires "
                           "by hop overflow first\n")


def test_position_ids_give_the_seeded_outcome_and_hop():
    # the kernel tests ids only for equality, so latency's position-id run
    # ends as a run on drawn ids does, on the same cut shape
    grid = [(mu, lam) for mu in range(65) for lam in range(1, 65)]
    for mu, lam in grid + HORIZON_EDGE_SHAPES:
        by_position = simulator._rho_by_position(mu, lam)
        seeded = simulator.build_within_reach(mu, lam, seed=0)
        assert by_position.ids == tuple(range(len(seeded)))
        assert by_position.succ == seeded.succ
        got = simulator.simulate(by_position, 0)
        want = simulator.simulate(seeded, 0)
        assert (got.outcome, got.at_hop) == (want.outcome, want.at_hop), (mu, lam)


def test_header_encode_zeros(capsys):
    code, out, _ = run(capsys, "header", "encode")
    assert code == 0
    assert out == "0" * 28 + "\n"


def test_header_encode_pinned(capsys):
    code, out, _ = run(
        capsys,
        "header", "encode",
        "--tortoise", "0x0102030405060708",
        "--hops", "0x0A0B",
        "--nonce", "0x0C0D0E0F",
    )
    assert code == 0
    assert out == "0102030405060708" + "0a0b" + "0c0d0e0f" + "\n"


def test_header_decode_fields(capsys):
    code, out, _ = run(capsys, "header", "decode", "0102030405060708090a0b0c0d0e")
    assert code == 0
    assert out == "tortoise=0x0102030405060708\nhops=0x090a\nnonce=0x0b0c0d0e\n"


def test_header_decode_truncated_exits_65(capsys):
    code, _, err = run(capsys, "header", "decode", "0102")
    assert code == 65
    assert err == "loopdetect: cannot decode '0102': need 14 bytes, got 2\n"


def test_header_decode_bad_hex_exits_65(capsys):
    code, _, err = run(capsys, "header", "decode", "zz" * 14)
    assert code == 65
    assert err.startswith(f"loopdetect: cannot decode {'zz' * 14!r}: ")


def test_header_encode_out_of_range_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["header", "encode", "--hops", "0x10000"])
    assert exc.value.code == 64


def test_header_encode_names_a_bad_integer_by_its_kind(capsys):
    # argparse words the error with the converter's name, which is public
    with pytest.raises(SystemExit) as exc:
        main(["header", "encode", "--tortoise", "1e5"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "loopdetect header encode: error: argument --tortoise: invalid integer value: '1e5'"
    )


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal


def test_header_help_describes_each_mode_and_field(capsys):
    modes = help_text(capsys, "header")
    assert "encode print the header's 14 bytes as hex" in modes
    assert "decode print the fields of a hex header" in modes
    fields = help_text(capsys, "header", "encode")
    for option, kind, top in [
        ("--tortoise TORTOISE", "node id", "2**64-1"),
        ("--hops HOPS", "hop count", "65535"),
        ("--nonce NONCE", "nonce", "2**32-1"),
    ]:
        assert f"{option} {kind}, an int() literal such as 0x0a0b, 0 to {top} (default 0)" in fields


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "simulate", "--mu", "0", "--lambda", "1", "--seed", "4",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# seed=4\nhop,")
    assert text.rstrip().endswith("detected(1)")


@pytest.mark.parametrize(
    "argv, target, reason",
    [
        (["header", "encode"], ".", "Is a directory"),
        (["simulate", "--mu", "2", "--lambda", "3"], "missing/trace.csv",
         "No such file or directory"),
    ],
)
def test_unwritable_out_exits_73(tmp_path, capsys, argv, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 73
    assert out == ""
    assert err == f"loopdetect: cannot write {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


# -- --out by three syscalls (README Design 9) ---------------------------------


def test_out_truncates_a_longer_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_bytes(b"x" * 4096)
    code, out, _ = run(capsys, "header", "encode", "--hops", "513", "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == b"0000000000000000020100000000\n"


def test_out_is_complete_when_each_write_takes_few_bytes(tmp_path, monkeypatch, capsys):
    want = run(capsys, "simulate", "--mu", "3", "--lambda", "5")[1].encode()
    write = cli.os.write
    taken = []

    def short_write(fd, data):
        taken.append(write(fd, data[:7]))
        return taken[-1]

    monkeypatch.setattr(cli.os, "write", short_write)
    target = tmp_path / "trace.csv"
    code = main(["simulate", "--mu", "3", "--lambda", "5", "--out", str(target)])
    monkeypatch.undo()
    assert code == 0
    assert target.read_bytes() == want
    assert len(taken) == -(-len(want) // 7)


def test_a_failed_write_exits_73_and_closes_its_fd(tmp_path, monkeypatch, capsys):
    real_open, real_write, real_close = cli.os.open, cli.os.write, cli.os.close
    opened, closed = [], []

    def recorded_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def full_disk(fd, data):
        if fd in opened:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data)

    def recorded_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(cli.os, "open", recorded_open)
    monkeypatch.setattr(cli.os, "write", full_disk)
    monkeypatch.setattr(cli.os, "close", recorded_close)
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "header", "encode", "--out", str(target))
    monkeypatch.undo()
    assert (code, out) == (73, "")
    assert err == f"loopdetect: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    assert len(opened) == 1
    assert closed == opened


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
def test_out_file_mode_is_0o666_under_the_umask(tmp_path, capsys, umask):
    target = tmp_path / "out.txt"
    saved = os.umask(umask)
    try:
        code = main(["header", "encode", "--out", str(target)])
    finally:
        os.umask(saved)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mu", "3", "--lambda", "5", "--seed", "2"],
        ["collisions", "--bits", "24", "--lengths", "16"],
        ["latency", "--mu", "2", "--lambda", "4"],
        ["header", "encode", "--hops", "513"],
        ["header", "decode", "0102030405060708090a0b0c0d0e"],
    ],
)
def test_out_holds_the_stdout_text_as_utf8(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == text.encode("utf-8")


def test_roundtrip_encode_decode_via_cli(capsys):
    _, hex_out, _ = run(
        capsys,
        "header", "encode",
        "--tortoise", "12345678901234567890",
        "--hops", "513",
        "--nonce", "42",
    )
    code, out, _ = run(capsys, "header", "decode", hex_out.strip())
    assert code == 0
    assert "tortoise=0x" + format(12345678901234567890, "016x") in out
    assert "hops=0x0201" in out
    assert "nonce=0x0000002a" in out


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_collision_options_leave_no_state_in_the_shared_parser(capsys):
    code, _, _ = run(capsys, "collisions", "--bits", "32", "--lengths", "8192")
    assert code == 0
    code, out, _ = run(capsys, "collisions")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COLLISIONS_DEFAULT_SHA256


def test_hop_budget_does_not_carry_over_to_the_next_call(capsys):
    # the packet's own hop counter is the one bound on a walk: a hop budget
    # is refused as an unknown option and leaves nothing for the next call
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--chain", "5", "--max-hops", "2"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith(": error: unrecognized arguments: --max-hops 2\n")
    code, out, _ = run(capsys, "simulate", "--chain", "5")
    assert code == 0
    assert out.splitlines()[-1].endswith(",terminated(5)")


def test_valid_call_after_a_usage_error_succeeds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["header", "encode", "--hops", "70000"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.startswith("usage: loopdetect header encode ")
    code, out, _ = run(capsys, "header", "encode")
    assert code == 0
    assert out == "0" * 28 + "\n"


@pytest.mark.parametrize("command", ["latency", "simulate"])
def test_cost_is_bounded_by_the_hop_counter_not_the_topology(tmp_path, capsys, command):
    # at most REACH nodes are built; the whole 10**6-node graph peaked near 92 MB
    shape = ["--mu", "1000000", "--lambda", "1"] if command == "latency" else ["--chain", "1000000"]
    target = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = main([command, *shape, "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 20_000_000
    if command == "latency":
        assert "horizon" in capsys.readouterr().err
    else:
        lines = target.read_text().splitlines()
        assert len(lines) == simulator.REACH
        assert lines[-1].endswith(",hop_overflow")


# -- the plain-argv path (README Design 8) ------------------------------------


def parse_args(argv):
    return vars(cli._build_parser().parse_args(argv))


def test_every_subcommand_has_a_plain_path():
    assert set(cli._grammar()) == {
        ("simulate",), ("collisions",), ("latency",), ("header", "encode"), ("header", "decode"),
    }


def test_a_leaf_with_an_unmodelled_action_is_left_to_argparse(monkeypatch):
    def toy_parser():
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers(dest="command")
        sub.add_parser("plain").add_argument("--n", type=int, nargs="+", default=(1,))
        sub.add_parser("flag").add_argument("--on", action="store_true")
        sub.add_parser("choice").add_argument("--n", type=int, choices=[1, 2])
        sub.add_parser("text").add_argument("--n", type=int, default="1")
        sub.add_parser("many").add_argument("n", nargs="+")
        return parser

    monkeypatch.setattr(cli, "_build_parser", toy_parser)
    cli._grammar.cache_clear()
    try:
        assert set(cli._grammar()) == {("plain",)}
    finally:
        cli._grammar.cache_clear()


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_every_benchmark_argv_is_plain_and_parses_as_argparse_does(tmp_path, seed):
    workloads = load_bench_workloads()
    ops = workloads.build_cli(random.Random(seed), 700, str(tmp_path))
    assert {op.kind for op in ops} == set(workloads.CLI_OP_MS)
    for op in ops:
        args = cli._plain(op.argv)
        assert args is not None, op.argv
        assert vars(args) == parse_args(op.argv), op.argv


# argparse takes each of these: help, an abbreviation, an =-joined value, a
# value starting with '-', a repeat, a missing option or positional, `--`,
# an unknown token and a value its type refuses
DECLINED = [
    ["simulate", "--help"],
    ["header", "encode", "-h"],
    ["header", "--help"],
    ["--help"],
    ["latency", "--lam", "3", "--mu", "0"],
    ["simulate", "--mu=3", "--lambda", "2"],
    ["simulate", "--mu", "-1", "--lambda", "2"],
    ["simulate", "--seed", "1", "--chain", "3", "--seed", "2"],
    ["collisions", "--bits", "24", "-1"],
    ["latency", "--mu", "2"],
    ["header", "decode"],
    ["header", "decode", "aa", "bb"],
    ["simulate", "--", "--chain", "3"],
    ["simulate", "--chain"],
    ["simulate", "--chain", "3", "--max-hops", "2"],
    ["simulate", "--chain", "1e5"],
    ["header", "encode", "--hops", "0x1g"],
    ["header"],
    ["nonsense"],
    [],
]

# each subcommand, taken and refused, with and without --out (OUT)
PLAIN = [
    ["simulate", "--mu", "0", "--lambda", "3", "--seed", "1"],
    ["simulate", "--chain", "5", "--out", "OUT"],
    ["simulate", "--out", "OUT", "--seed", "7", "--lambda", "4", "--mu", "2"],
    ["simulate", "--chain", "0"],
    ["simulate", "--chain", "3", "--mu", "1", "--lambda", "2"],
    ["simulate", "--mu", "0", "--lambda", "32768", "--out", "OUT"],
    ["collisions"],
    ["collisions", "--bits", "32", "24", "--lengths", "8192", "16", "--out", "OUT"],
    ["collisions", "--bits", "129"],
    ["latency", "--mu", "3", "--lambda", "5"],
    ["latency", "--mu", "0", "--lambda", "40000", "--out", "OUT"],
    ["latency", "--mu", "1", "--lambda", "1", "--ttl", "0", "--out", "OUT"],
    ["header", "encode"],
    ["header", "encode", "--tortoise", "0x0a0b", "--hops", "513", "--nonce", "42", "--out", "OUT"],
    ["header", "encode", "--hops", "70000"],
    ["header", "encode", "--out", "a\x00b"],
    ["header", "encode", "--out", ""],
    ["header", "decode", "00" * 14],
    ["header", "decode", "--out", "OUT", "ff" * 20],
    ["header", "decode", "0102", "--out", "OUT"],
    ["header", "decode", "zz"],
]


def outcome(capsys, tmp_path, argv):
    """Exit code, stdout, stderr and --out bytes of one main call."""
    target = tmp_path / "out.txt"
    if argv is not None:
        argv = [str(target) if token == "OUT" else token for token in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = target.read_bytes() if target.exists() else None
    target.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("argv", DECLINED)
def test_other_argv_is_left_to_argparse(argv):
    assert cli._plain(argv) is None


# no pass checks the tokens' types first: a token that is not a str raises
# inside the loop, and the argv goes to argparse. X marks the token's place,
# and the str beside each argv is a token that makes it plain there
@pytest.mark.parametrize("token", [513, b"513", None])
@pytest.mark.parametrize("argv, text", [
    (["header", "encode", "--nonce", "1", "X", "513"], "--hops"),  # an option
    (["header", "encode", "--nonce", "1", "--hops", "X"], "513"),  # a value
    (["collisions", "--bits", "24", "X", "--lengths", "16"], "32"),  # a further value
    (["header", "decode", "X", "--out", "OUT"], "00" * 14),  # the positional
])
def test_a_token_that_is_not_a_str_is_left_to_argparse(argv, text, token):
    assert cli._plain([text if t == "X" else t for t in argv]) is not None
    assert cli._plain([token if t == "X" else t for t in argv]) is None


# main then refuses it, before argparse reads it: exit 64 after the usage
# line, naming the token's place and type, never a TypeError traceback
@pytest.mark.parametrize("argv, message", [
    (["header", "encode", "--hops", 513], "argv[3] must be a str, got int"),
    (["header", "decode", None], "argv[2] must be a str, got NoneType"),
    (["simulate", "--mu", "3", "--lambda", b"5"], "argv[4] must be a str, got bytes"),
    ([7], "argv[0] must be a str, got int"),
    (("header", "encode", "--hops", 1.5, "--out", "OUT"), "argv[3] must be a str, got float"),
])
def test_a_token_that_is_not_a_str_exits_64_naming_it(tmp_path, capsys, argv, message):
    code, out, err, written = outcome(capsys, tmp_path, argv)
    assert code == ("SystemExit", 64) and out == "" and written is None
    assert err == cli._build_parser().format_usage() + f"loopdetect: error: {message}\n"


@pytest.mark.parametrize("argv", PLAIN)
def test_plain_argv_parses_as_argparse_does(argv):
    args = cli._plain(argv)
    assert args is not None
    assert vars(args) == parse_args(argv)


@pytest.mark.parametrize("argv", PLAIN + DECLINED)
def test_main_gives_what_argparse_alone_gives(tmp_path, monkeypatch, capsys, argv):
    fast = outcome(capsys, tmp_path, argv)
    monkeypatch.setattr(cli, "_plain", lambda argv: None)
    assert fast == outcome(capsys, tmp_path, argv)


@pytest.mark.parametrize("argv", [PLAIN[13], DECLINED[4], ["header", "encode", "--hops=3"]])
def test_main_reads_sys_argv_when_given_none(tmp_path, monkeypatch, capsys, argv):
    given = outcome(capsys, tmp_path, argv)
    target = str(tmp_path / "out.txt")
    monkeypatch.setattr(sys, "argv", ["loopdetect"] + [target if t == "OUT" else t for t in argv])
    assert outcome(capsys, tmp_path, None) == given


# the property mixes plain items, a leaf's own options with numbers, with
# anything else: other options, abbreviations, =-joined names, help, `--`,
# words of the subcommand paths, and hex, negative, empty and junk values
PATHS = [["simulate"], ["latency"], ["collisions"], ["header", "encode"], ["header", "decode"],
         [], ["header"], ["nonsense"]]
LEAF_OPTIONS = {
    "simulate": ["--mu", "--lambda", "--chain", "--seed", "--out"],
    "latency": ["--mu", "--lambda", "--ttl", "--out"],
    "collisions": ["--bits", "--lengths", "--out"],
    "encode": ["--tortoise", "--hops", "--nonce", "--out"],
    "decode": ["--out", None],  # None: the positional
}
OPTION_TOKENS = [
    *{option for options in LEAF_OPTIONS.values() for option in options},
    "--lam", "--len", "--tort", "--o", "--mu=3", "--out=x", "-h", "--help", "--", "encode", "-",
]
VALUE_TOKENS = ["0", "3", "0x1f", "0b11", "-1", "-0x1f", "", "zz", "1e5", " 3", "decode", "--mu"]


NUMBERS = ["0", "3", "17", "255"]


@st.composite
def plain_or_not(draw):
    """A subcommand path, some of its options (at most once each) with
    numbers, and up to two other tokens with values, put in anywhere."""
    path = draw(st.sampled_from(PATHS))
    options = LEAF_OPTIONS.get(path[-1] if path else None, [])
    argv = list(path)
    for name in draw(st.permutations(options))[:draw(st.integers(0, len(options)))]:
        count = draw(st.integers(1, 3)) if name in ("--bits", "--lengths") else 1
        argv += [name] * (name is not None) + draw(st.lists(st.sampled_from(NUMBERS),
                                                            min_size=count, max_size=count))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(len(path), len(argv)))
        argv[at:at] = [draw(st.sampled_from(OPTION_TOKENS)),
                       *draw(st.lists(st.sampled_from(VALUE_TOKENS), max_size=3))]
    return argv


@settings(max_examples=1000, deadline=None)
@given(plain_or_not())
def test_what_the_plain_path_takes_argparse_parses_alike(argv):
    args = cli._plain(argv)
    if args is not None:
        assert vars(args) == parse_args(argv)
