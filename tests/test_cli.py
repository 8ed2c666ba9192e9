import hashlib
import time
import tracemalloc

import pytest

from loopdetect import analysis, cli, simulator
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


def test_simulate_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(
        capsys, "simulate", "--mu", "0", "--lambda", "3", "--max-hops", "2"
    )
    assert code == 2
    assert out.splitlines()[-1].endswith(",budget_exhausted")


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
        ["simulate", "--chain", "3", "--max-hops", "0"],
        ["simulate", "--mu", "0", "--lambda", "0"],
        ["latency", "--mu", "1", "--lambda", "1", "--ttl", "0"],
        ["latency", "--mu", "-1", "--lambda", "1"],
        ["collisions", "--bits", "129"],
        ["collisions", "--bits", "24", "--lengths", "16", "0"],
        ["header", "encode", "--out", "a\x00b"],
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
        (["simulate", "--chain", "3", "--max-hops", "0"], "usage: loopdetect simulate "),
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
        (["simulate", "--chain", "3", "--max-hops", "0"], "max_hops must be >= 1, got 0"),
        (["simulate", "--mu", "0", "--lambda", "0"], "cycle length must be >= 1, got 0"),
        (["simulate", "--mu", "-1", "--lambda", "2"], "tail length must be >= 0, got -1"),
        (["simulate", "--chain", "0"], "chain length must be >= 1, got 0"),
        (["latency", "--mu", "1", "--lambda", "1", "--ttl", "0"], "ttl must be >= 1, got 0"),
        (["latency", "--mu", "-1", "--lambda", "1"], "tail length must be >= 0, got -1"),
        (["collisions", "--bits", "129"], "id_bits must be within [1, 128], got 129"),
        (["collisions", "--bits", "24", "--lengths", "16", "0"], "path_length must be >= 1, got 0"),
        (["header", "encode", "--hops", "70000"], "hops must be within [0, 65535], got 70000"),
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
    code, _, _ = run(capsys, "simulate", "--chain", "5", "--max-hops", "2")
    assert code == 2
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
