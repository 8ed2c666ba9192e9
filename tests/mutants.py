"""Check that the tests bite: apply one-line mutations to a copy of src/ and
see whether Tier-1 (without criterion 7, the 130 s codec roundtrip) fails.

    python tests/mutants.py

Each mutant replaces one exact text, which must occur once in its file, in
a temporary copy of ``src/``. The suite then runs against that copy under
``-x``, with TIMEOUT seconds per mutant, and the mutant is KILLED if the
suite fails or runs out of time, SURVIVED if it passes. The unmutated copy runs
first and must pass. Exits 1 if a mutant survived. Standard library only
(the suite itself needs pytest and hypothesis); not a Tier-1 test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 180  # seconds per suite run; an unmutated run takes about 30

# (name, file under src/loopdetect, text, replacement)
MUTANTS = [
    # first scratch run: each was killed
    ("hop limit >= to >", "core.py", "if hops >= MAX_HOPS:", "if hops > MAX_HOPS:"),
    ("snapshot test hops - 1 to hops + 1", "core.py", "hops & (hops - 1)", "hops & (hops + 1)"),
    ("predictor loop off by one", "reference.py", "while p < mu or p < lam:", "while p <= mu or p < lam:"),
    ("codec little-endian", "codec.py", 'struct.Struct(">QHI")', 'struct.Struct("<QHI")'),
    ("virtual id little-endian", "vid.py", 'Struct(">Q")', 'Struct("<Q")'),
    ("REACH cut one short", "simulator.py", "REACH = MAX_HOPS + 2", "REACH = MAX_HOPS + 1"),
    ("saturation cut at 8", "analysis.py", "_SATURATION_PAIRS = 80", "_SATURATION_PAIRS = 8"),
    ("hop labels start one early", "simulator.py",
     "range(first + 1, first + _CSV_BLOCK + 1)", "range(first, first + _CSV_BLOCK)"),
    # the tortoise derived from the nodes
    ("repeated tortoise marked as a snapshot", "simulator.py",
     'suffixes += repeat(cell + "0,", hi - lo)', 'suffixes += repeat(cell + "1,", hi - lo)'),
    ("derived tortoise index one hop early", "simulator.py", "yield nodes[p - 1]", "yield nodes[p - 2]"),
    ("detecting power-of-two hop flagged as a snapshot", "simulator.py",
     '("0," if lo == detected else "1,")', '"1,"'),
    # the receiver stream, for the paths the builders mark
    ("builder graph left unmarked", "simulator.py",
     '_set(graph, "_is_path", True)', '_set(graph, "_is_path", False)'),
    ("explicit-id path left unmarked", "simulator.py",
     "return _graph(node_ids, succ)", "return FunctionalGraph(node_ids, succ)"),
    ("constructor's graph marked as a path", "simulator.py",
     "_is_path = False", "_is_path = True"),
    ("cycle starts one node late", "simulator.py",
     "cycle(_iter_from(ids, last))", "cycle(_iter_from(ids, last + 1))"),
    ("stream starts at the current node", "simulator.py",
     "_iter_from(ids, pos + 1)", "_iter_from(ids, pos)"),
    ("short-segment test < to <=", "simulator.py", "if len(segment) < want:", "if len(segment) <= want:"),
    # the term-wise switch at its lowest value that holds (6)
    ("term-wise switch 6 to 5", "analysis.py", "_TERMWISE_MAX_BITS = 6", "_TERMWISE_MAX_BITS = 5"),
    # the plain-argv path and its compiled table
    ("plain path takes a value starting with '-'", "cli.py",
     'or argv[i].startswith("-"):', "or argv[i] in options:"),
    ("plain path takes a repeated option", "cli.py", "if dest in given or ", "if "),
    ("plain path fills a missing required option with its default", "cli.py",
     "return args if given >= required else None", "return args"),
    ("table keeps each value as text", "cli.py",
     '(a.dest, a.type or str, a.nargs == "+")', '(a.dest, str, a.nargs == "+")'),
    # --out by three syscalls
    ("--out opened without O_TRUNC", "cli.py",
     "os.O_WRONLY | os.O_CREAT | os.O_TRUNC", "os.O_WRONLY | os.O_CREAT"),
    ("one os.write with no loop", "cli.py", "while data:", "if data:"),
    # the closed form's series and corrections, at b = 7
    ("series cap back at 64", "analysis.py", "for j in range(2, 200):", "for j in range(2, 64):"),
    ("Euler-Maclaurin without its B_6 pair", "analysis.py",
     "(3, 1 / 360), (5, -1 / 1260))", "(3, 1 / 360))"),
    # round 2: a mutant in each module that had none
    ("_advance ignores the saturated counter", "core.py",
     "if hops < MAX_HOPS and tortoise in receivers:", "if tortoise in receivers:"),
    ("Brent's schedule x3", "reference.py", "power *= 2", "power *= 3"),
    ("Floyd's hare moves every other step", "reference.py", "if step % 3:", "if step % 2:"),
    ("series stops at 2**-30", "analysis.py",
     "if term <= x * 2.0**-57:", "if term <= x * 2.0**-30:"),
    ("id draw dedups in set order", "simulator.py",
     "ids = tuple(dict.fromkeys(ids))", "ids = tuple(set(ids))"),
    ("digest hashes the payload first", "vid.py",
     "_pack_nonce(nonce) + payload", "payload + _pack_nonce(nonce)"),
    ("forward drops the body", "codec.py", "encode(fields, nonce) + body", "encode(fields, nonce)"),
    ("latency ratio inverted", "analysis.py", "ttl / brent_hop", "brent_hop / ttl"),
    ("visited-set entry one step late", "reference.py",
     "first_seen[elem] = step", "first_seen[elem] = step + 1"),
    ("self-looping origin fires at hop 2", "reference.py",
     "if mu == 0 and lam == 1:\n        return 1", "if mu == 0 and lam == 1:\n        return 2"),
]


def check_texts() -> None:
    """Stop unless each mutant's text occurs exactly once in its file."""
    for name, file, text, _ in MUTANTS:
        found = (ROOT / "src" / "loopdetect" / file).read_text().count(text)
        if found != 1:
            raise SystemExit(f"{name}: {text!r} occurs {found} times in {file}, not once")


def copy_src(dest: Path, mutant=None) -> None:
    """A fresh copy of src/ at ``dest``, with ``mutant`` applied if given."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        _, file, text, replacement = mutant
        path = dest / "loopdetect" / file
        path.write_text(path.read_text().replace(text, replacement))


def run_suite(src: Path, workdir: Path) -> str:
    """PASSED, FAILED or TIMEOUT for Tier-1 without criterion 7 on ``src``."""
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--deselect", "tests/test_acceptance.py::test_criterion_7_codec_roundtrip_cross_product",
        str(ROOT / "tests"),
    ]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, cwd=workdir, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "TIMEOUT"
    return "PASSED" if done.returncode == 0 else "FAILED"


def main() -> int:
    check_texts()
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        scratch = Path(scratch)
        src = scratch / "src"
        copy_src(src)
        started = time.monotonic()
        clean = run_suite(src, scratch)
        print(f"unmutated: {clean} in {time.monotonic() - started:.0f} s", flush=True)
        if clean != "PASSED":
            return 2
        for mutant in MUTANTS:
            copy_src(src, mutant)
            started = time.monotonic()
            result = run_suite(src, scratch)
            verdict = "SURVIVED" if result == "PASSED" else "KILLED"
            survivors += verdict == "SURVIVED"
            note = " (time limit)" if result == "TIMEOUT" else ""
            print(f"{verdict}{note} in {time.monotonic() - started:.0f} s: {mutant[0]}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
