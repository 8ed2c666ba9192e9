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
    ("repeated tortoise marked as a snapshot", "simulator.py",
     'suffixes += repeat(cell + "0,"', 'suffixes += repeat(cell + "1,"'),
    ("hop labels start one early", "simulator.py",
     "range(first + 1, first + _CSV_BLOCK + 1)", "range(first, first + _CSV_BLOCK)"),
    # the receiver stream
    ("path test compares succ shifted by one", "simulator.py",
     "succ[lo:-1] == _table(n)", "succ[lo + 1:] == _table(n)"),
    ("path test skips the cycle's nodes before the start", "simulator.py",
     "pos < last else last", "pos < last else pos"),
    ("cycle starts one node late", "simulator.py",
     "cycle(_iter_from(ids, last))", "cycle(_iter_from(ids, last + 1))"),
    ("stream starts at the current node", "simulator.py",
     "_iter_from(ids, pos + 1)", "_iter_from(ids, pos)"),
    ("short-segment test < to <=", "simulator.py", "if len(segment) < want:", "if len(segment) <= want:"),
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
