"""Forward one packet and print its trace, tabulate node-id collision
chances and detection latency, or encode and decode the wire header, all
as deterministic CSV/text.

Exit codes: 0 success, 2 hop overflow (for latency: the loop lies past
the hop-counter horizon), 3 internal invariant breach (predictor
disagrees with simulation), 64 a rejected argument (the reason follows
the subcommand's usage line), 65 header decode input that is not hex or
is shorter than 14 bytes, 73 the --out file cannot be written.
Randomized subcommands take a seed (defaulted if omitted) and echo it,
so every output is replayable.
"""

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from . import analysis, codec, simulator
from .core import HopOverflow
from .reference import CycleStructure

EX_OK = 0
EX_RUNTIME = 2
EX_INVARIANT = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_CANTCREAT = 73

DEFAULT_SEED = 0
DEFAULT_TTL = 255


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the documented code is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; usage errors raise SystemExit.

    ``argv`` defaults to ``sys.argv[1:]``. ``_plain`` reads a plain argv;
    argparse parses any other, so help and every usage error come from it.
    May be called repeatedly in one process: the parser is built once, on
    the first call, and each call parses into a fresh namespace. A library
    ValueError exits 64 after the subcommand's usage line, so handlers do
    not repeat a check the library makes.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv)
    if args is None:  # a shell's argv is text; only an in-process caller's may not be
        for i, token in enumerate(argv):
            if not isinstance(token, str):
                _build_parser().error(f"argv[{i}] must be a str, got {type(token).__name__}")
        args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as exc:
        code, message = exc.args
        print(f"loopdetect: {message}", file=sys.stderr)
        return code
    except ValueError as exc:
        args.parser.error(str(exc))  # the subcommand's own usage; exits 64
        raise AssertionError("unreachable")


class _Failure(Exception):
    """``(exit code, message)`` of a failed command; main prints and returns it."""


# shared by every main() call: no default is a mutable container
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="loopdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output here instead of stdout")

    p_sim = sub.add_parser("simulate", parents=[out],
                           help="forward one packet and print its trace")
    p_col = sub.add_parser("collisions", parents=[out],
                           help="node-id collision probability grid")
    p_lat = sub.add_parser("latency", parents=[out],
                           help="detection hop vs hop-limit baseline")
    for shaped, required, of in ((p_sim, False, " of a rho topology"), (p_lat, True, "")):
        shaped.add_argument("--mu", type=int, required=required, help="tail length" + of)
        shaped.add_argument("--lambda", dest="lam", type=int, required=required,
                            help="cycle length" + of)

    p_sim.add_argument("--chain", type=int, help="loop-free chain of this many nodes")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help="node-id seed (default 0)")
    p_sim.set_defaults(handler=_cmd_simulate, parser=p_sim)

    p_col.add_argument("--bits", type=int, nargs="+", default=analysis.DEFAULT_ID_BITS,
                       help="id widths in bits")
    p_col.add_argument("--lengths", type=int, nargs="+",
                       default=analysis.DEFAULT_PATH_LENGTHS, help="path lengths")
    p_col.set_defaults(handler=_cmd_collisions, parser=p_col)

    p_lat.add_argument("--ttl", type=int, default=DEFAULT_TTL, help="baseline hop limit")
    p_lat.set_defaults(handler=_cmd_latency, parser=p_lat)

    p_hdr = sub.add_parser("header", help="encode or decode the 14-byte wire header")
    hdr_sub = p_hdr.add_subparsers(dest="mode", required=True)

    p_enc = hdr_sub.add_parser("encode", parents=[out], help="print the header's 14 bytes as hex")
    p_enc.add_argument("--tortoise", type=integer, default=0,
                       help="node id, an int() literal such as 0x0a0b, 0 to 2**64-1 (default 0)")
    p_enc.add_argument("--hops", type=integer, default=0,
                       help="hop count, an int() literal such as 0x0a0b, 0 to 65535 (default 0)")
    p_enc.add_argument("--nonce", type=integer, default=0,
                       help="nonce, an int() literal such as 0x0a0b, 0 to 2**32-1 (default 0)")
    p_enc.set_defaults(handler=_cmd_header_encode, parser=p_enc)

    p_dec = hdr_sub.add_parser("decode", parents=[out], help="print the fields of a hex header")
    p_dec.add_argument("hex", help="header as hex, at least 28 chars")
    p_dec.set_defaults(handler=_cmd_header_decode, parser=p_dec)

    return parser


# README Design 8: a plain argv is read without argparse
@functools.cache
def _grammar() -> dict:
    """{subcommand path: (defaults, {option: spec}, [positional spec],
    {required dest})} from the parser, for each leaf whose actions are all
    stores with nargs None (or '+' for an option), no choices and no string
    default. A spec is (dest, type or str, takes several values)."""
    grammar = {}

    def walk(parser, path, dests):
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        if [type(a) for a in actions] == [argparse._SubParsersAction]:
            for name, leaf in actions[0].choices.items():
                walk(leaf, path + (name,), dests + (actions[0].dest,))
        elif all(type(a) is argparse._StoreAction and a.choices is None
                 and a.nargs in (None, "+" if a.option_strings else None)
                 and not isinstance(a.default, str) for a in actions):
            defaults = {**dict(zip(dests, path)), **{a.dest: a.default for a in actions},
                        **parser._defaults}
            spec = {a: (a.dest, a.type or str, a.nargs == "+") for a in actions}
            grammar[path] = (defaults, {o: spec[a] for a in actions for o in a.option_strings},
                             [spec[a] for a in actions if not a.option_strings],
                             {a.dest for a in actions if a.required})

    walk(_build_parser(), (), ())
    return grammar


def _plain(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """parse_args(argv) for a plain argv: a subcommand path, then its exact
    options, each once and followed by its value(s), and its positionals,
    no value starting with '-'. None for any other argv, or if a type raises."""
    grammar = _grammar()
    path = tuple(argv[:1]) if tuple(argv[:1]) in grammar else tuple(argv[:2])
    try:  # an unknown path, a token that is not a str, a missing value or a refused one
        defaults, options, free, required = grammar[path]
        values, given, free, i, n = dict(defaults), set(), iter(free), len(path), len(argv)
        while i < n:
            if argv[i] in options:
                dest, kind, several = options[argv[i]]
                i += 1
            else:
                dest, kind, several = next(free)
            end = i + 1
            while several and end < n and not argv[end].startswith("-"):
                end += 1
            if dest in given or argv[i].startswith("-"):
                return None
            given.add(dest)
            values[dest] = [kind(text) for text in argv[i:end]] if several else kind(argv[i])
            i = end
    except Exception:  # argparse reports it, or raises it
        return None
    args = argparse.Namespace()
    args.__dict__ = values
    return args if given >= required else None


def _cmd_simulate(args) -> int:
    if args.chain is not None:
        if args.mu is not None or args.lam is not None:
            raise ValueError("--chain excludes --mu/--lambda")
    elif args.mu is None or args.lam is None:
        raise ValueError("simulate needs --mu and --lambda, or --chain")
    graph = simulator.build_within_reach(args.mu, args.lam, args.chain, seed=args.seed)
    trace = simulator.simulate(graph, 0)
    _emit(args.out, f"# seed={args.seed}\n" + simulator.trace_csv(trace))
    return EX_RUNTIME if trace.outcome is simulator.Outcome.HOP_OVERFLOW else EX_OK


def _cmd_collisions(args) -> int:
    rows = analysis.collision_table(args.bits, args.lengths)
    _emit(args.out, analysis.collision_csv(rows))
    return EX_OK


def _cmd_latency(args) -> int:
    case = CycleStructure(args.mu, args.lam)
    try:
        rows = analysis.latency_table([case], args.ttl)
    except HopOverflow as exc:  # the case lies past the horizon; its message names it
        rows, horizon = None, str(exc)
    # never emit a predicted hop, nor report a horizon, that a live run does
    # not reproduce; the run needs no seed (see _rho_by_position)
    trace = simulator.simulate(simulator._rho_by_position(case.mu, case.lam), 0)
    if rows is None and trace.outcome is simulator.Outcome.HOP_OVERFLOW:
        raise _Failure(EX_RUNTIME, horizon)
    predicted = analysis.predict_detection_hop(case) if rows is None else rows[0].brent_hop
    if trace.outcome is not simulator.Outcome.DETECTED or trace.at_hop != predicted:
        raise _Failure(EX_INVARIANT, f"predictor/simulation mismatch for mu={case.mu} "
                       f"lambda={case.lam}: predicted {predicted}, "
                       f"simulated {trace.outcome.value}({trace.at_hop})")
    _emit(args.out, analysis.latency_csv(rows))
    return EX_OK


def _cmd_header_encode(args) -> int:
    wire = codec.encode((args.tortoise, args.hops), args.nonce)
    _emit(args.out, wire.hex() + "\n")
    return EX_OK


def _cmd_header_decode(args) -> int:
    try:
        header, nonce = codec.decode(bytes.fromhex(args.hex))
    except ValueError as exc:  # not hex, or codec.Truncated
        raise _Failure(EX_DATAERR, f"cannot decode {args.hex!r}: {exc}") from exc
    _emit(
        args.out,
        f"tortoise=0x{header.tortoise:016x}\nhops=0x{header.hops:04x}\nnonce=0x{nonce:08x}\n",
    )
    return EX_OK


def integer(text: str) -> int:
    return int(text, 0)


# README Design 9: --out by three syscalls, without open()'s io stack
def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode())
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:  # a write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise _Failure(EX_CANTCREAT, f"cannot write {out}: {exc.strerror}") from exc
