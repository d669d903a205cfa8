"""Command-line front end.

Subcommands: branch, decompose, lr, verify, selftest.  Output is JSON by
default (integers only, canonical key order) or TSV with --format tsv.

Exit codes: 0 success, 1 usage or parse error, 2 stable-range violation,
3 verification mismatch, 4 standard output closed early (say by
``branchkit verify | head -1``); the rest of the output is dropped
without a traceback.

verify prints a line per check of verify.checks, the one list of checks,
as each is done.  --max-size N reaches the grids at N and the Littlewood
sweep at N+1; the duality and lr-spot sweeps and the padding probe keep
their own sizes.  --seed goes only with --pair all.  selftest is verify
--pair all --max-size 2, then a PASS or FAIL line.

If BRANCHKIT_CACHE names a file, the Littlewood-Richardson memo is loaded
from it on startup and saved to it on exit; otherwise the cache is
in-memory only.  Each line of the file holds one skew expansion and ends
in the CRC-32 of its text (see lr.dump_cache_lines).  The load checks
every line's checksum and key; each expansion is parsed the first time the
command reads it.  After a clean load, the save appends only the
expansions the file lacked, in one write on an O_APPEND descriptor, and
writes nothing when there are none.  When there was no file, or the load
refused it, the save writes the whole memo to a temporary file and renames
it over the old one; a file from before the checksums is refused once and
rewritten so.  A cache file that cannot be read or written, whose line
fails its checksum, or whose key is not two partitions, draws a warning on
stderr and is ignored; the exit code stays the command's own.  A
checksummed line whose expansion does not parse draws no warning: that
expansion is searched again.  lr searches its one coefficient without the
memo (lr.lr_coeff), so it neither reads nor adds lines; a line with a
valid checksum and a wrong value can still change what branch and
decompose print.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import lr
from .branching import (
    RepLabel,
    branch_decompose,
    branching_multiplicity,
    decompose_range_violations,
    query,
    rule_of,
    stable_range_violations,
)
from .errors import (
    InvalidLabel,
    NotAPartition,
    ParseError,
    StableRangeViolation,
    UnknownPair,
)
from .pairs import label_ranks
from .partitions import (
    GLLabel,
    format_gl_label,
    format_partition,
    parse_gl_label,
    parse_partition,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STABLE_RANGE = 2
EXIT_MISMATCH = 3
EXIT_BROKEN_PIPE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_label(text: str, family: str):
    return parse_gl_label(text) if family == "GL" else parse_partition(text)


def _format_label(data) -> str:
    if isinstance(data, GLLabel):
        return format_gl_label(data)
    return format_partition(data)


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False)


def _emit(record: dict, fmt: str):
    if fmt == "tsv":
        flat = []
        for k, v in record.items():
            if isinstance(v, dict):
                v = ";".join(f"{kk}={vv}" for kk, vv in v.items())
            flat.append(f"{k}\t{v}")
        print("\n".join(flat))
    else:
        print(_dump(record))


def _label_sort_key(key: str):
    return (len(key), key)


def _ranks(args, pair) -> tuple:
    if rule_of(pair).kind == "sum":
        if args.m is None:
            raise ParseError(f"{pair} needs both -n and -m")
        return (args.n, args.m)
    if args.m is not None:
        raise ParseError(f"{pair} takes only -n")
    return (args.n,)


def _build_query(args):
    pair = args.pair
    rule = rule_of(pair)
    ranks = _ranks(args, pair)
    big = _parse_label(args.big, rule.big)
    smalls = [_parse_label(s, rule.small) for s in args.small]
    want = rule.small_count
    if len(smalls) != want:
        raise ParseError(f"{pair} expects {want} --small label(s)")
    return query(pair, ranks, big, smalls)


def cmd_branch(args) -> int:
    t0 = time.perf_counter()
    q = _build_query(args)
    violations = stable_range_violations(q)
    record = {
        "pair": q.pair,
        "ranks": list(q.ranks),
        "big": _format_label(q.big.data),
        "small": [_format_label(s.data) for s in q.small],
    }
    if violations and not args.unsafe:
        raise StableRangeViolation(rule_of(q.pair).rule_id, violations)
    record["result"] = branching_multiplicity(q, unsafe=True)
    record["stable_range"] = not violations
    record["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    _emit(record, args.format)
    return EXIT_OK


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    pair = args.pair
    rule = rule_of(pair)
    ranks = _ranks(args, pair)
    if args.bound is not None and args.bound < 0:  # it would empty the map
        raise ParseError(f"--bound must be >= 0, got {args.bound}")
    if rule.kind == "diag":
        if args.big is not None:
            raise ParseError(f"{pair} takes --mu/--nu, not --big")
        if args.mu is None or args.nu is None:
            raise ParseError(f"{pair} decomposition needs --mu and --nu")
        mu = _parse_label(args.mu, rule.small)
        nu = _parse_label(args.nu, rule.small)
        big = (mu, nu)
        echo = {"mu": _format_label(mu), "nu": _format_label(nu)}
    else:
        if args.mu is not None or args.nu is not None:
            raise ParseError(f"{pair} takes --big, not --mu/--nu")
        if args.big is None:
            raise ParseError(f"{pair} decomposition needs --big")
        big = _parse_label(args.big, rule.big)
        echo = {"big": _format_label(big)}
    big_rank, small_ranks = label_ranks(pair, ranks)
    violations = decompose_range_violations(pair, big, ranks)
    record = {"pair": pair, "ranks": list(ranks)}
    record.update(echo)
    if violations and not args.unsafe:
        raise StableRangeViolation(rule.rule_id, violations)
    # --unsafe lifts the stable range, not the labels' own constraints
    if rule.kind == "diag":
        for rank, label in zip(small_ranks, big):
            RepLabel(rule.small, rank, label).validate()
    else:
        RepLabel(rule.big, big_rank, big).validate()
    dec = branch_decompose(pair, big, ranks, bound=args.bound)
    if rule.kind == "sum":  # each key is the pair (μ, ν)
        texts = {"|".join(map(_format_label, k)): m for k, m in dec.items()}
    else:
        texts = {_format_label(k): m for k, m in dec.items()}
    record["result"] = {k: texts[k]
                        for k in sorted(texts, key=_label_sort_key)}
    record["stable_range"] = not violations
    record["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    _emit(record, args.format)
    return EXIT_OK


def cmd_lr(args) -> int:
    t0 = time.perf_counter()
    outer = parse_partition(args.outer)
    left = parse_partition(args.left)
    right = parse_partition(args.right)
    record = {
        "outer": format_partition(outer),
        "left": format_partition(left),
        "right": format_partition(right),
        "result": lr.lr_coeff(outer, left, right),
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(record, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import checks  # only verify and selftest load the oracle
    cap = args.max_size
    if cap is not None and cap < 0:  # a negative cap would compare nothing
        raise ParseError(f"--max-size must be >= 0, got {cap}")
    if args.seed is not None and args.pair != "all":  # only lr-spot reads it
        raise ParseError("--seed goes only with --pair all")
    failed = False
    for report in checks(args.pair, cap, args.seed):
        print(report.line())
        failed |= not (report.ok or report.finding)
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_selftest(args) -> int:
    """``verify --pair all --max-size 2``, then a verdict line."""
    code = cmd_verify(argparse.Namespace(pair="all", max_size=2, seed=None))
    print("selftest:", "FAIL" if code else "PASS")
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="branchkit",
                     description="Stable branching multiplicities for "
                                 "classical symmetric pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    pb = sub.add_parser("branch", help="one multiplicity")
    pb.add_argument("--pair", required=True)
    pb.add_argument("-n", type=int, required=True)
    pb.add_argument("-m", type=int)
    pb.add_argument("--big", required=True)
    pb.add_argument("--small", nargs="+", required=True)
    pb.add_argument("--unsafe", action="store_true",
                    help="evaluate the formula outside the stable range")
    common(pb)
    pb.set_defaults(func=cmd_branch)

    pd = sub.add_parser("decompose", help="full decomposition")
    pd.add_argument("--pair", required=True)
    pd.add_argument("-n", type=int, required=True)
    pd.add_argument("-m", type=int)
    pd.add_argument("--big")
    pd.add_argument("--mu")
    pd.add_argument("--nu")
    pd.add_argument("--bound", type=int)
    pd.add_argument("--unsafe", action="store_true")
    common(pd)
    pd.set_defaults(func=cmd_decompose)

    pl = sub.add_parser("lr", help="a Littlewood-Richardson coefficient")
    pl.add_argument("--outer", required=True)
    pl.add_argument("--left", required=True)
    pl.add_argument("--right", required=True)
    common(pl)
    pl.set_defaults(func=cmd_lr)

    pv = sub.add_parser("verify", help="formula-vs-oracle grids")
    pv.add_argument("--pair", default="all")
    pv.add_argument("--max-size", type=int,
                    help="one size cap N for every grid, N+1 for Littlewood "
                         "(default: verify.DEFAULT_MAX_SIZE, Littlewood 6)")
    pv.add_argument("--seed", type=int, help="lr-spot's seed (default 1)")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("selftest", help="quick internal consistency run")
    ps.set_defaults(func=cmd_selftest)
    return parser


def _load_cache(path: str):
    """Load the memo file at ``path`` into the LR memo; the keys it held,
    or None when there was no file or it was refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return lr.load_cache_lines(fh)
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
    return None


def _save_cache(path: str, held):
    """Save the LR memo to the file at ``path``.  ``held`` is what
    _load_cache returned: after a clean load, append in one write the
    expansions whose keys the file lacked, if any; otherwise rewrite the
    file whole."""
    # one temporary file per process, so concurrent runs never share one
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if held is not None:
            data = "".join(line + "\n" for line in lr.dump_cache_lines(held))
            if data:  # a torn or spliced line fails its checksum next load
                with open(path, "a+b", buffering=0) as fh:  # one write
                    # a hand edit can leave the last line without its newline
                    if fh.seek(0, os.SEEK_END):
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            data = "\n" + data
                    fh.write(data.encode())
            return
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lr.dump_cache_lines():
                fh.write(line + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cache file {path} not written: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            os.remove(tmp)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_path = os.environ.get("BRANCHKIT_CACHE")
    held = _load_cache(cache_path) if cache_path else None
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # send what is still buffered to os.devnull, so that the flush at
        # exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # stdout has no fd
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except StableRangeViolation as exc:
        print(f"stable-range violation: {exc}", file=sys.stderr)
        return EXIT_STABLE_RANGE
    except (ParseError, NotAPartition, InvalidLabel, UnknownPair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if cache_path:
            _save_cache(cache_path, held)
    return code


if __name__ == "__main__":
    sys.exit(main())
