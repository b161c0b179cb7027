"""Command-line front door.

Subcommands::

    fullflow pair FILE Y Z [--set X] [--exact] [--witness] [--dump-flow P]
    fullflow centrality FILE [--set X ...] [--exact] [--explain]
    fullflow examples
    fullflow selftest [--instances N] [--seed S] ...

Exit codes: 0 success, 2 input error, 3 budget exceeded or out of
memory, 4 violated internal invariant (failed example checks, self-test
violations).
Output is plain text, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys

from .centrality import centrality_report
from .errors import (
    BudgetExceededError,
    FullFlowError,
    InvalidInputError,
    InvalidSpecError,
    InvariantViolationError,
)
from .figures import figure_checks
from .flows import flow_to_text
from .network import Network, load_network
from .oracle import InstanceSpec, cross_check
from .quantities import DEFAULT_NODE_BUDGET, pair_report

DEFAULT_CAPACITY_CAP = 10**9

# the selftest flag behind each InstanceSpec field _check_spec_flags checks
_SPEC_FLAGS = dict(
    max_capacity="--capacity", arc_probability="--arc-probability", seed="--seed"
)


def _load(path: str, max_capacity: int) -> Network:
    try:
        return load_network(path, max_capacity=max_capacity)
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror or exc}") from exc
    except (InvalidInputError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _reject_negative(args, *flags: str) -> None:
    """Exit 2 naming the first of ``flags`` whose value is negative."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 0:
            raise InvalidInputError(f"{flag} {value} is negative")


def _check_spec_flags(args) -> None:
    """Exit 2 naming the selftest flag that makes an instance spec invalid.

    Runs before the batch is built, so it also checks an empty batch.  The
    first and the last instance differ only in their seed.
    """
    last_seed = args.seed + max(args.instances - 1, 0)
    for seed in (args.seed, last_seed):
        try:
            InstanceSpec(2, args.capacity, args.arc_probability, seed)
        except InvalidSpecError as exc:
            if seed != args.seed:
                raise InvalidInputError(
                    f"--seed {args.seed} too large for --instances "
                    f"{args.instances}: the last seed {exc.detail}"
                ) from exc
            raise InvalidInputError(f"{_SPEC_FLAGS[exc.field]} {exc.detail}") from exc


def _parse_set(text: str) -> list[str]:
    return [token for token in text.split(",") if token]


def _sep(fmt: str) -> str:
    return "\t" if fmt == "tsv" else " "


def cmd_pair(args) -> int:
    _reject_negative(args, "--max-capacity", "--budget")
    network = _load(args.file, args.max_capacity)
    report = pair_report(
        network,
        args.source,
        args.sink,
        _parse_set(args.set),
        exact=args.exact or args.witness,
        node_budget=args.budget,
    )
    if args.dump_flow:  # first, so that a failed dump prints no record
        try:
            with open(args.dump_flow, "w", encoding="utf-8") as handle:
                handle.write(flow_to_text(report.flow))
        except OSError as exc:
            raise InvalidInputError(f"{args.dump_flow}: {exc.strerror or exc}") from exc
    print(report.record(sep=_sep(args.format)))
    if args.witness:
        print(f"witness{_sep(args.format)}{report.witness}")
    return 0


def cmd_centrality(args) -> int:
    _reject_negative(args, "--max-capacity", "--budget")
    network = _load(args.file, args.max_capacity)
    if args.set:
        groups = [_parse_set(text) for text in args.set]
    else:
        groups = [[v] for v in network.vertices]
    reports = centrality_report(
        network,
        groups,
        exact=args.exact,
        explain=args.explain,
        node_budget=args.budget,
    )
    sep = _sep(args.format)
    for report in reports:
        print(report.record(sep=sep))
        if args.explain:
            for term in report.pair_terms:
                print(
                    sep.join(
                        [
                            "term",
                            term.source,
                            term.sink,
                            str(term.max_flow_total),
                            str(term.vitality_drop),
                            str(term.forced_passage),
                        ]
                    )
                )
    return 0


def cmd_examples(args) -> int:
    checks = figure_checks()
    width = max(len(c.name) for c in checks)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{check.figure}  {check.name:<{width}}  {status}"
        if not check.passed:
            line += f"  {check.detail}"
            failures += 1
        print(line)
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 4


def cmd_selftest(args) -> int:
    if not 2 <= args.max_vertices <= 6:
        raise InvalidInputError(f"--max-vertices {args.max_vertices} outside 2..6")
    _reject_negative(args, "--instances", "--assignment-budget", "--budget")
    _check_spec_flags(args)
    sizes = list(range(2, args.max_vertices + 1))
    batch = [
        InstanceSpec(
            vertex_count=sizes[i % len(sizes)],
            max_capacity=args.capacity,
            arc_probability=args.arc_probability,
            seed=args.seed + i,
        )
        for i in range(args.instances)
    ]
    report = cross_check(
        batch,
        assignment_budget=args.assignment_budget,
        node_budget=args.budget,
    )
    sys.stdout.write(report.render())
    return 0 if report.ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullflow",
        description="Flow-based pair quantities and group centrality "
        "on integer-capacitated digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("file", help="network file")
        p.add_argument(
            "--max-capacity",
            type=int,
            default=DEFAULT_CAPACITY_CAP,
            help="reject capacities above this when parsing (default 10^9)",
        )
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_NODE_BUDGET,
            help="passage search budget: nodes and candidate paths (default 10^6)",
        )
        p.add_argument(
            "--format",
            choices=("text", "tsv"),
            default="text",
            help="record separator: spaces or tabs",
        )

    pair = sub.add_parser("pair", help="quantities for one source/sink/group")
    common_io(pair)
    pair.add_argument("source")
    pair.add_argument("sink")
    pair.add_argument(
        "--set",
        default="",
        metavar="TOKENS",
        help="comma-separated vertex group (default empty)",
    )
    pair.add_argument(
        "--exact",
        action="store_true",
        help="force enumeration-based passage even for single vertices",
    )
    pair.add_argument(
        "--witness",
        action="store_true",
        help="also print a sequence attaining the passage (implies --exact)",
    )
    pair.add_argument(
        "--dump-flow",
        metavar="PATH",
        help="write the deterministic maximum flow to PATH",
    )
    pair.set_defaults(func=cmd_pair)

    cent = sub.add_parser("centrality", help="group centrality for vertex sets")
    common_io(cent)
    cent.add_argument(
        "--set",
        action="append",
        metavar="TOKENS",
        help="comma-separated vertex group, repeatable "
        "(default: every singleton)",
    )
    cent.add_argument(
        "--exact",
        action="store_true",
        help="turn off the singleton shortcut: single-vertex terms that no "
        "exact rule settles run the passage search",
    )
    cent.add_argument(
        "--explain", action="store_true", help="print per-pair terms"
    )
    cent.set_defaults(func=cmd_centrality)

    examples = sub.add_parser(
        "examples", help="run the embedded fixture checks"
    )
    examples.set_defaults(func=cmd_examples)

    selftest = sub.add_parser(
        "selftest", help="cross-check solvers against brute force"
    )
    selftest.add_argument("--instances", type=int, default=100)
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument(
        "--max-vertices", type=int, default=5, help="instance sizes cycle 2..N"
    )
    selftest.add_argument("--capacity", type=int, default=2)
    selftest.add_argument("--arc-probability", type=float, default=0.4)
    selftest.add_argument(
        "--assignment-budget",
        type=int,
        default=50_000,
        help="skip the assignment oracle above this space size",
    )
    selftest.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        where = f"{args.command} {args.file}" if "file" in args else args.command
        print(f"error: out of memory in {where}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FullFlowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
