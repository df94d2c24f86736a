"""Command-line entry point.

Subcommands: ``threshold`` (degree bounds for one pair), ``construct`` (emit
a family member), ``check`` (run predicates on a graph file), ``verify``
(exhaustive or sampled sweep), ``characterize`` (classify the exceptional
graphs), and ``facts`` (exact-arithmetic scans).  Human-readable summaries go
to stdout; machine-readable reports go to ``--out`` paths.

Exit codes: 0 all assertions passed, 1 counterexample or failed assertion
(report still written), 2 invalid input or flags, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .conditions import (
    chvatal_bipartite_condition,
    is_strongly_dominating,
)
from .families import FamilySpec
from .graphs import (
    CycleCertificate,
    GraphError,
    SizeGuardError,
    decode,
    encode,
    export_dot,
    independence_number,
    vertex_connectivity,
)
from .harness import (
    characterization_check,
    exhaustive_verify,
    facts_report,
    sample_verify,
    tightness_scan,
)
from .solver import find_hamiltonian_cycle, non_hamiltonicity_witness, witness_to_payload
from .thresholds import (
    ThresholdProfile,
    classify_rounding,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamparts",
        description="Exact Hamiltonicity threshold toolkit for balanced k-partite graphs.",
    )
    parser.add_argument("--version", action="version", version=f"hamparts {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="print the degree threshold profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("construct", help="emit an extremal family member")
    p.add_argument("--family", choices=["F", "F1", "F2", "F3"])
    p.add_argument("--spec", help="path to a family spec document")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sizes", help="comma-separated carve-out sizes for family F")
    p.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family-specific option (see README for keys)",
    )
    p.add_argument("--format", choices=["g6", "dot"], default="g6")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("check", help="run predicates on a graph file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--ham", action="store_true")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--kappa", action="store_true")
    p.add_argument("--chvatal", action="store_true")
    p.add_argument("--sides", default="0,1", help="U,V part ids for --chvatal")
    p.add_argument("--dominating", action="store_true")
    p.add_argument("--cycle", help="comma-separated cycle for --dominating")

    p = sub.add_parser("verify", help="exhaustive or sampled Hamiltonicity sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--floor", type=int, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--sample", type=int, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--shard", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("characterize", help="classify exceptional graphs at n = 2k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("facts", help="exact-arithmetic scans")
    p.add_argument("--k-max", type=int, default=200)
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--out", default=None)

    p = sub.add_parser("tightness", help="scan the threshold-minus-one family")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--out", default=None)

    return parser


def _refuse_flags(args, mode: str, keys: tuple[str, ...], reason: str) -> None:
    """Refuse the flags among ``keys`` that were given but that ``mode`` ignores."""
    given = [f"--{key}" for key in keys if getattr(args, key) not in (None, [])]
    if given:
        raise GraphError(f"{mode} takes no {', '.join(given)}; {reason}")


def _cmd_threshold(args) -> int:
    profile = ThresholdProfile.compute(args.n, args.k)
    print(f"n={profile.n} k={profile.k} m={profile.m}")
    print(f"threshold={profile.theorem_threshold}")
    print(f"cfgjl_bound={profile.cfgjl_bound}")
    print(f"rounding={classify_rounding(args.n, args.k)}")
    print(f"exception={'true' if profile.is_exception else 'false'}")
    print(f"required_degree={profile.required_degree}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.spec:
        _refuse_flags(
            args, "--spec", ("family", "k", "m", "sizes", "option"), "put them in the spec file"
        )
        with open(args.spec, encoding="ascii") as handle:
            text = handle.read()
    else:
        if not args.family:
            raise GraphError("construct needs --family or --spec")
        lines = [f"family: {args.family}"]
        for key in ("k", "m", "sizes"):
            if getattr(args, key) is not None:
                lines.append(f"{key}: {getattr(args, key)}")
        for item in args.option:
            key, sep, value = item.partition("=")
            # Each option must become exactly one spec line, and not a comment.
            if not sep or item.splitlines() != [item] or key.strip().startswith("#"):
                raise GraphError(f"option {item!r} is not KEY=VALUE")
            lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    spec = FamilySpec.from_text(text)
    graph = spec.build()
    text = export_dot(graph) if args.format == "dot" else encode(graph)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    with open(args.path, encoding="ascii") as handle:
        graph = decode(handle.read())
    if args.ham:
        cycle = find_hamiltonian_cycle(graph)
        if cycle is None:
            witness = non_hamiltonicity_witness(graph)
            detail = ""
            if witness is not None:
                detail = f" witness={witness_to_payload(witness)}"
            print(f"ham: none{detail}")
        else:
            print("ham: " + ",".join(str(v) for v in cycle.vertices))
    if args.alpha:
        print(f"alpha: {independence_number(graph)}")
    if args.kappa:
        print(f"kappa: {vertex_connectivity(graph)}")
    if args.chvatal:
        try:
            u_part, v_part = (int(t) for t in args.sides.split(","))
        except ValueError as exc:
            raise GraphError(f"--sides must be 'U,V' part ids, got {args.sides!r}") from exc
        if sorted((u_part, v_part)) != [0, 1]:
            raise GraphError(f"--sides must name parts 0 and 1, got {args.sides!r}")
        verdict = chvatal_bipartite_condition(graph, u_part=u_part)
        print(f"chvatal: {'true' if verdict else 'false'}")
    if args.dominating:
        if not args.cycle:
            raise GraphError("--dominating needs --cycle")
        try:
            vertices = tuple(int(t) for t in args.cycle.split(","))
        except ValueError as exc:
            raise GraphError(
                f"--cycle must be comma-separated vertex ids, got {args.cycle!r}"
            ) from exc
        cert = CycleCertificate(vertices)
        verdict = is_strongly_dominating(graph, cert)
        print(f"dominating: {'true' if verdict else 'false'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.sample is not None:
        _refuse_flags(
            args, "--sample", ("shards", "shard", "jobs"), "they split exhaustive sweeps"
        )
        report = sample_verify(
            args.n, args.k, args.sample, args.seed, degree_floor=args.floor
        )
    else:
        report = exhaustive_verify(
            args.n,
            args.k,
            args.floor,
            shards=args.shards if args.shards is not None else 1,
            shard_id=args.shard,
            jobs=args.jobs if args.jobs is not None else 1,
        )
    report.write(args.out)
    counters = " ".join(f"{key}={value}" for key, value in sorted(report.counters.items()))
    print(f"kind={report.kind} {counters}")
    print(f"counterexamples={len(report.counterexamples)} exceptional={len(report.exceptional)}")
    print(f"report={args.out}")
    return EXIT_OK if report.ok else EXIT_FAILED


def _cmd_characterize(args) -> int:
    report = characterization_check(args.n, args.k, shards=args.shards, jobs=args.jobs)
    report.write(args.out)
    classified: dict[str, int] = {}
    for entry in report.exceptional:
        label = entry.get("classification") or "unrecognized"
        classified[label] = classified.get(label, 0) + 1
    counts = " ".join(f"{label}={count}" for label, count in sorted(classified.items()))
    print(f"non_hamiltonian={len(report.exceptional)} {counts}")
    print(f"report={args.out}")
    return EXIT_OK if report.ok else EXIT_FAILED


def _cmd_facts(args) -> int:
    report = facts_report(args.k_max, args.m_max)
    if args.out:
        report.write(args.out)
    for name, count in sorted(report.counters.items()):
        print(f"{name}: checked={count}")
    if report.counterexamples:
        for entry in report.counterexamples:
            print(f"violation: {entry}")
        return EXIT_FAILED
    print("all facts hold")
    return EXIT_OK


def _cmd_tightness(args) -> int:
    report = tightness_scan(args.k_max, args.m_max)
    if args.out:
        report.write(args.out)
    counters = " ".join(f"{key}={value}" for key, value in sorted(report.counters.items()))
    print(counters)
    if report.counterexamples:
        for entry in report.counterexamples:
            print(f"failure: k={entry['k']} m={entry['m']}: {entry['failure']}")
        return EXIT_FAILED
    print("all members tight")
    return EXIT_OK


_COMMANDS = {
    "threshold": _cmd_threshold,
    "construct": _cmd_construct,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "characterize": _cmd_characterize,
    "facts": _cmd_facts,
    "tightness": _cmd_tightness,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
