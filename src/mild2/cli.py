"""Command-line interface.

Subcommands: linking, present, reduce, check-mild, augment, series, dims,
oracle, basis, selftest.  Exit codes: 0 success (and mild verdicts),
2 input errors, 3 not_shown, 4 inapplicable, 5 resource-guard stops
(memory cap, exhausted augmentation bound, partition search limit once the
parity split fails, basis word limit, series size limit) and an allocation
that fails before a guard stops the request, 70 an unexpected
internal error (one "error: internal:" line); the oracle subcommand exits 1
on a dimension mismatch.  Every refusal is one "error: ..." line on stderr.

Each input rule is checked in one place.  The parser declares each shared
flag once, in a parent parser, and refuses what argparse can: a bad int or
choice, an unknown or missing flag, --primes with --in.  The library refuses
the values: a memory cap below 1 in check_mild and the oracle, presentation
JSON in the records it builds.

A launch loads only what its subcommand runs.  The parser needs arith alone
(defaults, ring names, guard errors), and each handler imports its own
modules: series and dims load series; linking, present and reduce load
linking; check-mild and augment add mildness and gf2; oracle, basis and
check-mild --oracle-depth load quadlie (oracle also oracle and series);
selftest loads everything.
"""

from __future__ import annotations

import argparse
import sys

from .arith import DEFAULT_MEMORY_CAP_MIB, DEFAULT_PRIME_BOUND, RINGS, BoundExceededError, MemoryGuardError

_EXIT_BY_VERDICT = {"mild": 0, "not_shown": 3, "inapplicable": 4}
_RINGS = {ring.lower(): ring for ring in RINGS}
DEFAULT_MAX_DEGREE = 6


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}") from exc


def _json_int(text: str) -> int:
    """A JSON integer literal, refused past 4300 digits as under Python's
    default limit, which main lifts: int() takes time quadratic in the digits."""
    digits = len(text.lstrip("-"))
    if digits > 4300:
        raise ValueError(f"a JSON integer has {digits} digits, more than 4300")
    return int(text)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _load_presentation(args):
    import json

    from .linking import Presentation, koch_presentation

    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle, parse_int=_json_int)
            except RecursionError:
                raise ValueError(f"{args.infile}: JSON nested too deeply") from None
        return Presentation.from_json_dict(data)
    return koch_presentation(_parse_ints(args.primes, "--primes"))


def _cmd_linking(args) -> int:
    from .linking import linking_data

    data = linking_data(_parse_ints(args.primes, "--primes"))
    _emit(args, data.to_json_dict(), data.text())
    return 0


def _cmd_present(args) -> int:
    from .linking import koch_presentation

    pres = koch_presentation(_parse_ints(args.primes, "--primes"))
    _emit(args, pres.to_json_dict(), pres.text())
    return 0


def _cmd_reduce(args) -> int:
    from .linking import eliminate_generator

    pres = _load_presentation(args)
    reduced = eliminate_generator(pres, args.t)
    _emit(args, reduced.to_json_dict(), reduced.text())
    return 0


def _cmd_check_mild(args) -> int:
    from .mildness import check_mild

    pres = _load_presentation(args)
    report = check_mild(
        pres,
        oracle_depth=args.oracle_depth,
        oracle_ring=_RINGS[args.ring],
        memory_cap_mib=args.memory_cap_mib,
    )
    _emit(args, report.to_json_dict(), report.text())
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_augment(args) -> int:
    from .linking import augment

    result = augment(_parse_ints(args.seed, "--seed"), args.bound)
    lines = [
        f"seed (normalized) = {result.seed}",
        f"q_aux = {result.q_aux}",
        f"q_last = {result.q_last}",
        f"S = {result.S}",
        f"attempts = {result.attempts}",
    ]
    _emit(args, result.to_json_dict(), "\n".join(lines))
    return 0


def _signature_from(args):
    from .series import WeightSignature, check_series_size

    if (args.e is not None or args.h is not None) and (args.d is not None or args.m is not None):
        raise ValueError("give --e/--h or --d/--m, not both")
    if args.e is not None:
        return WeightSignature(_parse_ints(args.e, "--e"), _parse_ints(args.h or "", "--h"))
    if args.d is not None:
        if args.d < 1:
            raise ValueError(f"--d must be >= 1, got {args.d}")
        if args.m is not None and args.m < 0:
            raise ValueError(f"--m must be >= 0, got {args.m}")
        check_series_size(args.d + (args.m or 0), 2 if args.m else 1, args.max)
        return WeightSignature((1,) * args.d, (2,) * (args.m or 0))
    raise ValueError("provide --e/--h or --d/--m")


def _cmd_series(args) -> int:
    from .series import gamma_series, strongly_free_series

    sig = _signature_from(args)
    fn = strongly_free_series if args.kind == "strongly-free" else gamma_series
    series = fn(sig, args.max)
    kind = "strongly_free_series" if args.kind == "strongly-free" else "gamma_series"
    payload = {"kind": kind, "e": list(sig.e), "h": list(sig.h), "start": 0, "values": list(series.coeffs)}
    _emit(args, payload, "\n".join(f"{n}: {c}" for n, c in series.pairs()))
    return 0


def _cmd_dims(args) -> int:
    from .series import NonRealizableError, lower_central_dims, reduced_dims_bn, zassenhaus_dims

    try:
        if args.kind == "zassenhaus":
            if args.d is None:
                raise ValueError("--kind zassenhaus needs --d (and optionally --m)")
            if args.e is not None or args.h is not None:
                raise ValueError("--kind zassenhaus takes --d/--m, not --e/--h")
            seq = zassenhaus_dims(args.d, args.m or 0, args.max)
            extra = {"d": args.d, "m": args.m or 0}
        else:
            sig = _signature_from(args)
            extra = {"e": list(sig.e), "h": list(sig.h)}
            if args.kind == "reduced-b":
                seq = reduced_dims_bn(sig, args.max)
            else:
                seq = lower_central_dims(sig, args.max)
                extra["note"] = (
                    "a(1) counts weight-1 generators; a(n) for n >= 2 is the partial sum"
                    " b(2) + ... + b(n) of the reduced dimensions"
                )
    except NonRealizableError as exc:
        diag = {
            "kind": args.kind,
            "error": {"n": exc.n, "value": str(exc.value), "reason": exc.reason},
            "diagnosis": "not realizable by a strongly free sequence",
        }
        _emit(args, diag, f"not realizable by a strongly free sequence: {exc}")
        return 0
    _emit(args, {**seq.to_json_dict(), **extra}, "\n".join(f"{n}: {v}" for n, v in seq.pairs()))
    return 0


def _cmd_oracle(args) -> int:
    from .linking import eliminate_generator
    from .oracle import strongly_free_oracle

    pres = _load_presentation(args)
    if pres.product_relation is not None and any(pres.product_relation):
        pres = eliminate_generator(pres)
    ring = _RINGS[args.ring]
    result = strongly_free_oracle(
        pres.relators, args.max, ring=ring, memory_cap_mib=args.memory_cap_mib
    )
    verdict = "match" if result.match else f"mismatch at degree {result.mismatch_degree}"
    text = "\n".join(
        [
            f"ring = {result.ring}",
            result.profile.table(),
            f"expected = {list(result.expected_dims)}",
            f"verdict = {verdict}",
        ]
    )
    _emit(args, result.to_json_dict(), text)
    return 0 if result.match else 1


def _cmd_basis(args) -> int:
    from .quadlie import WeightedAlphabet, bracket_weight, elimination_basis, enumerate_y, render_bracket

    alphabet = WeightedAlphabet(_parse_ints(args.weights, "--weights"))
    if args.kind == "y":
        words = enumerate_y(alphabet, args.max)
        grouped = {deg: [render_bracket(w) for w in ws] for deg, ws in words.items()}
        payload = {
            "kind": "y",
            "weights": list(alphabet.weights),
            "by_degree": {str(deg): ws for deg, ws in grouped.items()},
        }
        lines = []
        for deg, ws in grouped.items():
            lines.append(f"degree {deg} (count {len(ws)}):")
            lines.extend(f"  {w}" for w in ws)
        _emit(args, payload, "\n".join(lines))
        return 0
    if args.sigma is None:
        raise ValueError("--kind elimination needs --sigma")
    sigma = _parse_ints(args.sigma, "--sigma")
    words = [
        {"weight": bracket_weight(w, alphabet), "word": render_bracket(w)}
        for w in elimination_basis(alphabet, sigma, args.max)
    ]
    payload = {
        "kind": "elimination",
        "weights": list(alphabet.weights),
        "sigma": sorted(set(sigma)),
        "words": words,
    }
    _emit(args, payload, "\n".join(f"{w['weight']}: {w['word']}" for w in words))
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    ok = run_all(stream=sys.stdout)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Refuses a command line as main refuses other input: one "error: ..."
    line and exit 2, without the usage block.  Subparsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the flags that several subcommands share, each declared once; --primes
    # is required alone for linking and present, and against --in for the rest
    primes = _Parser(add_help=False)
    primes.add_argument("--primes", required=True, help="comma-separated odd primes")
    source = _Parser(add_help=False)
    either = source.add_mutually_exclusive_group(required=True)
    either.add_argument("--primes", help="comma-separated odd primes")
    either.add_argument("--in", dest="infile", help="presentation JSON file")
    oracle_args = _Parser(add_help=False)
    oracle_args.add_argument("--ring", choices=sorted(_RINGS), default="f2")
    oracle_args.add_argument("--memory-cap-mib", type=int, default=DEFAULT_MEMORY_CAP_MIB)
    signature = _Parser(add_help=False)
    signature.add_argument("--e", help="generator weights, e.g. 1,1,1,1")
    signature.add_argument("--h", help="relator weights, e.g. 2,2,2,2")
    signature.add_argument("--d", type=int, help="shorthand: d weight-1 generators")
    signature.add_argument("--m", type=int, help="shorthand: m degree-2 relators")
    signature.add_argument("--max", type=int, default=DEFAULT_MAX_DEGREE)

    parser = _Parser(prog="mild2", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, fmt="text", **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--format", choices=("text", "json"), default=fmt)
        return p

    add("linking", _cmd_linking, parents=[primes], help="square classes and linking matrix of a prime set")
    add("present", _cmd_present, parents=[primes], help="quadratic presentation induced by a prime set")

    p = add("reduce", _cmd_reduce, parents=[source], help="eliminate one generator through the product relation")
    p.add_argument("--t", type=int, default=None, help="generator to eliminate (default: last usable)")

    p = add("check-mild", _cmd_check_mild, fmt="json", parents=[source, oracle_args], help="run the mildness pipeline")
    p.add_argument("--oracle-depth", type=int, default=None)

    p = add("augment", _cmd_augment, fmt="json", help="search for a mild augmentation of a seed")
    p.add_argument("--seed", required=True, help="comma-separated odd primes")
    p.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND)

    p = add("series", _cmd_series, parents=[signature], help="strongly free dimension series of a weight signature")
    p.add_argument("--kind", choices=("strongly-free", "gamma"), default="strongly-free")

    p = add("dims", _cmd_dims, parents=[signature], help="derived dimension sequences")
    p.add_argument("--kind", choices=("reduced-b", "lower-central", "zassenhaus"), required=True)

    p = add(
        "oracle",
        _cmd_oracle,
        parents=[source, oracle_args],
        help="quotient dimensions on normal words vs the predicted series",
    )
    p.add_argument("--max", type=int, default=DEFAULT_MAX_DEGREE)

    p = add("basis", _cmd_basis, help="basis-word enumerations")
    p.add_argument("--kind", choices=("y", "elimination"), required=True)
    p.add_argument("--weights", required=True, help="letter weights, e.g. 1,1,2")
    p.add_argument("--sigma", help="chain letters for --kind elimination, e.g. 1,2")
    p.add_argument("--max", type=int, default=DEFAULT_MAX_DEGREE)

    add("selftest", _cmd_selftest, help="run the acceptance checks")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a series coefficient may have more digits than str() converts by default
    # (4300 from Python 3.10.7 on); lifted for the handler only, so that an
    # in-process caller keeps its own limit
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # NoEliminableGeneratorError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundExceededError, MemoryGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MemoryError:  # a cap above what the process can get lets an allocation fail first
        print("error: out of memory before a resource guard stopped the request", file=sys.stderr)
        return 5
    except Exception as exc:  # a fault in mild2 itself; 1 would read as an oracle mismatch
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70
    finally:
        if set_digits is not None:
            set_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
