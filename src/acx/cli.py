"""Command-line front end.

Words are strings of ASCII digits (one character per letter, alphabet
size at most 10 on the command line), and integers are ASCII digits with
an optional leading '-'.  Output is plain text by default and JSON with
--json; identical invocations produce byte-identical output.  Exit codes:
0 success, 1 domain error (a ValueError from the library, printed as an
``error:`` line) or a reader that closed stdout early, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import complexity, experiments, gf2poly, modular, nfa, words


def _integer(text: str) -> int:
    """An argparse type for integers: an optional '-', then ASCII digits.

    int() alone would also read other scripts' digits, '_', '+' and spaces.
    """
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more than 4300 digits
            pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _fraction(text: str) -> Fraction:
    """An argparse type for rationals such as 3/2, 1.5 or 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}") from None


def _positive_fraction(text: str) -> Fraction:
    """An argparse type for rationals above 0."""
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a fraction above 0, got {text!r}")
    return value


def _emit_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _printable(w: words.Word) -> words.Word:
    """w itself, if its alphabet fits one digit per letter."""
    if w.k > 10:
        raise ValueError("command-line words are limited to alphabet size 10")
    return w


def _parse_word(text: str, alphabet: Optional[int]) -> words.Word:
    return _printable(words.Word.from_text(text, k=alphabet))


def _write_dot(path: Optional[str], automaton: nfa.Nfa) -> None:
    if path is not None:
        text = nfa.to_dot(automaton)
        try:
            with open(path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_compute(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    result = complexity.an_exact(w, jobs=args.jobs)
    _write_dot(args.dot, result.witness)
    if args.json:
        _emit_json({"word": str(w), "k": w.k, **result.to_json_dict()})
    else:
        cert = result.certificate
        print(f"A_N = {result.value}")
        print(
            f"witness: {result.witness.q} states, "
            f"{len(result.witness.transitions)} transitions, "
            f"finals={sorted(result.witness.finals)}"
        )
        print(
            f"certificate: states_ruled_out={cert.states_ruled_out} "
            f"search_nodes={cert.search_nodes} mode={cert.search_mode}"
        )
    return 0


def _cmd_bound(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    result = complexity.power_upper_bound(w)
    _write_dot(args.dot, result.witness)
    hyde = complexity.hyde_bound(len(w))
    if args.json:
        _emit_json({"word": str(w), **result.to_json_dict(), "hyde_bound": hyde})
    else:
        print(f"power bound: {result.bound} (exponent {result.exponent})")
        print(f"hyde bound: {hyde}")
    return 0


def _cmd_classify(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    value = complexity.an_exact(w, searches={}).value
    member = value * args.c > len(w)
    if args.json:
        _emit_json(
            {"word": str(w), "k": w.k, "c": args.c, "value": value, "member": member}
        )
    else:
        print(f"A_N = {value}, |w| = {len(w)}, c = {args.c}")
        print(f"member of the high-complexity class: {'true' if member else 'false'}")
    return 0


def _cmd_simple(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    value = complexity.an_exact(w, searches={}).value
    bound = complexity.hyde_bound(len(w))
    simple = value < bound
    if args.json:
        _emit_json({"word": str(w), "value": value, "bound": bound, "simple": simple})
    else:
        print(f"A_N-simple: {'true' if simple else 'false'} (A_N = {value}, bound = {bound})")
    return 0


def _cmd_power(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    spec = words.PowerSpec(w, args.exp)
    if spec.length > _MAX_LETTERS:
        raise ValueError(f"power builds at most {_MAX_LETTERS} letters")
    result = words.power(spec)
    if args.json:
        _emit_json({"base": str(w), "exponent": str(spec.exponent), "power": str(result)})
    else:
        print(result)
    return 0


def _cmd_squarefree(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    occ = words.contains_square(w)
    if args.json:
        _emit_json(
            {
                "word": str(w),
                "squarefree": occ is None,
                "occurrence": None
                if occ is None
                else {"start": occ.start, "period": occ.period, "length": occ.length},
            }
        )
    elif occ is None:
        print("squarefree")
    else:
        print(f"square occurrence: start={occ.start} period={occ.period} length={occ.length}")
    return 0


def _cmd_overlapfree(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    free = words.is_overlap_free(w)
    if args.json:
        _emit_json({"word": str(w), "overlap_free": free})
    else:
        print("overlap-free" if free else "contains an overlap")
    return 0


def _cmd_shuffle(args) -> int:
    x = _parse_word(args.x, args.alphabet)
    y = _parse_word(args.y, args.alphabet)
    print(words.shuffle(x, y))
    return 0


def _cmd_morphism(args) -> int:
    w = _parse_word(args.word, args.alphabet)
    print(words.apply_morphism(words.brandenburg(), w))
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(_integer(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_construct(args) -> int:
    if args.n > _MAX_LETTERS:
        raise ValueError(f"construct builds at most {_MAX_LETTERS} letters, got --n {args.n}")
    positions = _parse_int_list(args.positions)
    bits = _parse_int_list(args.bits)
    constraint = modular.PositionConstraint(
        n=args.n, positions=positions, bits=bits, k=args.alphabet
    )
    mode = "smallest_prime" if args.prime else "smallest_integer"
    witness = modular.build_low_complexity_word(
        constraint, mode, fill=None if args.keep_wildcards else 0
    )
    _printable(witness.word)
    if args.dot is not None:
        cycle = complexity.cyclic_witness(
            witness.word, Fraction(constraint.n, witness.modulus)
        )
        _write_dot(args.dot, cycle)
    if args.json:
        _emit_json(witness.to_json_dict())
    else:
        print(f"m = {witness.modulus}")
        print(f"z = {witness.template_text}")
        print(f"x = {witness.word}")
        print(f"bound = {witness.modulus}")
    return 0


def _cmd_table(args) -> int:
    table = modular.table_best_bound(args.max_c, args.max_n)
    if args.json:
        _emit_json(
            {
                "max_c": args.max_c,
                "max_n": args.max_n,
                "table": [[v for v in row] for row in table],
            }
        )
    elif args.csv:
        print(modular.table_csv(table), end="")
    else:
        print(modular.format_table(table), end="")
    return 0


# the most letters power and construct build: construct peaks near 181 MB
# of resident memory at this length, which grows in proportion to it
_MAX_LETTERS = 10**7

# the most digits primorial prints, Python's default int-to-str limit
_PRIMORIAL_DIGITS = 4300


def _cmd_primorial(args) -> int:
    x = args.x
    # ln(x#) = theta(x) > x(1 - 1/ln x) for x >= 41, so a large x is refused
    # before the sieve, and a smaller one by its exact product
    fits = x < 41 or x * (1 - 1 / math.log(x)) < _PRIMORIAL_DIGITS * math.log(10)
    value = modular.primorial(x) if fits else None
    if value is None or value >= 10**_PRIMORIAL_DIGITS:
        raise ValueError(
            f"primorial prints at most {_PRIMORIAL_DIGITS} digits, and the product of "
            f"the primes up to {x} has more; `acx theta {x}` gives its natural logarithm"
        )
    print(value)
    return 0


def _cmd_theta(args) -> int:
    print(modular.chebyshev_theta(args.x))
    return 0


_GF2_FAMILIES = {"or": gf2poly.or_poly, "an1": gf2poly.constant_indicator_poly}


def _cmd_gf2_family(args) -> int:
    poly = _GF2_FAMILIES[args.operation](args.vars)
    if args.json:
        _emit_json(
            {
                "n": poly.n,
                "degree": gf2poly.degree(poly),
                "monomials": len(poly.monomials),
                "poly": gf2poly.format_poly(poly),
            }
        )
    else:
        print(gf2poly.format_poly(poly))
    return 0


def _cmd_gf2_degree(args) -> int:
    poly = gf2poly.parse_poly(args.poly, n=args.vars)
    deg = gf2poly.degree(poly)
    if args.json:
        _emit_json({"poly": gf2poly.format_poly(poly), "degree": deg})
    else:
        print("zero polynomial" if deg is None else deg)
    return 0


def _cmd_gf2_anf(args) -> int:
    poly = gf2poly.anf_from_truth_table(args.table)
    if args.json:
        _emit_json(
            {
                "table": args.table,
                "poly": gf2poly.format_poly(poly),
                "degree": gf2poly.degree(poly),
            }
        )
    else:
        print(gf2poly.format_poly(poly))
    return 0


def _cmd_survey(args) -> int:
    report = experiments.survey(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        epsilon=args.eps,
        k=args.alphabet,
        jobs=args.jobs,
    )
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"n = {report.n}, k = {report.k}, samples = {report.samples}, seed = {report.seed}")
        print(f"mean ratio = {report.mean}")
        print(f"median ratio = {report.median}")
        print(f"fraction within {report.epsilon} of 1: {report.within_epsilon}")
        for ratio, freq in report.distribution:
            print(f"  {ratio}: {freq}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "paper":
        report = experiments.verify_reference_word()
        family = experiments.shuffle_family_check(8)
        data = {"reference_word": report, "shuffle_family": family, "ok": family["ok"]}
        ok = family["ok"]
    elif args.suite == "oracle":
        sweep = experiments.oracle_cross_check(n_max=args.n_max)
        data = sweep.to_json_dict()
        ok = sweep.ok
    else:
        sweep = experiments.sandwich_check(n_max=args.n_max)
        data = sweep.to_json_dict()
        ok = sweep.ok
    # the report is always JSON
    _emit_json(data)
    if not ok:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acx",
        description="Exact nondeterministic automatic complexity and friends.",
    )
    # build_parser runs on every main call; an explicit prog spares argparse
    # formatting a usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog="acx")

    def word_cmd(name, func, help_text, with_json=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word", help="word as a digit string")
        p.add_argument("--alphabet", type=_positive, default=None,
                       help="alphabet size (default: 1 + largest digit)")
        if with_json:
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    def add_dot(p):
        p.add_argument("--dot", default=None, metavar="PATH",
                       help="write the witness automaton as Graphviz DOT")

    p = word_cmd("compute", _cmd_compute, "exact A_N with witness and certificate")
    add_dot(p)
    p.add_argument("--jobs", type=_positive, default=1,
                   help="checked to be at least 1; one word is searched in one process")
    add_dot(word_cmd("bound", _cmd_bound, "cyclic power upper bound and hyde bound"))
    p = word_cmd("classify", _cmd_classify, "is A_N(w) > |w|/c")
    p.add_argument("--c", type=_positive, required=True)
    word_cmd("simple", _cmd_simple, "is A_N(w) below the universal bound")
    p = word_cmd("power", _cmd_power, "fractional power of a word")
    p.add_argument("--exp", type=_fraction, required=True, help="exponent p/q")
    word_cmd("squarefree", _cmd_squarefree, "test squarefreeness")
    word_cmd("overlapfree", _cmd_overlapfree, "test overlap-freeness")

    p = sub.add_parser("shuffle", help="perfect shuffle of two words")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--alphabet", type=_positive, default=None)
    p.set_defaults(func=_cmd_shuffle)

    word_cmd("morphism", _cmd_morphism, "apply Brandenburg's squarefree-preserving morphism",
             with_json=False)

    p = sub.add_parser("construct", help="low-complexity word matching position constraints")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--positions", required=True, help="comma-separated positions")
    p.add_argument("--bits", required=True, help="comma-separated letters")
    p.add_argument("--prime", action="store_true", help="use the smallest prime modulus")
    p.add_argument("--alphabet", type=_positive, default=2)
    p.add_argument("--keep-wildcards", action="store_true",
                   help="render unconstrained cells as a fresh letter instead of 0")
    p.add_argument("--json", action="store_true")
    add_dot(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("table", help="worst-case best bound by constraint count and length")
    p.add_argument("--max-c", type=_nonnegative, default=6)
    p.add_argument("--max-n", type=_nonnegative, default=6)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--csv", action="store_true")
    form.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("primorial", help="product of primes up to x")
    p.add_argument("x", type=_integer)
    p.set_defaults(func=_cmd_primorial)

    p = sub.add_parser("theta", help="Chebyshev theta: sum of ln p for primes p <= x")
    p.add_argument("x", type=_integer)
    p.set_defaults(func=_cmd_theta)

    gf2 = sub.add_parser("gf2", help="multilinear GF(2) polynomial operations")
    operations = gf2.add_subparsers(dest="operation", required=True, prog="acx gf2")

    def gf2_cmd(name, func, help_text):
        p = operations.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    for name, help_text in (("or", "the OR of n variables"),
                            ("an1", "the indicator of the two constant words")):
        p = gf2_cmd(name, _cmd_gf2_family, help_text)
        p.add_argument("--vars", type=_integer, required=True)
    p = gf2_cmd("degree", _cmd_gf2_degree, "degree of a polynomial such as xy+x+y")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=_integer, default=None)
    p = gf2_cmd("anf", _cmd_gf2_anf, "algebraic normal form of a truth table")
    p.add_argument("--table", required=True)

    p = sub.add_parser("survey", help="empirical concentration of A_N on random words")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--samples", type=_positive, default=200)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--eps", type=_positive_fraction, default="1/3",
                   help="tolerance as p/q, above 0")
    p.add_argument("--alphabet", type=_positive, default=2)
    p.add_argument("--jobs", type=_positive, default=1,
                   help="worker processes, at most one per CPU, sharing the samples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("paper", "oracle", "sandwich"), required=True)
    p.add_argument("--n-max", type=_nonnegative, default=6)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every rejected input raises ValueError, a domain error here; any other
    # exception is a fault and propagates
    try:
        code = args.func(args)
        # a reader that has gone shows here at the latest, not at exit
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what stdout still holds goes nowhere, so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
