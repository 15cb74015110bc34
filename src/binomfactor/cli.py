"""Command-line front-end.

Subcommands mirror the library: `decompose`, `identity <kind>`, `bounds`,
`logk`.  The parser alone declares what a command line may say: one
subparser per identity kind with only its own flags, the common flags
after the command, and the handler each command runs as ``run``.
Output is deterministic: identical invocations produce byte-identical
JSON.  Each record is written from its dataclass's fields.  Exit codes:
0 ok, 2 domain error or malformed command line, 3 verification failure
(returned by the handler once its output is written), 4 spec rejection
(non-alternating combination).

The sieve budget comes from --sieve-limit, the BINOMFACTOR_SIEVE_LIMIT
environment variable, or the 10^7 default; a command whose arguments
imply a larger table than the budget is refused up front.  Tables are
built only as large as the requested computation needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from collections.abc import Sequence

from . import __version__
from .chebyshev import (PSI_BOUNDS_LEDGER, PSI_RATIO_SPEC, CombinationSpec,
                        CombinationTerm, derive_bounds, psi_variant_bounds)
from .decomposition import decompose, equivalence_check, pretty_chunks
from .errors import DomainError, NonAlternatingError, OutOfRangeError
from .identities import (FactorialRatioSpec, alternating_pi_sum,
                         bertrand_check, factorial_ratio_report,
                         omega_identity_report)
from .logseries import partial_sum
from .primes import DEFAULT_LIMIT, MAX_LIMIT, PrimeTable, _as_int, _floor_real, _shown

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_REJECTED = 4


#: The default `bounds` spec, the classical pi(x) combination.
_CLASSICAL_SPEC = "+1/2:1/6,+1/3:1/12,-1/10:1/60"

#: One term of a `bounds` spec: a sign, then 1/a, ":", 1/b, spaces allowed
#: around each part.
_TERM = re.compile(r"\s*([+-]?)\s*1\s*/\s*(\d+)\s*:\s*1\s*/\s*(\d+)\s*")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise `DomainError`, so a malformed
    command line exits 2 through `main` like any other bad input."""

    def error(self, message):
        raise DomainError(message)


def _env_sieve_limit() -> int:
    raw = os.environ.get("BINOMFACTOR_SIEVE_LIMIT")
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"BINOMFACTOR_SIEVE_LIMIT={raw!r} is not an integer") from exc


def _parse_ints(raw: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad {what} {raw!r}; expected comma-separated integers") from exc


def _table(args, needed: int) -> PrimeTable:
    """A table up to `needed` (no larger), refused past the sieve budget."""
    if needed > args.sieve_limit:
        raise OutOfRangeError(
            f"computation needs sieve limit {_shown(needed)}, but the configured "
            f"budget is {args.sieve_limit} (raise --sieve-limit or "
            f"BINOMFACTOR_SIEVE_LIMIT)")
    return PrimeTable(max(needed, 2))


def _k_grid(args, scale: int) -> tuple[list[int], PrimeTable]:
    """The k of an identity (--grid, else --k) and the table up to scale * max k."""
    ks = [args.k] if args.grid is None else _parse_ints(args.grid, "grid")
    if not ks or any(k < 1 for k in ks):
        raise DomainError(f"identity {args.kind} needs k >= 1 from --k or --grid")
    return ks, _table(args, scale * max(ks))


def _parse_combination(raw: str) -> CombinationSpec:
    """Parse "+1/2:1/6,+1/3:1/12,-1/10:1/60" into a CombinationSpec, one
    `_TERM` per comma-separated token (empty tokens skipped)."""
    terms = []
    for tok in filter(str.strip, raw.split(",")):
        match = _TERM.fullmatch(tok)
        if match is None:
            raise DomainError(f"bad combination term {tok.strip()!r}; expected like +1/2:1/6")
        sign, a, b = match.groups()
        try:
            a, b = int(a), int(b)
        except ValueError as exc:  # past int's limit on the digits it reads
            raise DomainError(f"combination term {tok.strip()!r} has too many digits") from exc
        terms.append(CombinationTerm(-1 if sign == "-" else 1, a, b))
    return CombinationSpec(tuple(terms))


def _emit(args, payload, pretty_lines: Sequence[str] = (),
          csv_rows: list[dict] | None = None) -> None:
    """Write the output in ``args.format`` to ``--out`` or stdout.

    ``payload`` is the object to encode, or an iterable of the text chunks
    of the output in ``args.format``, written as they come (decompose
    passes the renderers of the decomposition module)."""
    if not isinstance(payload, dict):
        chunks = payload
    elif args.format == "pretty":
        chunks = ["\n".join(pretty_lines) + "\n"]
    elif args.format == "json":
        chunks = [json.dumps(payload, sort_keys=True, indent=2) + "\n"]
    else:
        rows = csv_rows if csv_rows is not None else [payload]
        buf = io.StringIO()
        fields = sorted({key for row in rows for key in row})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
        chunks = [buf.getvalue()]
    # a failed open or write (a missing directory, a full disk, a reader
    # that closed the pipe) is refused like any bad input
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # what the failed write left buffered goes to the null device
            # when the interpreter flushes stdout at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = f"--out {args.out!r}" if args.out else "stdout"
        raise DomainError(f"cannot write {where}: {exc.strerror}") from exc


def _csv_cell(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


# -- subcommands --------------------------------------------------------


def _cmd_decompose(args) -> int:
    if args.exact and args.format != "pretty":
        raise DomainError(f"--exact applies only to --format pretty, got --format {args.format}")
    if args.format == "json":
        chunks = decompose(args.n, args.k).json_chunks()
    elif args.format == "csv":
        chunks = decompose(args.n, args.k).csv_chunks()
    elif args.exact:
        chunks = decompose(args.n, args.k).exact_chunks()
    else:
        # the default form reads the integer cells alone, never the columns
        chunks = pretty_chunks(args.n, args.k)
    # the budget is checked before anything is written
    table = _table(args, args.n) if args.verify else None
    _emit(args, chunks)
    if args.verify:
        bad = equivalence_check(args.n, args.k, table)
        if bad is not None:
            print(f"verification FAILED: prime {bad} disagrees with the oracle",
                  file=sys.stderr)
            return EXIT_VERIFY
        print(f"verified against the sieve oracle: all primes <= {args.n} agree",
              file=sys.stderr)
    return EXIT_OK


def _emit_reports(args, reports, line) -> int:
    """Write identity reports: one record each, and one pretty ``line(report)``."""
    rows = [r.to_row() for r in reports]
    _emit(args, {"reports": rows}, [line(r) for r in reports], rows)
    return EXIT_OK


def _cmd_thm1(args) -> int:
    ks, table = _k_grid(args, args.n)
    return _emit_reports(
        args, [omega_identity_report(args.n, args.m, k, table) for k in ks],
        lambda r: (f"omega C({r.params['n']}k, {r.params['m']}k) at k={r.params['k']}: "
                   f"lhs={r.lhs} rhs={r.rhs} residual={r.residual} "
                   f"[{r.normalization}={r.normalized_residual:.4f}]"))


def _cmd_thm3(args) -> int:
    spec = FactorialRatioSpec(*(tuple(_parse_ints(raw, "multiplier list"))
                                for raw in (args.num_parts, args.den_parts)))
    ks, table = _k_grid(args, spec.max_multiplier)
    return _emit_reports(
        args, [factorial_ratio_report(spec, k, table) for k in ks],
        lambda r: (f"log factorial ratio at k={r.params['k']}: lhs={r.lhs:.9f} "
                   f"psi-series={r.rhs:.9f} residual={r.residual:.3e} "
                   f"growth-residual={r.details['asymptotic_residual']:.4f}"))


def _cmd_altpi(args) -> int:
    x = _floor_real(args.x)
    table = _table(args, x)
    s, ratio = alternating_pi_sum(x, table)
    payload = {"x": x, "sum": s, "ratio": ratio, "log2": math.log(2),
               "ratio_minus_log2": ratio - math.log(2)}
    _emit(args, payload,
          [f"sum_i (-1)^(i+1) pi({x}/i) = {s}",
           f"ratio to x/log x = {ratio:.6f} (log 2 = {math.log(2):.6f})"])
    return EXIT_OK


def _cmd_bertrand(args) -> int:
    table = _table(args, 2 * args.limit)
    bad = bertrand_check(args.limit, table)
    payload = {"limit": args.limit, "counterexample": bad}
    _emit(args, payload,
          [f"pi(2n) > pi(n) for all n <= {args.limit}: "
           + ("verified" if bad is None else f"FAILS at n={bad}")])
    return EXIT_OK if bad is None else EXIT_VERIFY


def _cmd_logk(args) -> int:
    state = partial_sum(args.k, args.terms)
    payload = {
        "k": state.k, "terms": state.terms_taken,
        "partial_sum": state.partial_sum, "log_k": math.log(state.k),
        "error": state.error, "tail_bound": state.tail_bound,
    }
    _emit(args, payload,
          [f"sum of {state.terms_taken} blocks for log {state.k}: "
           f"{state.partial_sum:.9f} (log {state.k} = {math.log(state.k):.9f}, "
           f"error {state.error:.3e}, tail bound {state.tail_bound:.3e})"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sieve-limit", type=int, default=None,
                        help="sieve budget (default: BINOMFACTOR_SIEVE_LIMIT or 10^7)")
    common.add_argument("--format", choices=("pretty", "json", "csv"),
                        default="pretty", help="output format (json is the contract)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write output to FILE instead of stdout")

    parser = _Parser(
        prog="binomfactor",
        description="Exact prime-divisor intervals of binomial coefficients, "
                    "prime-count identities, and elementary pi/psi bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", parents=[common],
                           help="interval decomposition of {p : p | C(n, k)}")
    p_dec.add_argument("n", type=int)
    p_dec.add_argument("k", type=int)
    p_dec.add_argument("--exact", action="store_true",
                       help="print exact rational endpoints instead of floors")
    p_dec.add_argument("--verify", action="store_true",
                       help="cross-check every prime against the sieve oracle")
    p_dec.set_defaults(run=_cmd_decompose)

    kinds = sub.add_parser("identity", help="evaluate an identity and report residuals"
                           ).add_subparsers(dest="kind", required=True)

    def kind(name, run, summary):
        # the common flags go on each kind, not on `identity`, where the
        # kind's defaults would overwrite them; flags match whole, as a
        # prefix may be another kind's flag (thm3 would read --n as --num-parts)
        p = kinds.add_parser(name, parents=[common], allow_abbrev=False, help=summary)
        p.set_defaults(run=run)
        return p

    p_thm1 = kind("thm1", _cmd_thm1, "omega C(nk, mk) against its pi series")
    p_thm1.add_argument("--n", type=int, required=True)
    p_thm1.add_argument("--m", type=int, required=True)
    p_thm3 = kind("thm3", _cmd_thm3, "log of a balanced factorial ratio against its psi series")
    p_thm3.add_argument("--num-parts", required=True, metavar="A,B,...",
                        help="numerator multipliers")
    p_thm3.add_argument("--den-parts", required=True, metavar="A,B,...",
                        help="denominator multipliers")
    for p in (p_thm1, p_thm3):
        k_or_grid = p.add_mutually_exclusive_group(required=True)
        k_or_grid.add_argument("--k", type=int)
        k_or_grid.add_argument("--grid", metavar="K1,K2,...", help="evaluate at several k")
    kind("altpi", _cmd_altpi, "sum_i (-1)^(i+1) pi(x/i) against log 2 * x/log x"
         ).add_argument("--x", type=float, required=True, help="argument")
    kind("bertrand", _cmd_bertrand, "pi(2n) > pi(n) for every n up to a limit"
         ).add_argument("--limit", type=int, required=True, help="sweep bound")

    p_b = sub.add_parser("bounds", parents=[common],
                         help="pi/psi bounds ledger from a signed combination")
    p_b.add_argument("spec", nargs="?", default=_CLASSICAL_SPEC,
                     help="terms as sign 1/a:1/b, comma separated")
    psi_parts = tuple(",".join(map(str, v)) for v in (
        PSI_RATIO_SPEC.numerator_multipliers, PSI_RATIO_SPEC.denominator_multipliers))
    p_b.add_argument("--psi", action="store_true",
                     help="use the psi variant (multipliers %s over %s)" % psi_parts)
    p_b.add_argument("--iterations", type=int, default=3)
    p_b.add_argument("--initial-upper", type=float, default=2.0)
    p_b.add_argument("--anchor", type=int, default=None,
                     help="expected first negative coefficient index")
    p_b.add_argument("--k-grid", default=None, metavar="K1,K2,...",
                     help="also check the numeric bracket at these k (psi variant)")
    p_b.set_defaults(run=_run_bounds)

    p_lk = sub.add_parser("logk", parents=[common],
                          help="partial sums of the grouped series for log k")
    p_lk.add_argument("k", type=int)
    p_lk.add_argument("--terms", type=int, default=1_000_000)
    p_lk.set_defaults(run=_cmd_logk)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.sieve_limit is None:
            args.sieve_limit = _env_sieve_limit()
        _as_int(args.sieve_limit, "sieve limit", lo=2, hi=MAX_LIMIT)
        return args.run(args)
    except NonAlternatingError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (DomainError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _run_bounds(args) -> int:
    k_grid = _parse_ints(args.k_grid or "", "grid")
    if not args.psi:
        if k_grid:
            raise DomainError("--k-grid applies only to bounds --psi")
        ledger = derive_bounds(_parse_combination(args.spec), args.anchor,
                               args.initial_upper, args.iterations)
        _emit(args, _ledger_payload(ledger), _ledger_lines("pi(x)/(x/log x)", ledger))
        return EXIT_OK
    if args.spec != _CLASSICAL_SPEC:
        raise DomainError(f"bounds --psi takes no combination spec, got {args.spec!r}")
    ledger = PSI_BOUNDS_LEDGER
    # the psi ledger is fixed: a flag may only restate what it uses, and
    # is checked before any table is built
    for flag, given, used in (("--iterations", args.iterations, len(ledger.upper_iterations)),
                              ("--initial-upper", args.initial_upper, ledger.initial_upper),
                              ("--anchor", args.anchor, ledger.anchor_index)):
        if given is not None and given != used:
            shown = _shown(given) if isinstance(given, int) else given
            raise DomainError(f"bounds --psi uses {flag} {used}, got {shown}")
    table = _table(args, PSI_RATIO_SPEC.period * max(k_grid, default=0))
    rows = psi_variant_bounds(k_grid, table)
    payload = _ledger_payload(ledger)
    payload["bracket_rows"] = [dataclasses.asdict(r) for r in rows]
    lines = _ledger_lines("psi(x)/x", ledger)
    lines += [f"  bracket at k={r.k}: {r.lower:.1f} <= {r.ratio_log:.1f} "
              f"<= {r.upper:.1f} ({'ok' if r.holds else 'VIOLATED'})"
              for r in rows]
    _emit(args, payload, lines)
    return EXIT_OK if all(r.holds for r in rows) else EXIT_VERIFY


def _ledger_payload(ledger) -> dict:
    """The ledger's fields, its sequence summarised as the period and the
    sorted residues of its +1 and -1 coefficients."""
    payload = {f.name: getattr(ledger, f.name) for f in dataclasses.fields(ledger)}
    seq = payload["sequence"]
    payload["sequence"] = {"period": seq.period,
                           "plus": sorted(seq.residues_with_sign(+1)),
                           "minus": sorted(seq.residues_with_sign(-1))}
    return payload


def _ledger_lines(what: str, ledger) -> list[str]:
    seq = ledger.sequence
    iters = " -> ".join(f"{u:.4f}" for u in ledger.upper_iterations)
    return [
        f"combination constant: {ledger.combination_constant:.6f}",
        f"coefficient sequence: period {seq.period}, "
        f"+1 at {sorted(seq.residues_with_sign(+1))}, "
        f"-1 at {sorted(seq.residues_with_sign(-1))}",
        f"lower bound for {what}: {ledger.lower_bound:.6f}",
        f"upper iterations from {ledger.initial_upper}: {iters}",
        f"fixed point: {ledger.fixed_point:.6f}",
    ]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
