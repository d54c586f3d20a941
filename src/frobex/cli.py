"""Command line front end.

Every subcommand but corpus reads a ring (--ring takes a spec file path or
a bundled corpus label), emits either an aligned table or --json (a single
document with a "schema" tag and a "timestamp"; identical argv and seed give
byte-identical JSON apart from the timestamp), and exits 0 on
pass/success, 1 on a failed check, 2 on usage errors, 3 when a resource
cap aborted the computation.  Each subcommand declares only the flags of
_FLAGS that it reads; any other flag is a usage error.

Every document goes through one json.dumps hook, _encode.  A report whose
document is exactly its fields is handed over as is; the closure, scan
sample and scan documents are views (keys read off a chain, base_sop, the
window), built by their own to_dict.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import os
import sys
import time

from .algebra import AlgebraError, ParseError, Polynomial
from .corpus import (
    RingSpecError,
    corpus_labels,
    corpus_spec,
    corpus_specs,
    load_corpus_ring,
    load_ring_spec,
    ring_from_spec,
)
from .filterreg import (
    SequenceShapeError,
    is_filter_regular_sequence,
    is_system_of_parameters,
    make_sequence,
    parameter_base,
    random_filter_regular_sop,
)
from .frobenius import (
    frobenius_closure,
    frobenius_power,
    fte_scan,
    qpower_preimage,
)
from .groebner import (
    GBConfig,
    QuotientRing,
    ResourceCapExceeded,
    colon,
    dimension,
    ideal,
    saturation,
    shared_bases,
)
from .localcoh import (
    hsl_estimate,
    ns_consistency_check,
    prop34_check,
    scan_and_hsl,
    verify_inequality,
)
from .seeding import derive_seed

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# schemas whose layout has changed since version 1
_SCHEMA_VERSIONS = {"hsl": 2}


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fields(report) -> dict:
    """The JSON document of a report that is exactly its fields."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _encode(obj):
    """json.dumps's hook for what it cannot write itself: a polynomial is its
    text and a dataclass its fields.  json writes int keys as strings and
    tuples as lists."""
    if isinstance(obj, Polynomial):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _emit(args, name: str, payload: dict, lines: list[str]) -> None:
    if args.json:
        doc = {"schema": f"frobex/{name}/{_SCHEMA_VERSIONS.get(name, 1)}",
               "timestamp": _timestamp(), **payload}
        print(json.dumps(doc, indent=2, default=_encode))
    else:
        for line in lines:
            print(line)


def _emit_error(as_json: bool, exc: Exception, code: int) -> None:
    if as_json:
        doc = {
            "schema": "frobex/error/1",
            "timestamp": _timestamp(),
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": code,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)


def _rows(header: list[str], body: list[list[str]]) -> list[str]:
    """Aligned plain-text table."""
    table = [header] + body
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    out = []
    for r, row in enumerate(table):
        out.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if r == 0:
            out.append("  ".join("-" * widths[c] for c in range(len(header))))
    return out


def _gb_caps(args) -> GBConfig:
    return GBConfig(max_pairs=args.max_pairs, max_degree=args.max_degree)


def _load_ring(args) -> QuotientRing:
    spec = args.ring
    if spec is None:
        raise RingSpecError("this command needs --ring (a spec file or corpus label)")
    if os.path.exists(spec):
        return load_ring_spec(spec)
    if spec in corpus_labels():
        return load_corpus_ring(spec)
    raise RingSpecError(
        f"{spec!r} is neither a readable file nor a corpus label "
        f"(bundled: {', '.join(corpus_labels())})")


def _parse_polys(R: QuotientRing, text: str) -> list[Polynomial]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    return [R.parse(s) for s in parts]


def _require_jobs(args) -> int:
    """--jobs, where 0 means one worker per CPU this process may run on."""
    if args.jobs > 0:
        return args.jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_gb(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    t0 = time.perf_counter()
    gens = [str(g) for g in I.groebner_basis()]
    seconds = time.perf_counter() - t0
    stats = I.gb_stats
    payload = {"ring_label": R.label, "generators": gens, "stats": stats}
    lines = ["reduced Groebner basis (with ring relations):"]
    lines += [f"  {g}" for g in gens]
    lines.append(f"pairs={stats.pairs_processed} zero_reductions={stats.zero_reductions} "
                 f"max_degree={stats.max_degree_seen} size={stats.basis_size} "
                 f"time={seconds:.3f}s")
    _emit(args, "gb", payload, lines)
    return EXIT_OK


def cmd_nf(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    f = R.parse(args.poly)
    w = I.normal_form(f)
    payload = {"ring_label": R.label, "poly": str(f), "normal_form": str(w),
               "is_member": not w.terms}
    _emit(args, "nf", payload, [f"normal form: {w}"])
    return EXIT_OK


def cmd_dim(args) -> int:
    R = _load_ring(args)
    gens = _parse_polys(R, args.ideal) if args.ideal else []
    d = dimension(ideal(R, gens))
    payload = {"ring_label": R.label, "ideal": [str(g) for g in gens], "dimension": d}
    _emit(args, "dim", payload, [f"dimension = {d}"])
    return EXIT_OK


def cmd_colon(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    K = ideal(R, _parse_polys(R, args.by))
    Q = colon(I, K)
    gens = [str(g) for g in Q.groebner_basis()]
    payload = {"ring_label": R.label, "generators": gens}
    _emit(args, "colon", payload, ["colon ideal:"] + [f"  {g}" for g in gens])
    return EXIT_OK


def cmd_sat(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    K = ideal(R, _parse_polys(R, args.by)) if args.by else R.maximal_ideal()
    S, steps = saturation(I, K)
    gens = [str(g) for g in S.groebner_basis()]
    payload = {"ring_label": R.label, "generators": gens, "exponent": steps}
    _emit(args, "sat", payload,
          ["saturation:"] + [f"  {g}" for g in gens] + [f"stabilization exponent s = {steps}"])
    return EXIT_OK


def cmd_filter_check(args) -> int:
    R = _load_ring(args)
    elements = _parse_polys(R, args.elements)
    seq = make_sequence(R, elements)
    ok, bad = is_filter_regular_sequence(seq)
    sop = is_system_of_parameters(R, elements)
    payload = {"ring_label": R.label, "elements": [str(f) for f in elements],
               "filter_regular": ok, "first_failure": bad,
               "system_of_parameters": sop}
    verdict = "pass" if ok else f"fail at position {bad}"
    _emit(args, "filter-check", payload,
          [f"filter regular: {verdict}", f"system of parameters: {sop}"])
    return EXIT_OK if ok else EXIT_CHECK


def cmd_sop_random(args) -> int:
    R = _load_ring(args)
    seq = random_filter_regular_sop(R, args.seed)
    payload = {"ring_label": R.label, "seed": args.seed,
               "elements": seq.element_strings()}
    _emit(args, "sop-random", payload,
          ["filter regular system of parameters:"] +
          [f"  {s}" for s in seq.element_strings()])
    return EXIT_OK


def cmd_frobenius_power(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    P = frobenius_power(I, args.e)
    gens = [str(g) for g in P.own_gens]
    payload = {"ring_label": R.label, "e": args.e, "generators": gens}
    _emit(args, "frobenius-power", payload,
          [f"bracket power, e = {args.e}:"] + [f"  {g}" for g in gens])
    return EXIT_OK


def cmd_frobenius_preimage(args) -> int:
    R = _load_ring(args)
    K = ideal(R, _parse_polys(R, args.ideal))
    P = qpower_preimage(K, args.e)
    gens = [str(g) for g in P.groebner_basis()]
    payload = {"ring_label": R.label, "e": args.e, "generators": gens}
    _emit(args, "frobenius-preimage", payload,
          [f"q-power preimage, e = {args.e}:"] + [f"  {g}" for g in gens])
    return EXIT_OK


def cmd_frobenius_closure(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    result = frobenius_closure(I, args.emax)
    payload = {"ring_label": R.label, **result.to_dict()}
    gens = [str(g) for g in result.closure.groebner_basis()]
    lines = ["Frobenius closure:"] + [f"  {g}" for g in gens]
    lines.append(f"stabilized_at={result.stabilized_at} certified={result.certified} "
                 f"stable={result.stable}")
    _emit(args, "frobenius-closure", payload, lines)
    return EXIT_OK


def cmd_frobenius_fte(args) -> int:
    R = _load_ring(args)
    I = ideal(R, _parse_polys(R, args.ideal))
    result = frobenius_closure(I, args.emax)
    payload = {"ring_label": R.label, "ideal": [str(g) for g in I.own_gens],
               "fte": result.fte, "closure": result.to_dict()}
    _emit(args, "frobenius-fte", payload, [f"Fte = {result.fte}"])
    return EXIT_OK


def cmd_fte_scan(args) -> int:
    R = _load_ring(args)
    report = fte_scan(R, n_random=args.samples, seed=args.seed, e_max=args.emax,
                      jobs=_require_jobs(args))
    payload = report.to_dict()
    body = []
    for s in report.samples:
        body.append([s.kind, json.dumps(s.descriptor), str(s.fte),
                     "yes" if s.fte else "no", s.error or ""])
    lines = _rows(["kind", "descriptor", "fte", "nontrivial", "error"], body)
    lines.append(f"max_fte = {report.max_fte}")
    _emit(args, "fte-scan", payload, lines)
    return EXIT_OK if report.max_fte is not None else EXIT_CHECK


def cmd_hsl(args) -> int:
    R = _load_ring(args)
    if args.sequence:
        seq = make_sequence(R, _parse_polys(R, args.sequence))
    else:
        seq = parameter_base(R, args.seed)
    report = hsl_estimate(R, seq, N=args.trunc, e_max=args.emax,
                          jobs=_require_jobs(args))
    body = [[str(i), str(report.per_index[i]),
             "yes" if report.per_index_stable[i] else "no"]
            for i in sorted(report.per_index)]
    lines = _rows(["i", "order", "stable"], body)
    lines.append(f"HSL = {report.overall} ({'stable' if report.stable else 'unstable'})")
    _emit(args, "hsl", _fields(report), lines)
    return EXIT_OK


def cmd_ns_check(args) -> int:
    R = _load_ring(args)
    seq_a = parameter_base(R, args.seed)
    seq_b = random_filter_regular_sop(R, derive_seed(args.seed, "ns", 1))
    report = ns_consistency_check(R, seq_a, seq_b, N=args.trunc)
    body = []
    for i in sorted(report.tables):
        body.append([str(i), str(report.tables[i]["a"]), str(report.tables[i]["b"]),
                     str(report.stabilized.get(i))])
    lines = _rows(["i", "lengths (seq a)", "lengths (seq b)", "stabilized"], body)
    lines.append(f"status: {report.status}")
    if report.first_disagreement:
        lines.append(f"first disagreement: {report.first_disagreement}")
    _emit(args, "ns-check", _fields(report), lines)
    return EXIT_OK if report.status == "pass" else EXIT_CHECK


def cmd_prop34_check(args) -> int:
    R = _load_ring(args)
    report = prop34_check(R, _parse_polys(R, args.prefix), n=args.n, e=args.e,
                          N=args.trunc, e_max=args.emax)
    lines = [f"forward (closure classes nilpotent of order <= {args.e}): "
             f"{'pass' if report.forward_ok else 'fail'}"]
    lines += [f"  {entry}" for entry in report.forward]
    lines.append(f"backward (nilpotent witnesses lie in the closure): "
                 f"{'pass' if report.backward_ok else 'fail'}")
    lines += [f"  {entry}" for entry in report.backward]
    _emit(args, "prop34-check", _fields(report), lines)
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_verify_inequality(args) -> int:
    R = _load_ring(args)
    scan, hsl = scan_and_hsl(R, n_random=args.samples, seed=args.seed,
                             e_max=args.emax, N=args.trunc,
                             jobs=_require_jobs(args))
    report = verify_inequality(R, scan, hsl)
    payload = {**_fields(report), "scan": scan.to_dict(), "hsl": hsl}
    lines = [f"max Fte over samples: {report.max_fte}",
             f"HSL estimate:         {report.hsl_overall}",
             f"inequality holds:     {report.holds}",
             f"mechanism check:      {'pass' if report.mechanism_ok else 'fail'}",
             f"status: {report.status}"]
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(args, "verify-inequality", payload, lines)
    return EXIT_OK if report.status == "pass" else EXIT_CHECK


def cmd_corpus(args) -> int:
    if args.label:
        spec = corpus_spec(args.label)
        payload = {"spec": spec}
        lines = [json.dumps(spec, indent=2)]
        _emit(args, "corpus-show", payload, lines)
        return EXIT_OK
    specs = corpus_specs()
    entries = []
    body = []
    for spec in specs:
        R = ring_from_spec(spec)
        entries.append({"label": spec["label"], "characteristic": spec["characteristic"],
                        "variables": spec["variables"], "relations": spec["relations"],
                        "dimension": R.dim})
        body.append([spec["label"], str(spec["characteristic"]),
                     " ".join(spec["variables"]), str(len(spec["relations"])),
                     str(R.dim)])
    payload = {"entries": entries}
    _emit(args, "corpus", payload,
          _rows(["label", "p", "variables", "relations", "dim"], body))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

# Each flag by name: its lower bound (None if unbounded) and its argparse
# keywords.  _validate_flags checks the bounds in this order.  Only dim's
# --ideal and sat's --by, which are optional there, are declared elsewhere.
_FLAGS = {
    "--ring": (None, dict(metavar="PATH_OR_LABEL",
                          help="ring spec file or bundled corpus label")),
    "--json": (None, dict(action="store_true", help="emit a single JSON document")),
    "--seed": (None, dict(type=int, default=42)),
    "--trunc": (1, dict(type=int, default=8, metavar="N",
                        help="limit-system truncation level")),
    "--emax": (0, dict(type=int, default=8, metavar="E", help="Frobenius chain depth bound")),
    "--n": (1, dict(type=int, default=1)),
    "--e": (0, dict(type=int, default=1)),
    "--samples": (0, dict(type=int, default=5, metavar="K",
                          help="random parameter ideals per scan")),
    "--jobs": (0, dict(type=int, default=0, metavar="J",
                       help="worker processes (0 = one per usable CPU)")),
    "--max-pairs": (1, dict(type=int, default=50_000)),
    "--max-degree": (1, dict(type=int, default=120)),
    "--ideal": (None, dict(required=True, help="comma-separated generators")),
    "--by": (None, dict(required=True)),
    "--poly": (None, dict(required=True)),
    "--elements": (None, dict(required=True)),
    "--prefix": (None, dict(required=True, help="comma-separated filter regular prefix")),
    "--sequence": (None, dict(default="",
                              help="filter regular system of parameters "
                                   "(default: the base of verify-inequality)")),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main() reports them like any other.
    Flags are matched only in full, here and in every subcommand (which
    argparse builds with this class), so main() can find --json in argv."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise RingSpecError(f"{self.prog}: {message}")


def _command(sub, name: str, func, flags: str, help: str) -> argparse.ArgumentParser:
    """Subcommand run by func, taking the given _FLAGS besides --json and the
    caps, which main() reads for every command."""
    sp = sub.add_parser(name, help=help)
    for flag in flags.split() + ["--json", "--max-pairs", "--max-degree"]:
        sp.add_argument(flag, **_FLAGS[flag][1])
    sp.set_defaults(func=func)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The frobex parser, built once per process: main() may run many times
    in one process, and argparse keeps no state between parse_args calls.
    The handlers are bound when it is built."""
    parser = _Parser(
        prog="frobex",
        description="Frobenius closures, test exponents, and HSL numbers "
                    "for rings of prime characteristic.")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "gb", cmd_gb, "--ring --ideal", "reduced Groebner basis")
    _command(sub, "nf", cmd_nf, "--ring --ideal --poly", "normal form of a polynomial")
    sp = _command(sub, "dim", cmd_dim, "--ring", "Krull dimension of R/I")
    sp.add_argument("--ideal", default="", help="defaults to the zero ideal")
    _command(sub, "colon", cmd_colon, "--ring --ideal --by", "ideal colon (I : K)")
    sp = _command(sub, "sat", cmd_sat, "--ring --ideal", "saturation (I : K^inf)")
    sp.add_argument("--by", default="", help="defaults to the maximal ideal")
    _command(sub, "filter-check", cmd_filter_check, "--ring --elements",
             "test a sequence for filter regularity")
    _command(sub, "sop-random", cmd_sop_random, "--ring --seed",
             "random filter regular system of parameters")

    fr = sub.add_parser("frobenius", help="Frobenius powers, preimages, closures")
    frsub = fr.add_subparsers(dest="action", required=True)
    _command(frsub, "power", cmd_frobenius_power, "--ring --e --ideal",
             "bracket power I^[p^e]")
    _command(frsub, "preimage", cmd_frobenius_preimage, "--ring --e --ideal",
             "q-power preimage {x : x^q in K}")
    _command(frsub, "closure", cmd_frobenius_closure, "--ring --emax --ideal",
             "Frobenius closure I^F")
    _command(frsub, "fte", cmd_frobenius_fte, "--ring --emax --ideal",
             "Frobenius test exponent of an ideal")
    # top-level shorthand for the most common query
    _command(sub, "fte", cmd_frobenius_fte, "--ring --emax --ideal",
             "shorthand for 'frobenius fte'")

    _command(sub, "fte-scan", cmd_fte_scan, "--ring --seed --emax --samples --jobs",
             "closure/test-exponent scan over parameter ideals")
    _command(sub, "hsl", cmd_hsl, "--ring --seed --trunc --emax --jobs --sequence",
             "HSL numbers per degree")
    _command(sub, "ns-check", cmd_ns_check, "--ring --seed --trunc",
             "two-sequence limit-tower consistency check")
    _command(sub, "prop34-check", cmd_prop34_check, "--ring --trunc --emax --n --e --prefix",
             "closure/nilpotence correspondence check")
    _command(sub, "verify-inequality", cmd_verify_inequality,
             "--ring --seed --trunc --emax --samples --jobs",
             "compare sampled Fte bound against the HSL estimate")
    sp = _command(sub, "corpus", cmd_corpus, "", "bundled example rings")
    sp.add_argument("label", nargs="?", help="print one spec instead of the list")

    return parser


def _validate_flags(args) -> None:
    for flag, (lo, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if lo is not None and value is not None and value < lo:
            raise RingSpecError(f"{flag} must be >= {lo}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except RingSpecError as exc:
        # a usage error from argparse: there is no namespace to read --json from
        _emit_error("--json" in argv, exc, EXIT_USAGE)
        return EXIT_USAGE
    try:
        _validate_flags(args)
        with shared_bases(_gb_caps(args)):
            return args.func(args)
    except ResourceCapExceeded as exc:
        _emit_error(args.json, exc, EXIT_RESOURCE)
        return EXIT_RESOURCE
    except (RingSpecError, ParseError, SequenceShapeError) as exc:
        _emit_error(args.json, exc, EXIT_USAGE)
        return EXIT_USAGE
    except AlgebraError as exc:
        _emit_error(args.json, exc, EXIT_CHECK)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
