"""Batch command-line frontend.

Subcommands: analyze, coeffs, disc, factorize, stability, crossings,
ensemble.  Each takes only the options it reads: every subcommand requires
--input; the graph subcommands write JSON to --output or stdout; analyze and
stability take --t, crossings requires --ray, and ensemble requires --output
and takes --seed and --threads.  Only coeffs and disc build the 2^R
crossing coefficients (coeffs rejects R > 20, disc any R other than 2);
crossings interpolates the ray polynomial from N - c(G-) + 1 determinants
of at most min(N - 1, 2R) rows and factorize reads the transfer-current
matrix, at any R.  Exit codes: 0 success, 1 input error (usage errors
included), 2 internal-consistency fault.  Rationals are serialized as "p/q"
strings, and one past Python's digit limit is an input error; floats only
for approximate quantities (eigenvalues, gap, a root's midpoint), and one
outside the float range is an input error.

Each request does little fixed work besides its subcommand's.  Every
option of every subcommand is declared once, in ``_OPTIONS``: its string,
dest, type, required flag, default and help.  A canonical argv, the
subcommand followed only by ``--name value`` pairs of its own options, is
read off that table (``_canonical_args``) with no parser built; argparse,
imported and built from the same table on first use (``build_parser``),
reads every other argv and writes every usage, help and usage-error
message.  Files are read and
written with ``os.read`` and ``os.write`` (``graph._read_file`` and
``graph._write_file``), rational strings are read as integer pairs
(``graph._rational``), and the output is written by the package's one
JSON writer, ``graph._json_text``, byte for byte what
``json.dumps(payload, indent=2)`` writes.  ``analyze --t``
takes its eigenvalues off the integer Laplacian
(``spectral._graph_eigenvalues``), so no subcommand builds an N x N
Fraction matrix.

Each process loads only the modules its subcommand runs.  This module
imports ``errors`` and ``graph``'s I/O helpers; each ``_cmd_*``
imports its own layer on first use: ``analyze`` and ``stability`` the
spectral core, ``coeffs`` and ``crossings`` ``crossing`` (``crossings``
adds ``polyroots``), ``disc`` and ``factorize`` ``discriminants``.  Only
``analyze --t`` (LAPACK eigenvalues) and ``ensemble`` load numpy, only a
non-canonical argv loads argparse, and no subcommand loads the
enumeration oracles (``oracles``).
"""

from __future__ import annotations

import functools
import sys
import types
from fractions import Fraction

from .errors import InputError, InternalConsistencyError
from .graph import _decode_json, _json_text, _rationals, _read_file, _strings, _write_file, component_counts, parse_graph


def _read_json(path: str):
    try:
        data = _read_file(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return _decode_json(data, f"JSON in {path}")


def _load_graph(path: str):
    return parse_graph(_read_json(path))


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals; an empty (or all-blank) string is the empty
    vector, and an empty component is an error."""
    if text.strip() == "":
        return ()
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise InputError(f"empty component in rational vector {text!r}")
    return _rationals(parts, f"the components of {text!r}")


def _emit(payload: dict, output: str | None):
    text = _json_text(payload) + "\n"
    if output:
        _write_file(output, (text.encode(),))
    else:
        sys.stdout.write(text)


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else _strings((x,))[0]


def _cmd_analyze(args) -> dict:
    from . import spectral

    g = _load_graph(args.input)
    c_all, c_plus, c_minus = component_counts(g)
    out = {
        "n": g.n,
        "black_count": g.black_count,
        "red_count": g.red_count,
        "components": {"full": c_all, "black": c_plus, "red": c_minus},
    }
    if c_all == 1:
        small, large = spectral.index_limits(g)
        out["tau"] = spectral.crossing_count(g)
        out["index_limits"] = {"small_t": list(small), "large_t": list(large)}
    else:
        out["tau"] = None
        out["index_limits"] = None
    if args.t is not None:
        t = _parse_fractions(args.t)
        out["t"] = _strings(t)
        out["index"] = list(spectral._graph_inertia(g, t))
        out["eigenvalues"] = [float(x) for x in spectral._graph_eigenvalues(g, t)]
    return out


def _cmd_coeffs(args) -> dict:
    from . import crossing

    g = _load_graph(args.input)
    return crossing.crossing_polynomial(g).to_json_dict()


def _cmd_disc(args) -> dict:
    from . import discriminants

    g = _load_graph(args.input)
    p, sigma = discriminants._disc_minors(g)
    delta = discriminants.discriminant(p)
    point = discriminants.degenerate_point(p)
    return {
        "delta": _frac(delta),
        "gap": discriminants.gap(p),
        "degenerate_point": None if point is None else _strings(point),
        "forest_sum": _frac(sigma),
        "cycle_minor": _frac(discriminants._cycle_minor(g, sigma)),
    }


def _cmd_factorize(args) -> dict:
    from . import discriminants

    g = _load_graph(args.input)
    fac = discriminants.graph_factorization(g)
    if fac is None:
        return {"factorizable": False}
    return {"alpha": _frac(fac.alpha), "C": _strings(fac.c)}


def _cmd_stability(args) -> dict:
    from . import stability

    g = _load_graph(args.input)
    if args.t is None:
        return {"thresholds": [_frac(w) for w in stability.axis_thresholds(g)]}
    try:
        t = _parse_fractions(args.t)
    except InputError:
        stability.axis_thresholds(g)  # a disconnected black subgraph is reported first
        raise
    report = stability.certify(g, t)
    return {
        "thresholds": [_frac(w) for w in report.thresholds],
        "certified": report.certified,
        "boundary": report.boundary,
        "margin": _frac(report.certificate_margin),
        "verified_index": list(report.verified_index),
    }


def _cmd_crossings(args) -> dict:
    from . import crossing

    g = _load_graph(args.input)
    alpha = _parse_fractions(args.ray)
    result = crossing.graph_ray_crossings(g, alpha)
    return {
        "ray": _strings(alpha),
        "ray_polynomial": _strings(result.polynomial),
        "roots": [
            {
                "value": _frac(r.value),
                "interval": _strings((r.lo, r.hi)),
                "midpoint": r.midpoint,
                "multiplicity": r.multiplicity,
            }
            for r in result.roots
        ],
    }


def _cmd_ensemble(args) -> dict:
    from . import ensemble  # numpy and the sampler load only for this command

    raw = _read_json(args.input)
    if args.seed is not None and isinstance(raw, dict):  # config_from_dict rejects the rest
        raw["seed"] = args.seed
    cfg = ensemble.config_from_dict(raw)
    # records stream from the sampler through the summary fold into the CSV
    fold = ensemble.SummaryFold()
    ensemble.write_csv(map(fold.add, ensemble.iter_records(cfg)), args.output)
    base = args.output[:-4] if args.output.endswith(".csv") else args.output
    summary_path = base + ".summary.json"
    ensemble.write_summary(fold.summary(), summary_path)
    return {"csv": args.output, "summary": summary_path, "records": fold.count}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "coeffs": _cmd_coeffs,
    "disc": _cmd_disc,
    "factorize": _cmd_factorize,
    "stability": _cmd_stability,
    "crossings": _cmd_crossings,
    "ensemble": _cmd_ensemble,
}


_INPUT = ("--input", "input", None, True, None, "graph JSON path (ensemble: config JSON)")
_OUTPUT_HELP = "JSON path, else stdout (ensemble: CSV)"
_OUTPUT = ("--output", "output", None, False, None, _OUTPUT_HELP)
_T = ("--t", "t", None, False, None, "red magnitudes, comma-separated rationals")
# every subcommand's options, in the order that --help lists them, each as
# (option string, dest, type, required, default, help): the one declaration
# that both ``_canonical_args`` and ``build_parser`` read
_OPTIONS = {
    "analyze": (_INPUT, _OUTPUT, _T),
    "coeffs": (_INPUT, _OUTPUT),
    "disc": (_INPUT, _OUTPUT),
    "factorize": (_INPUT, _OUTPUT),
    "stability": (_INPUT, _OUTPUT, _T),
    "crossings": (_INPUT, _OUTPUT, ("--ray", "ray", None, True, None, "ray direction, positive rationals")),
    "ensemble": (
        _INPUT,
        ("--output", "output", None, True, None, _OUTPUT_HELP),
        ("--seed", "seed", int, False, None, "override the config master seed"),
        ("--threads", "threads", int, False, 1, "ignored: samples run serially"),
    ),
}


@functools.cache
def build_parser():
    """The argparse parser of ``_OPTIONS``, built on first use and shared,
    unmodified, by every later call.  Only an argv that is not canonical
    needs it, so argparse is imported here."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2; keep 1 for input errors
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    # --help shows the docstring's first two paragraphs, the usage; the
    # rest is about the implementation (python -OO strips the docstring)
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = Parser(prog="signedlap", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name)
        for option, dest, kind, required, default, text in options:
            p.add_argument(option, dest=dest, type=kind, required=required, default=default, help=text)
    return parser


def _canonical_args(argv: list[str]) -> types.SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for a canonical
    ``argv``, read off ``_OPTIONS`` with no parser built; None for any other.

    Canonical is ``<command>`` followed only by ``--name value`` pairs,
    each name one of that subcommand's option strings, each option given
    once, every required one given, no value starting with "-" and every
    value that its option's type takes.  Help, abbreviations, ``=`` forms
    and every usage error go to argparse itself.
    """
    if len(argv) % 2 == 0:  # not a command and pairs
        return None
    options = _OPTIONS.get(argv[0])
    if options is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:  # an option given twice
        return None
    values = {}
    for option, dest, kind, required, default, _ in options:
        value = given.pop(option, None)
        if value is None:
            if required:
                return None
            value = default
        elif value.startswith("-"):
            return None
        elif kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        values[dest] = value
    if given:  # a name that is not one of the subcommand's options
        return None
    return types.SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _canonical_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse usage errors / --help
            return exc.code if isinstance(exc.code, int) else 1
    handler = _COMMANDS[args.command]
    try:
        payload = handler(args)
        if args.command == "ensemble":
            sys.stdout.write(_json_text(payload) + "\n")
        else:
            _emit(payload, args.output)
    except InternalConsistencyError as exc:
        print(f"internal consistency fault: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an --output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
