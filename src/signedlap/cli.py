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

Each request does little fixed work besides its subcommand's.  A
canonical argv, the subcommand followed only by ``--name value`` pairs of
its own options, is read off the parser's own actions
(``_canonical_args``); argparse reads every other argv, and stays the one
definition of every option, default and message.  Files are read and
written with ``os.read`` and ``os.write`` (``graph._read_file`` and
``graph._write_file``), rational strings are read as integer pairs
(``graph._rational``), and the output is written by the package's one
JSON writer, ``graph._json_text``, byte for byte what
``json.dumps(payload, indent=2)`` writes.  ``analyze --t``
takes its eigenvalues off the integer Laplacian
(``spectral._graph_eigenvalues``), so no subcommand builds an N x N
Fraction matrix.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import crossing, discriminants, spectral, stability
from .errors import InputError, InternalConsistencyError
from .graph import _decode_json, _json_text, _read_file, _strings, _write_file, component_counts, parse_graph


class _Parser(argparse.ArgumentParser):
    """The CLI's parser.  ``build_parser`` sets ``command_options``: per
    subcommand, its option strings and the ``Action`` each names, as
    ``add_argument`` returned them."""

    command_options: dict[str, dict[str, argparse.Action]]

    def error(self, message):  # argparse defaults to exit code 2; keep 1 for input errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    return spectral._rationals(parts, f"the components of {text!r}")


def _emit(payload: dict, output: str | None):
    text = _json_text(payload) + "\n"
    if output:
        _write_file(output, (text.encode(),))
    else:
        sys.stdout.write(text)


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else _strings((x,))[0]


def _cmd_analyze(args) -> dict:
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
    g = _load_graph(args.input)
    return crossing.crossing_polynomial(g).to_json_dict()


def _cmd_disc(args) -> dict:
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
    g = _load_graph(args.input)
    fac = discriminants.graph_factorization(g)
    if fac is None:
        return {"factorizable": False}
    return {"alpha": _frac(fac.alpha), "C": _strings(fac.c)}


def _cmd_stability(args) -> dict:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared, unmodified, by every later call."""
    # --help shows the docstring's first two paragraphs, the usage; the
    # rest is about the implementation (python -OO strips the docstring)
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="signedlap", description=description)
    parser.command_options = {}
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        actions = [
            p.add_argument("--input", required=True, help="graph JSON path (ensemble: config JSON)"),
            p.add_argument("--output", required=name == "ensemble", help="JSON path, else stdout (ensemble: CSV)"),
        ]
        if name in ("analyze", "stability"):
            actions.append(p.add_argument("--t", help="red magnitudes, comma-separated rationals"))
        if name == "crossings":
            actions.append(p.add_argument("--ray", required=True, help="ray direction, positive rationals"))
        if name == "ensemble":
            actions.append(p.add_argument("--seed", type=int, help="override the config master seed"))
            actions.append(p.add_argument("--threads", type=int, default=1, help="ignored: samples run serially"))
        parser.command_options[name] = {option: action for action in actions for option in action.option_strings}
    return parser


def _canonical_args(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a canonical ``argv``, read off
    the parser's own actions; None for any other.

    Canonical is ``<command>`` followed only by ``--name value`` pairs,
    each name one of that subcommand's option strings, each option given
    once, every required one given, no value starting with "-" and every
    value that its action's ``type`` takes.  Each action supplies its
    type, whether it is required and its default, so argparse stays the
    one definition of every option; help, abbreviations, ``=`` forms and
    every usage error go to argparse itself.
    """
    if len(argv) % 2 == 0:  # not a command and pairs
        return None
    options = build_parser().command_options.get(argv[0])
    if options is None:
        return None
    values = {}
    for name, value in zip(argv[1::2], argv[2::2]):
        action = options.get(name)
        if action is None or action.dest in values or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        values[action.dest] = value
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=argv[0], **values)


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
