"""Command-line front end: configuration parsing, CSV/JSON emission, reproducibility metadata.

``run_command`` owns each run: it loads the ``--spectrum`` file once, calls the
handler ``_cmd_*(args, model)``, which writes only to ``--out`` (simulate also to
``<out>.summary.json``), and writes one manifest, at ``<out>.manifest.json``,
when ``--out`` names a file.  Every count, ``--seeds`` included, goes through
the library's one count rule, and an output that cannot be written exits 2.

A refusal prints one ``error: <message>`` line on stderr (exit codes at
``run_command``).  ``SPECTRALEDGE_LOG`` sets the log level: error, warning
(the default), info or debug; any other value exits 2.

The argument parser is built once per process, on the first ``run_command``
call, and reused: building it costs about 2 ms (seven subparsers, each
argument formatted once), which in-process callers would otherwise pay on
every command, and importing this module pays nothing for it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import logging
import math
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .edge import edge_residuals, find_edge, solve_edge
from .errors import InvalidArgumentError, InvalidConfigError, SpectralEdgeError
from .flow import flow_derivative_checks, flow_state
from .identities import identity_residuals
from .locallaw import DEVIATION_CLASSES, check_z, locallaw_deviation
from .montecarlo import NOISE_DISTS, _require_count, _require_seed, pmap, run_ensemble, sample_matrix
from .spectrum import grid, load_spectrum, with_size
from .stieltjes import solve_stieltjes
from .tracywidom import tw_table

log = logging.getLogger("spectraledge")


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return format(value, ".17g")
    raise TypeError(f"not a number: {value!r}")


def _json_body(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float)):
        return _format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_json_body(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_body(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(body: str, path) -> str:
    """Write body to the file at path, or to stdout when path is None; return body.

    A path that cannot be written raises InvalidConfigError."""
    if path is None:
        sys.stdout.write(body)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return body


def emit_json(obj, path=None) -> str:
    """Serialize with stable key order and 17-significant-digit floats."""
    return _write(_json_body(obj) + "\n", path)


def emit_csv(rows, header, path=None) -> str:
    """Header-first CSV with 17-significant-digit numeric fields."""
    lines = [",".join(header)]
    for row in rows:
        fields = []
        for cell in row:
            if isinstance(cell, str):
                fields.append(cell)
            else:
                fields.append(_format_number(cell if not isinstance(cell, (np.floating, np.integer)) else cell.item()))
        lines.append(",".join(fields))
    return _write("\n".join(lines) + "\n", path)


# the output path and the worker count change no output; the spectrum path is
# replaced by the bytes of the file it names
_UNHASHED_OPTIONS = ("out", "threads", "spectrum")


def _write_manifest(args, spectrum: bytes | None, started: float) -> None:
    """One run's reproducibility metadata, written to <args.out>.manifest.json.

    config_hash is the SHA-256 of every parsed option that can change an
    output, then of the spectrum bytes that ran.
    """
    options = {k: v for k, v in vars(args).items() if k not in _UNHASHED_OPTIONS}
    digest = hashlib.sha256(json.dumps(options, sort_keys=True, default=str).encode())
    if spectrum is not None:
        digest.update(spectrum)
    manifest = {
        "command": args.command,
        "config_hash": digest.hexdigest(),
        "seed": getattr(args, "seed", None),
        "versions": {
            "spectraledge": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "wall_time_s": time.perf_counter() - started,
    }
    emit_json(manifest, args.out + ".manifest.json")


def _load_model(args):
    """Read the spectrum file once; return the model and the bytes it was parsed from."""
    try:
        with open(args.spectrum, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read spectrum file: {exc}") from exc
    try:
        # decoded as a text-mode open() would, newline translation included,
        # so a JSON error reports the same position
        config = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InvalidConfigError(f"spectrum file is not valid JSON: {exc}") from exc
    return load_spectrum(config), raw


def _cmd_edge(args, model) -> None:
    sol = solve_edge(model)
    residuals = edge_residuals(model, sol)
    payload = {
        "xi_r": sol.xi_r,
        "lambda_r": sol.lambda_r,
        "b": sol.b,
        "tb": sol.tb,
        "h": sol.h,
        "gamma0": sol.gamma0,
        "E_plus": sol.E_plus,
        "xi": sol.xi,
        "assumption3_margin": float(sol.xi_r - model.d_sq[0]),
        "residuals": {
            "R1": residuals["R1"],
            "R2": residuals["R2"],
            "first_order": residuals["first_order"],
        },
    }
    emit_json(payload, args.out)


def _cmd_density(args, model) -> None:
    start, stop, step = args.start, args.stop, args.step
    if stop is None:
        stop = find_edge(model).lambda_r + 1.0
    if step is None:
        step = (stop - start) / 400.0
    E = grid(start, stop, step, "density")
    s = solve_stieltjes(model, E).s
    rows = zip(E, np.maximum(0.0, s.imag / math.pi), s.imag, s.real)
    emit_csv(rows, ("E", "rho0", "Im_s", "Re_s"), args.out)


def _cmd_simulate(args, model) -> None:
    result = run_ensemble(model, args.trials, dist=args.dist, seed=args.seed, threads=args.threads)
    rows = [(k, mu1, theta) for k, (mu1, theta) in enumerate(zip(result.mu1s, result.thetas))]
    emit_csv(rows, ("trial", "mu1", "theta"), args.out)
    summary = {
        "mean": result.mean,
        "var": result.variance,
        "ks": result.ks_distance,
        "lambda_r": result.lambda_r,
        "gamma0": result.gamma0,
    }
    emit_json(summary, args.out + ".summary.json" if args.out else None)


def _cmd_twtable(args, model) -> None:
    rows = tw_table(args.start, args.stop, args.step)
    emit_csv(rows, ("s", "F1", "f1"), args.out)


def _cmd_locallaw(args, model) -> None:
    _require_count("seeds", args.seeds)
    _require_seed(args.seed)
    if args.N is not None:
        model = with_size(model, args.N)
    eta = args.eta if args.eta is not None else model.N ** -0.5
    z = check_z(complex(find_edge(model).lambda_r + args.E_offset, eta))

    def one_seed(seed):
        Y = sample_matrix(model, args.dist, seed, 0)
        return seed, locallaw_deviation(model, Y, z)

    reports = pmap(one_seed, range(args.seed, args.seed + args.seeds), args.threads)
    rows = []
    for seed, report in reports:
        for cls in DEVIATION_CLASSES:
            rows.append((seed, cls, report.deviations[cls], report.psi, report.ratios[cls]))
    emit_csv(rows, ("seed", "class", "deviation", "psi", "ratio"), args.out)


def _cmd_flow_check(args, model) -> None:
    times = grid(0.0, args.t_max, args.t_step, "flow-check")
    rows = [
        (float(t), res["b"], res["gamma"], res["E_plus"], res["xi"], res["h"])
        for t, res in zip(times, flow_derivative_checks(model, times, step=args.step))
    ]
    emit_csv(rows, ("t", "res_b", "res_gamma", "res_E_plus", "res_xi", "res_h"), args.out)


def _cmd_identity_check(args, model) -> None:
    state = flow_state(model, args.t)
    residuals = identity_residuals(state)
    emit_json(residuals, args.out)


_HANDLERS = {
    "edge": _cmd_edge,
    "density": _cmd_density,
    "simulate": _cmd_simulate,
    "twtable": _cmd_twtable,
    "locallaw": _cmd_locallaw,
    "flow-check": _cmd_flow_check,
    "identity-check": _cmd_identity_check,
}


class _NumberToken:
    """argparse's negative-number test (``^-\\d+$|^-\\d*\\.\\d+$``) widened to every token
    float() reads, so ``-1e-3`` and ``-inf`` are option values; no option name reads as one."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectraledge",
        description="Deterministic spectral-edge data and Tracy-Widom verification "
                    "for signal-plus-noise matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spectrum(p):
        p.add_argument("--spectrum", required=True, help="spectrum spec JSON file")

    def add_out(p, required=False):
        p.add_argument("--out", required=required, default=None, help="output file path")

    p = sub.add_parser("edge", help="deterministic edge data as JSON")
    add_spectrum(p)
    add_out(p)

    p = sub.add_parser("density", help="limiting spectral density as CSV")
    add_spectrum(p)
    p.add_argument("--from", dest="start", type=float, default=0.01)
    p.add_argument("--to", dest="stop", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    add_out(p)

    p = sub.add_parser("simulate", help="sample the ensemble and emit rescaled statistics")
    add_spectrum(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--dist", choices=NOISE_DISTS, default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    # mu1 runs on one BLAS thread per call, so the worker count moves no output
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    add_out(p, required=True)

    p = sub.add_parser("twtable", help="table of the type-1 Tracy-Widom law")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    add_out(p)

    p = sub.add_parser("locallaw", help="resolvent deviations from the deterministic profiles")
    add_spectrum(p)
    p.add_argument("--N", type=int, default=None, help="resize the model to this noise dimension")
    p.add_argument("--eta", type=float, default=None, help="imaginary part (default N^{-1/2})")
    p.add_argument("--E-offset", dest="E_offset", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--dist", choices=NOISE_DISTS, default="gaussian")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; outputs do not depend on it, and above 1 it competes "
                        "with numpy's multithreaded BLAS (slower on 2 vCPUs)")
    add_out(p)

    p = sub.add_parser("flow-check", help="finite-difference vs analytic flow derivatives")
    add_spectrum(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=3.0)
    p.add_argument("--t-step", dest="t_step", type=float, default=0.25)
    p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
    add_out(p)

    p = sub.add_parser("identity-check", help="residuals of the exact edge-functional identities")
    add_spectrum(p)
    p.add_argument("--t", type=float, default=0.0)
    add_out(p)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NumberToken
    return parser


_LOG_LEVELS = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO,
               "debug": logging.DEBUG}


def run_command(argv) -> int:
    """Execute one subcommand; exit codes: 0 ok, 2 invalid config or argument
    (InvalidConfigError, InvalidArgumentError) or usage, 1 numeric failure.

    The parser is built on the first call and reused for the life of the process,
    so callers that run many commands in-process pay for it once; ``parse_args``
    returns a fresh namespace every time, so no option carries over between calls.
    ``--out -`` is the same as no ``--out``: every output goes to stdout and no
    manifest is written."""
    name = os.environ.get("SPECTRALEDGE_LOG", "warning")
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        print(f"error: SPECTRALEDGE_LOG must be one of {', '.join(_LOG_LEVELS)}, got {name!r}",
              file=sys.stderr)
        return 2
    logging.basicConfig(level=level)
    log.setLevel(level)

    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.out == "-":  # every subcommand has --out
        args.out = None

    started = time.perf_counter()
    try:
        model, spectrum = _load_model(args) if "spectrum" in vars(args) else (None, None)
        _HANDLERS[args.command](args, model)
        if args.out:
            _write_manifest(args, spectrum, started)
    except SpectralEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (InvalidConfigError, InvalidArgumentError)) else 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
