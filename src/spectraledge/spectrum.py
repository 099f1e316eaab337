"""Deterministic signal model: the diagonal of the signal matrix and the matrix dimensions."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidConfigError

_SPECTRUM_TYPES = ("constant", "explicit", "uniform_sq")
# A grid longer than this is a mistyped bound or step, refused before anything is
# allocated: 1e7 points are 80 MB per float64 array, about 1 GB of density CSV and
# close to three hours of twtable's 1 ms Fredholm determinants.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True, eq=False)
class SpectrumModel:
    """Signal singular values d_1 >= ... >= d_M >= 0 together with the matrix dimensions.

    d_sq holds the squares d_i^2, formed once at construction; a d_1 whose
    edge solve would overflow is refused (_in_edge_range).  Immutable after
    construction; safe to share across threads.
    """

    d: np.ndarray
    M: int
    N: int
    config: dict | None = field(default=None, repr=False)
    d_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise InvalidConfigError("signal spectrum must be a non-empty 1-d array")
        if d.size != self.M:
            raise InvalidConfigError(f"len(d)={d.size} does not match M={self.M}")
        if not np.all(np.isfinite(d)):
            raise InvalidConfigError("signal spectrum contains non-finite entries")
        if np.any(d < 0):
            raise InvalidConfigError("signal singular values must be nonnegative")
        if self.M > self.N:
            raise InvalidConfigError(f"M={self.M} exceeds N={self.N}")
        d = np.sort(d)[::-1].copy()
        if not _in_edge_range(d.item(0)):
            raise InvalidConfigError(f"signal value d_1={d.item(0)!r} squares past the float range of the edge solve")
        dsq = d * d
        d.flags.writeable = False
        dsq.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_sq", dsq)

    @property
    def c_N(self) -> float:
        return self.M / self.N


def _in_edge_range(x: float) -> bool:
    """The one rule for a largest signal value x, a Python float: the edge solve forms no inf.

    The scan ends at 4 (x^2 + 1)(1 + sqrt c)^2 <= 16 (x^2 + 1), as c <= 1
    (edge._find_roots).  The certificate ends at x^2 + max(4, 2 x^2, 2 (h - x^2))
    (edge._no_root_right_of), with its cell's right end h left of a scan's end:
    at most 32 (x^2 + 1), x the largest d_1 of the rows solved together, each
    one checked here.  Past x^2 + 4, 1 - c f <= 1 + c/4, so the 2 w (1 - c f)
    that phi' and the certificate form at a point w stays below 2.5 w: the rule
    keeps 80 (x^2 + 1) finite.  A product of Python floats overflows to inf
    without a numpy warning (x ** 2 would raise OverflowError instead).
    """
    return math.isfinite(80.0 * (x * x + 1.0))


def _as_number(value, what: str) -> float:
    """A JSON number (an int or float, not a bool) as a float; InvalidConfigError naming `what` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise InvalidConfigError(f"spectrum config {what} must be a number in the float range")


def grid(start: float, stop: float, step: float, what: str) -> np.ndarray:
    """The closed grid start, start + step, ..., stop, point k at start + step k.

    Domain: finite start, stop and step with step > 0, stop >= start and at
    most MAX_GRID_POINTS points; otherwise InvalidArgumentError, its message
    led by `what`.  stop is included when it lies within 1e-9 steps of a grid point.
    """
    if not (math.isfinite(start) and 0 < step < math.inf and start <= stop < math.inf):
        raise InvalidArgumentError(f"{what} grid requires finite bounds, step > 0 and stop >= start")
    # steps from start to the last point; infinite when (stop - start) / step overflows
    last = (stop - start) / step + 1e-9
    if not last < MAX_GRID_POINTS:
        raise InvalidArgumentError(f"{what} grid would have more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(math.floor(last) + 1)


def _require_int(config, key):
    value = config.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise InvalidConfigError(f"spectrum config field {key!r} must be a positive integer")
    return value


def load_spectrum(config: dict) -> SpectrumModel:
    """Build a validated SpectrumModel from a spectrum-spec dictionary.

    Recognized forms (all carry positive integer fields M and N):
      {"type": "constant",   "d": value}
      {"type": "explicit",   "d": [values]}
      {"type": "uniform_sq", "v_min": a, "v_max": b}   with d_i^2 on the
        endpoint-inclusive grid  b - (i-1)(b-a)/(M-1).
    """
    if not isinstance(config, dict):
        raise InvalidConfigError("spectrum config must be a JSON object")
    kind = config.get("type")
    if kind not in _SPECTRUM_TYPES:
        raise InvalidConfigError(f"unknown spectrum type {kind!r}; expected one of {_SPECTRUM_TYPES}")
    M = _require_int(config, "M")
    N = _require_int(config, "N")

    if kind == "constant":
        d = np.full(M, _as_number(config.get("d"), "field 'd'"))
    elif kind == "explicit":
        entries = config.get("d")
        if not isinstance(entries, (list, tuple)) or len(entries) == 0:
            raise InvalidConfigError("explicit spectrum requires a non-empty list 'd'")
        d = np.array([_as_number(v, f"entry d[{k}]") for k, v in enumerate(entries)])
    else:
        v_min = _as_number(config.get("v_min"), "field 'v_min'")
        v_max = _as_number(config.get("v_max"), "field 'v_max'")
        if v_min < 0 or v_max < v_min:
            raise InvalidConfigError("uniform_sq requires 0 <= v_min <= v_max")
        if M == 1:
            dsq = np.array([v_max])
        else:
            i = np.arange(M)
            dsq = v_max - i * (v_max - v_min) / (M - 1)
        d = np.sqrt(dsq)

    return SpectrumModel(d=d, M=M, N=N, config=dict(config))


def _as_integer(name: str, value) -> int:
    """The one integer rule for sizes, counts and seeds: `value` as a Python int.

    Python and numpy integers pass through `operator.index`; a bool, a float,
    a string or any other value raises InvalidArgumentError naming `name`.
    """
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def with_size(model: SpectrumModel, N: int) -> SpectrumModel:
    """Regenerate the model at a new noise dimension N, keeping c_N and the spectral shape.

    N is a Python or numpy integer, not a bool; any other N raises
    InvalidArgumentError.  Only generated spectra (constant, uniform_sq) loaded
    by `load_spectrum` can be resized; an explicit list has no size-free
    description.  The new M = c_N N must be a positive integer (to 1e-9
    relative): rounding it would quietly change c_N.
    """
    N = _as_integer("N", N)
    if N == model.N:
        return model
    config = model.config
    if config is None:
        raise InvalidConfigError("cannot resize a model that load_spectrum did not build: it has no config")
    if config.get("type") == "explicit":
        raise InvalidConfigError("cannot resize an explicit spectrum")
    exact_M = model.M * N / model.N
    M = round(exact_M)
    if M < 1 or abs(exact_M - M) > 1e-9 * exact_M:
        raise InvalidArgumentError(
            f"cannot resize to N={N}: c_N={model.c_N!r} gives M = c_N N = {exact_M!r}, not a positive integer")
    new_config = dict(config)
    new_config["M"] = M
    new_config["N"] = N
    return load_spectrum(new_config)
