"""Problem instances for discrete branched-transport experiments.

An instance pairs two atomic measures of equal total mass: supply atoms
("sources") and demand atoms ("sinks") embedded in R^k.  Configurations are
plain frozen dataclasses; once :func:`validate` has accepted one it is safe
to share across threads, and every solver entry point assumes a validated
config.

The on-disk problem format is a single JSON document::

    {
      "dimension": 2,
      "q": 2.0,
      "sources": [{"position": [0.0, 0.0], "mass": 1.0}, ...],
      "sinks":   [{"position": [1.0, 0.0], "mass": 1.0}, ...]
    }

Field names are fixed.  Values are JSON numbers, parsed as 64-bit floats
(the dimension as an integer); serialization uses shortest round-trip
reprs, so parse(serialize(c)) reproduces c bit-exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

#: absolute tolerance on |sum(source masses) - sum(sink masses)|
BALANCE_ATOL = 1e-12


class InvalidConfigError(ValueError):
    """A problem instance violates a structural constraint."""


@dataclass(frozen=True)
class Atom:
    """Point mass: a position in R^k and a nonnegative weight."""

    position: tuple[float, ...]
    mass: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        object.__setattr__(self, "mass", float(self.mass))

    @property
    def dim(self) -> int:
        return len(self.position)


@dataclass(frozen=True)
class SignedConfig:
    """Source and sink atom lists plus the ambient dimension.

    Source and sink counts may differ.  Zero-mass atoms are legal: they are
    retained (see :attr:`zero_mass_sources` / :attr:`zero_mass_sinks`) and
    skipped wherever only positive-mass terminals are meaningful.
    """

    sources: tuple[Atom, ...]
    sinks: tuple[Atom, ...]
    dimension: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "sinks", tuple(self.sinks))
        if isinstance(self.dimension, numbers.Integral) and not isinstance(self.dimension, bool):
            object.__setattr__(self, "dimension", int(self.dimension))

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_sinks(self) -> int:
        return len(self.sinks)

    @property
    def n_pairs(self) -> int:
        """Terminal-count parameter N used in structural bounds."""
        return max(len(self.sources), len(self.sinks))

    @property
    def zero_mass_sources(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.sources) if a.mass == 0.0)

    @property
    def zero_mass_sinks(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.sinks) if a.mass == 0.0)

    # The arrays, the total mass and the diameter are derived once per
    # instance: the dataclass is frozen and its atoms are immutable.  The
    # public methods return fresh copies so callers can mutate freely.
    @cached_property
    def _source_positions(self) -> np.ndarray:
        return np.array([a.position for a in self.sources], dtype=float).reshape(
            len(self.sources), self.dimension
        )

    @cached_property
    def _sink_positions(self) -> np.ndarray:
        return np.array([a.position for a in self.sinks], dtype=float).reshape(
            len(self.sinks), self.dimension
        )

    @cached_property
    def _terminal_positions(self) -> np.ndarray:
        return np.vstack([self._source_positions, self._sink_positions])

    @cached_property
    def _source_masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.sources], dtype=float)

    @cached_property
    def _sink_masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.sinks], dtype=float)

    @cached_property
    def _total_mass(self) -> float:
        return float(sum(a.mass for a in self.sources))

    @cached_property
    def _diameter(self) -> float:
        pts = self._terminal_positions
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    def source_positions(self) -> np.ndarray:
        return self._source_positions.copy()

    def sink_positions(self) -> np.ndarray:
        return self._sink_positions.copy()

    def source_masses(self) -> np.ndarray:
        return self._source_masses.copy()

    def sink_masses(self) -> np.ndarray:
        return self._sink_masses.copy()

    def terminal_positions(self) -> np.ndarray:
        return self._terminal_positions.copy()

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self._terminal_positions
        return pts.min(axis=0), pts.max(axis=0)

    def diameter(self) -> float:
        """Largest pairwise distance between terminals."""
        return self._diameter

    @cached_property
    def _valid(self) -> bool:
        """:func:`validate`'s verdict, kept only once its checks pass: a
        config that fails them raises on every read."""
        _check_structure(self)
        return True


def total_mass(config: SignedConfig) -> float:
    """Total source mass (equals total sink mass for a validated config),
    summed once per config object."""
    return config._total_mass


def validate(config: SignedConfig) -> SignedConfig:
    """Check structural constraints and return the config unchanged.

    Raises :class:`InvalidConfigError` on: empty source or sink list, a
    dimension that is not an int >= 1, mixed or mismatched dimensions,
    non-finite coordinates or masses, negative masses, unbalanced totals,
    or zero total mass.  Idempotent; the checks run once per config
    object, whose verdict is kept once they pass.
    """
    config._valid  # runs the checks until they pass once
    return config


def _check_structure(config: SignedConfig) -> None:
    if not config.sources or not config.sinks:
        raise InvalidConfigError("empty source or sink list")
    if type(config.dimension) is not int:
        raise InvalidConfigError(f"dimension must be an integer, got {config.dimension!r}")
    if config.dimension < 1:
        raise InvalidConfigError(f"dimension must be >= 1, got {config.dimension}")
    for kind, atoms in (("source", config.sources), ("sink", config.sinks)):
        for i, atom in enumerate(atoms):
            if atom.dim != config.dimension:
                raise InvalidConfigError(
                    f"{kind} {i} has dimension {atom.dim}, expected {config.dimension}"
                )
            if not all(math.isfinite(c) for c in atom.position):
                raise InvalidConfigError(f"{kind} {i} has non-finite coordinates")
            if not math.isfinite(atom.mass) or atom.mass < 0.0:
                raise InvalidConfigError(f"{kind} {i} has invalid mass {atom.mass}")
    src_total = sum(a.mass for a in config.sources)
    snk_total = sum(a.mass for a in config.sinks)
    if abs(src_total - snk_total) > BALANCE_ATOL:
        raise InvalidConfigError(
            f"unbalanced: source mass {src_total!r} != sink mass {snk_total!r}"
        )
    if src_total <= 0.0:
        raise InvalidConfigError("total mass must be positive")


def validate_exponent(q: float) -> float:
    """Check a transport exponent and return it unchanged.

    Raises :class:`InvalidConfigError` unless q is finite and >= 1, the
    range of every cost in this package; the solver's :class:`CostParams`
    further requires q > 1.
    """
    if not math.isfinite(q) or q < 1.0:
        raise InvalidConfigError(f"exponent q must be finite and >= 1, got {q}")
    return q


@dataclass(frozen=True)
class CostParams:
    """Transport exponent and multistart settings for the solver.

    q must be strictly greater than 1 (q = 1 collapses relay atoms into the
    plain Wasserstein problem; use :func:`branchflow.transport.wasserstein_q`
    directly for that).  restarts and seed must be integers >= 0.  The
    solver's tolerances and iteration budgets are constants of
    :mod:`branchflow.positions` (GRAD_TOL, INNER_ITERS, NEWTON_ITERS).
    """

    q: float
    restarts: int = 8             # random multistarts (plus one deterministic seed)
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.q) or self.q <= 1.0:
            raise InvalidConfigError(f"q must be a finite real > 1, got {self.q}")
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise InvalidConfigError(f"{name} must be an integer >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# problem-file serialization

def config_to_dict(config: SignedConfig, q: float) -> dict:
    return {
        "dimension": config.dimension,
        "q": float(q),
        "sources": [
            {"position": list(a.position), "mass": a.mass} for a in config.sources
        ],
        "sinks": [
            {"position": list(a.position), "mass": a.mass} for a in config.sinks
        ],
    }


def _number(value, name: str):
    """``value`` if it is a JSON number, an int or a float; else TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    return value


def _atoms(records) -> tuple[Atom, ...]:
    return tuple(Atom(tuple(float(_number(c, "a coordinate")) for c in a["position"]),
                      float(_number(a["mass"], "a mass"))) for a in records)


def config_from_dict(doc: dict) -> tuple[SignedConfig, float]:
    """Build and validate a config from a parsed problem document, whose
    dimension, q, masses and coordinates must be JSON numbers."""
    try:
        dimension = _number(doc["dimension"], "dimension")
        q = float(_number(doc["q"], "q"))
        sources, sinks = _atoms(doc["sources"]), _atoms(doc["sinks"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"malformed problem document: {exc}") from exc
    return validate(SignedConfig(sources, sinks, dimension)), validate_exponent(q)


def serialize_problem(config: SignedConfig, q: float) -> str:
    return json.dumps(config_to_dict(config, q), indent=2) + "\n"


def parse_problem(text: str) -> tuple[SignedConfig, float]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_problem(path: str | Path, config: SignedConfig, q: float) -> None:
    atomic_write_text(path, serialize_problem(config, q))


def read_input_text(path: str | Path) -> str:
    """An input file's UTF-8 text; a file that cannot be read is invalid input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InvalidConfigError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read {path}: {exc}")


def load_problem(path: str | Path) -> tuple[SignedConfig, float]:
    return parse_problem(read_input_text(path))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
