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

Field names are fixed.  Numbers are parsed as 64-bit floats; serialization
uses shortest round-trip reprs, so parse(serialize(c)) reproduces c
bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
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

    # The arrays and the diameter are derived once per instance: the
    # dataclass is frozen and its atoms are immutable.  The public methods
    # return fresh copies so callers can mutate freely.
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


def total_mass(config: SignedConfig) -> float:
    """Total source mass (equals total sink mass for a validated config)."""
    return float(sum(a.mass for a in config.sources))


def validate(config: SignedConfig) -> SignedConfig:
    """Check structural constraints and return the config unchanged.

    Raises :class:`InvalidConfigError` on: empty source or sink list, mixed
    or mismatched dimensions, non-finite coordinates or masses, negative
    masses, unbalanced totals, or zero total mass.  Idempotent.
    """
    if not config.sources or not config.sinks:
        raise InvalidConfigError("empty source or sink list")
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
    return config


@dataclass(frozen=True)
class CostParams:
    """Transport exponent and multistart settings for the solver.

    q must be strictly greater than 1 (q = 1 collapses relay atoms into the
    plain Wasserstein problem; use :func:`branchflow.transport.wasserstein_q`
    directly for that).  The solver's tolerances and iteration budgets are
    constants of :mod:`branchflow.positions` (GRAD_TOL, REL_TOL, MAX_ROUNDS,
    INNER_ITERS, POLISH_ITERS).
    """

    q: float
    restarts: int = 8             # random multistarts (plus one deterministic seed)
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.q) or self.q <= 1.0:
            raise InvalidConfigError(f"q must be a finite real > 1, got {self.q}")
        if self.restarts < 0:
            raise InvalidConfigError("restarts must be >= 0")


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


def config_from_dict(doc: dict) -> tuple[SignedConfig, float]:
    """Build and validate a config from a parsed problem document."""
    try:
        dimension = int(doc["dimension"])
        q = float(doc["q"])
        sources = tuple(
            Atom(tuple(float(c) for c in a["position"]), float(a["mass"]))
            for a in doc["sources"]
        )
        sinks = tuple(
            Atom(tuple(float(c) for c in a["position"]), float(a["mass"]))
            for a in doc["sinks"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"malformed problem document: {exc}") from exc
    return validate(SignedConfig(sources, sinks, dimension)), q


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


def load_problem(path: str | Path) -> tuple[SignedConfig, float]:
    return parse_problem(Path(path).read_text())


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
