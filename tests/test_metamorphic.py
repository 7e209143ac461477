"""Metamorphic relations: a transformed instance has a predictable answer.

The twelve 3+3 instances ``random_instance(default_rng([7, k]), 3, 3)``
are solved at q = 2.5 with 16 relays from the one deterministic start
(``restarts=0``), then again after a map that the problem commutes with
(Chen, Cheung & Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).
Scaling every mass by a power of two and reflecting x -> -x leave every
float operation exact, so ``cost_q`` matches bit for bit.  The axis swap,
the reversed terminal order and a translation reorder or round the sums,
so ``cost_q`` agrees to 1e-14 relative (at most 2.8e-16 measured).
"""

import numpy as np
import pytest

from branchflow import Atom, CostParams, SignedConfig, alternate_minimize, random_instance

Q = 2.5
N = 16
PARAMS = CostParams(q=Q, restarts=0)
INSTANCES = [random_instance(np.random.default_rng([7, k]), 3, 3) for k in range(12)]


def _mapped(cfg, move=lambda p: p, mass=1.0, reverse=False):
    """cfg with every position moved and every mass scaled; with
    ``reverse`` the sources and the sinks are listed last to first."""
    def atoms(side):
        out = tuple(Atom(tuple(move(np.array(a.position)).tolist()), mass * a.mass)
                    for a in side)
        return out[::-1] if reverse else out

    return SignedConfig(atoms(cfg.sources), atoms(cfg.sinks), cfg.dimension)


def _cost(cfg):
    return alternate_minimize(cfg, N, PARAMS).cost_q


@pytest.fixture(scope="module")
def base_costs():
    return [_cost(cfg) for cfg in INSTANCES]


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_exact_maps_give_the_same_bits(k, base_costs):
    cfg = INSTANCES[k]
    assert _cost(_mapped(cfg, mass=4.0)) == 4.0 * base_costs[k]
    assert _cost(_mapped(cfg, lambda p: p * np.array([-1.0, 1.0]))) == base_costs[k]


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_rounding_maps_agree_to_1e14(k, base_costs):
    cfg = INSTANCES[k]
    for moved in (_mapped(cfg, lambda p: p[::-1]),
                  _mapped(cfg, reverse=True),
                  _mapped(cfg, lambda p: p + 0.25)):
        assert _cost(moved) == pytest.approx(base_costs[k], rel=1e-14, abs=0.0)
