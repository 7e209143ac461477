import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchflow import (
    Atom,
    CostParams,
    InvalidConfigError,
    SignedConfig,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    validate,
)
from branchflow import measures
from branchflow.measures import atomic_write_text, total_mass
from branchflow.transport import TreeBasis, min_cost_plan


def pair(src_mass=1.0, snk_mass=1.0):
    return SignedConfig(
        sources=(Atom((0.0, 0.0), src_mass),),
        sinks=(Atom((1.0, 0.0), snk_mass),),
        dimension=2,
    )


class TestValidate:
    def test_balanced_pair_is_valid(self):
        cfg = pair()
        assert validate(cfg) is cfg

    def test_unbalanced_masses_rejected(self):
        with pytest.raises(InvalidConfigError, match="unbalanced"):
            validate(pair(src_mass=1.0, snk_mass=2.0))

    def test_dimension_mismatch_rejected(self):
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0, 0.0), 1.0),),
            sinks=(Atom((1.0, 0.0), 1.0),),
            dimension=2,
        )
        with pytest.raises(InvalidConfigError, match="dimension"):
            validate(cfg)

    def test_empty_side_rejected(self):
        cfg = SignedConfig(sources=(), sinks=(Atom((0.0, 0.0), 1.0),), dimension=2)
        with pytest.raises(InvalidConfigError, match="empty"):
            validate(cfg)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidConfigError, match="invalid mass"):
            validate(pair(src_mass=-1.0, snk_mass=-1.0))

    def test_nonfinite_coordinate_rejected(self):
        cfg = SignedConfig(
            sources=(Atom((math.nan, 0.0), 1.0),),
            sinks=(Atom((1.0, 0.0), 1.0),),
            dimension=2,
        )
        with pytest.raises(InvalidConfigError, match="non-finite"):
            validate(cfg)

    @pytest.mark.parametrize("dimension", [2.5, 2.0, "2", True, None])
    def test_dimension_must_be_an_integer(self, dimension):
        # SignedConfig used to truncate 2.5 to 2; it keeps what it is given
        cfg = SignedConfig(sources=(Atom((0.0, 0.0), 1.0),),
                           sinks=(Atom((1.0, 0.0), 1.0),), dimension=dimension)
        assert cfg.dimension is dimension
        with pytest.raises(InvalidConfigError, match="dimension must be an integer"):
            validate(cfg)

    def test_numpy_integer_dimension_is_an_int(self):
        cfg = SignedConfig(sources=(Atom((0.0, 0.0), 1.0),),
                           sinks=(Atom((1.0, 0.0), 1.0),), dimension=np.int64(2))
        assert type(cfg.dimension) is int and validate(cfg) is cfg

    def test_zero_total_mass_rejected(self):
        with pytest.raises(InvalidConfigError, match="positive"):
            validate(pair(src_mass=0.0, snk_mass=0.0))

    def test_balance_tolerance_is_absolute_1e12(self):
        validate(pair(src_mass=1.0, snk_mass=1.0 + 0.9e-12))
        with pytest.raises(InvalidConfigError):
            validate(pair(src_mass=1.0, snk_mass=1.0 + 1e-11))

    def test_zero_mass_atoms_retained_and_flagged(self):
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 1.0), Atom((5.0, 5.0), 0.0)),
            sinks=(Atom((1.0, 0.0), 1.0),),
            dimension=2,
        )
        validate(cfg)
        assert cfg.zero_mass_sources == (1,)
        assert cfg.zero_mass_sinks == ()


class TestValidateOnce:
    """validate keeps its verdict on a config object once the checks pass."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        check = measures._check_structure

        def counting(config):
            calls.append(config)
            check(config)

        monkeypatch.setattr(measures, "_check_structure", counting)
        return calls

    def test_an_accepted_config_is_checked_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        cfg = pair()
        for _ in range(3):
            assert validate(cfg) is cfg
        assert calls == [cfg]
        # each plan network's first solve validates the same object again
        for _ in range(2):
            min_cost_plan(cfg, np.zeros((1, 2)), 2.0, TreeBasis())
        assert calls == [cfg]
        # an equal config is another object, checked on its own
        other = pair()
        validate(other)
        assert len(calls) == 2 and calls[1] is other

    def test_a_refused_config_raises_every_time(self, monkeypatch):
        calls = self._counted(monkeypatch)
        bad = pair(src_mass=1.0, snk_mass=2.0)
        for _ in range(3):
            with pytest.raises(InvalidConfigError, match="unbalanced"):
                validate(bad)
        for _ in range(2):
            with pytest.raises(InvalidConfigError, match="unbalanced"):
                min_cost_plan(bad, None, 2.0)
        assert len(calls) == 5


class TestConfigAccessors:
    def test_total_mass_sums_sources(self):
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 0.5), Atom((1.0, 1.0), 0.5)),
            sinks=(Atom((2.0, 0.0), 1.0),),
            dimension=2,
        )
        assert total_mass(cfg) == 1.0

    def test_n_pairs_is_max_side(self):
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 0.5), Atom((1.0, 1.0), 0.5)),
            sinks=(Atom((2.0, 0.0), 1.0),),
            dimension=2,
        )
        assert cfg.n_pairs == 2

    def test_diameter_and_bbox(self):
        cfg = SignedConfig(
            sources=(Atom((-1.0, 2.0), 1.0), Atom((1.0, 2.0), 1.0)),
            sinks=(Atom((0.0, 0.0), 2.0),),
            dimension=2,
        )
        lo, hi = cfg.bbox()
        assert lo.tolist() == [-1.0, 0.0] and hi.tolist() == [1.0, 2.0]
        assert cfg.diameter() == pytest.approx(math.sqrt(5.0))

    def test_arrays_are_fresh_copies(self):
        # derived once per config, but a caller's writes never reach it
        cfg = pair(2.0, 2.0)
        for method in (cfg.source_positions, cfg.sink_positions,
                       cfg.terminal_positions, cfg.source_masses, cfg.sink_masses):
            first = method()
            first[...] = -7.0
            assert not (method() == -7.0).any()
        lo, hi = cfg.bbox()
        lo[...] = hi[...] = -7.0
        assert cfg.bbox()[0].tolist() == [0.0, 0.0]
        assert cfg.terminal_positions().tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert cfg.diameter() == 1.0
        # the derived arrays take no part in equality or hashing
        assert cfg == pair(2.0, 2.0) and hash(cfg) == hash(pair(2.0, 2.0))


class TestCostParams:
    def test_q_must_exceed_one(self):
        for bad in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(InvalidConfigError):
                CostParams(q=bad)

    def test_defaults_are_valid(self):
        p = CostParams(q=2.0)
        assert p.restarts == 8 and p.seed == 0

    def test_budget_bounds(self):
        with pytest.raises(InvalidConfigError):
            CostParams(q=2.0, restarts=-1)

    @pytest.mark.parametrize("field", ["restarts", "seed"])
    def test_restarts_and_seed_are_non_negative_integers(self, field):
        for bad in (-1, -2, 1.5, 2.0, "3", None):
            with pytest.raises(InvalidConfigError, match=field):
                CostParams(q=2.0, **{field: bad})
        for good in (0, 3, np.int64(5)):
            assert getattr(CostParams(q=2.0, **{field: good}), field) == good


class TestSerialization:
    def test_round_trip_text(self):
        cfg = SignedConfig(
            sources=(Atom((-1.0, 2.0), 1.0), Atom((1.0, 2.0), 1.0)),
            sinks=(Atom((0.0, 0.0), 2.0),),
            dimension=2,
        )
        back, q = parse_problem(serialize_problem(cfg, 2.5))
        assert q == 2.5
        assert back == cfg

    def test_round_trip_file(self, tmp_path):
        cfg = pair()
        path = tmp_path / "p.json"
        save_problem(path, cfg, 3.0)
        back, q = load_problem(path)
        assert (back, q) == (cfg, 3.0)

    def test_unreadable_problem_file_is_invalid(self, tmp_path):
        # a directory, a missing file and bytes that are not UTF-8 (a UTF-16
        # mark) are invalid input, not OSError or UnicodeDecodeError
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe")
        for path, message in ((tmp_path, "cannot read"), (not_utf8, "cannot read"),
                              (tmp_path / "missing.json", "no such file")):
            with pytest.raises(InvalidConfigError, match=message):
                load_problem(path)

    def test_problem_document_shape(self):
        doc = json.loads(serialize_problem(pair(), 2.0))
        assert set(doc) == {"dimension", "q", "sources", "sinks"}
        assert doc["sources"][0] == {"position": [0.0, 0.0], "mass": 1.0}

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_problem("{\"dimension\": 2}")
        with pytest.raises(InvalidConfigError):
            parse_problem("not json at all")

    @pytest.mark.parametrize("path, value", [
        (("dimension",), 2.5), (("dimension",), 2.0), (("dimension",), "2"),
        (("dimension",), True), (("q",), "2"), (("q",), True), (("q",), None),
        (("sources", 0, "mass"), "1.0"), (("sources", 0, "mass"), True),
        (("sinks", 0, "mass"), [1.0]), (("sinks", 0, "position", 1), "0"),
        (("sources", 0, "position", 0), False), (("sources", 0, "position"), "00"),
    ])
    def test_values_that_are_not_json_numbers_are_refused(self, path, value):
        # each used to be read: 2.5 and 2.0 as dimension 2, "2" and true as
        # numbers, the string "00" as the position (0, 0)
        doc = json.loads(serialize_problem(pair(), 2.0))
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        node[key] = value
        with pytest.raises(InvalidConfigError, match="JSON number|integer"):
            parse_problem(json.dumps(doc))

    def test_integer_dimensions_are_read(self):
        doc = json.loads(serialize_problem(pair(), 2.0))
        assert type(doc["dimension"]) is int
        assert parse_problem(json.dumps(doc))[0].dimension == 2
        # an integer-valued q, mass or coordinate is a number like any other
        doc["q"], doc["sources"][0]["mass"], doc["sinks"][0]["mass"] = 3, 1, 1
        doc["sinks"][0]["position"] = [1, 0]
        cfg, q = parse_problem(json.dumps(doc))
        assert (cfg, q) == (pair(), 3.0) and type(q) is float

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


finite_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
mass_ticks = st.integers(1, 10**6)  # masses are k * 2^-20: dyadic, sums stay exact


@given(
    src=st.lists(st.tuples(finite_coord, finite_coord, mass_ticks), min_size=1, max_size=4),
    snk_positions=st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=4),
    q=st.floats(1.01, 10.0),
)
def test_serialization_round_trip_is_exact(src, snk_positions, q):
    scale = 2.0**-20
    total_ticks = sum(k for _, _, k in src)
    sources = tuple(Atom((x, y), k * scale) for x, y, k in src)
    # integer split of the tick total balances exactly in floating point
    L = len(snk_positions)
    base, rem = divmod(total_ticks, L)
    sinks = tuple(
        Atom(p, (base + (1 if i < rem else 0)) * scale)
        for i, p in enumerate(snk_positions)
    )
    cfg = SignedConfig(sources=sources, sinks=sinks, dimension=2)
    back, q_back = parse_problem(serialize_problem(cfg, q))
    assert back == cfg and q_back == q
