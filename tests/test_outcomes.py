import numpy as np
import pytest

from conftest import build_fixture

from cylsim.circuits import ClusterCircuit, MeasurementRule
from cylsim.czdec import LAMBDA
from cylsim.geometry import XY_PLANE, Z_BASIS, CylinderExtremum
from cylsim.oracle import exact_distribution, normalize_counts, tv_distance
from cylsim.outcomes import OutcomeTable, as_table
from cylsim.sampler import BLOCK_SHOTS, sample_parallel


def _tables(rep):
    """Count tables and exact distributions on 2, 4, 6 and 10 qubits: rows
    of one byte and of two."""
    chain10 = ClusterCircuit(
        10, tuple((v, v + 1) for v in range(9)),
        tuple(CylinderExtremum(0.2, 0.4 + 0.9 * v, 1 if v % 3 else -1) for v in range(10)),
        tuple(MeasurementRule(XY_PLANE, 0.3 + 0.5 * v) for v in range(10)), tuple(range(10)))
    for name in ("chain2", "cycle4", "grid2x3"):
        c = build_fixture(name, LAMBDA, adaptive=True)
        yield sample_parallel(c, 3000, 4, rep), c.n_qubits
        yield exact_distribution(c), c.n_qubits
    yield sample_parallel(chain10, 3000, 4, rep), 10
    yield exact_distribution(chain10), 10


def test_tables_behave_as_their_dicts(rep):
    for table, _ in _tables(rep):
        plain = {k: table[k] for k in table}
        assert table == plain and plain == table
        assert not table != plain and not plain != table
        changed = dict(plain, **{min(plain): plain[min(plain)] + 1})
        assert table != changed and changed != table
        assert len(table) == len(plain) and dict(table.items()) == plain
        assert list(table.values()) == list(plain.values())
        for k in plain:
            assert k in table and table.get(k) == plain[k]
        assert "2" * len(min(plain)) not in table and table.get("x") is None
        with pytest.raises(KeyError):
            table["x"]


def test_keys_are_sorted_vertex_bits(rep):
    for table, n in _tables(rep):
        keys = list(table)
        assert keys == sorted(keys) and all(len(k) == n for k in keys)
        rows = np.frombuffer(table.rows.tobytes(), dtype=np.uint8).reshape(len(keys), -1)
        assert ["".join(map(str, r[:n])) for r in np.unpackbits(rows, axis=1)] == keys
        # vertex v is position v: a rebuilt table from the strings is the same table
        assert as_table(dict(table)) == table
    # Z measurements of poles: vertex v reads 1 where its pole is -1, at position v
    for poles, key in (((1, 1, -1), "001"), ((-1, 1, 1), "100"), ((1, -1, -1), "011")):
        c = ClusterCircuit(3, ((0, 1), (1, 2)), tuple(CylinderExtremum(0, 0.3, p) for p in poles),
                           (MeasurementRule(Z_BASIS),) * 3, (2, 0, 1))
        assert sample_parallel(c, 10, 1, rep) == {key: 10}
        assert exact_distribution(c) == {key: 1.0}


def test_sample_parallel_tables_equal_across_threads(rep):
    c = build_fixture("grid2x3", LAMBDA, adaptive=True)
    shots = 2 * BLOCK_SHOTS + 3
    tables = [sample_parallel(c, shots, 6, rep, t) for t in (1, 2, 4)]
    assert all(isinstance(t, OutcomeTable) for t in tables)
    assert tables[0] == tables[1] == tables[2]
    assert [dict(t) for t in tables[1:]] == [dict(tables[0])] * 2


def test_plain_dicts_convert_once_to_one_tv():
    p = {"10": 0.25, "01": 0.75}
    q = {"11": 0.5, "01": 0.5}
    assert tv_distance(p, q) == tv_distance(as_table(p), as_table(q)) == 0.5
    assert tv_distance(p, {}) == tv_distance({}, p) == 0.5
    assert normalize_counts({"0": 0}) == {} and normalize_counts({}) == {}
    assert normalize_counts(as_table({"1": 3, "0": 1})) == {"0": 0.25, "1": 0.75}
    for bad in ({"0": 1, "00": 1}, {"02": 1}, {"": 1.0}):
        with pytest.raises(ValueError):
            as_table(bad)
    with pytest.raises(ValueError):
        tv_distance({"0": 1.0}, {"00": 1.0})
