"""report.scan: the one place that decides whether a residual fails.

``scan_rows`` feeds it row-valued residuals; each case below compares it
with ``scan`` over the scalar stream the rows stand for.
"""

from fractions import Fraction

from kmu.linalg import Vec
from kmu.report import scan, scan_rows


def test_zero_fraction_skipped_nonzero_reported_signed():
    record = scan("t", [((0,), Fraction(0)), ((1,), Fraction(-3, 2))])
    assert record.status == "fail"
    assert record.witness_indices == (1,)
    assert record.residual == Fraction(-3, 2)
    assert record.to_dict()["residual"] == "-3/2"


def test_zero_vec_skipped_although_truthy():
    assert bool(Vec.zero(3))
    record = scan("t", [((0, 1), Vec.zero(3)), ((1, 2), Vec([0, 1, 0]))])
    assert record.witness_indices == (1, 2)
    assert record.residual == 1
    assert record.to_dict() == {
        "identity_id": "t", "status": "fail", "witness_indices": [1, 2], "residual": "1"
    }


def test_vec_reported_by_largest_entry_magnitude():
    record = scan("t", [((4,), Vec([0, -5, 2]))])
    assert record.residual == 5
    assert type(record.residual) is Fraction


def test_none_witness_stays_none():
    record = scan("t", [(None, Fraction(487, 5))])
    assert record.witness_indices is None
    assert "witness_indices" not in record.to_dict()
    assert record.to_dict()["residual"] == "487/5"


def test_stops_at_first_nonzero_residual():
    def residuals():
        yield (0,), Fraction(0)
        yield (1,), Fraction(2)
        raise AssertionError("scan advanced past the first nonzero residual")

    record = scan("t", residuals())
    assert (record.witness_indices, record.residual) == ((1,), 2)


def test_all_zero_input_passes_with_residual_zero():
    record = scan("t", [((0,), Fraction(0)), ((1,), Vec.zero(2)), (None, Fraction(0))])
    assert record.passed
    assert record.witness_indices is None
    assert record.residual == 0
    assert record.to_dict() == {"identity_id": "t", "status": "pass", "residual": "0"}
    assert scan("t", []).to_dict() == record.to_dict()


def _scalar_stream(rows):
    """Every (witness + (d,), row[d]) that the rows stand for, zero or not."""
    return [((*w, d), x) for w, row in rows for d, x in enumerate(row)]


def _rows(*lists):
    return [((a, b), Vec(entries)) for (a, b), entries in lists]


def test_scan_rows_matches_the_scalar_stream():
    cases = {
        "all zero": _rows(((0, 1), [0, 0, 0]), ((0, 2), [0, 0, 0])),
        "first nonzero at d > 0": _rows(((0, 1), [0, 0, 0]), ((0, 2), [0, 0, 7])),
        "negative entry": _rows(
            ((1, 2), [0, Fraction(-5, 3), 4]), ((1, 3), [9, 0, 0])
        ),
    }
    for name, rows in cases.items():
        record = scan_rows("t", rows)
        assert record == scan("t", _scalar_stream(rows)), name
    assert scan_rows("t", cases["all zero"]).to_dict() == {
        "identity_id": "t", "status": "pass", "residual": "0"
    }
    assert scan_rows("t", cases["first nonzero at d > 0"]).to_dict() == {
        "identity_id": "t", "status": "fail", "witness_indices": [0, 2, 2], "residual": "7"
    }
    # signed, not a magnitude as a Vec residual is
    record = scan_rows("t", cases["negative entry"])
    assert (record.witness_indices, record.residual) == ((1, 2, 1), Fraction(-5, 3))
    assert scan_rows("t", []) == scan("t", [])


def test_scan_rows_stops_at_the_first_failing_row():
    def rows():
        yield (0,), Vec([0, 0])
        yield (1,), Vec([0, 2])
        raise AssertionError("scan_rows advanced past the first failing row")

    record = scan_rows("t", rows())
    assert (record.witness_indices, record.residual) == ((1, 1), 2)
