"""report.scan: the one place that decides whether a residual fails."""

from fractions import Fraction

from kmu.linalg import Vec
from kmu.report import scan


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
