"""Verification records shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, rat_str

# Emitted with every model report: the h eigenvalue is defined by
# computation, not by the commonly quoted closed form with denominator 2.
LAMBDA_NOTE = (
    "lambda is the computed positive eigenvalue of h, equal to"
    " (beta^2 - alpha^2)/4 for this family; this is the unique value"
    " satisfying lambda^2 = 1 - kappa. The alternative normalization"
    " (beta^2 - alpha^2)/2 sometimes quoted for these models fails that"
    " identity and is not used."
)


@dataclass(frozen=True)
class IdentityRecord:
    """One verified identity: id, pass/fail, witness and residual."""

    identity_id: str
    status: str
    witness_indices: tuple | None
    residual: Fraction

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"identity_id": self.identity_id, "status": self.status}
        if self.witness_indices is not None:
            out["witness_indices"] = list(self.witness_indices)
        out["residual"] = rat_str(self.residual)
        return out


def scan(identity_id: str, residuals) -> IdentityRecord:
    """Pass record, or a fail record at the first nonzero residual.

    ``residuals`` yields (witness index tuple, lhs - rhs) for every tuple
    a check visits, zero or not, and is consumed only up to its first
    nonzero residual.  A ``Fraction`` residual is reported signed, a
    ``Vec`` residual by its largest entry magnitude.  Every record is
    made here, so none reads pass without a scan behind it.
    """
    for witness, residual in residuals:
        if isinstance(residual, Vec):
            # a Vec has a length, so its truth value says nothing
            if residual.is_zero():
                continue
            residual = max(abs(x) for _, x in residual.nonzero_entries())
        elif not residual:
            continue
        witness = tuple(witness) if witness is not None else None
        return IdentityRecord(identity_id, "fail", witness, residual)
    return IdentityRecord(identity_id, "pass", None, Fraction(0))


def column_residuals(matrices):
    """((*key, k), column k of D) for each (key, D) of ``matrices``, D nonzero.

    A zero D is covered by one test and yields nothing; ``scan`` reports
    the first nonzero column by its largest entry.
    """
    for key, D in matrices:
        if not D.is_zero():
            yield from (((*key, k), D.col(k)) for k in range(D.shape[1]))


def entry_residuals(matrices):
    """((*key, k, l), D[l, k]) for each nonzero entry of each (key, D).

    In column-then-row order: column k of D is the row of (*key, k).
    """
    for key, D in matrices:
        for (k, l), x in D.transpose().nonzero_entries():
            yield (*key, k, l), x


def all_passed(records) -> bool:
    return all(r.passed for r in records)
