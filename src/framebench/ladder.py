"""Ladder verdict rules and the witness record of battery and sampling reports.

A witness is one finite-truncation quantity recorded at every ladder size.
A gain witness fails when it shrinks by more than ``LADDER_DECAY_FACTOR``
from the first to the last size, a condition witness when it grows by more
than that or trips the singular flag; final values in ``[tol, 10 tol]`` are
borderline.
"""

from dataclasses import dataclass
import math
from typing import Tuple, Union

#: A gain witness may shrink (a condition witness grow) by at most this
#: factor from the first to the last ladder size.
LADDER_DECAY_FACTOR = 4.0

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_BORDERLINE = "borderline"


def in_borderline_band(value, tol) -> bool:
    """True for a lower bound or gain in the borderline band [tol, 10 tol]."""
    return tol <= value <= 10 * tol


def _gain_verdict(values, tol) -> str:
    final = values[-1]
    if final < tol:
        return VERDICT_FAIL
    if in_borderline_band(final, tol):
        return VERDICT_BORDERLINE
    if values[0] > final * LADDER_DECAY_FACTOR:
        return VERDICT_FAIL
    return VERDICT_PASS


def _condition_verdict(values, tol) -> str:
    # Mirror of the gain rule on the reciprocal condition number.
    final = values[-1]
    rcond = 0.0 if math.isinf(final) else 1.0 / final
    if rcond < tol:
        return VERDICT_FAIL
    if in_borderline_band(rcond, tol):
        return VERDICT_BORDERLINE
    if math.isinf(values[0]) or final > values[0] * LADDER_DECAY_FACTOR:
        return VERDICT_FAIL
    return VERDICT_PASS


def _decided(verdicts) -> set:
    return {v for v in verdicts if v != VERDICT_BORDERLINE}


def verdicts_agree(verdicts) -> bool:
    """True when the decided (non-borderline) verdicts all agree."""
    return len(_decided(verdicts)) <= 1


def consensus(verdicts) -> str:
    """The verdict all decided verdicts agree on; borderline if there is none."""
    agreed = _decided(verdicts)
    return agreed.pop() if len(agreed) == 1 else VERDICT_BORDERLINE


def witness_value(v):
    """A witness value as reports write it: the string singular for the
    infinite singular flag of a condition witness, else the float."""
    return "singular" if math.isinf(v) else float(v)


@dataclass(frozen=True)
class Witness:
    """Per-witness ladder quantities and the trend verdict.

    ``id`` is the condition number (1-10) in a battery report and the item
    letter in a sampling report.
    """

    id: Union[int, str]
    statement: str
    proxy_note: str
    quantities: Tuple[Tuple[int, float], ...]
    verdict: str
    kind: str  # "gain" or "condition"

    @classmethod
    def from_ladder(cls, wid, statement, proxy_note, sizes, values, kind,
                    tol) -> "Witness":
        rule = _gain_verdict if kind == "gain" else _condition_verdict
        return cls(
            id=wid,
            statement=statement,
            proxy_note=proxy_note,
            quantities=tuple((int(s), float(v)) for s, v in zip(sizes, values)),
            verdict=rule(values, tol),
            kind=kind,
        )

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "quote": self.statement,
            "proxy_note": self.proxy_note,
            "quantities": [[int(s), witness_value(v)] for s, v in self.quantities],
            "verdict": self.verdict,
        }
