"""A simple sequential-composition privacy accountant.

The paper notes (Section 8) that answering ``k`` queries costs an ``O(k)``
factor under standard sequential composition.  The accountant implemented
here tracks exactly that: every release charges its ``ε`` against a global
budget and the accountant refuses further releases once the budget is
exhausted.  It is intentionally conservative (pure ε-DP sequential
composition, no advanced/Rényi accounting), matching the mechanisms in this
library, which are all pure ε-DP.

Sequential composition is a plain sum, so a ledger is not a list of charges
but the exact total of its ε — a whole number of 2⁻¹⁰⁷⁴ units, which every
finite float is — plus a count of the charges held per ``(ε, label)`` pair.
Charges and refunds never round, ``spent`` is the correctly rounded float of
the exact sum, every operation takes constant time, and a ledger's size
grows with its distinct pairs, not its history.  Only this module knows the
layout: the serving layer persists ledgers through
:meth:`PrivacyAccountant.snapshot` and :meth:`PrivacyAccountant.restore`.

The accountant is thread-safe: :meth:`PrivacyAccountant.charge` performs its
affordability check and the ledger update atomically under an internal lock,
so concurrent releases (e.g. from the batch executor of
:mod:`repro.service`) can never jointly overspend the budget.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.exceptions import PrivacyError

__all__ = ["PrivacyAccountant"]

#: Every finite float is a whole multiple of 2**-1074, the smallest subnormal.
_UNIT = 1 << 1074


def _units(epsilon: float) -> int:
    """``epsilon`` as an exact whole number of 2**-1074 units."""
    numerator, denominator = epsilon.as_integer_ratio()  # denominator is 2**k
    return numerator << (1075 - denominator.bit_length())


def _validate_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive and finite, got {epsilon}")


class PrivacyAccountant:
    """Tracks cumulative ε under sequential composition.

    Parameters
    ----------
    total_budget:
        The overall ε budget available.

    Examples
    --------
    >>> accountant = PrivacyAccountant(total_budget=2.0)
    >>> accountant.charge(0.5, label="q1")
    >>> accountant.remaining
    1.5
    >>> accountant.can_afford(1.6)
    False
    >>> accountant.refund(0.5, label="q1")
    >>> accountant.remaining
    2.0
    """

    def __init__(self, total_budget: float):
        # NaN slips through a bare "<= 0" comparison and would silently deny
        # every later charge; reject non-finite budgets at construction.
        if not math.isfinite(total_budget) or total_budget <= 0:
            raise PrivacyError(
                f"the total budget must be positive and finite, got {total_budget}"
            )
        self.total_budget = total_budget
        #: Number of charges held per ``(epsilon, label)`` pair.
        self.charges: Counter[tuple[float, str]] = Counter()
        self._units = 0
        self._count = 0
        self._spent: float = 0
        self._lock = threading.RLock()

    def _add(self, epsilon: float, label: str, n: int) -> None:
        """Add ``n`` charges of ``(epsilon, label)`` (remove them if ``n < 0``)."""
        held = self.charges[(epsilon, label)] + n
        if held:
            self.charges[(epsilon, label)] = held
        else:
            del self.charges[(epsilon, label)]
        self._units += n * _units(epsilon)
        self._count += n
        # An empty ledger reads 0, the sum of no charges.
        self._spent = self._units / _UNIT if self._units else 0

    @property
    def spent(self) -> float:
        """Total ε consumed so far."""
        return self._spent

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.total_budget - self.spent

    @property
    def charge_count(self) -> int:
        """Number of charges held."""
        return self._count

    def can_afford(self, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits in the remaining budget."""
        _validate_epsilon(epsilon)
        return epsilon <= self.remaining + 1e-12

    def charge(self, epsilon: float, label: str = "") -> None:
        """Record a charge of ``epsilon``; raises if the budget is exceeded.

        Check and update happen atomically, so concurrent callers cannot
        jointly exceed the budget.
        """
        with self._lock:
            if not self.can_afford(epsilon):
                raise PrivacyError(
                    f"privacy budget exhausted: requested {epsilon}, remaining {self.remaining}"
                )
            self._add(epsilon, label, 1)

    def refund(self, epsilon: float, label: str = "") -> None:
        """Take back one charge of ``(epsilon, label)``, restoring its ε.

        The serving layer calls this to roll back a reservation whose release
        failed before any noisy value was produced, and to mirror such a
        rollback journaled by a sibling worker.  Refunding a pair the ledger
        does not hold raises :class:`PrivacyError`.
        """
        with self._lock:
            if not self.charges[(epsilon, label)]:
                raise PrivacyError(
                    f"cannot refund a charge that is not in the ledger: {epsilon} {label!r}"
                )
            self._add(epsilon, label, -1)

    def restore_charge(self, epsilon: float, label: str = "", n: int = 1) -> None:
        """Re-apply ``n`` historically granted charges during recovery.

        Unlike :meth:`charge` this skips the affordability check: the charge
        was granted in a previous process lifetime and must be reflected in
        the recovered ledger even if the accountant was reconfigured with a
        smaller budget (in which case the ledger simply reads as overspent
        and denies everything further — the conservative direction).
        """
        _validate_epsilon(epsilon)
        if n < 1:
            raise PrivacyError(f"a restored charge count must be positive, got {n}")
        with self._lock:
            self._add(epsilon, label, n)

    def snapshot(self) -> list[list]:
        """The ledger as ``[epsilon, label, n]`` entries, one per distinct pair."""
        with self._lock:
            return [[epsilon, label, n] for (epsilon, label), n in self.charges.items()]

    def restore(self, entries: Iterable[Sequence]) -> None:
        """Re-apply entries written by :meth:`snapshot`; an entry without a
        count (format-1 snapshots stored one ``[epsilon, label]`` per charge)
        is one charge."""
        for epsilon, label, *n in entries:
            self.restore_charge(float(epsilon), label=str(label), n=int(n[0]) if n else 1)

    def run(self, epsilon: float, release: Callable[[], object], label: str = "") -> object:
        """Charge ``epsilon`` and, only if affordable, execute ``release()``.

        The charge is recorded *before* running the release so that a failure
        inside the release function still counts against the budget (the data
        may already have been touched).
        """
        self.charge(epsilon, label=label)
        return release()
