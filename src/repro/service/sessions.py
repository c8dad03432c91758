"""Per-session budget ledgers, session expiry and the audit log.

Each client session owns a :class:`~repro.mechanisms.accountant.PrivacyAccountant`
(its *ledger*).  The manager can additionally hold a *shared* accountant —
the deployment-wide budget all sessions draw from — in which case a charge
must fit in both.

Charging is **transactional** (:meth:`SessionManager.begin_charge`): the ε
is *reserved* against both ledgers under the session's lock, the charge is
*journaled* to the write-ahead ledger journal (when the manager is backed by
a :class:`~repro.service.persistence.StateStore`), and the caller then either
*commits* (the release was produced) or *rolls back* (the release failed —
both reservations are refunded and the refusal is journaled).  A request can
therefore never consume ε without either producing a release or leaving a
durable record of the refusal.

Every charge attempt — granted, denied or rolled back — is appended to a
bounded :class:`AuditLog`, the record a deployment would reconcile against
its DP disclosure policy.

Lock ordering: when a journal is attached, its store lock is the outermost
lock (``store > manager/session > accountant``); mutating paths enter
``journal.exclusive()`` first so a state snapshot can never observe an
in-memory effect whose journal record it does not cover.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import PrivacyError, ServiceError, UnknownResourceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.service.persistence import AUDIT_TAIL_LIMIT, exclusive_or_null

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.persistence import StateStore

__all__ = [
    "AuditLog",
    "AuditRecord",
    "ChargeTransaction",
    "Session",
    "SessionManager",
]


def _refund_all(epsilon: float, reservations: list[tuple[PrivacyAccountant, str]]) -> None:
    """Refund a reservation list in reverse acquisition order."""
    for accountant, label in reversed(reservations):
        accountant.refund(epsilon, label=label)


def _validate_epsilon(epsilon: object) -> None:
    """Reject a non-numeric/non-finite/non-positive charge ε."""
    if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon) or epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive and finite, got {epsilon!r}")


def _journal_safe(epsilon: object) -> float:
    """A journal/audit-safe ε for *denied* requests.

    A denial of ``NaN``/``inf``/non-numeric ε must still leave a durable
    deny record, but those values cannot be serialised (``allow_nan=False``
    everywhere); the record carries 0.0 and the detail string names the
    offending value.  Granted charges never pass through here — their ε is
    validated finite before any ledger is touched.
    """
    if isinstance(epsilon, (int, float)) and math.isfinite(epsilon):
        return float(epsilon)
    return 0.0


@dataclass(frozen=True)
class AuditRecord:
    """One entry of the audit log."""

    seq: int
    session_id: str
    action: str  # "create" | "charge" | "deny" | "rollback" | "close" | "expire"
    epsilon: float
    label: str
    ok: bool
    detail: str
    timestamp: float

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable view."""
        return {
            "seq": self.seq,
            "session": self.session_id,
            "action": self.action,
            "epsilon": self.epsilon,
            "label": self.label,
            "ok": self.ok,
            "detail": self.detail,
            "timestamp": self.timestamp,
        }


class AuditLog:
    """A thread-safe, bounded, append-only audit trail."""

    def __init__(self, max_records: int = 10_000):
        if max_records <= 0:
            raise ServiceError(f"max_records must be positive, got {max_records}")
        self._lock = threading.RLock()
        self._records: deque[AuditRecord] = deque(maxlen=max_records)
        self._seq = itertools.count()
        self._total = 0

    def append(
        self,
        session_id: str,
        action: str,
        *,
        epsilon: float = 0.0,
        label: str = "",
        ok: bool = True,
        detail: str = "",
        timestamp: float | None = None,
    ) -> AuditRecord:
        """Record an event; the oldest record is dropped when full.

        ``timestamp`` defaults to now; the journal fold passes the time the
        event was journaled.
        """
        with self._lock:
            record = AuditRecord(
                seq=next(self._seq),
                session_id=session_id,
                action=action,
                epsilon=epsilon,
                label=label,
                ok=ok,
                detail=detail,
                timestamp=time.time() if timestamp is None else timestamp,
            )
            self._records.append(record)
            self._total += 1
        return record

    def tail(self, n: int = 50) -> list[AuditRecord]:
        """The most recent ``n`` records, oldest first."""
        with self._lock:
            return list(itertools.islice(reversed(self._records), n))[::-1] if n > 0 else []

    def restore(self, tail: list[dict[str, Any]], total_recorded: int) -> None:
        """Reload the log from a snapshot (a bounded tail + the total).

        Used once, at recovery, before any new record is appended; the
        sequence counter resumes at ``total_recorded`` so recovered and new
        records never share a seq.
        """
        with self._lock:
            if self._total:
                raise ServiceError("cannot restore an audit log that already has records")
            self._records.extend(
                AuditRecord(
                    seq=total_recorded - len(tail) + offset,
                    session_id=str(entry.get("session", "-")),
                    action=str(entry.get("action", "")),
                    epsilon=float(entry.get("epsilon", 0.0)),
                    label=str(entry.get("label", "")),
                    ok=bool(entry.get("ok", True)),
                    detail=str(entry.get("detail", "")),
                    timestamp=float(entry.get("timestamp", 0.0)),
                )
                for offset, entry in enumerate(tail)
            )
            self._total = total_recorded
            self._seq = itertools.count(total_recorded)

    @property
    def total_recorded(self) -> int:
        """Number of records ever appended (including dropped ones)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class Session:
    """One client session: an id, a budget ledger and its last activity time.

    Instances are created by :class:`SessionManager`; charge through the
    manager (or :meth:`SessionManager.charge`) rather than the raw ledger so
    the shared budget, the journal and the audit log stay consistent.
    """

    def __init__(self, session_id: str, budget: float, last_active: float):
        self.session_id = session_id
        self.ledger = PrivacyAccountant(total_budget=budget)
        self.last_active = last_active
        self.closed = False
        self.lock = threading.RLock()

    def describe(self) -> dict[str, object]:
        """A JSON-serialisable budget view."""
        spent = self.ledger.spent
        return {
            "session": self.session_id,
            "budget": self.ledger.total_budget,
            "spent": spent,
            "remaining": self.ledger.total_budget - spent,
            "charges": self.ledger.charge_count,
            "closed": self.closed,
        }


class ChargeTransaction:
    """A reserved charge awaiting :meth:`commit` or :meth:`rollback`.

    Created by :meth:`SessionManager.begin_charge` *after* the ε has been
    reserved against the session and shared ledgers and the charge has been
    journaled.  ``remaining`` is the session's post-charge remaining budget,
    captured atomically under the session lock — callers must use it instead
    of re-fetching the session, which can lose a paid-for answer to a TTL
    expiry racing the lookup.
    """

    def __init__(
        self,
        manager: "SessionManager",
        session_id: str | None,
        epsilon: float,
        label: str,
        remaining: float | None,
        reservations: list[tuple[PrivacyAccountant, str]],
        charge_seq: int | None = None,
    ):
        self._manager = manager
        self.session_id = session_id
        self.epsilon = epsilon
        self.label = label
        self.remaining = remaining
        self._reservations = reservations
        self._state = "reserved"
        #: Global ordinal of this charge among every committed charge event
        #: of the deployment (cluster-wide when journaled).  Drives the
        #: deterministic per-charge noise stream of ``noise_mode="charge-seq"``.
        self.charge_seq = charge_seq

    @property
    def state(self) -> str:
        """``"reserved"``, ``"committed"`` or ``"rolled_back"``."""
        return self._state

    def commit(self) -> None:
        """Finalise the charge (the release was produced).

        The charge was already journaled and audited atomically at reserve
        time; committing simply forfeits the right to roll back.
        """
        if self._state != "reserved":
            raise ServiceError(f"cannot commit a {self._state} charge transaction")
        self._state = "committed"

    def rollback(self, reason: str = "") -> None:
        """Refund both reservations and journal the refusal."""
        if self._state != "reserved":
            raise ServiceError(f"cannot roll back a {self._state} charge transaction")
        self._state = "rolled_back"
        self._manager._rollback(self, reason)


class SessionManager:
    """Creates, expires and charges sessions.

    Parameters
    ----------
    default_budget:
        The per-session ε budget used when ``create`` is not given one.
    ttl:
        Idle lifetime in seconds; a session untouched for longer is expired
        lazily on next access (and by :meth:`expire_idle`).  ``None`` means
        sessions never expire.
    shared:
        Optional deployment-wide accountant every charge must also fit in.
    clock:
        Monotonic time source (injectable for tests).
    journal:
        Optional :class:`~repro.service.persistence.StateStore`; when given,
        every state transition is written ahead to its ledger journal.
    """

    def __init__(
        self,
        default_budget: float = 1.0,
        *,
        ttl: float | None = None,
        shared: PrivacyAccountant | None = None,
        clock: Callable[[], float] = time.monotonic,
        audit: AuditLog | None = None,
        journal: "StateStore | None" = None,
    ):
        if not math.isfinite(default_budget) or default_budget <= 0:
            raise ServiceError(
                f"default_budget must be positive and finite, got {default_budget}"
            )
        if ttl is not None and ttl <= 0:
            raise ServiceError(f"ttl must be positive (or None), got {ttl}")
        self.default_budget = default_budget
        self.ttl = ttl
        self.shared = shared
        self.audit = audit if audit is not None else AuditLog()
        self.journal = journal
        self._clock = clock
        self._lock = threading.RLock()
        # Oldest activity first: begin_charge moves a session to the end, so
        # expiry only ever looks at the front.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        # Count of committed charge events (local + absorbed + recovered);
        # never decremented — see ChargeTransaction.charge_seq.
        self._charge_events = 0

    # ------------------------------------------------------------------ #
    # Journal plumbing
    # ------------------------------------------------------------------ #
    def _exclusive(self):
        """The journal's store lock (a no-op context without a journal)."""
        return exclusive_or_null(self.journal)

    def _record(self, event: str, *, apply: Callable[[], None] | None = None, **fields) -> None:
        """Journal ``event`` then run ``apply`` (or just run it, unjournaled)."""
        if self.journal is not None:
            self.journal.append(event, apply=apply, **fields)
        elif apply is not None:
            apply()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def create(self, *, budget: float | None = None, session_id: str | None = None) -> Session:
        """A new session (fresh ledger); raises if the id is already live."""
        budget = self.default_budget if budget is None else budget
        if not isinstance(budget, (int, float)) or not math.isfinite(budget) or budget <= 0:
            raise ServiceError(f"session budget must be positive and finite, got {budget}")
        session_id = session_id or uuid.uuid4().hex[:16]
        with self._exclusive():
            session = Session(session_id, budget, last_active=self._clock())

            def install() -> None:
                with self._lock:
                    if session.session_id in self._sessions:
                        raise ServiceError(f"session {session.session_id!r} already exists")
                    session.last_active = self._clock()
                    self._sessions[session.session_id] = session
                self.audit.append(
                    session.session_id, "create", epsilon=budget, detail="session created"
                )

            # Check uniqueness before journaling so a duplicate id never
            # leaves a create record (without a journal, install() is the
            # atomic check-and-insert).  The audit append rides inside the
            # applied effect so a compacted snapshot can never observe a
            # journaled event whose audit record has not landed yet.
            with self._lock:
                if self.journal is not None and session_id in self._sessions:
                    raise ServiceError(f"session {session_id!r} already exists")
            self._record("session_create", apply=install, session=session_id, budget=budget)
        return session

    def get(self, session_id: str) -> Session:
        """The live session (expiring it first if its TTL has lapsed)."""
        self.expire_idle()
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownResourceError(f"unknown or expired session {session_id!r}")
        return session

    def close(self, session_id: str) -> None:
        """Close and remove a session."""
        with self._exclusive():
            closed: list[Session] = []

            def remove() -> None:
                # The pop doubles as the existence check so two racing
                # closers cannot both succeed (and double-audit).
                with self._lock:
                    session = self._sessions.pop(session_id, None)
                if session is None:
                    raise UnknownResourceError(
                        f"unknown or expired session {session_id!r}"
                    )
                closed.append(session)
                self.audit.append(session_id, "close", detail="session closed")

            # With a journal, check existence before writing the close
            # record (racing closers are serialised by the store lock, so
            # remove() cannot fail after the record is journaled).
            if self.journal is not None:
                with self._lock:
                    if session_id not in self._sessions:
                        raise UnknownResourceError(
                            f"unknown or expired session {session_id!r}"
                        )
            self._record("session_close", apply=remove, session=session_id)
            closed[0].closed = True

    def expire_idle(self) -> list[str]:
        """Expire (and return the ids of) sessions idle past the TTL."""
        if self.ttl is None:
            return []
        now = self._clock()
        # Cheap pre-check before touching the (global) store lock: every
        # get() runs through here, and in the common nothing-is-stale case
        # concurrent readers must not serialize on the journal.  Sessions
        # are kept oldest-activity first, so only the front can be stale.
        with self._lock:
            oldest = next(iter(self._sessions.values()), None)
            if oldest is None or now - oldest.last_active <= self.ttl:
                return []
        expired: list[str] = []
        with self._exclusive():
            with self._lock:
                stale = list(
                    itertools.takewhile(
                        lambda item: now - item[1].last_active > self.ttl,
                        self._sessions.items(),
                    )
                )
            for session_id, session in stale:

                def remove(session_id: str = session_id) -> None:
                    with self._lock:
                        self._sessions.pop(session_id, None)
                    self.audit.append(session_id, "expire", detail="idle past ttl")

                self._record("session_expire", apply=remove, session=session_id)
                session.closed = True
                expired.append(session_id)
        return expired

    def active_ids(self) -> list[str]:
        """Ids of live sessions (after lazily expiring idle ones)."""
        self.expire_idle()
        with self._lock:
            return sorted(self._sessions)

    @property
    def charge_events(self) -> int:
        """Committed charge events ever seen (local + absorbed + recovered)."""
        with self._lock:
            return self._charge_events

    def absorb(self, record: dict[str, Any]) -> bool:
        """Apply one journal record's session, ledger and audit effect.

        With :meth:`DatabaseRegistry.absorb <repro.service.registry.DatabaseRegistry.absorb>`
        this is the single definition of what a journal record means in
        memory: startup recovery, absorption of records journaled by sibling
        worker processes, and offline ``repro-dp state replay`` all fold
        records through it, so the three can never disagree.  It mirrors the
        live mutation paths exactly — audit entries included, stamped with
        the record's journal time.  Returns ``False`` for an event that is
        not a session event.

        Records about sessions that no longer exist (an ``expire`` journaled
        after a compaction already dropped the session) are tolerated: the
        journal is the authority and later records supersede earlier ones.
        """
        event = record["event"]
        session_id = record.get("session")
        audit_id = session_id or "-"
        timestamp = record.get("ts")
        if event == "session_create":
            budget = float(record["budget"])
            with self._lock:
                if session_id not in self._sessions:
                    self._sessions[session_id] = Session(
                        session_id, budget, last_active=self._clock()
                    )
            self.audit.append(
                audit_id, "create", epsilon=budget, detail="session created",
                timestamp=timestamp,
            )
        elif event in ("session_close", "session_expire"):
            with self._lock:
                session = self._sessions.pop(session_id, None)
            if session is not None:
                session.closed = True
            action = event.removeprefix("session_")
            detail = "session closed" if event == "session_close" else "idle past ttl"
            self.audit.append(audit_id, action, detail=detail, timestamp=timestamp)
        elif event in ("charge", "rollback"):
            epsilon = float(record["epsilon"])
            label = record.get("label", "")
            charge = event == "charge"
            ledgers: list[tuple[PrivacyAccountant, str]] = []
            if session_id is not None:
                with self._lock:
                    session = self._sessions.get(session_id)
                if session is not None:
                    ledgers.append((session.ledger, label))
            # The record says whether a shared deployment accountant took
            # part; the shared ledger labels session charges
            # "<session>:<label>", exactly as the live charge path does.
            if self.shared is not None and record.get("shared", True):
                shared_label = label if session_id is None else f"{session_id}:{label}"
                ledgers.append((self.shared, shared_label))
            for ledger, ledger_label in ledgers:
                if charge:
                    ledger.restore_charge(epsilon, label=ledger_label)
                else:
                    # A rollback takes back ε only if this ledger holds its
                    # charge; otherwise it changes nothing.
                    try:
                        ledger.refund(epsilon, label=ledger_label)
                    except PrivacyError:
                        pass
            self.audit.append(
                audit_id, event, epsilon=epsilon, label=label, ok=charge,
                detail=record.get("detail", ""), timestamp=timestamp,
            )
            if charge:
                with self._lock:
                    self._charge_events += 1
        elif event == "deny":
            self.audit.append(
                audit_id,
                "deny",
                epsilon=float(record.get("epsilon", 0.0)),
                label=record.get("label", ""),
                ok=False,
                detail=record.get("detail", ""),
                timestamp=timestamp,
            )
        else:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def precheck(self, session_id: str | None, epsilon: float) -> None:
        """Cheaply reject a charge that cannot possibly succeed.

        Non-atomic and advisory — :meth:`begin_charge` remains the
        authoritative check — but it lets the service refuse hopeless
        requests *before* paying for sensitivity computation.  Denials are
        journaled and audited.
        """
        try:
            _validate_epsilon(epsilon)
            if session_id is not None:
                session = self.get(session_id)
                if not session.ledger.can_afford(epsilon):
                    raise PrivacyError(
                        f"session budget exhausted: requested {epsilon}, "
                        f"remaining {session.ledger.remaining}"
                    )
            if self.shared is not None and not self.shared.can_afford(epsilon):
                raise PrivacyError(
                    f"shared budget exhausted: requested {epsilon}, "
                    f"remaining {self.shared.remaining}"
                )
        except PrivacyError as exc:
            self._deny(session_id, epsilon, "", exc)
            raise

    def _deny(self, session_id: str | None, epsilon: object, label: str, exc: Exception) -> None:
        """Journal and audit a denied charge."""
        safe_epsilon = _journal_safe(epsilon)
        self._record(
            "deny",
            apply=lambda: self.audit.append(
                session_id if session_id is not None else "-", "deny",
                epsilon=safe_epsilon, label=label, ok=False, detail=str(exc),
            ),
            session=session_id,
            epsilon=safe_epsilon,
            label=label,
            detail=str(exc),
        )

    def begin_charge(
        self, session_id: str | None, epsilon: float, label: str = ""
    ) -> ChargeTransaction:
        """Atomically reserve and journal a charge; commit or roll back later.

        The pipeline is *reserve → journal → commit*: the ε is charged
        against the session ledger (under the session's lock) and the shared
        accountant, the charge record is appended to the write-ahead journal
        — all under the store lock, so a crash at any point replays to a
        consistent state — and the returned transaction is then committed by
        the caller once the release exists, or rolled back (refunding both
        ledgers, journaling the refusal) if producing it failed.

        ``session_id=None`` charges only the shared budget (anonymous,
        ledger-less access — the CLI one-shot path).  Denials are journaled,
        audited and re-raised as :class:`PrivacyError`.
        """
        try:
            # Validate up front: with neither a session ledger nor a shared
            # accountant no can_afford() would ever run, and a NaN/inf must
            # deny here rather than reach the journal (or silently succeed).
            _validate_epsilon(epsilon)
            if session_id is None:
                with self._exclusive():
                    reservations, charge_seq = self._reserve_and_journal(
                        None, epsilon, label
                    )
                remaining: float | None = None
            else:
                session = self.get(session_id)
                with self._exclusive():
                    with session.lock:
                        # Verify the session ledger first (under its lock, so
                        # no concurrent charge on the same session can
                        # interleave), then reserve the shared accountant
                        # (atomic), then the ledger — which can no longer
                        # fail — then journal.  Any failure refunds in
                        # reverse order.
                        if not session.ledger.can_afford(epsilon):
                            raise PrivacyError(
                                f"session budget exhausted: requested {epsilon}, "
                                f"remaining {session.ledger.remaining}"
                            )
                        reservations, charge_seq = self._reserve_and_journal(
                            session, epsilon, label
                        )
                        with self._lock:
                            session.last_active = self._clock()
                            if self._sessions.get(session_id) is session:
                                self._sessions.move_to_end(session_id)
                        remaining = session.ledger.remaining
        except PrivacyError as exc:
            self._deny(session_id, epsilon, label, exc)
            raise
        return ChargeTransaction(
            self, session_id, epsilon, label, remaining, reservations, charge_seq
        )

    def _reserve_and_journal(
        self, session: Session | None, epsilon: float, label: str
    ) -> tuple[list[tuple[PrivacyAccountant, str]], int]:
        """Reserve ε on the shared (and session) ledgers, then journal it.

        The single definition both ``begin_charge`` branches share: any
        failure — including the journal append itself — refunds every
        reservation in reverse order and re-raises.  Caller holds the store
        lock (and the session lock, when there is a session).  Returns the
        reservations and the charge's global ordinal (see
        :attr:`ChargeTransaction.charge_seq`).
        """
        session_id = session.session_id if session is not None else None
        audit_id = session_id if session_id is not None else "-"
        reservations: list[tuple[PrivacyAccountant, str]] = []
        # Mutable box: the ordinal is allocated inside the *applied* effect,
        # so a failed journal append never consumes a noise ordinal.
        seq_box: list[int] = []
        try:
            if self.shared is not None:
                shared_label = label if session is None else f"{session_id}:{label}"
                self.shared.charge(epsilon, label=shared_label)
                reservations.append((self.shared, shared_label))
            if session is not None:
                session.ledger.charge(epsilon, label=label)
                reservations.append((session.ledger, label))

            def applied() -> None:
                self.audit.append(audit_id, "charge", epsilon=epsilon, label=label)
                self._charge_events += 1
                seq_box.append(self._charge_events)

            self._record(
                "charge",
                apply=applied,
                session=session_id,
                epsilon=epsilon,
                label=label,
                shared=self.shared is not None,
            )
        except BaseException:
            _refund_all(epsilon, reservations)
            raise
        return reservations, seq_box[0]

    def charge(self, session_id: str | None, epsilon: float, label: str = "") -> None:
        """Charge ``epsilon`` and commit immediately (no release to await)."""
        self.begin_charge(session_id, epsilon, label=label).commit()

    def _rollback(self, txn: ChargeTransaction, reason: str) -> None:
        """Refund a reserved charge and journal the refusal (see ``rollback``)."""

        def undo() -> None:
            _refund_all(txn.epsilon, txn._reservations)
            self.audit.append(
                txn.session_id if txn.session_id is not None else "-",
                "rollback",
                epsilon=txn.epsilon,
                label=txn.label,
                ok=False,
                detail=reason,
            )

        self._record(
            "rollback",
            apply=undo,
            session=txn.session_id,
            epsilon=txn.epsilon,
            label=txn.label,
            detail=reason,
            shared=self.shared is not None,
        )

    def describe(self, session_id: str) -> dict[str, object]:
        """The budget view of a session, plus the shared budget if any."""
        view = self.get(session_id).describe()
        if self.shared is not None:
            view["shared_budget"] = self.shared.total_budget
            view["shared_remaining"] = self.shared.remaining
        return view

    def snapshot_state(self) -> dict[str, Any]:
        """The sessions/shared/audit portion of a compacted state snapshot.

        Called by the :class:`~repro.service.persistence.StateStore` *while
        holding its store lock*, which quiesces every mutating path, so the
        ledgers can be read consistently.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "sessions": [
                {
                    "session": session.session_id,
                    "budget": session.ledger.total_budget,
                    "charges": session.ledger.snapshot(),
                }
                for session in sessions
            ],
            "shared": (
                None
                if self.shared is None
                else {
                    "spent": self.shared.spent,
                    "charges": self.shared.snapshot(),
                }
            ),
            "audit": {
                "total_recorded": self.audit.total_recorded,
                "tail": [
                    record.to_dict() for record in self.audit.tail(AUDIT_TAIL_LIMIT)
                ],
            },
            "charge_events": self._charge_events,
        }

    def load_snapshot(self, body: dict[str, Any]) -> None:
        """Rebuild sessions, ledgers, audit log and charge ordinal from a
        snapshot written by :meth:`snapshot_state` (recovery only).

        Silent by design: no journal record (the state came *from* the
        journal).  A snapshot's shared charges are dropped when this manager
        has no shared accountant, as the journal fold drops them.
        """
        with self._lock:
            for entry in body.get("sessions", []):
                session_id = entry["session"]
                if session_id in self._sessions:
                    raise ServiceError(f"cannot load session {session_id!r}: already live")
                session = Session(session_id, float(entry["budget"]), last_active=self._clock())
                session.ledger.restore(entry.get("charges", []))
                self._sessions[session_id] = session
            self._charge_events = max(self._charge_events, int(body.get("charge_events", 0)))
        if self.shared is not None:
            self.shared.restore((body.get("shared") or {}).get("charges", []))
        audit = body.get("audit") or {}
        if audit.get("total_recorded"):
            self.audit.restore(list(audit.get("tail", [])), int(audit["total_recorded"]))
