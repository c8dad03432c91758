"""Tests for the durable state layer: journal, snapshots, recovery, rollback."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import PrivacyError, ServiceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.service.persistence import LedgerJournal, StateStore
from repro.service.service import PrivateQueryService, replay_state
from repro.service.sessions import SessionManager


def _fold_journal(tmp_path, records):
    """Write ``records`` as a journal and fold it offline."""
    with open(tmp_path / "journal.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return replay_state(str(tmp_path))


@pytest.fixture
def make_service(state_service_factory):
    """The shared durable-service factory (``toy_db`` registered, recovery-aware)."""
    return state_service_factory


class TestJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        journal = LedgerJournal(tmp_path / "j.jsonl")
        journal.append({"seq": 1, "event": "charge", "epsilon": 0.5})
        journal.append({"seq": 2, "event": "deny", "epsilon": 1.5})
        journal.close()
        records = list(LedgerJournal.read_records(tmp_path / "j.jsonl"))
        assert [r["seq"] for r in records] == [1, 2]

    def test_torn_tail_write_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = LedgerJournal(path)
        journal.append({"seq": 1, "event": "charge", "epsilon": 0.5})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "char')  # crash mid-write
        records = list(LedgerJournal.read_records(path))
        assert [r["seq"] for r in records] == [1]

    def test_mid_journal_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"seq": 2, "event": "deny"}\n', encoding="utf-8")
        with pytest.raises(ServiceError, match="corrupt journal"):
            list(LedgerJournal.read_records(path))

    def test_missing_file_is_empty(self, tmp_path):
        assert list(LedgerJournal.read_records(tmp_path / "absent.jsonl")) == []

    def test_appends_after_torn_tail_do_not_corrupt_the_journal(self, tmp_path, make_service):
        """Crash-recover-crash-recover: recovery must truncate the torn line,
        or the next append merges with it and poisons the *third* start."""
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        service.close(snapshot=False)
        with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "char')  # crash mid-append

        second = make_service(tmp_path)  # tolerates the torn tail...
        second.count("toy", "R(x, y)", epsilon=0.25, session=sid)  # ...and appends
        second.close(snapshot=False)

        third = make_service(tmp_path)  # must still be parseable
        assert third.budget(sid)["spent"] == pytest.approx(0.75)

    def test_read_only_recovery_never_mutates_the_journal(self, tmp_path, make_service):
        """`state replay` against a live server must not truncate a tail
        that may simply be a record still being flushed."""
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "char')  # in-flight record
        before = path.read_bytes()
        _, sessions, _ = replay_state(str(tmp_path))
        assert path.read_bytes() == before  # untouched
        assert sessions.get(sid).ledger.spent == pytest.approx(0.5)


class TestReplay:
    def test_charge_and_rollback_cancel_out(self, tmp_path):
        records = [
            {"seq": 1, "event": "session_create", "session": "s", "budget": 2.0},
            {"seq": 2, "event": "charge", "session": "s", "epsilon": 0.5, "label": "q"},
            {"seq": 3, "event": "rollback", "session": "s", "epsilon": 0.5, "label": "q"},
        ]
        _, sessions, _ = _fold_journal(tmp_path, records)
        assert sessions.get("s").ledger.spent == 0.0
        assert sessions.shared.spent == 0.0
        assert sessions.audit.total_recorded == 3  # create + charge + rollback all audited

    def test_close_and_expire_remove_sessions(self, tmp_path):
        records = [
            {"seq": 1, "event": "session_create", "session": "a", "budget": 1.0},
            {"seq": 2, "event": "session_create", "session": "b", "budget": 1.0},
            {"seq": 3, "event": "session_close", "session": "a"},
            {"seq": 4, "event": "session_expire", "session": "b"},
            {"seq": 5, "event": "session_expire", "session": "b"},  # tolerated
        ]
        _, sessions, _ = _fold_journal(tmp_path, records)
        assert sessions.active_ids() == []

    def test_unknown_event_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown journal event"):
            _fold_journal(tmp_path, [{"seq": 1, "event": "bogus"}])

    def test_register_tracks_highest_version(self, tmp_path):
        records = [
            {"seq": 1, "event": "register", "name": "g", "version": 3, "backend": "python"},
            {"seq": 2, "event": "unregister", "name": "g"},
        ]
        _, _, registry = _fold_journal(tmp_path, records)
        assert registry.recovered_metadata() == {}
        assert registry.snapshot_state()["versions"] == {"g": 3}


def _register_record(name, version):
    return {
        "event": "register", "name": name, "version": version, "backend": "python",
        "parallelism_mode": "thread", "relations": {"R": 2}, "private_tuples": 2,
        "epochs": {"R": 0},
    }


#: One journal tail per event type (plus one this build does not know),
#: each after a shared prefix that gives the event something to act on.
_EVENT_TAILS = {
    "session_create": [{"event": "session_create", "session": "b", "budget": 1.5}],
    "session_close": [{"event": "session_close", "session": "a"}],
    "session_expire": [{"event": "session_expire", "session": "a"}],
    "charge": [
        {"event": "charge", "session": "a", "epsilon": 0.25, "label": "q", "shared": True},
        {"event": "charge", "session": None, "epsilon": 0.5, "label": "anon", "shared": True},
    ],
    "rollback": [
        {"event": "rollback", "session": "a", "epsilon": 0.5, "label": "q",
         "detail": "release failed", "shared": True},
    ],
    "deny": [
        {"event": "deny", "session": "a", "epsilon": 9.0, "label": "",
         "detail": "session budget exhausted"},
    ],
    "register": [_register_record("h", 1), _register_record("g", 2)],
    "unregister": [{"event": "unregister", "name": "g"}],
    "mutate": [
        {"event": "mutate", "name": "g", "version": 1,
         "operations": [{"relation": "R", "op": "insert", "rows": [[3, 4]]}],
         "inserted": 1, "deleted": 0, "relations": {"R": 3}, "private_tuples": 3,
         "epochs": {"R": 1}},
    ],
    "bogus": [{"event": "bogus", "session": "a"}],
}


class TestOneFold:
    """Startup recovery, shared-store absorption and offline replay fold a
    journal through the same code, so they must agree on every event."""

    PREFIX = [
        _register_record("g", 1),
        {"event": "session_create", "session": "a", "budget": 2.0},
        {"event": "charge", "session": "a", "epsilon": 0.5, "label": "q", "shared": True},
    ]

    @staticmethod
    def _records(event):
        records = TestOneFold.PREFIX + _EVENT_TAILS[event]
        return [
            {"seq": seq, "ts": 1000.0 + seq, **record}
            for seq, record in enumerate(records, start=1)
        ]

    @staticmethod
    def _write(path, records):
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    @staticmethod
    def _view(sessions, registry):
        return {
            "sessions": {sid: sessions.get(sid).describe() for sid in sessions.active_ids()},
            "shared_spent": sessions.shared.spent,
            "audit_total": sessions.audit.total_recorded,
            "audit_tail": [record.to_dict() for record in sessions.audit.tail(1000)],
            "metadata": registry.recovered_metadata(),
            "versions": registry.snapshot_state()["versions"],
            "charge_events": sessions.charge_events,
        }

    def _recovered(self, state_dir, records):
        state_dir.mkdir()
        self._write(state_dir / "journal.jsonl", records)
        service = PrivateQueryService(
            total_budget=10.0, state_dir=str(state_dir), observability=False
        )
        try:
            return self._view(service.sessions, service.registry)
        finally:
            service.close(snapshot=False)

    def _absorbed(self, state_dir, records):
        service = PrivateQueryService(
            total_budget=10.0, state_dir=str(state_dir), shared_state=True,
            observability=False,
        )
        try:
            self._write(state_dir / "journal.jsonl", records)  # a sibling's appends
            with service.store.exclusive():
                pass  # entering the journal lock absorbs sibling records
            return self._view(service.sessions, service.registry)
        finally:
            service.close(snapshot=False)

    def _replayed(self, state_dir, records):
        state_dir.mkdir()
        self._write(state_dir / "journal.jsonl", records)
        _, sessions, registry = replay_state(str(state_dir))
        return self._view(sessions, registry)

    @pytest.mark.parametrize("event", sorted(_EVENT_TAILS))
    def test_three_paths_agree(self, tmp_path, event):
        records = self._records(event)
        paths = (self._recovered, self._absorbed, self._replayed)
        if event == "bogus":
            for index, fold in enumerate(paths):
                with pytest.raises(ServiceError, match="unknown journal event 'bogus'"):
                    fold(tmp_path / f"d{index}", records)
            return
        views = [fold(tmp_path / f"d{index}", records) for index, fold in enumerate(paths)]
        assert views[0] == views[1] == views[2]
        assert views[0]["audit_total"] == sum(
            record["event"] not in ("register", "unregister", "mutate") for record in records
        )

    def test_failed_absorption_still_advances_the_seq(self, tmp_path):
        """A sibling record the fold rejects must not let this worker reuse
        the seqs of the records after it."""
        service = PrivateQueryService(
            total_budget=10.0, state_dir=str(tmp_path), shared_state=True,
            observability=False,
        )
        try:
            records = self._records("bogus")
            tail = {"seq": len(records) + 1, "ts": 0.0, "event": "deny", "session": None,
                    "epsilon": 1.0}
            self._write(tmp_path / "journal.jsonl", records + [tail])
            with pytest.raises(ServiceError, match="unknown journal event"):
                with service.store.exclusive():
                    pass
            assert service.store.describe()["last_seq"] == tail["seq"]
        finally:
            service.close(snapshot=False)


class TestRecovery:
    def test_sessions_budgets_and_audit_survive_crash(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for _ in range(4):
            service.count("toy", "R(x, y), S(y, z)", epsilon=0.5, session=sid)
        with pytest.raises(PrivacyError):
            service.count("toy", "R(x, y)", epsilon=9.0, session=sid)
        before = service.budget(sid)
        audit_before = service.sessions.audit.total_recorded
        # The process "dies": no final snapshot is written — the journal on
        # disk is all that survives (every append was already flushed, and
        # the kernel would release the dir lock of a killed process).
        service.close(snapshot=False)

        recovered = make_service(tmp_path)
        after = recovered.budget(sid)
        assert after["spent"] == pytest.approx(before["spent"])
        assert after["remaining"] == pytest.approx(before["remaining"])
        assert after["charges"] == before["charges"]
        assert after["shared_remaining"] == pytest.approx(before["shared_remaining"])
        assert recovered.sessions.audit.total_recorded == audit_before
        # The replayed audit tail matches the live log record for record
        # (action, epsilon and detail — not just the totals).
        live_tail = [r.to_dict() for r in service.sessions.audit.tail(50)]
        replayed_tail = [r.to_dict() for r in recovered.sessions.audit.tail(50)]
        for live, replayed in zip(live_tail, replayed_tail):
            assert replayed["action"] == live["action"]
            assert replayed["epsilon"] == pytest.approx(live["epsilon"])
            assert replayed["detail"] == live["detail"]
        # The recovered ledger keeps denying once exhausted.
        with pytest.raises(PrivacyError):
            recovered.count("toy", "R(x, y)", epsilon=9.0, session=sid)

    def test_snapshot_compaction_preserves_state(self, tmp_path, make_service):
        service = make_service(tmp_path, snapshot_interval=3)
        sid = service.create_session(budget=8.0).session_id
        for _ in range(10):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert service.stats()["persistence"]["snapshots_written"] >= 2
        before = service.budget(sid)
        audit_before = service.sessions.audit.total_recorded
        service.close(snapshot=False)  # die without a final snapshot

        recovered = make_service(tmp_path, snapshot_interval=3)
        assert recovered.budget(sid)["spent"] == pytest.approx(before["spent"])
        assert recovered.sessions.audit.total_recorded == audit_before

    def test_clean_close_writes_final_snapshot(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        service.close()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["format"] == 2
        assert (tmp_path / "journal.jsonl").read_text() == ""
        recovered = make_service(tmp_path)
        assert recovered.budget(sid)["spent"] == pytest.approx(0.5)

    def test_registry_versions_resume_after_restart(self, tmp_path, toy_db, make_service):
        service = make_service(tmp_path)
        service.register_database("toy", toy_db, replace=True)
        assert service.registry.get("toy").version == 2
        service.close(snapshot=False)

        recovered = make_service(tmp_path, register=False)
        # Contents are not persisted: the name is known but not servable...
        assert "toy" in recovered.registry.recovered_metadata()
        assert "toy" not in recovered.registry
        # ...and re-registering resumes the version sequence, so cache keys
        # derived from pre-restart contents can never be served again.
        entry = recovered.register_database("toy", toy_db)
        assert entry.version == 3

    def test_closed_sessions_stay_closed_after_recovery(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.sessions.close(sid)
        service.close(snapshot=False)
        recovered = make_service(tmp_path)
        assert recovered.sessions.active_ids() == []

    def test_state_replay_matches_in_memory_state(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for epsilon in (0.5, 0.25, 0.125):
            service.count("toy", "R(x, y)", epsilon=epsilon, session=sid)
        _, sessions, _ = replay_state(str(tmp_path))
        view = sessions.get(sid).describe()
        live = service.budget(sid)
        assert view["spent"] == pytest.approx(live["spent"])
        assert view["charges"] == live["charges"]
        assert sessions.audit.total_recorded == service.sessions.audit.total_recorded

    def test_missing_state_dir_rejected_without_create(self, tmp_path):
        with pytest.raises(ServiceError, match="does not exist"):
            StateStore(str(tmp_path / "nope"), create=False)

    def test_second_live_writer_is_rejected(self, tmp_path, make_service):
        """Two live processes interleaving one journal would let replay's
        seq dedup drop charges; the second writer must fail fast."""
        service = make_service(tmp_path)
        with pytest.raises(ServiceError, match="locked by another live process"):
            StateStore(str(tmp_path))
        # Read-only inspection is always allowed...
        replay_state(str(tmp_path))
        # ...and the lock dies with the owner.
        service.close(snapshot=False)
        StateStore(str(tmp_path)).close()

    def test_shared_charge_count_survives_restart(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for _ in range(3):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert service.sessions.shared.charge_count == 3
        service.close()  # with a final snapshot: shared charges round-trip

        recovered = make_service(tmp_path)
        assert recovered.sessions.shared.charge_count == 3
        assert recovered.sessions.shared.spent == pytest.approx(1.5)

    def test_no_shared_budget_means_no_phantom_shared_spend(self, tmp_path, make_service):
        """Journal replay of a shared-budget-less deployment must not invent
        shared spend (which a snapshot-based recovery would not have)."""
        service = make_service(tmp_path, total_budget=None)
        sid = service.create_session(budget=5.0).session_id
        service.count("toy", "R(x, y)", epsilon=3.0, session=sid)

        _, sessions, _ = replay_state(str(tmp_path))
        assert sessions.shared.spent == 0.0
        assert sessions.shared.charge_count == 0
        # Restarting *with* a shared budget starts it untouched.
        service.close(snapshot=False)
        recovered = make_service(tmp_path, total_budget=4.0)
        assert recovered.sessions.shared.spent == 0.0
        assert recovered.budget(sid)["spent"] == pytest.approx(3.0)


class TestTransactionalCharge:
    def test_rollback_refunds_session_and_shared(self, tmp_path):
        shared = PrivacyAccountant(total_budget=10.0)
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, shared=shared, journal=store)
        sid = manager.create().session_id
        txn = manager.begin_charge(sid, 0.5, label="q")
        assert txn.remaining == pytest.approx(1.5)
        txn.rollback(reason="release failed")
        assert manager.get(sid).ledger.spent == 0.0
        assert shared.spent == 0.0
        actions = [record.action for record in manager.audit.tail(10)]
        assert actions == ["create", "charge", "rollback"]
        # The journal carries both the charge and the compensating rollback.
        events = [r["event"] for r in LedgerJournal.read_records(store.journal_path)]
        assert events == ["session_create", "charge", "rollback"]

    def test_non_finite_epsilon_denial_is_journaled_not_fatal(self, tmp_path):
        """A NaN/inf ε must deny as PrivacyError and leave a serialisable
        deny record — not blow up json.dumps(allow_nan=False) mid-journal."""
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, journal=store)
        sid = manager.create().session_id
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                manager.charge(sid, bad)
        events = list(LedgerJournal.read_records(store.journal_path))
        assert [r["event"] for r in events] == ["session_create", "deny", "deny"]
        assert all(r["epsilon"] == 0.0 for r in events if r["event"] == "deny")
        assert manager.audit.total_recorded == 3

    def test_non_finite_epsilon_denied_even_without_any_ledger(self):
        """With neither a session nor a shared accountant no can_afford()
        runs — the validation must still deny instead of silently granting."""
        manager = SessionManager(default_budget=1.0)  # no shared, no journal
        for bad in (float("nan"), float("inf"), 0.0, "0.5"):
            with pytest.raises(PrivacyError):
                manager.charge(None, bad)
        denies = [r for r in manager.audit.tail(10) if r.action == "deny"]
        assert len(denies) == 4

    def test_concurrent_closes_only_one_succeeds(self):
        import threading

        manager = SessionManager(default_budget=1.0)
        sid = manager.create().session_id
        outcomes: list[str] = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            try:
                manager.close(sid)
                outcomes.append("closed")
            except ServiceError:
                outcomes.append("denied")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == ["closed", "denied", "denied", "denied"]
        # Exactly one close was audited (create + close).
        assert manager.audit.total_recorded == 2

    def test_transaction_cannot_commit_twice(self, tmp_path):
        manager = SessionManager(default_budget=2.0)
        sid = manager.create().session_id
        txn = manager.begin_charge(sid, 0.5)
        txn.commit()
        with pytest.raises(ServiceError):
            txn.commit()
        with pytest.raises(ServiceError):
            txn.rollback()

    def test_failed_release_rolls_back_service_charge(self, tmp_path, make_service,
                                                      monkeypatch):
        service = make_service(tmp_path)
        sid = service.create_session(budget=2.0).session_id

        def explode(*args, **kwargs):
            raise RuntimeError("noise generator exploded")

        monkeypatch.setattr(
            "repro.mechanisms.mechanism.PrivateCountingQuery.release", explode
        )
        with pytest.raises(RuntimeError):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        # The paid-for-but-never-produced release must not consume budget...
        assert service.budget(sid)["spent"] == 0.0
        assert service.budget(sid)["shared_remaining"] == pytest.approx(100.0)
        # ...and the refusal is durable: recovery agrees.
        service.close(snapshot=False)
        recovered = make_service(tmp_path)
        assert recovered.budget(sid)["spent"] == 0.0
        assert [r.action for r in recovered.sessions.audit.tail(3)][-1] == "rollback"

    def test_count_survives_expiry_race_after_charge(self, service_factory):
        """The paid-for answer must not be lost to a TTL lookup race."""
        now = [0.0]
        service = service_factory(session_budget=5.0, session_ttl=10.0)
        service._sessions._clock = lambda: now[0]
        sid = service.create_session().session_id
        real_begin = service.sessions.begin_charge

        def begin_then_expire(*args, **kwargs):
            txn = real_begin(*args, **kwargs)
            now[0] += 100.0  # the session's TTL lapses right after the charge
            return txn

        service._sessions.begin_charge = begin_then_expire
        response = service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert response.remaining_budget == pytest.approx(4.5)


class TestAccountantRefund:
    def test_refund_restores_budget(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        accountant.charge(0.4, label="q")
        accountant.refund(0.4, label="q")
        assert accountant.spent == 0.0
        with pytest.raises(PrivacyError):
            accountant.refund(0.4, label="q")  # already refunded

    def test_non_finite_budget_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                PrivacyAccountant(total_budget=bad)

    def test_non_finite_epsilon_rejected(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                accountant.charge(bad)


class TestLedgerLayout:
    """A ledger is an exact total plus a count per ``(epsilon, label)``."""

    def test_many_equal_charges_snapshot_to_one_entry(self):
        shared = PrivacyAccountant(total_budget=10.0)
        manager = SessionManager(default_budget=1.0, shared=shared)
        sid = manager.create().session_id
        for _ in range(10_000):
            manager.charge(sid, 2.0 ** -14, label="q")
        body = manager.snapshot_state()
        assert body["sessions"][0]["charges"] == [[2.0 ** -14, "q", 10_000]]
        assert body["shared"]["charges"] == [[2.0 ** -14, f"{sid}:q", 10_000]]

        recovered = SessionManager(default_budget=1.0, shared=PrivacyAccountant(10.0))
        recovered.load_snapshot(json.loads(json.dumps(body)))
        assert recovered.describe(sid) == manager.describe(sid)
        assert recovered.describe(sid)["charges"] == 10_000

    def test_spent_is_the_exact_sum_through_refunds_and_rollbacks(self):
        import random
        from fractions import Fraction

        shared = PrivacyAccountant(total_budget=1e6)
        manager = SessionManager(default_budget=1e6, shared=shared)
        sid = manager.create().session_id
        session = manager.get(sid)
        rng = random.Random(7)
        held: list[tuple[float, str]] = []
        for _ in range(600):
            roll = rng.random()
            if roll < 0.6 or not held:
                epsilon, label = rng.choice((0.1, 1 / 3, 0.7)), rng.choice("ab")
                if rng.random() < 0.5:
                    manager.charge(sid, epsilon, label=label)
                else:  # a charge journaled by a sibling worker
                    manager.absorb({"event": "charge", "session": sid,
                                    "epsilon": epsilon, "label": label})
                held.append((epsilon, label))
            else:
                epsilon, label = held.pop(rng.randrange(len(held)))
                if roll < 0.8:  # a failed release refunds its reservations
                    session.ledger.refund(epsilon, label=label)
                    shared.refund(epsilon, label=f"{sid}:{label}")
                else:  # a rollback journaled by a sibling worker
                    manager.absorb({"event": "rollback", "session": sid,
                                    "epsilon": epsilon, "label": label})
            exact = float(sum((Fraction(e) for e, _ in held), Fraction(0)))
            assert session.ledger.spent == exact
            assert shared.spent == exact
        assert session.ledger.charge_count == shared.charge_count == len(held)

    def test_format_1_snapshot_recovers_the_same_budget_views(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sids = [service.create_session(budget=5.0).session_id for _ in range(2)]
        for epsilon in (0.5, 0.25, 0.5, 0.1):
            for sid in sids:
                service.count("toy", "R(x, y)", epsilon=epsilon, session=sid)
        views = {sid: service.budget(sid) for sid in sids}
        service.close()

        # Rewrite the snapshot as format 1: one [epsilon, label] per charge.
        path = tmp_path / "snapshot.json"
        snapshot = json.loads(path.read_text())
        assert snapshot["format"] == 2

        def per_charge(entries):
            return [[e, label] for e, label, n in entries for _ in range(n)]

        for entry in snapshot["sessions"]:
            entry["charges"] = per_charge(entry["charges"])
        snapshot["shared"]["charges"] = per_charge(snapshot["shared"]["charges"])
        snapshot["format"] = 1
        path.write_text(json.dumps(snapshot))

        recovered = make_service(tmp_path)
        assert {sid: recovered.budget(sid) for sid in sids} == views
        assert views[sids[0]]["charges"] == 4

    def test_absorbed_rollback_of_an_unheld_pair_changes_nothing(self):
        shared = PrivacyAccountant(total_budget=10.0)
        manager = SessionManager(default_budget=2.0, shared=shared)
        sid = manager.create().session_id
        manager.charge(sid, 0.5, label="q")
        before = (manager.describe(sid), shared.snapshot(), shared.spent)
        for epsilon, label in ((0.25, "q"), (0.5, "other")):
            manager.absorb({"event": "rollback", "session": sid,
                            "epsilon": epsilon, "label": label})
        assert (manager.describe(sid), shared.snapshot(), shared.spent) == before
        with pytest.raises(PrivacyError):
            shared.refund(0.25, label=f"{sid}:q")


class TestAuditRestore:
    def test_restored_seqs_adjoin_new_records_when_tail_exceeds_capacity(self):
        from repro.service.sessions import AuditLog

        log = AuditLog(max_records=5)
        tail = [
            {"session": "s", "action": "charge", "epsilon": 0.1, "label": "",
             "ok": True, "detail": "", "timestamp": float(i)}
            for i in range(10)
        ]
        log.restore(tail, total_recorded=20)
        seqs = [record.seq for record in log.tail(10)]
        assert seqs == [15, 16, 17, 18, 19]  # the 5 kept records, contiguous
        new = log.append("s", "charge", epsilon=0.1)
        assert new.seq == 20  # the counter adjoins the restored records
