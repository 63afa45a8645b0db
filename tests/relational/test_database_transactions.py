"""Tests for the secure database facade and transactions."""

import pickle

import pytest

from repro.core.errors import AccessDenied, QueryError, TransactionError
from repro.relational.authorization import Privilege
from repro.relational.database import Database
from repro.relational.table import schema
from repro.relational.transactions import TransactionManager


def build() -> Database:
    database = Database()
    database.create_table(
        schema("emp", primary_key="id",
               id="int", name="text", dept="text", salary="float"),
        owner="dba")
    database.insert("dba", "emp", id=1, name="Alice", dept="onc",
                    salary=90.0)
    database.insert("dba", "emp", id=2, name="Bob", dept="icu",
                    salary=80.0)
    return database


class TestDatabase:
    def test_select_requires_privilege(self):
        database = build()
        with pytest.raises(AccessDenied):
            database.select("nobody", "emp")

    def test_grant_restrictions_injected(self):
        database = build()
        database.authorization.grant(
            "dba", "ann", "emp", Privilege.SELECT,
            row_filter=lambda r: r["dept"] == "onc",
            column_mask=["salary"])
        result = database.select("ann", "emp")
        rows = result.as_dicts()
        assert len(rows) == 1
        assert rows[0]["name"] == "Alice"
        assert rows[0]["salary"] is None

    def test_join_enforces_both_sides(self):
        database = build()
        database.create_table(schema("dept", primary_key="code",
                                     code="text", floor="int"), "dba")
        database.insert("dba", "dept", code="onc", floor=3)
        database.authorization.grant("dba", "ann", "emp",
                                     Privilege.SELECT)
        with pytest.raises(AccessDenied):
            database.join("ann", "emp", "dept", ("dept", "code"))

    def test_metadata(self):
        database = build()
        database.set_metadata("emp", "privacy", "constrained")
        assert database.get_metadata("emp", "privacy") == "constrained"
        with pytest.raises(QueryError):
            database.set_metadata("ghost", "k", "v")

    def test_duplicate_table_rejected(self):
        database = build()
        with pytest.raises(QueryError):
            database.create_table(schema("emp", a="int"), "dba")

    def test_populated_database_pickles(self):
        # Durable checkpoints pickle the whole database.
        database = build()
        database.authorization.grant("dba", "ann", "emp", Privilege.SELECT,
                                     with_grant_option=True)
        database.authorization.grant("ann", "bo", "emp", Privilege.SELECT)
        database.set_metadata("emp", "privacy", "constrained")
        copy = pickle.loads(pickle.dumps(database))
        assert copy.select("bo", "emp").rows == \
            database.select("bo", "emp").rows
        assert copy.get_metadata("emp", "privacy") == "constrained"
        # The copy's grant graph is its own and still cascades.
        copy.authorization.revoke("dba", "ann", "emp", Privilege.SELECT)
        with pytest.raises(AccessDenied):
            copy.select("bo", "emp")
        assert len(database.select("bo", "emp").rows) == 2


class TestTransactions:
    def build_tm(self):
        database = build()
        manager = TransactionManager(database)
        manager.add_integrity_constraint(
            "emp", "salary-positive",
            lambda table: all(row[3] is None or row[3] >= 0
                              for row in table))
        return database, manager

    def test_commit_applies_changes(self):
        database, manager = self.build_tm()
        txn = manager.begin("dba")
        manager.insert(txn, "emp", id=3, name="Carol", dept="onc",
                       salary=70.0)
        manager.commit(txn)
        assert len(database.table("emp")) == 3
        assert manager.committed == 1

    def test_integrity_violation_rolls_back(self):
        database, manager = self.build_tm()
        txn = manager.begin("dba")
        manager.update(txn, "emp", lambda r: r["id"] == 1,
                       {"salary": -1.0})
        manager.insert(txn, "emp", id=3, name="X", dept="onc",
                       salary=1.0)
        with pytest.raises(TransactionError):
            manager.commit(txn)
        assert database.table("emp").get(1)[3] == 90.0
        assert len(database.table("emp")) == 2
        assert manager.aborted == 1

    def test_security_constraint_enforced(self):
        database, manager = self.build_tm()
        manager.add_security_constraint(
            "emp", "no-bulk-insert-by-interns",
            lambda user, table, staged: not (
                user == "intern" and len(staged) > 1))
        database.authorization.grant("dba", "intern", "emp",
                                     Privilege.INSERT)
        txn = manager.begin("intern")
        manager.insert(txn, "emp", id=3, name="A", dept="onc",
                       salary=1.0)
        manager.insert(txn, "emp", id=4, name="B", dept="onc",
                       salary=1.0)
        with pytest.raises(TransactionError):
            manager.commit(txn)
        assert len(database.table("emp")) == 2

    def test_explicit_abort(self):
        database, manager = self.build_tm()
        txn = manager.begin("dba")
        manager.delete(txn, "emp", lambda r: True)
        manager.abort(txn)
        assert len(database.table("emp")) == 2

    def test_operations_on_finished_txn_rejected(self):
        _database, manager = self.build_tm()
        txn = manager.begin("dba")
        manager.commit(txn)
        with pytest.raises(TransactionError):
            manager.insert(txn, "emp", id=9, name="X", dept="onc",
                           salary=1.0)

    def test_access_control_inside_transaction(self):
        _database, manager = self.build_tm()
        txn = manager.begin("stranger")
        with pytest.raises(AccessDenied):
            manager.insert(txn, "emp", id=9, name="X", dept="onc",
                           salary=1.0)
