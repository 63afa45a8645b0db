"""The durable relational store, beside the database it wraps so that
:mod:`repro.wal` loads no store it does not serve."""

from repro.crypto.hashing import combine, sha256_hex
from repro.relational.database import Database
from repro.wal.durable import DurableStore


class DurableRelationalStore(DurableStore):
    """WAL + whole-database pickle checkpoints under a
    :class:`~repro.relational.database.Database`.  GRANT/REVOKE apply
    to the database's one grant graph (``inner.authorization``).
    Predicates and row filters logged through here must be module-level
    functions."""

    def create_table(self, table_schema, owner: str):
        return self._op("create_table", (table_schema, owner))

    def grant(self, grantor: str, grantee: str, table: str, privilege,
              with_grant_option: bool = False, row_filter=None,
              column_mask=()):
        return self._op("grant", (grantor, grantee, table, privilege,
                                  with_grant_option, row_filter,
                                  tuple(column_mask)))

    def revoke(self, revoker: str, grantee: str, table: str, privilege):
        return self._op("revoke", (revoker, grantee, table, privilege))

    def insert(self, user: str, table_name: str, **values):
        # Values travel as one positional dict, so a column named like
        # a parameter of the op path is data, not a TypeError.
        return self._op("insert", (user, table_name, dict(values)))

    def update(self, user: str, table_name: str, where, changes):
        return self._op("update", (user, table_name, where, dict(changes)))

    def delete(self, user: str, table_name: str, where):
        return self._op("delete", (user, table_name, where))

    def set_metadata(self, table: str, key: str, value) -> None:
        return self._op("set_metadata", (table, key, value))

    def _applier(self, op: str):
        if op == "insert":
            return lambda user, table_name, values: self.inner.insert(
                user, table_name, **values)
        if op in ("grant", "revoke"):
            return getattr(self.inner.authorization, op)
        return super()._applier(op)

    def state_digest(self) -> str:
        grants = self.inner.authorization.all_grants()
        parts = []
        for name in self.inner.table_names():
            table = self.inner.table(name)
            rows = sorted(repr(sorted(row.items()))
                          for row in table.rows_as_dicts())
            parts.append(sha256_hex(
                f"table:{name}:" + "|".join(rows)))
            edges = sorted(
                f"{g.grantor}>{g.grantee}:{g.table}:{g.privilege.value}"
                f":{g.with_grant_option}"
                for g in grants if g.table == name)
            parts.append(sha256_hex(f"grants:{name}:" + "|".join(edges)))
        return combine(*parts) if parts else sha256_hex("empty-reldb")

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return Database(**inner_kwargs)
