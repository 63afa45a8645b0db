"""System R style authorization: GRANT/REVOKE with the grant option.

"Today most of the commercial DBMSs rely on the System R access control
model" (§3.1).  The defining features reproduced here:

* privileges (SELECT/INSERT/UPDATE/DELETE) on tables, grantable per user;
* the *grant option*: a grantee holding it may grant onward;
* *recursive revocation*: revoking a grant also revokes every grant that
  depends on it — unless the grantee retains an independent path from
  the owner, computed over the grant graph exactly as System R does;
* row filters and column masks per grant, the hook that
  :mod:`repro.relational.query` enforces (view-style restriction).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.errors import AccessDenied, ConfigurationError

RowPredicate = Callable[[Mapping[str, object]], bool]


class Privilege(enum.Enum):
    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


_grant_ids = itertools.count(1)


@dataclass(frozen=True)
class Grant:
    """One edge of the grant graph."""

    grant_id: int
    grantor: str
    grantee: str
    table: str
    privilege: Privilege
    with_grant_option: bool
    sequence: int
    row_filter: RowPredicate | None = None
    column_mask: tuple[str, ...] = ()

    def __repr__(self) -> str:
        option = " WITH GRANT OPTION" if self.with_grant_option else ""
        return (f"GRANT#{self.grant_id} {self.privilege.value} ON "
                f"{self.table} TO {self.grantee} BY {self.grantor}{option}")


class AuthorizationManager:
    """The grant graph and its queries."""

    def __init__(self) -> None:
        self._grants: list[Grant] = []
        self._owners: dict[str, str] = {}
        # A plain int, not itertools.count: the manager pickles with
        # its database (durable checkpoints).
        self._sequence = 0

    # -- ownership -----------------------------------------------------------

    def set_owner(self, table: str, owner: str) -> None:
        if table in self._owners:
            raise ConfigurationError(f"table {table!r} already has an owner")
        self._owners[table] = owner

    def owner_of(self, table: str) -> str:
        try:
            return self._owners[table]
        except KeyError:
            raise ConfigurationError(f"table {table!r} has no owner") from None

    def owners(self) -> dict[str, str]:
        """The table -> owner map (a copy; for analysis and audits)."""
        return dict(self._owners)

    # -- granting -------------------------------------------------------------

    def grant(self, grantor: str, grantee: str, table: str,
              privilege: Privilege, with_grant_option: bool = False,
              row_filter: RowPredicate | None = None,
              column_mask: Sequence[str] = ()) -> Grant:
        """Record a grant; the grantor must own the table or hold the
        privilege with grant option."""
        if not self._can_grant(grantor, table, privilege):
            raise AccessDenied(grantor, f"grant:{privilege.value}", table,
                               reason="grantor lacks grant authority")
        return self.import_grant(grantor, grantee, table, privilege,
                                 with_grant_option, row_filter, column_mask)

    def import_grant(self, grantor: str, grantee: str, table: str,
                     privilege: Privilege,
                     with_grant_option: bool = False,
                     row_filter: RowPredicate | None = None,
                     column_mask: Sequence[str] = ()) -> Grant:
        """Record a grant edge *without* checking the grantor's authority.

        The bulk-load/restore path: replaying an audit log or adopting a
        grant graph serialized elsewhere must not re-run authority checks
        against the half-built graph.  Imported edges are exactly why the
        static analyzer's REL-DANGLING rule exists — run
        :func:`repro.analysis.analyze_grants` after a bulk load.
        """
        self._sequence += 1
        edge = Grant(next(_grant_ids), grantor, grantee, table, privilege,
                     with_grant_option, self._sequence,
                     row_filter, tuple(column_mask))
        self._grants.append(edge)
        return edge

    def _can_grant(self, user: str, table: str,
                   privilege: Privilege) -> bool:
        if self._owners.get(table) == user:
            return True
        return any(g.grantee == user and g.table == table
                   and g.privilege == privilege and g.with_grant_option
                   for g in self._grants)

    # -- checking ---------------------------------------------------------------

    def grants_for(self, user: str, table: str,
                   privilege: Privilege) -> list[Grant]:
        return [g for g in self._grants
                if g.grantee == user and g.table == table
                and g.privilege == privilege]

    def has_privilege(self, user: str, table: str,
                      privilege: Privilege) -> bool:
        if self._owners.get(table) == user:
            return True
        return bool(self.grants_for(user, table, privilege))

    def enforce(self, user: str, table: str,
                privilege: Privilege) -> None:
        if not self.has_privilege(user, table, privilege):
            raise AccessDenied(user, privilege.value, table,
                               reason="no applicable grant")

    def restriction(self, user: str, table: str, privilege: Privilege
                    ) -> tuple[RowPredicate | None, tuple[str, ...]]:
        """The (row_filter, column_mask) to apply for this user.

        The owner is unrestricted.  With several grants, the user sees
        the union of rows (a row passes if any grant's filter accepts it)
        and a column is masked only when every grant masks it.
        """
        if self._owners.get(table) == user:
            return None, ()
        grants = self.grants_for(user, table, privilege)
        if not grants:
            raise AccessDenied(user, privilege.value, table,
                               reason="no applicable grant")
        if any(g.row_filter is None for g in grants):
            row_filter = None
        else:
            filters = [g.row_filter for g in grants]

            def row_filter(record: Mapping[str, object]) -> bool:
                return any(f(record) for f in filters)  # type: ignore[misc]

        masks = [set(g.column_mask) for g in grants]
        column_mask = tuple(sorted(set.intersection(*masks))) if masks else ()
        return row_filter, column_mask

    # -- revocation ----------------------------------------------------------------

    def revoke(self, revoker: str, grantee: str, table: str,
               privilege: Privilege) -> list[Grant]:
        """Revoke *revoker*'s grants to *grantee*, cascading System R
        style; returns every grant removed."""
        direct = [g for g in self._grants
                  if g.grantor == revoker and g.grantee == grantee
                  and g.table == table and g.privilege == privilege]
        if not direct:
            raise ConfigurationError(
                f"{revoker!r} holds no matching grant to {grantee!r}")
        removed = list(direct)
        remaining = [g for g in self._grants if g not in direct]
        # Iteratively drop grants whose grantor no longer has authority
        # *as of a time before the grant was made* (System R's timestamp
        # rule, approximated with sequence numbers).
        changed = True
        while changed:
            changed = False
            for edge in list(remaining):
                if self._supported(edge, remaining):
                    continue
                remaining.remove(edge)
                removed.append(edge)
                changed = True
        self._grants = remaining
        return removed

    def _supported(self, edge: Grant, pool: list[Grant]) -> bool:
        """Does the grantor of *edge* still have authority predating it?"""
        if self._owners.get(edge.table) == edge.grantor:
            return True
        return any(g.grantee == edge.grantor and g.table == edge.table
                   and g.privilege == edge.privilege
                   and g.with_grant_option
                   and g.sequence < edge.sequence
                   for g in pool)

    def all_grants(self) -> list[Grant]:
        return list(self._grants)
