"""Relational substrate (§3.1): tables, query engine with security
filters, System R GRANT/REVOKE, transactions with integrity + security
constraints, and the open-bid web transaction model of §2.1.
"""

from repro.relational.authorization import (
    AuthorizationManager,
    Grant,
    Privilege,
)
from repro.relational.bidding import (
    AuctionStats,
    Bid,
    ImmediateLockAuction,
    Item,
    ItemState,
    OpenBidAuction,
)
from repro.relational.database import Database
from repro.relational.locks import (
    AcquireResult,
    LockManager,
    LockMode,
)
from repro.relational.query import ResultSet, aggregate, join, select
from repro.relational.recovery import (
    LoggedDatabase,
    LogKind,
    LogRecord,
    WriteAheadLog,
    recover,
)
from repro.relational.table import (
    Column,
    ColumnType,
    Table,
    TableSchema,
    schema,
)
from repro.relational.transactions import Transaction, TransactionManager

__all__ = [
    "AcquireResult", "AuctionStats", "AuthorizationManager", "Bid",
    "Column", "ColumnType", "Database", "Grant", "ImmediateLockAuction",
    "Item", "ItemState", "LockManager", "LockMode", "LogKind",
    "LogRecord", "LoggedDatabase", "OpenBidAuction", "Privilege",
    "ResultSet", "Table", "TableSchema", "Transaction",
    "TransactionManager", "WriteAheadLog", "aggregate", "join",
    "recover", "schema", "select",
]
