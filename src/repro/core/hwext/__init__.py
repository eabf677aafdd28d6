"""Contiguitas-HW: LLC extensions for transparent page mobility (§3.3)."""

from .commands import (
    CommandKind,
    MigrateFlag,
    WorkDescriptor,
    WorkQueue,
    clear_descriptor,
    migrate_descriptor,
)
from .engine import EngineStats, HwMigrationEngine
from .metadata import AccessMode, MetadataTable, MigrationEntry

__all__ = [
    "AccessMode",
    "CommandKind",
    "EngineStats",
    "HwMigrationEngine",
    "MetadataTable",
    "MigrateFlag",
    "MigrationEntry",
    "WorkDescriptor",
    "WorkQueue",
    "clear_descriptor",
    "migrate_descriptor",
]
