"""Contiguitas-HW: LLC extensions for transparent page mobility (§3.3)."""

from ..._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".commands": ("CommandKind", "MigrateFlag", "WorkDescriptor", "WorkQueue",
                  "clear_descriptor", "migrate_descriptor"),
    ".engine": ("EngineStats", "HwMigrationEngine"),
    ".metadata": ("AccessMode", "MetadataTable", "MigrationEntry"),
})
