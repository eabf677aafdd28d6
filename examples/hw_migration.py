#!/usr/bin/env python3
"""Contiguitas-HW in action: migrating a page that never stops serving.

Walks through the §3.3 hardware protocol step by step:

1. the OS submits ``Migrate(src, dst)`` through the ENQCMD work queue;
2. the LLC copies the page line by line, advancing ``Ptr``;
3. accesses issued *during* the copy are redirected per line — already
   copied lines come from the destination, the rest from the source;
4. the OS flips the PTE, each core invalidates its TLB locally and
   lazily, and ``Clear(src)`` retires the mapping.

The cacheable design point reorders the steps: the mapping is installed
first, the OS flips every TLB, and only then does ``start_copy`` let the
copy run — skipping destination lines a core already wrote.

Then it compares the page-unavailability of this flow against the Linux
IPI-shootdown migration across victim-core counts (paper Fig. 13).

Usage::

    python examples/hw_migration.py
"""

from repro import AccessMode, HwMigrationEngine
from repro.analysis import format_table
from repro.sim import (
    DEFAULT_PARAMS,
    simulate_contiguitas_migration,
    simulate_linux_migration,
)
from repro.units import LINES_PER_PAGE


def demonstrate_redirection() -> None:
    engine = HwMigrationEngine(mode=AccessMode.NONCACHEABLE)
    src, dst = 1000, 2000
    print(f"Migrate(src={src}, dst={dst}) submitted via work queue")
    engine.submit_migrate(src, dst)

    for copied in (8, 32, LINES_PER_PAGE):
        engine.copy_lines(src, max_lines=copied)
        entry = engine.table.lookup(src)
        probe_lines = (0, entry.ptr - 1 if entry.ptr else 0,
                       min(entry.ptr, LINES_PER_PAGE - 1))
        served = {line: engine.access(src, line) for line in probe_lines}
        print(f"  Ptr={entry.ptr:2d}: "
              + ", ".join(f"line {line} served by "
                          f"{'dst' if ppn == dst else 'src'}"
                          for line, ppn in served.items()))
    engine.submit_clear(src)
    print(f"Clear({src}) retired; redirected accesses so far: "
          f"{engine.stats.redirected_accesses}")


def demonstrate_cacheable() -> None:
    engine = HwMigrationEngine(mode=AccessMode.CACHEABLE)
    src, dst = 3000, 4000
    engine.submit_migrate(src, dst)
    print(f"\nCacheable design: Migrate(src={src}, dst={dst}) installs the "
          "mapping; the copy waits for the OS")
    # After the TLB flip a core writes two lines through the new mapping.
    for line in (3, 7):
        engine.access(src, line, mapping="dst", write=True)
    engine.start_copy(src)
    cycles = engine.copy_lines(src)
    engine.submit_clear(src)
    print(f"  copy started after the TLB flip: "
          f"{engine.stats.lines_copied} lines copied in {cycles} cycles, "
          f"{LINES_PER_PAGE - engine.stats.lines_copied} dirty destination "
          f"lines skipped")


def compare_unavailability() -> None:
    rows = []
    for victims in range(1, DEFAULT_PARAMS.cores):
        linux = simulate_linux_migration(DEFAULT_PARAMS, victims)
        cont = simulate_contiguitas_migration(DEFAULT_PARAMS, victims)
        rows.append((victims, linux.unavailable_cycles,
                     cont.unavailable_cycles))
    print()
    print(format_table(
        ["Victim TLBs", "Linux unavailable (cycles)",
         "Contiguitas-HW unavailable (cycles)"],
        rows,
        title="Page unavailability during migration (paper Fig. 13):",
    ))
    print("\nLinux grows linearly with victim TLBs; Contiguitas-HW pays "
          "one local TLB\ninvalidation regardless of core count, and the "
          "page stays accessible while\nthe LLC copies it in the "
          "background.")


def main() -> None:
    demonstrate_redirection()
    demonstrate_cacheable()
    compare_unavailability()


if __name__ == "__main__":
    main()
