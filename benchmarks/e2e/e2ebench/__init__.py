"""The end-to-end benchmark of record (see ``benchmarks/e2e/README.md``)."""
