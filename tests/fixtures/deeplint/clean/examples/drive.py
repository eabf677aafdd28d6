"""The clean fixture's example script, a DL105 root: it reaches every
definition, as a documented ``__all__`` alone does not."""

from pkg.core import run

print(run(1))
