"""The fixture's example script, a DL105 root: everything it names is
reached, so only ``pkg.dead.orphan`` and the test-only
``pkg.api.only_tested`` are dead surface."""

from pkg import api, front, manifest, streams, telemetry

print(api.get_new(), front.FrontConfig(), front.LeakyConfig(),
      manifest.snapshot([1]),
      manifest.unrelated([2]), telemetry.emit("fast"))
print(streams.make_plain(1), streams.make_bad(1), streams.make_hushed(1),
      streams.leak(1))
