"""Local telemetry stand-ins so the fixture has no repo dependencies."""


def tracepoint(name):
    return name


class MetricsRegistry:
    def inc(self, name, value=1):
        return name

    def histogram(self, name):
        return name
