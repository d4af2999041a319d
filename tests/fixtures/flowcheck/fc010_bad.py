"""FC010 positives: phantom consumers, dead registrations, double counts."""


class Monitor:
    def on_span(self, span):
        # line 7: FC010 (no trace.begin/add ever emits this span name)
        if span.name == "colza.vanished":
            self.seen += 1


def read_missing(sim):
    # line 12: FC010 (metric never registered anywhere)
    return sim.metrics.get("core.blocks_unstaged")


class Worker:
    def __init__(self, sim):
        self._metrics = sim.metrics.scope("worker")
        # line 19: FC010 warning (registered but never updated)
        self._metrics.counter("idle_cycles")

    def step(self, sim):
        core = sim.metrics.scope("core")
        core.counter("steps").inc()
        yield sim.timeout(1)
        # line 26: FC010 warning (same counter inc'd twice per call)
        core.counter("steps").inc()
        sim.trace.begin("worker.step")


class Link:
    def __init__(self, sim):
        self._metrics = sim.metrics.scope("link")
        self.retries = 0
        # line 36: FC010 warning (pulls a count nothing advances)
        self._metrics.pulled("retries", self, "retries")

    @functools.cached_property
    def _m_drops(self):
        # line 41: FC010 warning (a held handle no path updates)
        return self._metrics.counter("drops")
