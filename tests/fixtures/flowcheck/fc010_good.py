"""FC010 negatives: produced spans, registered metrics, single counts."""


class Monitor:
    def on_span(self, span):
        if span.name == "worker.step":
            self.seen += 1


def read_present(sim):
    return sim.metrics.get("worker.steps")


def read_tenant_scoped(sim):
    # matches the wildcard-prefix producer in Tenanted.step below
    return sim.metrics.get("tenant.alpha.blocks")


class Worker:
    def __init__(self, sim):
        self._metrics = sim.metrics.scope("worker")
        self._m_idle = self._metrics.counter("idle_cycles")

    def step(self, sim):
        self._metrics.counter("steps").inc()
        self._m_idle.inc()
        yield sim.timeout(1)
        sim.trace.begin("worker.step")


class Tenanted:
    def step(self, sim, tenant):
        scope = sim.metrics.scope(f"tenant.{tenant}")
        scope.counter("blocks").inc()
        yield sim.timeout(1)


class Link:
    """Held handles and pulled counts: each registration is updated."""

    def __init__(self, sim):
        self._metrics = sim.metrics.scope("link")
        self.retries = 0
        self._metrics.pulled("retries", self, "retries")

    @functools.cached_property
    def _m_drops(self):
        return self._metrics.counter("drops")

    def send(self, ok):
        if not ok:
            self.retries += 1
            self._m_drops.inc()


class Peer:
    @functools.cached_property
    def sends(self):
        return self._scope.counter("sends")


def count_send(peer):
    peer.sends.inc()
