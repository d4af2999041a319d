"""FC007 positives: unqualified names reaching fabric sinks."""


class LeakyClient:
    def __init__(self, margo, tenant):
        self.margo = margo
        self.tenant = tenant

    def direct_sink(self, server, name):
        # line 11: FC007 (raw client name straight into the wire payload)
        yield from self.margo.provider_call(
            server, "colza", "activate", {"pipeline": name}
        )

    def hash_sink(self, name, servers):
        # line 17: FC007 (raw name keys the rendezvous hash)
        return placement_rank(name, servers)

    def handle(self, server, name):
        # the raw name flows through the constructor into LeakyHandle.name
        return LeakyHandle(self, server, name)

    def manual_join(self, name):
        # line 25: FC007 (hand-built '#' join bypasses qualify)
        return f"{self.tenant}#{name}"


class LeakyHandle:
    def __init__(self, client, server, name):
        self.client = client
        self.server = server
        self.name = name

    def stage(self, iteration):
        # line 36: FC007 (field tainted by the constructor above)
        yield from self.client.margo.provider_call(
            self.server, "colza", "stage",
            {"pipeline": self.name, "iteration": iteration},
        )
