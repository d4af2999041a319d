"""FC007 negatives: qualified names, server-side keys."""


class CleanClient:
    def __init__(self, margo, tenant):
        self.margo = margo
        self.tenant = tenant

    def qualified(self, name):
        return qualify(self.tenant, name)

    def direct_sink(self, server, name):
        yield from self.margo.provider_call(
            server, "colza", "activate", {"pipeline": self.qualified(name)}
        )

    def hash_sink(self, name, servers):
        return placement_rank(self.qualified(name), servers)

    def handle(self, server, name):
        return CleanHandle(self, server, self.qualified(name))


class CleanHandle:
    # not tenant-bound: it receives already-qualified wire names
    def __init__(self, client, server, name):
        self.client = client
        self.server = server
        self.name = name

    def stage(self, iteration):
        yield from self.client.margo.provider_call(
            self.server, "colza", "stage",
            {"pipeline": self.name, "iteration": iteration},
        )


def server_side_key(pipeline, iteration, block_id, view):
    # server code: `pipeline` is already the qualified wire name
    return placement_rank(f"{pipeline}#{iteration}#{block_id}", view)
