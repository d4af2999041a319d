"""The Colza client library: pipeline handles.

Simulation processes interact with pipelines through a
:class:`DistributedPipelineHandle` referencing the pipeline instances
on every staging server (§II-B):

- ``activate``   drives the client-coordinated 2PC that pins the
  eventually-consistent SSG view into a frozen, agreed view;
- ``stage``      sends a memory handle + metadata to *one* server,
  selected by the block-distribution policy, which then RDMA-pulls;
- ``execute`` / ``deactivate`` broadcast to all frozen-view servers.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.backoff import backoff_delay
from repro.core.distribution import get_policy
from repro.core.tenancy import DEFAULT_TENANT, qualify
from repro.margo import MargoInstance
from repro.mercury import RpcError
from repro.na.address import Address
from repro.na.payload import payload_nbytes
from repro.ssg import GroupFile, Update

__all__ = ["ColzaClient", "DistributedPipelineHandle", "EXCUSED"]

#: What a teardown broadcast reports for a member it did not wait for.
EXCUSED = "excused"


class ColzaClient:
    """A connection to the staging area from one simulation process.

    A client belongs to one *tenant* (DESIGN §13). The default tenant
    is the unqualified legacy namespace; naming any other tenant makes
    every pipeline handle wire-qualified as ``tenant#name``, so N
    independent simulations share one provider group without their
    registries, activation epochs or staged blocks ever colliding.
    Non-default tenants should :meth:`attach` before use (admission
    control) and :meth:`detach` when done (frees server-side state and
    the admission slot).
    """

    #: Deadline for the per-candidate ``get_view`` probe in
    #: :meth:`connect`. Class-level policy so chaos scenarios and
    #: slow-fabric configs tune it in one place (instances may also
    #: override it per-connection).
    CONTROL_TIMEOUT = 1.0

    def __init__(
        self,
        margo: MargoInstance,
        group_file: GroupFile,
        tenant: str = DEFAULT_TENANT,
    ):
        self.margo = margo
        self.group_file = group_file
        self.tenant = tenant
        self.view: List[Address] = []
        #: The server that answered the last :meth:`connect`.
        self._contact: Optional[Address] = None

    # ------------------------------------------------------------------
    def connect(self) -> Generator:
        """Fetch the current membership view from any live server.

        The server that answered last time is asked first, then the
        group file in file order: a crashed server is never removed
        from the file, so without this every refresh would pay the
        probe deadline for each dead entry ahead of the first live one.
        """
        last_error: Optional[Exception] = None
        candidates = self.group_file.candidates()
        if self._contact is not None and self._contact in candidates:
            candidates.remove(self._contact)
            candidates.insert(0, self._contact)
        for candidate in candidates:
            try:
                view = yield from self.margo.provider_call(
                    candidate, "colza", "get_view", timeout=self.CONTROL_TIMEOUT
                )
            except RpcError as err:
                last_error = err
                continue
            self._contact = candidate
            self.view = list(view)
            return self.view
        raise RpcError(f"no staging server reachable: {last_error}")

    def refresh_view(self) -> Generator:
        return (yield from self.connect())

    def qualified(self, name: str) -> str:
        """The wire-level pipeline name for this client's tenant."""
        return qualify(self.tenant, name)

    def attach(self) -> Generator:
        """Register this client's tenant with every staging server.

        Admission is all-or-nothing: if any server refuses (its
        ``max_tenants`` is reached), the servers already attached are
        detached again and the rejection is raised — a tenant must
        never run on a subset of the group.
        """
        if not self.view:
            yield from self.connect()
        attached: List[Address] = []
        for server in sorted(self.view):
            reply = yield from self.margo.provider_call(
                server, "colza", "tenant_attach", {"tenant": self.tenant},
                timeout=self.CONTROL_TIMEOUT,
            )
            if reply["status"] != "attached":
                for done in attached:
                    try:
                        yield from self.margo.provider_call(
                            done, "colza", "tenant_detach",
                            {"tenant": self.tenant},
                            timeout=self.CONTROL_TIMEOUT,
                        )
                    except RpcError:
                        pass
                raise RpcError(
                    f"tenant {self.tenant!r} rejected by {server}: "
                    f"{reply.get('reason')}"
                )
            attached.append(server)
        return attached

    def detach(self) -> Generator:
        """Drop this tenant everywhere: pipelines, staged data,
        replicas, quota charges and the admission slot. Unreachable
        servers are tolerated (a dead server's state died with it)."""
        if not self.view:
            yield from self.connect()
        detached: List[Address] = []
        for server in sorted(self.view):
            try:
                yield from self.margo.provider_call(
                    server, "colza", "tenant_detach", {"tenant": self.tenant},
                    timeout=self.CONTROL_TIMEOUT,
                )
            except RpcError:
                continue
            detached.append(server)
        return detached

    def distributed_pipeline_handle(
        self, name: str, policy: str = "block_id_mod"
    ) -> "DistributedPipelineHandle":
        return DistributedPipelineHandle(self, self.qualified(name), policy=policy)


class DistributedPipelineHandle:
    """Handle on the pipeline instances across all staging servers."""

    MAX_ACTIVATE_RETRIES = 50
    #: Deadline for 2PC/control RPCs — a crashed member must not hang
    #: the protocol (fault tolerance, the paper's future work (1)).
    CONTROL_TIMEOUT = 5.0
    #: (base, cap) seconds of capped exponential backoff before activate
    #: re-proposes a view it already tried (a view not yet tried: none)…
    ACTIVATE_BACKOFF = (0.05, 0.8)
    #: …and between whole-iteration retries (SWIM must detect the dead
    #: member and views must reconverge, which takes longer).
    RETRY_BACKOFF = (0.4, 3.0)

    def __init__(self, client: ColzaClient, name: str, policy: str = "block_id_mod"):
        self.client = client
        self.name = name
        self.policy = get_policy(policy)
        #: The frozen view agreed at the last successful activate.
        self.frozen_view: Tuple[Address, ...] = ()
        #: Merged per-server recovery report from the last
        #: ``activate(recover=True)`` (see :meth:`activate`).
        self.last_recovery: Optional[Dict[str, Any]] = None
        #: Optional deadlines for the data plane. ``stage_timeout``
        #: bounds each stage RPC, ``data_timeout`` bounds execute /
        #: deactivate broadcasts. ``None`` (the default) keeps the
        #: historical wait-forever behaviour for well-behaved fabrics;
        #: chaos scenarios set these so a dropped control message turns
        #: into a retryable RpcTimeout instead of a stuck client.
        self.stage_timeout: Optional[float] = None
        self.data_timeout: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def margo(self) -> MargoInstance:
        return self.client.margo

    def _backoff(self, attempt: int, base: float, cap: float) -> float:
        """Capped exponential backoff with deterministic jitter.

        The jitter stream is named after this client's endpoint, so
        two clients retrying the same failure de-synchronize instead
        of hammering the servers in lock-step (see
        :func:`repro.core.backoff.backoff_delay`).
        """
        return backoff_delay(
            self.margo.sim, f"colza.backoff.{self.margo.name}", attempt, base, cap
        )

    def _broadcast(
        self,
        method: str,
        input: dict,
        timeout: Optional[float] = None,
        tolerate_errors: bool = False,
        excused: Collection[Address] = (),
    ) -> Generator:
        """Issue an RPC to every server in the frozen view, concurrently.

        With ``tolerate_errors`` each result may be an exception object
        instead of propagating. Without it, the first failure raises
        immediately (fail-fast): a member that crashed mid-execute must
        not stall the client behind its never-answered RPC. The calls
        still in flight when the broadcast ends end with it (the race
        kills them), so nothing of it outlives the caller.

        ``excused`` members are sent the RPC like everyone else but not
        waited for, and a tolerated reply whose ``gone`` list holds a
        terminal SWIM record about a member excuses that member too
        (DESIGN §11, the excuse rule): a live member's word that the
        group dropped someone is enough not to sit out a deadline on
        them. An excused member's slot in the result list
        holds :data:`EXCUSED` unless its answer came in anyway; an answer
        later than the broadcast's end is dropped with its call.
        """
        sim = self.margo.sim
        servers = list(self.frozen_view)
        if not servers:
            return []
        # By position, with a running count: the per-reply path of an
        # ordinary broadcast hashes no address and calls nothing.
        results: list = [EXCUSED] * len(servers)
        awaited = [s not in excused for s in servers]
        remaining = [awaited.count(True)]
        decided = sim.event(f"{method}.decided")  # every awaited answer, or the first failure

        def one(i, server):
            try:
                result = yield from self.margo.provider_call(
                    server, "colza", method, input, timeout=timeout
                )
            except RpcError as err:
                if not tolerate_errors:
                    if not decided.fired:
                        decided.fail(RpcError(f"{method} failed at {server}: {err}"))
                    return
                result = err
            results[i] = result
            settled = [i]
            if tolerate_errors and isinstance(result, dict):
                settled += [servers.index(u.member) for u in result.get("gone", ())
                            if u.member in servers]
            for j in settled:
                if awaited[j]:
                    awaited[j] = False
                    remaining[0] -= 1
            if remaining[0] == 0 and not decided.fired:
                decided.succeed()

        calls = [
            sim.spawn(one(i, server), name=f"colza-{method}@{server}")
            for i, server in enumerate(servers)
        ]
        if remaining[0] == 0:
            decided.succeed()
        yield sim.any_of([decided], cancel=calls)
        return results

    # ------------------------------------------------------------------
    def _prepare(
        self, iteration: int, proposed: Tuple[Address, ...], gone: Sequence[Update] = ()
    ) -> Generator:
        """One 2PC prepare round: ``(votes received, deciding NO or None)``.

        Unanimity needs every vote, but the first NO that carries the
        voter's view decides the round on the spot: the coordinator stops
        collecting, and the prepares still out end with the round. A
        member that stays silent while nobody dissents still costs its
        deadline — telling slow from dead is SWIM's job, not this
        round's. ``gone`` (terminal SWIM records) rides the prepare to
        every voter, which applies it before comparing views; the key is
        absent when empty.
        """
        sim = self.margo.sim
        payload = {
            "pipeline": self.name,
            "iteration": iteration,
            "view": list(proposed),
        }
        if gone:
            payload["gone"] = list(gone)
        votes: List[dict] = []
        decided = sim.event("prepare.decided")  # fired with the deciding NO, or None

        def prepare_one(server):
            try:
                vote = yield from self.margo.provider_call(
                    server, "colza", "activate_prepare", payload,
                    timeout=self.CONTROL_TIMEOUT,
                )
            except RpcError:
                # Unreachable member: treat as a no-vote; SWIM will
                # eventually remove it from everyone's views.
                vote = {"vote": "no", "reason": "unreachable", "dead": server}
            votes.append(vote)
            if decided.fired:
                return
            if vote["vote"] == "no" and "view" in vote:
                decided.succeed(vote)
            elif len(votes) == len(proposed):
                decided.succeed(None)

        prepares = [
            sim.spawn(prepare_one(server), name="colza-prepare")
            for server in proposed
        ]
        _, dissent = yield sim.any_of([decided], cancel=prepares)
        return votes, dissent

    def activate(
        self,
        iteration: int,
        recover: bool = False,
        expected: Sequence[int] = (),
        gone: Sequence[Update] = (),
    ) -> Generator:
        """2PC activate: agree on a frozen view, then commit everywhere.

        With ``recover=True`` the commit asks every member to run the
        replica-recovery phase (DESIGN §11) over data kept from a
        previous failed attempt, before the backend's activate;
        ``expected`` carries the block ids the client staged, so a
        block whose owner and replicas ALL died still gets reported
        instead of silently vanishing. The merged per-server report
        lands in :attr:`last_recovery`: ``present`` (block ids already
        staged somewhere — no client re-stage needed), ``recovered``
        (blocks adopted from replicas), ``missing`` (orphans with no
        surviving replica — the caller must fall back to re-staging).

        ``gone`` holds terminal SWIM records (DEAD/LEFT ``Update``
        records) the caller was given, e.g. by the acknowledgements of
        the abort before this retry; each deciding NO may add more. The
        coordinator keeps them all, never proposes a member it holds a
        record for, and relays them with every prepare, so a voter whose
        gossip is behind learns of the departure from the prepare itself
        (R3, docs/protocols.md §2). The span's ``relayed`` tag counts
        them (absent when none).
        """
        if not self.client.view:
            yield from self.client.connect()
        sim = self.margo.sim
        span = sim.trace.begin("colza.activate", pipeline=self.name, iteration=iteration)
        self.last_recovery = None
        records: Dict[Address, Update] = {}
        for update in gone:
            records[update.member] = update
        proposed = tuple(sorted(self.client.view))
        tried, slept = set(), 0.0  # the views proposed; seconds spent in backoff
        for attempt in range(self.MAX_ACTIVATE_RETRIES):
            if records:
                proposed = tuple(a for a in proposed if a not in records)
                if not proposed:
                    raise RpcError("activate: no live staging servers")
            tried.add(proposed)
            votes, dissent = yield from self._prepare(
                iteration, proposed, records.values() if records else ()
            )
            if dissent is None and all(v["vote"] == "yes" for v in votes):
                self.frozen_view = proposed
                self.client.view = list(proposed)
                # Recovery commits move block payloads between servers
                # (RDMA pulls), so they get a data-plane budget, not
                # the control-plane one.
                reports = yield from self._broadcast(
                    "activate_commit",
                    {
                        "pipeline": self.name,
                        "iteration": iteration,
                        "recover": recover,
                        "expected": sorted(expected),
                    },
                    timeout=self.data_timeout if recover else self.CONTROL_TIMEOUT,
                )
                tags = {
                    "attempts": attempt + 1,
                    "view": ";".join(str(a) for a in self.frozen_view),
                }
                if records:
                    tags["relayed"] = len(records)
                if slept:
                    tags["slept"] = slept
                if recover:
                    present: set = set()
                    missing: set = set()
                    recovered = 0
                    for report in reports:
                        present.update(report.get("held", ()))
                        missing.update(report.get("missing", ()))
                        recovered += report.get("recovered", 0)
                    self.last_recovery = {
                        "present": sorted(present),
                        "missing": sorted(missing),
                        "recovered": recovered,
                    }
                    tags["recovered"] = recovered
                    tags["missing_blocks"] = sorted(missing)
                sim.trace.end(span, **tags)
                return list(self.frozen_view)
            # Abort the prepared servers, adopt the dissenting view, retry.
            # Everyone proposed is told; members the dissenter's view
            # no longer lists are not waited for.
            dead = {v["dead"] for v in votes if v.get("reason") == "unreachable"}
            self.frozen_view = proposed
            yield from self._broadcast(
                "activate_abort",
                {"pipeline": self.name, "iteration": iteration},
                timeout=self.CONTROL_TIMEOUT,
                tolerate_errors=True,
                excused=set(proposed).difference(dissent["view"]) if dissent is not None else (),
            )
            if dissent is not None:
                for update in dissent["gone"] if "gone" in dissent else ():
                    records[update.member] = update
                proposed = tuple(sorted(set(dissent["view"]) - dead))
            elif dead:
                proposed = tuple(a for a in proposed if a not in dead)
                if not proposed:
                    raise RpcError("activate: no reachable staging servers")
            # A view not yet proposed is news: propose it at once; a repeat waits.
            if tuple(a for a in proposed if a not in records) in tried:
                delay = self._backoff(attempt, *self.ACTIVATE_BACKOFF)
                slept += delay
                yield sim.timeout(delay)
            # Re-read a fresh view occasionally in case of churn.
            if attempt % 5 == 4:
                yield from self.client.refresh_view()
                proposed = tuple(sorted(set(self.client.view) - dead))
        tags = {"failed": True}
        if records:
            tags["relayed"] = len(records)
        if slept:
            tags["slept"] = slept
        sim.trace.end(span, **tags)
        raise RpcError(f"activate({iteration}) failed to reach agreement")

    def stage(
        self,
        iteration: int,
        block_id: int,
        payload: Any,
        metadata: Optional[dict] = None,
    ) -> Generator:
        """Stage one block to the policy-selected server."""
        if not self.frozen_view:
            raise RuntimeError("stage before activate")
        sim = self.margo.sim
        span = sim.trace.begin(
            "colza.stage", pipeline=self.name, iteration=iteration, block=block_id
        )
        metadata = metadata or {}
        server = self.policy(block_id, metadata, list(self.frozen_view))
        handle = self.margo.expose(payload)
        result = yield from self.margo.provider_call(
            server,
            "colza",
            "stage",
            {
                "pipeline": self.name,
                "iteration": iteration,
                "block_id": block_id,
                "metadata": metadata,
                "handle": handle,
            },
            nbytes=256,
            timeout=self.stage_timeout,
        )
        sim.trace.end(span, nbytes=payload_nbytes(payload))
        return result

    def execute(self, iteration: int) -> Generator:
        """Run the pipeline on all servers (collective on their side)."""
        sim = self.margo.sim
        span = sim.trace.begin("colza.execute", pipeline=self.name, iteration=iteration)
        results = yield from self._broadcast(
            "execute",
            {"pipeline": self.name, "iteration": iteration},
            timeout=self.data_timeout,
        )
        sim.trace.end(span)
        return results

    def deactivate(self, iteration: int) -> Generator:
        sim = self.margo.sim
        span = sim.trace.begin("colza.deactivate", pipeline=self.name, iteration=iteration)
        results = yield from self._broadcast(
            "deactivate",
            {"pipeline": self.name, "iteration": iteration},
            timeout=self.data_timeout,
        )
        self.frozen_view = ()
        sim.trace.end(span)
        return results

    def abort(self, iteration: int, keep_data: bool = False) -> Generator:
        """Best-effort teardown of a failed iteration.

        Sends ``deactivate`` to every frozen-view member, tolerating
        unreachable ones, then drops the frozen view. Used for fault
        recovery: after an execute fails because a member died, abort
        the iteration, refresh the view, and re-run it.

        ``keep_data=True`` ends the activation epoch but leaves staged
        blocks and replicas in place, so the re-activation can recover
        them instead of the client re-staging (DESIGN §11).

        Naming the frozen view asks each member to report, with its
        acknowledgement, the terminal SWIM records (DEAD/LEFT) it holds
        for members of it (``gone``); nobody waits for those (see
        :meth:`_broadcast`), and :meth:`run_resilient_iteration` relays
        them to the retry's :meth:`activate`. The usual caller is here
        *because* a member died and a survivor said so, and waiting out
        the dead member's deadline would tell it nothing more.
        """
        results = yield from self._broadcast(
            "deactivate",
            {
                "pipeline": self.name,
                "iteration": iteration,
                "keep_data": keep_data,
                "view": list(self.frozen_view),
            },
            timeout=self.CONTROL_TIMEOUT,
            tolerate_errors=True,
        )
        self.frozen_view = ()
        return results

    def run_resilient_iteration(
        self,
        iteration: int,
        blocks: Sequence[Tuple[int, Any]],
        max_attempts: int = 5,
    ) -> Generator:
        """activate → stage → execute → deactivate, retrying the whole
        iteration if a staging server dies mid-flight (the paper's
        future-work fault tolerance, built from the existing pieces).

        A failed attempt aborts with ``keep_data``, so the retry's
        ``activate(recover=True)`` can rebuild the block distribution
        from surviving primaries and replicas: with
        ``replication_factor=K`` and fewer than ``K`` failures the
        client re-stages **nothing**. Only blocks recovery reports
        ``missing`` force the full re-stage fallback (counted in
        ``core.restage_fallbacks``). Nothing is retried once ``execute``
        has returned except the ``deactivate`` itself
        (:meth:`_deactivate_executed`)."""
        sim = self.margo.sim
        core = sim.metrics.scope("core")
        tenant_scope = sim.metrics.scope(f"tenant.{self.client.tenant}")
        last_error: Optional[Exception] = None
        #: Block ids the servers already hold (confirmed by recovery).
        staged: set = set()
        #: Terminal SWIM records the last abort's acknowledgements carried.
        gone: List[Update] = []
        for attempt in range(max_attempts):
            span = sim.trace.begin(
                "colza.iteration",
                pipeline=self.name,
                iteration=iteration,
                attempt=attempt,
            )
            executed = False
            try:
                recover = bool(staged)
                view = yield from self.activate(
                    iteration, recover=recover, expected=sorted(staged), gone=gone
                )
                if recover:
                    report = self.last_recovery or {}
                    missing = report.get("missing", [])
                    if missing:
                        # Replicas were insufficient (f >= K for these
                        # blocks): fall back to a full re-stage, and
                        # say which blocks forced it.
                        core.counter("restage_fallbacks").inc()
                        tenant_scope.counter("restage_fallbacks").inc()
                        sim.trace.add("colza.restage_fallback")
                        staged.clear()
                        yield from self.abort(iteration)
                        view = yield from self.activate(iteration)
                    else:
                        staged = set(report.get("present", ()))
                for block_id, payload in blocks:
                    if block_id in staged:
                        continue
                    yield from self.stage(iteration, block_id, payload)
                    staged.add(block_id)
                yield from self.execute(iteration)
                executed = True
                yield from self._deactivate_executed(iteration, max_attempts)
                sim.trace.end(span, outcome="ok")
                core.counter("iterations_completed").inc()
                tenant_scope.counter("iterations_completed").inc()
                return view
            except RpcError as err:
                last_error = err
                exhausted = executed or attempt + 1 >= max_attempts
                sim.trace.end(
                    span,
                    outcome="exhausted" if exhausted else "retry",
                    error=type(err).__name__,
                )
                core.counter("iteration_retries").inc()
                tenant_scope.counter("iteration_retries").inc()
                # Nothing will recover an executed iteration's blocks.
                acks = yield from self.abort(iteration, keep_data=not executed)
                # The survivors' word on who is gone rides the retry's
                # prepares (R3), so no voter waits for gossip to agree.
                gone = [u for ack in acks if isinstance(ack, dict) for u in ack["gone"]]
                if exhausted:
                    break
                yield sim.timeout(self._backoff(attempt, *self.RETRY_BACKOFF))
                try:
                    yield from self.client.refresh_view()
                except RpcError:
                    pass
        raise RpcError(
            f"iteration {iteration} failed after {max_attempts} attempts: {last_error}"
        ) from last_error

    def _deactivate_executed(self, iteration: int, max_attempts: int) -> Generator:
        """``deactivate`` after a completed ``execute``: the iteration's
        result exists, so a lost message is answered by retrying this
        idempotent RPC (bounded, iteration-retry backoff), never by
        running the iteration again — a stateful backend would count it
        twice. Swallowing the error is no option either: a member that
        never saw it keeps the epoch and votes ``already-active`` on
        every later prepare. Members SWIM ejected meanwhile are dropped."""
        sim = self.margo.sim
        for attempt in range(max_attempts):
            try:
                yield from self.deactivate(iteration)
                return
            except RpcError as err:
                last_error = err
            yield sim.timeout(self._backoff(attempt, *self.RETRY_BACKOFF))
            try:
                yield from self.client.refresh_view()
            except RpcError:
                continue
            self.frozen_view = tuple(
                s for s in self.frozen_view if s in self.client.view
            )
        raise RpcError(
            f"deactivate({iteration}) unacknowledged after {max_attempts} attempts"
        ) from last_error
