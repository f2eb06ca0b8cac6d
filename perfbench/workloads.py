"""The four workloads: seeded op streams, the timed op, output checks.

Every workload is a closed loop with one op in flight. Each op's
inputs come from a seeded stream and are drawn before the timed call.
The program is driven only through public surfaces: the service's
JSON-lines protocol (``python -m repro.cli serve``), ``RoutingSession``,
``repro.cli.ALGEBRAS``, ``repro.topologies.generators``,
``repro.core.schedule`` and ``repro.scenarios``.

Networks are fixed per workload (their seeds are constants below); the
run's ``--seed`` picks the op stream: the writes and read nodes, the
grid seeds, the event seeds, the schedules and start states.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing
import os
import random
import socket
import subprocess
import sys
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))

# -- fixed parameters (full size, tiny size) -----------------------------

SVC = {"n": (96, 16), "net_seed": 5, "reads": 8, "algebra": "hop-count"}
GRID = {"n": (32, 8), "net_seed": 1, "algebra": "stratified-bounded"}
PV = {"topology": "elmokashfi-24", "algebra": "bgplite", "base_seed": 0,
      "events": ("link-flap", "node-failure", "link-weight-change",
                 "policy-change", "del-best-route")}
REMOTE = {"n": (64, 12), "net_seed": 3, "workers": 2, "algebra": "hop-count"}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- op streams ----------------------------------------------------------


def svc_stream(seed, arcs, n):
    """``(write, read_nodes)`` per update cycle, forever.

    Writes alternate between removing a present arc and re-installing
    the removed arc with a fresh ``edge_seed``, so every write changes
    the topology and the arc count stays within one of the base.
    """
    rng = _rng("svc-churn", seed)
    present = sorted(arcs)
    removed = []
    while True:
        if removed:
            i, k = removed.pop()
            bisect.insort(present, (i, k))
            write = ("set_edge", i, k, rng.randrange(1 << 31))
        else:
            i, k = present.pop(rng.randrange(len(present)))
            removed.append((i, k))
            write = ("remove_edge", i, k, None)
        yield write, rng.sample(range(n), SVC["reads"])


def grid_stream(seed):
    """Per-op grid seed ``s``: ``schedule_zoo(n, seeds=(s, s+17))`` and
    the start state drawn from ``random.Random(s)``."""
    rng = _rng("grid-absolute", seed)
    while True:
        yield rng.randrange(1 << 30)


def pv_stream(seed):
    """Per-op event seed for ``replay_events``."""
    rng = _rng("pv-replay", seed)
    while True:
        yield rng.randrange(1 << 30)


def remote_stream(seed):
    """Per-op ``(schedule seed, start seed)``."""
    rng = _rng("remote-shard", seed)
    while True:
        yield rng.randrange(1 << 30), rng.randrange(1 << 30)


# -- shared helpers ------------------------------------------------------


def _algebra(name):
    from repro.cli import ALGEBRAS
    alg, factory, _finite, _is_path = ALGEBRAS[name]()
    return alg, factory


def _gnp(algebra, n, seed):
    from repro.topologies.generators import erdos_renyi
    alg, factory = _algebra(algebra)
    return erdos_renyi(alg, n, 0.4, factory, seed=seed), factory


def _corrupt_state(state, algebra):
    """A copy of ``state`` with one off-diagonal entry replaced."""
    bad = state.copy()
    n = len(bad.rows)
    j = 1 if n > 1 else 0
    inv = algebra.equal(bad.get(0, j), algebra.invalid)
    bad.set(0, j, algebra.trivial if inv else algebra.invalid)
    return bad


class Workload:
    """Base: the hooks ``child.py`` drives."""

    name = ""
    #: True when the benchmark process itself runs the program, so its
    #: CPU inside the timed calls is program CPU
    in_process = True

    def __init__(self, seed, tiny, workdir, traced):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.traced = traced
        self.writes = 0
        self.op_counts = []        # exact counts read off each op's report
        self._from = 0

    def begin_phase(self):
        """Mark the end of set-up: later records are the timed phase."""
        self._from = len(self.op_counts)
        self.writes = 0

    def program_pids(self):
        """Other processes that run the program (daemon, workers)."""
        return []

    def phase_counts(self):
        """Sums of the per-op counts over the timed phase."""
        out = {}
        for row in self.op_counts[self._from:]:
            for k, v in row.items():
                out[k] = out.get(k, 0) + v
        return out

    def request_windows(self):
        return []

    def request_latencies(self):
        return {}

    def install_tracing(self, rec):
        import tracing
        tracing.install(rec)

    def daemon_spans(self):
        return None

    def close(self):
        pass


# -- svc-churn -----------------------------------------------------------


class SvcChurn(Workload):
    """The durable daemon with one closed-loop connection: a write,
    then ``routes`` for 8 distinct nodes (one fresh read, 7 cached)."""

    name = "svc-churn"
    in_process = False

    def __init__(self, seed, tiny, workdir, traced):
        super().__init__(seed, tiny, workdir, traced)
        self.n = SVC["n"][1 if tiny else 0]
        self.proc = None
        self.sock = None
        self.cycles = []           # (write, [(node, version, digest)])
        self.requests = []         # (kind, t0_ns, t1_ns)
        self.spans_path = os.path.join(workdir, "daemon-spans.json")

    def setup(self):
        state_dir = os.path.join(self.workdir, "state")
        os.makedirs(state_dir)
        serve = ["serve", "--state-dir", state_dir]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "launch_daemon.py"),
                   self.spans_path] + serve
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + serve
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self._call({"verb": "hello", "v": 1})
        net, _factory = _gnp(SVC["algebra"], self.n, SVC["net_seed"])
        load = self._call({"verb": "load", "algebra": SVC["algebra"],
                           "topology": "random", "n": self.n,
                           "seed": SVC["net_seed"]})
        self.sid = load["session"]
        self.load_version = load["version"]
        self.stream = svc_stream(self.seed, list(net.present_edges()),
                                 self.n)
        self.op(self.next_input())           # warm-up cycle

    def _call(self, req, kind=None):
        """One request/reply; ``kind`` records it as a timed request."""
        data = json.dumps(req, separators=(",", ":")).encode() + b"\n"
        t0 = perf_counter_ns()
        self.sock.sendall(data)
        line = self.rfile.readline()
        t1 = perf_counter_ns()
        if not line:
            raise ConnectionError("daemon closed the connection")
        if kind is not None:
            self.requests.append((kind, t0, t1))
        return json.loads(line)

    def program_pids(self):
        return [self.proc.pid]

    def begin_phase(self):
        super().begin_phase()
        self.requests = []

    def next_input(self):
        return next(self.stream)

    def op(self, inp):
        (verb, i, k, edge_seed), nodes = inp
        req = {"verb": verb, "session": self.sid, "i": i, "k": k}
        if edge_seed is not None:
            req["edge_seed"] = edge_seed
        ok = self._call(req, "write").get("ok", False)
        self.writes += 1
        reads = []
        for idx, node in enumerate(nodes):
            rep = self._call({"verb": "routes", "session": self.sid,
                              "node": node}, "fresh" if idx == 0 else "read")
            ok = ok and rep.get("ok", False) and rep.get("converged", False)
            reads.append((node, rep.get("version"), rep.get("digest")))
        self.cycles.append(((verb, i, k, edge_seed), reads))
        return ok

    def request_windows(self):
        return [(t0, t1) for _k, t0, t1 in self.requests]

    def request_latencies(self):
        out = {"write": [], "fresh": [], "read": []}
        for kind, t0, t1 in self.requests:
            out[kind].append((t1 - t0) / 1e6)
        return out

    def close(self):
        """Shut the daemon down through its graceful drain."""
        if self.sock is not None:
            try:
                self._call({"verb": "shutdown"})
            except (OSError, ValueError):
                self.proc.terminate()    # SIGTERM also drains
            self.rfile.close()
            self.sock.close()
            self.sock = None
        elif self.proc is not None:
            self.proc.terminate()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def daemon_spans(self):
        import tracing
        return tracing.load_spans(self.spans_path)

    def check(self, corrupt=False):
        """Replay the writes on an in-process mirror; every fresh read
        must carry the mirror's version and digest, and all reads of a
        cycle one digest."""
        from repro.service.protocol import state_digest
        from repro.session import EngineSpec, RoutingSession
        net, factory = _gnp(SVC["algebra"], self.n, SVC["net_seed"])
        bad = []
        if self.load_version != net.adjacency.version:
            bad.append(f"load version {self.load_version} != mirror "
                       f"{net.adjacency.version}")
        cycles = list(self.cycles)
        if corrupt and cycles:
            write, reads = cycles[-1]
            node, version, digest = reads[0]
            reads = [(node, version, "0" * 64)] + reads[1:]
            cycles[-1] = (write, reads)
        with RoutingSession(net, EngineSpec("auto")) as mirror:
            for idx, ((verb, i, k, edge_seed), reads) in enumerate(cycles):
                if verb == "set_edge":
                    net.set_edge(i, k, factory(random.Random(edge_seed),
                                               i, k))
                else:
                    net.remove_edge(i, k)
                digest = state_digest(mirror.sigma().state)
                version = net.adjacency.version
                node, got_version, got_digest = reads[0]
                if (got_version, got_digest) != (version, digest):
                    bad.append(f"cycle {idx}: fresh read of node {node} "
                               f"is version {got_version} digest "
                               f"{str(got_digest)[:12]}, mirror has "
                               f"version {version} digest {digest[:12]}")
                if len({(v, d) for _n, v, d in reads}) != 1:
                    bad.append(f"cycle {idx}: reads disagree on version "
                               "or digest")
        return bad


# -- grid-absolute ---------------------------------------------------------


class GridAbsolute(Workload):
    """Definition 8's grid on a policy-rich finite algebra: one
    ``delta_grid`` over the schedule zoo × {clean, random} starts."""

    name = "grid-absolute"

    def setup(self):
        from repro.session import EngineSpec, RoutingSession
        self.n = GRID["n"][1 if self.tiny else 0]
        self.net, _factory = _gnp(GRID["algebra"], self.n, GRID["net_seed"])
        self.session = RoutingSession(self.net, EngineSpec("auto"))
        self.stream = grid_stream(self.seed)
        self.reports = []
        self.op(self.next_input())

    def next_input(self):
        from repro.core.asynchronous import random_state
        from repro.core.schedule import schedule_zoo
        from repro.core.state import RoutingState
        s = next(self.stream)
        alg, n = self.net.algebra, self.n
        starts = [RoutingState.identity(alg, n),
                  random_state(alg, n, random.Random(s))]
        schedules = schedule_zoo(n, seeds=(s, s + 17))
        return [(sched, start) for start in starts for sched in schedules]

    def op(self, trials):
        report = self.session.delta_grid(trials)
        self.reports.append((report.resolution.chosen, report.absolute,
                             report.runs, report.distinct_fixed_points))
        return report.all_converged and report.absolute

    def check(self, corrupt=False):
        from repro.session import EngineSpec, RoutingSession
        alg = self.net.algebra
        with RoutingSession(self.net, EngineSpec("naive")) as ref:
            fp = ref.sigma().state
        if corrupt:
            fp = _corrupt_state(fp, alg)
        bad = []
        for idx, (rung, absolute, runs, fps) in enumerate(self.reports):
            if rung != "batched":
                bad.append(f"op {idx}: ran on {rung}, not batched")
            if not absolute or len(fps) != 1 or runs != 18:
                bad.append(f"op {idx}: not absolute ({len(fps)} fixed "
                           f"points over {runs} trials)")
            elif not fps[0].equals(fp, alg):
                bad.append(f"op {idx}: fixed point differs from sigma's")
        return bad

    def close(self):
        self.session.close()


# -- pv-replay -------------------------------------------------------------


class PvReplay(Workload):
    """Theorem 11's path-vector case: build the base AS graph, replay the
    five-event grammar with a seeded compile, on the incremental rung."""

    name = "pv-replay"

    def setup(self):
        from repro import scenarios
        self.events = [scenarios.scenario_events()[e]() for e in PV["events"]]
        self.stream = pv_stream(self.seed)
        self.results = []
        self.op(self.next_input())

    def next_input(self):
        return next(self.stream)

    def op(self, event_seed):
        from repro import scenarios
        from repro.session import EngineSpec, RoutingSession
        net, factory = scenarios.build_scenario_network(
            PV["topology"], PV["algebra"], seed=PV["base_seed"])
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = scenarios.replay_events(session, self.events, factory,
                                             seed=event_seed)
        self.results.append((net, report.final_state,
                             report.resolution.chosen))
        self.op_counts.append({"scenarios.rounds": report.total_rounds,
                               "scenarios.churn": report.total_churn})
        return report.all_converged

    def check(self, corrupt=False):
        """Each final state must be σ's fixed point of its final
        topology (unique by Theorem 11), solved cold on the ``naive``
        rung: ``synchronous_fixed_point`` would run the same incremental
        code as the op under test."""
        from repro.session import EngineSpec, RoutingSession
        bad = []
        for idx, (net, final, rung) in enumerate(self.results):
            if corrupt and idx == len(self.results) - 1:
                final = _corrupt_state(final, net.algebra)
            if rung != "incremental":
                bad.append(f"op {idx}: ran on {rung}, not incremental")
            with RoutingSession(net, EngineSpec("naive")) as ref:
                fp = ref.sigma()
            if not fp.converged or not final.equals(fp.state, net.algebra):
                bad.append(f"op {idx}: final state is not the unique "
                           "fixed point of its final topology")
        return bad

    def install_tracing(self, rec):
        import tracing
        from repro import scenarios
        net, _f = scenarios.build_scenario_network(
            PV["topology"], PV["algebra"], seed=PV["base_seed"])
        edge_types = {type(net.edge(i, k)) for i, k in net.present_edges()}
        tracing.install(rec, algebra_types=[type(net.algebra)],
                        edge_types=sorted(edge_types, key=str))


# -- remote-shard ----------------------------------------------------------


class RemoteShard(Workload):
    """δ on the TCP-sharded rung: an in-process coordinator and two
    loopback worker processes."""

    name = "remote-shard"

    def setup(self):
        from repro.session import EngineSpec, RoutingSession
        self.n = REMOTE["n"][1 if self.tiny else 0]
        self.net, _factory = _gnp(REMOTE["algebra"], self.n,
                                  REMOTE["net_seed"])
        self.session = RoutingSession(
            self.net, EngineSpec("remote", remote_workers=REMOTE["workers"]))
        self.stream = remote_stream(self.seed)
        self.results = []
        self.op(self.next_input())
        self.workers = [p.pid for p in multiprocessing.active_children()]

    def next_input(self):
        from repro.core.asynchronous import random_state
        from repro.core.schedule import RandomSchedule
        sched_seed, start_seed = next(self.stream)
        start = random_state(self.net.algebra, self.n,
                             random.Random(start_seed))
        return RandomSchedule(self.n, seed=sched_seed), start

    def op(self, inp):
        schedule, start = inp
        report = self.session.delta(schedule, start)
        self.results.append((report.resolution.chosen, report.converged,
                             report.state, tuple(report.degraded or ())))
        self.op_counts.append({"remote.heals": len(report.degraded or ())})
        return report.converged and not report.degraded

    def program_pids(self):
        return self.workers

    def check(self, corrupt=False):
        from repro.session import EngineSpec, RoutingSession
        alg = self.net.algebra
        with RoutingSession(self.net, EngineSpec("vectorized")) as ref:
            fp = ref.sigma().state
        if corrupt:
            fp = _corrupt_state(fp, alg)
        bad = []
        for idx, (rung, converged, state, degraded) in \
                enumerate(self.results):
            if rung != "remote":
                bad.append(f"op {idx}: ran on {rung}, not remote")
            if degraded:
                bad.append(f"op {idx}: degraded {degraded}")
            if not converged or not state.equals(fp, alg):
                bad.append(f"op {idx}: delta result is not sigma's fixed "
                           "point")
        return bad

    def close(self):
        self.session.close()


WORKLOADS = {w.name: w for w in (SvcChurn, GridAbsolute, PvReplay,
                                 RemoteShard)}


def make(name, seed, tiny, workdir, traced):
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, tiny, workdir, traced)
