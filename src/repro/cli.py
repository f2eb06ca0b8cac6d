"""Command-line front-end: poke the library without writing code.

Usage (also via ``python -m repro.cli``):

    python -m repro.cli list
    python -m repro.cli verify --algebra bgplite
    python -m repro.cli converge --algebra hop-count --topology ring --n 6
    python -m repro.cli census --gadget disagree
    python -m repro.cli simulate --algebra bgplite --n 8 --loss 0.2 --dup 0.1
    python -m repro.cli worker --host 127.0.0.1 --port 5700
    python -m repro.cli converge --engine remote --remote-workers 2

Each subcommand maps one-to-one onto a library workflow; the CLI is a
thin, dependency-free wrapper intended for quick demos and for
operators who want to law-check a configuration idea before modelling
it properly.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, Optional, Tuple

from .algebras import (
    AddPaths,
    BGPLiteAlgebra,
    BoundedStratifiedAlgebra,
    GaoRexfordAlgebra,
    HopCountAlgebra,
    PrependingBGPAlgebra,
    QuantisedReliabilityAlgebra,
    ShortestPathsAlgebra,
    StratifiedAlgebra,
    WidestPathsAlgebra,
    bad_gadget,
    disagree,
    good_gadget,
    increasing_disagree,
    spp_fixed_point_candidates,
)
from .analysis import (
    enumerate_fixed_points,
    multistart_fixed_points,
    sync_oscillates,
)
from .core import LADDER, Network, PathAlgebra, UnsupportedEngineError, \
    synchronous_fixed_point
from .protocols import LinkConfig
from .session import EngineSpec, RoutingSession
from .topologies import (
    bgp_policy_factory,
    complete,
    erdos_renyi,
    lifted_weight_factory,
    line,
    ring,
    star,
    uniform_weight_factory,
)
from .verification import convergence_guarantee, verify_network


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------


def _hop():
    alg = HopCountAlgebra(16)
    return alg, uniform_weight_factory(alg, 1, 3), True, False


def _shortest():
    alg = ShortestPathsAlgebra()
    return alg, uniform_weight_factory(alg, 1, 5), False, False


def _widest():
    alg = WidestPathsAlgebra()
    return alg, uniform_weight_factory(alg, 1, 5), False, False


def _reliable():
    alg = QuantisedReliabilityAlgebra(8)
    return alg, (lambda rng, _i, _j: alg.sample_edge_function(rng)), True, False


def _shortest_pv():
    alg = AddPaths(ShortestPathsAlgebra(), n_nodes=32)
    return alg, lifted_weight_factory(alg, 1, 5), False, True


def _bgplite():
    alg = BGPLiteAlgebra(n_nodes=32)
    return alg, bgp_policy_factory(alg, allow_reject=False), False, True


def _prepending():
    alg = PrependingBGPAlgebra(n_nodes=32)
    return alg, (lambda rng, i, j: alg.sample_edge_function(rng)), False, True


def _gao_rexford():
    alg = GaoRexfordAlgebra(n_nodes=32)

    def factory(rng, i, j):
        from .algebras import Rel

        return alg.edge(i, j, Rel(rng.randrange(3)))

    return alg, factory, False, True


def _stratified():
    alg = StratifiedAlgebra()
    return alg, (lambda rng, _i, _j: alg.sample_edge_function(rng)), \
        False, False


def _stratified_bounded():
    alg = BoundedStratifiedAlgebra(max_level=3, max_distance=12)
    return alg, (lambda rng, _i, _j: alg.sample_edge_function(rng)), \
        True, False


ALGEBRAS: Dict[str, Callable] = {
    "hop-count": _hop,
    "shortest": _shortest,
    "widest": _widest,
    "reliable": _reliable,
    "shortest-pv": _shortest_pv,
    "bgplite": _bgplite,
    "prepending": _prepending,
    "gao-rexford": _gao_rexford,
    "stratified": _stratified,
    "stratified-bounded": _stratified_bounded,
}

TOPOLOGIES = {
    "line": line,
    "ring": ring,
    "star": star,
    "complete": complete,
}

GADGETS = {
    "disagree": disagree,
    "bad": bad_gadget,
    "good": good_gadget,
    "disagree-increasing": increasing_disagree,
}


#: every topology name :func:`build_network` takes
TOPOLOGY_NAMES = sorted(TOPOLOGIES) + ["random", "corpus:<name>"]


def build_network(algebra_name: str, topology: str, n: int,
                  seed: int) -> Tuple[Network, Callable]:
    """``(network, edge factory)`` for registry names, for the CLI and
    the service daemon (which materialises ``set_edge`` mutations from
    a seed with the factory).  ``"random"`` is G(n, 0.4), and
    ``"corpus:<name>"`` a scenario-corpus fixture, whose node count
    ``n`` must match.  A bad name or ``n`` raises :class:`ValueError`
    saying what to pass instead.
    """
    if algebra_name not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra_name!r}; "
                         f"choose from {sorted(ALGEBRAS)}")
    alg, factory, _finite, _is_path = ALGEBRAS[algebra_name]()
    if topology.startswith("corpus:"):
        # lazy: the scenario package imports this module's registries
        from .scenarios.corpus import load_corpus_topology
        topo = load_corpus_topology(topology[len("corpus:"):])
        if n != topo.n:
            raise ValueError(
                f"corpus topology {topo.name!r} has n={topo.n} nodes; "
                f"load it with n={topo.n} (got n={n})")
        net = topo.build(alg, factory, seed=seed)
    elif topology == "random":
        net = erdos_renyi(alg, n, 0.4, factory, seed=seed)
    elif topology in TOPOLOGIES:
        net = TOPOLOGIES[topology](alg, n, factory, seed=seed)
    else:
        raise ValueError(f"unknown topology {topology!r}; choose from "
                         f"{TOPOLOGY_NAMES}")
    return net, factory


def _network(args) -> Network:
    """:func:`build_network` for a subcommand's arguments; a bad name
    exits with the choices."""
    try:
        net, _factory = build_network(args.algebra, args.topology, args.n,
                                      args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return net


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _describe_resolution(resolution) -> str:
    """One line for the chosen rung, one indented line per skipped rung
    (the negotiation's machine-readable reason chain, printed)."""
    head = resolution.chosen
    if resolution.workers:
        if resolution.chosen == "remote":
            head += f" ({resolution.workers} TCP worker shards, " \
                    "delta-encoded column updates)"
        else:
            head += f" ({resolution.workers} workers, shared-memory " \
                    "column sharding)"
    if resolution.requested != resolution.chosen:
        head += f" (requested: {resolution.requested})"
    lines = [head]
    for skip in resolution.skipped:
        lines.append(f"                    - skipped {skip.rung} "
                     f"[{skip.code}]: {skip.detail}")
    return "\n".join(lines)


def _session(net, args) -> RoutingSession:
    """The negotiated session every engine-touching subcommand uses."""
    endpoints = getattr(args, "endpoint", None) or None
    return RoutingSession(net, EngineSpec(
        args.engine, workers=args.workers,
        strict=getattr(args, "strict_engine", False),
        remote_workers=getattr(args, "remote_workers", None),
        endpoints=endpoints,
        socket_timeout=getattr(args, "socket_timeout", None)))


def cmd_list(_args) -> int:
    print("algebras :", ", ".join(sorted(ALGEBRAS)))
    print("topologies:", ", ".join(TOPOLOGY_NAMES))
    print("gadgets  :", ", ".join(sorted(GADGETS)))
    return 0


def cmd_verify(args) -> int:
    net = _network(args)
    report = verify_network(net, samples=args.samples)
    print(report.table())
    print()
    print("→", convergence_guarantee(
        report, finite_carrier=bool(getattr(net.algebra, "is_finite",
                                            False)),
        path_algebra=isinstance(net.algebra, PathAlgebra)))
    return 0 if report.is_routing_algebra else 1


def cmd_converge(args) -> int:
    net = _network(args)
    with _session(net, args) as session:
        report = session.converges(n_starts=args.starts, seed=args.seed,
                                   max_steps=args.max_steps)
    grid = report.grid
    print(f"network           : {net.name} ({net.algebra.name})")
    print(f"engine            : {_describe_resolution(grid.resolution)}")
    if grid.schedule_seed_version is not None:
        print(f"schedule seeds    : v{grid.schedule_seed_version} "
              "(RandomSchedule.SCHEDULE_SEED_VERSION)")
    print(f"runs              : {grid.runs} (starts × schedules)")
    print(f"all converged     : {grid.all_converged}")
    print(f"distinct fixpoints: {len(grid.distinct_fixed_points)}")
    print(f"steps             : mean {grid.mean_steps:.1f}, "
          f"worst {grid.max_steps}")
    if grid.wire is not None:
        w = grid.wire
        print(f"wire              : {w.total_bytes} B over {w.rounds} "
              f"rounds ({w.bytes_per_round:.0f} B/round, "
              f"compression {w.compression_ratio:.1f}x vs naive "
              "full-column transfer)")
    print(f"elapsed           : {grid.elapsed_s:.2f}s")
    print(f"ABSOLUTE          : {report.absolute}")
    return 0 if report.absolute else 1


def cmd_census(args) -> int:
    if args.gadget not in GADGETS:
        raise SystemExit(f"unknown gadget {args.gadget!r}; choose from "
                         f"{sorted(GADGETS)}")
    net = GADGETS[args.gadget]()
    census = enumerate_fixed_points(
        net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
    multistart = multistart_fixed_points(net, n_starts=args.starts,
                                         seed=args.seed, max_steps=600)
    print(f"gadget            : {net.name}")
    print(f"stable states     : {census.per_destination[0]}")
    print(f"reachable states  : {len(multistart.fixed_points)}")
    print(f"diverged runs     : {multistart.diverged}/{multistart.runs}")
    print(f"sync oscillates   : {sync_oscillates(net)}")
    if census.per_destination[0] > 1:
        print("VERDICT: wedgie — outcome depends on message timing")
    elif census.per_destination[0] == 0:
        print("VERDICT: no stable state — permanent oscillation")
    else:
        print("VERDICT: unique stable state")
    return 0


def _parse_fault_plan(spec):
    """``--fault-plan`` value: inline JSON, or ``@path`` to a JSON file."""
    if spec is None:
        return None
    from .core.faults import FaultPlan
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            spec = fh.read()
    return FaultPlan.parse(spec)


def cmd_worker(args) -> int:
    from .core.remote import serve_worker
    try:
        serve_worker(host=args.host, port=args.port, once=args.once,
                     announce=True,
                     fault_plan=_parse_fault_plan(args.fault_plan))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve(args) -> int:
    from .service import serve
    if args.log:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        serve(host=args.host, port=args.port, engine=args.engine,
              max_sessions=args.max_sessions,
              cache_entries=args.cache_entries,
              max_inflight=args.max_inflight,
              fault_plan=_parse_fault_plan(args.fault_plan),
              state_dir=args.state_dir,
              snapshot_interval=args.snapshot_interval,
              journal_sync_every=args.journal_sync_every,
              drain_deadline=args.drain_deadline,
              announce=True)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_simulate(args) -> int:
    net = _network(args)
    cfg = LinkConfig(min_delay=0.2, max_delay=3.0, loss=args.loss,
                     duplicate=args.dup)
    with _session(net, args) as session:
        report = session.simulate(seed=args.seed, link_config=cfg,
                                  refresh_interval=5.0, quiet_period=25.0)
    res = report.result
    ref = synchronous_fixed_point(net)
    print(f"network        : {net.name} ({net.algebra.name})")
    # the event simulation itself is pure-python; only the final
    # σ-stability verdict runs on the negotiated engine (every codes
    # rung, batched included, takes the lone check)
    print(f"σ-check engine : {_describe_resolution(report.resolution)}")
    print(f"converged      : {res.converged} "
          f"(σ-stable: {res.final_state.equals(ref, net.algebra)})")
    print(f"conv. time     : {res.convergence_time:.1f}")
    print(f"messages       : {res.stats.as_dict()}")
    print(f"table changes  : {res.trace.total_changes}")
    return 0 if res.converged else 1


def cmd_scenarios(args) -> int:
    # lazy: the scenario package imports this module's registries
    from .scenarios import (
        DEFAULT_EVENTS,
        build_scenario_network,
        replay_events,
        run_survey,
        scenario_algebras,
        scenario_events,
        scenario_topologies,
    )
    if args.action == "list":
        print("topologies:", ", ".join(sorted(scenario_topologies())))
        print("events    :", ", ".join(scenario_events()))
        print("algebras  :", ", ".join(sorted(scenario_algebras())))
        return 0
    if args.action == "run":
        topology = (args.topology or ["corpus:abilene"])[0]
        algebra = (args.algebra or ["hop-count"])[0]
        names = list(args.event) if args.event else list(DEFAULT_EVENTS)
        registry = scenario_events()
        for name in names:
            if name not in registry:
                raise SystemExit(f"unknown event {name!r}; choose from "
                                 f"{sorted(registry)}")
        net, factory = build_scenario_network(topology, algebra,
                                              seed=args.seed)
        with RoutingSession(net, EngineSpec(args.engine)) as session:
            report = replay_events(
                session, [registry[name]() for name in names], factory,
                seed=args.seed)
        print(f"network : {net.name} ({net.algebra.name}, n={net.n})")
        print(f"engine  : {_describe_resolution(report.resolution)}")
        print(f"{'phase':<18} {'muts':>4} {'rounds':>6} {'churn':>6} "
              f"{'converged':>9}")
        for step in report.steps:
            print(f"{step.label:<18} {step.mutations:>4} {step.rounds:>6} "
                  f"{step.churn:>6} {str(step.converged):>9}")
        print(f"total   : {report.phases} phases, "
              f"churn {report.total_churn}, rounds {report.total_rounds}, "
              f"{report.elapsed_s:.2f}s")
        return 0 if report.all_converged else 1
    # survey
    progress = None
    if args.progress:
        def progress(cell):
            mark = "ok" if cell.ok else "FAIL"
            print(f"  {cell.topology} × {cell.event} × {cell.algebra}: "
                  f"{mark} ({cell.elapsed_s:.2f}s)", flush=True)
    report = run_survey(
        topologies=args.topology, events=args.event, algebras=args.algebra,
        seed=args.seed, trials=args.trials, oracle=args.oracle,
        engine=args.engine, max_steps=args.max_steps, progress=progress)
    print(report.render_table())
    return 1 if report.failed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algebras/topologies/gadgets")

    def common(p):
        p.add_argument("--algebra", default="hop-count")
        p.add_argument("--topology", default="ring")
        p.add_argument("--n", type=int, default=6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", default="auto",
                       choices=("auto",) + LADDER,
                       help="σ/δ engine ladder rung, resolved by "
                            "capability negotiation ('auto', the "
                            "default, starts at the top rung the "
                            "operation supports); every skipped rung "
                            "is printed with its machine-readable "
                            "reason code")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for the parallel rung "
                            "(default: auto-size to the host CPUs; "
                            "small problems and single-CPU hosts fall "
                            "down the ladder)")
        p.add_argument("--strict-engine", action="store_true",
                       help="raise instead of falling down the ladder "
                            "when the requested --engine cannot run "
                            "this configuration")
        p.add_argument("--remote-workers", type=int, default=None,
                       help="remote rung: spawn this many loopback TCP "
                            "worker subprocesses (single-host testing "
                            "transport; ignored by other rungs)")
        p.add_argument("--endpoint", action="append", default=None,
                       metavar="HOST:PORT",
                       help="remote rung: connect to a worker started "
                            "with the 'worker' subcommand (repeat for "
                            "one shard per worker; wins over "
                            "--remote-workers)")
        p.add_argument("--socket-timeout", type=float, default=None,
                       help="remote rung: seconds before a silent "
                            "worker socket raises RemoteWorkerError "
                            "(default 120)")

    p = sub.add_parser("verify", help="law-check a deployed network")
    common(p)
    p.add_argument("--samples", type=int, default=40)

    p = sub.add_parser("converge", help="absolute-convergence experiment")
    common(p)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--max-steps", type=int, default=2500)

    p = sub.add_parser("census", help="stable-state census of a gadget")
    p.add_argument("--gadget", default="disagree")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="event-driven protocol run")
    common(p)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--dup", type=float, default=0.0)

    p = sub.add_parser(
        "worker",
        help="serve one remote-rung worker shard over TCP (prints "
             "'listening on host:port' once bound; Ctrl-C to stop)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port to bind (default 0: an ephemeral "
                        "port, reported on stdout)")
    p.add_argument("--once", action="store_true",
                   help="exit after serving a single coordinator "
                        "connection instead of accepting forever")
    p.add_argument("--fault-plan", default=None, metavar="JSON|@FILE",
                   help="seeded chaos: a FaultPlan as inline JSON (or "
                        "@path to a JSON file) injected into this "
                        "worker's frame stream")

    p = sub.add_parser(
        "serve",
        help="run the routing service daemon (JSON-over-TCP, warm "
             "sessions, fixed-point cache; prints 'listening on "
             "host:port' once bound; Ctrl-C to stop)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port to bind (default 0: an ephemeral "
                        "port, reported on stdout)")
    p.add_argument("--engine", default="auto",
                   choices=("auto",) + LADDER,
                   help="default engine for sessions whose 'load' "
                        "does not name one")
    p.add_argument("--max-sessions", type=int, default=8,
                   help="warm-session registry bound (LRU eviction)")
    p.add_argument("--cache-entries", type=int, default=512,
                   help="per-session fixed-point cache bound (LRU)")
    p.add_argument("--max-inflight", type=int, default=32,
                   help="backpressure bound: concurrent query computes "
                        "admitted before the daemon sheds with a typed "
                        "'busy' error carrying a retry_after_ms hint")
    p.add_argument("--fault-plan", default=None, metavar="JSON|@FILE",
                   help="seeded chaos: a FaultPlan as inline JSON (or "
                        "@path to a JSON file) injected into the "
                        "daemon's request/reply stream")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="durable state directory: write-ahead journal "
                        "of admitted mutations plus periodic snapshots; "
                        "on restart the daemon restores the newest "
                        "valid snapshot, replays the journal tail and "
                        "serves identical topology versions with a "
                        "warm cache (default: in-memory only)")
    p.add_argument("--snapshot-interval", type=float, default=30.0,
                   metavar="SECONDS",
                   help="seconds between periodic snapshots when the "
                        "journal has advanced (default 30)")
    p.add_argument("--journal-sync-every", type=int, default=8,
                   metavar="N",
                   help="fsync the journal every N records (default 8; "
                        "records always reach the OS before the reply)")
    p.add_argument("--drain-deadline", type=float, default=10.0,
                   metavar="SECONDS",
                   help="graceful-drain budget on SIGTERM/'shutdown': "
                        "finish inflight work for up to this long while "
                        "rejecting new work with a typed 'draining' "
                        "error, then flush and snapshot (default 10)")
    p.add_argument("--log", action="store_true",
                   help="emit per-request structured logs on stderr")

    p = sub.add_parser(
        "scenarios",
        help="topology-corpus reconfiguration scenarios: list the "
             "registry, replay one event stream, or run the "
             "(topology × event × algebra) survey grid")
    p.add_argument("action", choices=("list", "run", "survey"),
                   help="'list' the scenario registry; 'run' one event "
                        "stream on one topology with a per-phase table; "
                        "'survey' the full grid (exit 1 on any failed "
                        "cell)")
    p.add_argument("--topology", action="append", default=None,
                   metavar="NAME",
                   help="scenario topology (repeatable; 'run' uses the "
                        "first; survey default: the whole registry)")
    p.add_argument("--event", action="append", default=None,
                   metavar="NAME",
                   help="event type (repeatable; default: all five)")
    p.add_argument("--algebra", action="append", default=None,
                   metavar="NAME",
                   help="algebra (repeatable; 'run' uses the first; "
                        "survey default: hop-count + stratified-bounded, "
                        "both finite so grids negotiate the batched "
                        "rung)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=4,
                   help="δ trials per survey cell (schedule × start "
                        "grid on the post-event topology)")
    p.add_argument("--oracle", action="store_true",
                   help="re-run every cell on an independent network "
                        "with the engine pinned below the batched rung "
                        "and require bit-identical replay phases and "
                        "grid trials")
    p.add_argument("--engine", default="auto",
                   choices=("auto",) + LADDER)
    p.add_argument("--max-steps", type=int, default=2000)
    p.add_argument("--progress", action="store_true",
                   help="survey: print one line per finished cell")
    return parser


COMMANDS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "converge": cmd_converge,
    "census": cmd_census,
    "simulate": cmd_simulate,
    "worker": cmd_worker,
    "serve": cmd_serve,
    "scenarios": cmd_scenarios,
}


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UnsupportedEngineError as exc:
        raise SystemExit(f"engine negotiation failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
