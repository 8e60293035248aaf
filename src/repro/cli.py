"""Command-line interface: run solvers and regenerate paper tables/figures.

Examples
--------
::

    repro-kcenter list
    repro-kcenter solve list
    repro-kcenter solve eim --k 10
    repro-kcenter solve mrg --k 25 --n 100000 --dataset unif --m 50
    repro-kcenter solve eim --k 10 --opt phi=4 --opt eps=0.2
    repro-kcenter solve stream --k 25 --data points.npy
    repro-kcenter solve mr_hs --k 25 --data shards/
    repro-kcenter solve mrg --k 25 --n 200000 --shards 8
    repro-kcenter serve --backend thread --pool-size 4
    repro-kcenter solve gon --k 10 --connect 127.0.0.1:7227
    repro-kcenter run table3
    repro-kcenter run figure2a --scale paper
    repro-kcenter run table6 --m 50 --seed 7
    python -m repro.cli run figure4a

``solve`` routes through the unified :func:`repro.solve` facade, so any
algorithm registered via :func:`repro.solvers.register_solver` — including
downstream plugins — is immediately runnable and shown by ``solve list``.
``--data points.npy`` solves a file instead of a generated dataset: the
file is memory-mapped and consumed chunk by chunk through
:mod:`repro.store`, so inputs larger than RAM work (pair with the
``stream`` solver, whose working state is O(k)).  ``--data shards/``
solves a sharded directory, and ``--shards N`` shards a generated
dataset (or a ``.npy`` file) on the fly — the MapReduce solvers then run
each reducer against a per-shard view, never gathering the full
coordinate array.
``serve`` boots the :mod:`repro.serve` job server — a long-lived daemon
holding one warm executor pool, answering newline-delimited-JSON solve
requests over TCP — and ``solve --connect HOST:PORT`` turns the ``solve``
subcommand into a client of one: the dataset is generated (or the
``--data`` path forwarded) and shipped to the server, and the printed
result comes off the wire, bit-identical to the local run.
``run`` reproduces a paper experiment; its output is the paper-layout
table (or ASCII chart) plus, where the paper published numbers, a
side-by-side comparison and the qualitative shape checks from
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time

from repro.analysis import run_experiment
from repro.analysis.configs import (
    EXPERIMENT_IDS,
    experiment_config,
    figure4_n_grid,
    resolve_scale,
)
from repro.analysis.figures import ascii_chart, series_over_k, series_over_n
from repro.analysis.paper import (
    PAPER_K_GRID,
    PAPER_PHI_GRID,
    SOLUTION_TABLES,
    TABLE6,
    TABLE7,
)
from repro.analysis.report import (
    check_phi_runtime_direction,
    check_runtime_ordering,
    check_winner_agreement,
    fallback_ks,
    render_checks,
    speedup_summary,
)
from repro.analysis.tables import (
    STANDARD_COLUMNS,
    phi_table,
    runtime_table,
    side_by_side,
    solution_value_table,
)
from repro.data.registry import DATASETS, make_dataset
from repro.errors import InvalidParameterError, ReproError
from repro.solvers import SHARED_KNOBS, UNSET, get_solver, list_solvers, solve
from repro.utils.tables import format_table, format_value

__all__ = ["main"]

#: Display order of the standard algorithm family in paper-layout tables,
#: derived from the registry rather than hard-coded algorithm literals.
_STANDARD = STANDARD_COLUMNS


def _progress(message: str) -> None:
    print(f"  .. {message}", file=sys.stderr, flush=True)


def _run_solution_table(exp: str, scale: str, m: int, seed: int, quiet: bool) -> None:
    spec = experiment_config(exp, scale=scale, m=m)
    spec = type(spec)(**{**spec.__dict__, "master_seed": seed})
    records = run_experiment(spec, progress=None if quiet else _progress)
    headers, rows = solution_value_table(records)
    desc, paper = SOLUTION_TABLES[exp]
    print(format_table(headers, rows, title=f"{exp}: solution value over k — {desc} "
                                            f"(measured at n={spec.n}, scale={scale})"))
    print()
    cmp_headers, cmp_rows = side_by_side(rows, paper)
    print(format_table(cmp_headers, cmp_rows, title=f"{exp}: measured vs paper "
                                                    f"(columns: {', '.join(_STANDARD)})"))
    print()
    checks = [
        check_winner_agreement(rows, paper),
        check_runtime_ordering(records),
    ]
    print(render_checks(checks))
    print()
    t_headers, t_rows = runtime_table(records)
    print(format_table(t_headers, t_rows, title=f"{exp}: simulated parallel runtime (s)"))


def _run_phi_table(exp: str, scale: str, m: int, seed: int, quiet: bool) -> None:
    spec = experiment_config(exp, scale=scale, m=m)
    spec = type(spec)(**{**spec.__dict__, "master_seed": seed})
    records = run_experiment(spec, progress=None if quiet else _progress)
    value = "radius" if exp == "table6" else "parallel_time"
    paper = TABLE6 if exp == "table6" else TABLE7
    what = "solution value" if exp == "table6" else "runtime (s)"
    headers, rows = phi_table(records, value)
    print(format_table(headers, rows, title=f"{exp}: EIM {what} over phi — "
                                            f"GAU (measured at n={spec.n}, scale={scale})"))
    print()
    cmp_headers, cmp_rows = side_by_side(
        rows, paper, label_measured="meas", label_paper="paper"
    )
    print(format_table(cmp_headers, cmp_rows,
                       title=f"{exp}: measured vs paper (columns: phi = "
                             f"{', '.join(f'{p:g}' for p in PAPER_PHI_GRID)})"))
    if exp == "table7":
        print()
        print(render_checks([check_phi_runtime_direction(records)]))


def _run_figure_k(exp: str, scale: str, m: int, seed: int, quiet: bool) -> None:
    spec = experiment_config(exp, scale=scale, m=m)
    spec = type(spec)(**{**spec.__dict__, "master_seed": seed})
    records = run_experiment(spec, progress=None if quiet else _progress)
    value = "radius" if exp == "figure1" else "parallel_time"
    label = "solution value" if exp == "figure1" else "runtime (s)"
    series = series_over_k(records, value, _STANDARD, list(PAPER_K_GRID))
    print(ascii_chart(series, title=f"{exp}: {label} over k — {spec.dataset} "
                                    f"(n={spec.n}, scale={scale}), log y",
                      xlabel="k"))
    print()
    if exp != "figure1":
        print(render_checks([check_runtime_ordering(records)]))
        ratios = speedup_summary(records)
        for algo, by_k in sorted(ratios.items()):
            pretty = ", ".join(f"k={k}: {v:.1f}x" for k, v in sorted(by_k.items()))
            print(f"  {algo} / MRG runtime ratio: {pretty}")
    fell_back = fallback_ks(records)
    if fell_back:
        print(f"  EIM fell back to sequential GON at k in {fell_back}")


def _run_figure4(exp: str, scale: str, m: int, seed: int, quiet: bool) -> None:
    spec = experiment_config(exp, scale=scale, m=m)
    spec = type(spec)(**{**spec.__dict__, "master_seed": seed})
    n_grid = figure4_n_grid(scale)
    series, records = series_over_n(
        spec, n_grid, progress=None if quiet else _progress
    )
    k = spec.ks[0]
    print(ascii_chart(series, title=f"{exp}: runtime (s) over n at k={k} "
                                    f"(scale={scale}), log y", xlabel="n"))
    print()
    fell_back = fallback_ks(records)
    if fell_back:
        print(f"  EIM fell back to sequential GON at k in {fell_back}")


def _parse_solver_option(item: str) -> tuple[str, object]:
    """``--opt key=value`` with Python-literal values (fallback: string)."""
    key, sep, raw = item.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(
            f"solver option must look like key=value, got {item!r}"
        )
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key.strip(), value


def _print_solver_registry() -> None:
    headers = ["name", "kind", "factor", "backends", "aliases", "options"]
    rows = []
    for spec in list_solvers():
        rows.append(
            [
                spec.name,
                spec.kind,
                "-" if spec.approx_factor is None else f"{spec.approx_factor:g}",
                ", ".join(spec.backends),
                ", ".join(spec.aliases) or "-",
                ", ".join(sorted(spec.options)) or "-",
            ]
        )
    print(format_table(headers, rows, title="registered k-center solvers"))
    print()
    for spec in list_solvers():
        print(f"  {spec.name:<6} {spec.summary}")


def _run_remote_solve(args: argparse.Namespace, spec) -> int:
    """``solve --connect``: ship the request to a running job server."""
    from repro.serve import ServeClient, parse_hostport

    if args.shards is not None:
        raise InvalidParameterError(
            "--shards shards locally; with --connect, point --data at a "
            "server-visible sharded directory instead"
        )
    host, port = parse_hostport(args.connect)
    options = dict(args.opt)
    if args.m is not None:
        options["m"] = args.m
    if args.capacity is not None:
        options["capacity"] = args.capacity
    if args.no_evaluate:
        options["evaluate"] = False
    points = data = None
    if args.data is not None:
        data = args.data
        source = f"{args.data} @ {host}:{port}"
    else:
        data_seed = args.data_seed if args.data_seed is not None else args.seed
        dataset = make_dataset(args.dataset, args.n, seed=data_seed)
        points = dataset.points
        source = f"{args.dataset} @ {host}:{port}"
        if not args.quiet:
            _progress(f"{args.dataset}: n={dataset.n}, dim={dataset.dim} "
                      f"(sent inline to {host}:{port})")
    if not args.quiet:
        _progress(f"requesting {spec.name}, k={args.k} from {host}:{port}")
    with ServeClient(host, port) as client:
        response = client.solve(
            spec.name, args.k, points=points, data=data,
            seed=args.seed, options=options,
        )
    result = response["result"]
    accounting = response.get("accounting", {})
    n = len(points) if points is not None else "?"
    rows = [[key, format_value(value)] for key, value in result.items()]
    rows += [
        [f"serve.{key}", format_value(value)]
        for key, value in accounting.items()
        if key != "summary"
    ]
    print(
        format_table(
            ["field", "value"],
            rows,
            title=f"{result['algorithm']} on {source} (n={n}, k={args.k})",
        )
    )
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import KCenterServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        backend=args.backend,
        pool_size=args.pool_size,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        max_points=args.max_points,
        default_timeout=args.timeout,
    )
    if args.log_json:
        from repro.obs import logs as _logs

        _logs.configure()

    async def main() -> None:
        server = KCenterServer(config)
        host, port = await server.start()
        pool = config.pool_size if config.pool_size is not None else "auto"
        print(
            f"repro-kcenter serve: listening on {host}:{port} "
            f"(backend={config.backend}, pool={pool}, "
            f"max_points={config.max_points})",
            flush=True,
        )
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(
                f"repro-kcenter serve: metrics on "
                f"http://{mhost}:{mport}/metrics",
                flush=True,
            )
        try:
            await server.serve_forever()
        finally:
            # Best-effort drain; on Ctrl-C the surrounding asyncio.run is
            # already cancelling us, so a second interrupt just exits.
            try:
                await asyncio.shield(server.stop())
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro-kcenter serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _run_solve_command(args: argparse.Namespace) -> int:
    if args.algorithm == "list":
        _print_solver_registry()
        return 0
    spec = get_solver(args.algorithm)  # fail fast, before generating data
    if args.connect is not None:
        if args.trace is not None:
            raise InvalidParameterError(
                "--trace renders the in-process timeline; it cannot follow "
                "a request to a remote server (drop --connect)"
            )
        return _run_remote_solve(args, spec)
    flags = {"m": "--m", "capacity": "--capacity", "seed": "--seed",
             "evaluate": "--no-evaluate"}
    for key, _ in args.opt:
        if key in SHARED_KNOBS:
            hint = (f"use {flags[key]}" if key in flags
                    else "it is not settable from the CLI")
            raise InvalidParameterError(
                f"{key!r} is a shared knob, not a solver option; {hint}"
            )
    import contextlib
    import tempfile

    from repro.store import ChunkedMetricSpace, ShardedStream, as_stream, write_shards

    def _shard_tmp(stack):
        # The stream keeps lazy memmaps over the shard files until exit,
        # so cleanup must tolerate still-mapped files (Windows).
        return stack.enter_context(
            tempfile.TemporaryDirectory(
                prefix="repro-shards-", ignore_cleanup_errors=True
            )
        )

    with contextlib.ExitStack() as stack:
        if args.data is not None:
            stream = as_stream(args.data, chunk_size=args.chunk_size)
            source = args.data
            if args.shards is not None:
                if isinstance(stream, ShardedStream):
                    raise InvalidParameterError(
                        f"{args.data} is already a sharded directory; "
                        "--shards only applies when sharding a .npy file "
                        "or a generated dataset"
                    )
                stream = write_shards(stream, _shard_tmp(stack), args.shards)
                source = f"{args.data} [{args.shards} shards]"
            space = ChunkedMetricSpace(stream)
            n, dim = stream.n, stream.dim
            if not args.quiet:
                layout = (
                    f"{stream.n_shards} shards"
                    if isinstance(stream, ShardedStream)
                    else "memmap"
                )
                _progress(
                    f"{source}: n={n}, dim={dim} (out-of-core, {layout}, "
                    f"chunk={stream.chunk_size})"
                )
        elif args.shards is not None:
            from repro.data.registry import make_sharded

            data_seed = args.data_seed if args.data_seed is not None else args.seed
            stream = make_sharded(
                args.dataset, args.n, _shard_tmp(stack), args.shards,
                seed=data_seed, chunk_size=args.chunk_size,
            )
            space = ChunkedMetricSpace(stream)
            source, n = f"{args.dataset} [{args.shards} shards]", stream.n
            if not args.quiet:
                _progress(
                    f"{args.dataset}: n={stream.n}, dim={stream.dim} "
                    f"(sharded out-of-core, {stream.n_shards} shards, "
                    f"chunk={stream.chunk_size})"
                )
        else:
            data_seed = args.data_seed if args.data_seed is not None else args.seed
            dataset = make_dataset(args.dataset, args.n, seed=data_seed)
            space = dataset.space()
            source, n = args.dataset, dataset.n
            if not args.quiet:
                _progress(f"{args.dataset}: n={dataset.n}, dim={dataset.dim}")
        if not args.quiet:
            _progress(f"solving with {spec.name} (kind={spec.kind}), k={args.k}")
        tracer = None
        if args.trace is not None:
            from repro.obs import trace as _trace

            tracer = _trace.Tracer(detail=args.trace_detail)
            stack.enter_context(_trace.activate(tracer))
        result = solve(
            space,
            args.k,
            algorithm=spec.name,
            seed=args.seed,
            m=args.m if args.m is not None else UNSET,
            capacity=args.capacity if args.capacity is not None else UNSET,
            evaluate=False if args.no_evaluate else UNSET,
            **dict(args.opt),
        )
    if tracer is not None:
        tracer.export_chrome(args.trace)
        if not args.quiet:
            _progress(
                f"trace: {len(tracer.spans)} spans -> {args.trace} "
                f"(chrome://tracing / https://ui.perfetto.dev)"
            )
    summary = result.summary()
    rows = [[key, format_value(value)] for key, value in summary.items()]
    print(
        format_table(
            ["field", "value"],
            rows,
            title=f"{result.algorithm} on {source} (n={n}, k={args.k})",
        )
    )
    if result.approx_factor is not None:
        print(
            f"\n  a-priori guarantee: radius <= {result.approx_factor:g} x OPT"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-kcenter",
        description="Reproduce tables/figures of McClintock & Wirth (ICPP 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiment ids")
    solve_cmd = sub.add_parser(
        "solve", help="run one registered solver on a generated dataset"
    )
    solve_cmd.add_argument(
        "algorithm",
        help='solver name or alias (see "repro-kcenter solve list")',
    )
    solve_cmd.add_argument("--k", type=int, default=10, help="number of centers")
    solve_cmd.add_argument("--n", type=int, default=20_000, help="dataset size")
    solve_cmd.add_argument(
        "--dataset", choices=sorted(DATASETS), default="gau",
        help="workload from the dataset registry (default: gau)",
    )
    solve_cmd.add_argument(
        "--data", metavar="PATH", default=None,
        help="solve a .npy point file (memmapped, chunked) or a sharded "
             "directory (write_shards/make_sharded layout) out-of-core "
             "instead of generating --dataset; --n/--data-seed are ignored",
    )
    solve_cmd.add_argument(
        "--chunk-size", type=int, default=None,
        help="rows per chunk for --data (default: the block byte budget)",
    )
    solve_cmd.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard the input into N chunk-aligned .npy groups in a "
             "temporary directory and solve out-of-core from them "
             "(works with a generated synthetic --dataset or a --data "
             ".npy file; MapReduce reducers then consume per-shard views)",
    )
    solve_cmd.add_argument(
        "--m", type=int, default=None,
        help="simulated machines (MapReduce solvers only; default: solver's)",
    )
    solve_cmd.add_argument(
        "--capacity", type=int, default=None,
        help="per-machine capacity (MapReduce solvers only)",
    )
    solve_cmd.add_argument("--seed", type=int, default=2016, help="algorithm seed")
    solve_cmd.add_argument(
        "--data-seed", type=int, default=None,
        help="dataset generation seed (default: --seed)",
    )
    solve_cmd.add_argument(
        "--no-evaluate", action="store_true",
        help="skip the full covering-radius evaluation (MapReduce solvers)",
    )
    solve_cmd.add_argument(
        "--opt", action="append", type=_parse_solver_option, default=[],
        metavar="KEY=VALUE",
        help="solver-specific option, repeatable (e.g. --opt phi=4)",
    )
    solve_cmd.add_argument("--quiet", action="store_true",
                           help="suppress progress lines")
    solve_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record an execution trace of the solve and write it as "
             "Chrome trace-event JSON (open in chrome://tracing or "
             "https://ui.perfetto.dev); in-process solves only",
    )
    solve_cmd.add_argument(
        "--trace-detail", choices=["task", "block"], default="task",
        help="trace granularity: per-task spans (default) or also "
             "per-kernel-block spans (verbose)",
    )
    solve_cmd.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="send the request to a running job server (repro-kcenter "
             "serve) instead of solving in-process; --data paths must be "
             "visible to the server, generated datasets are sent inline",
    )
    from repro.serve.scheduler import BACKENDS as _SERVE_BACKENDS

    serve_cmd = sub.add_parser(
        "serve", help="run the clustering job server (newline-JSON over TCP)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=7227,
                           help="bind port; 0 picks an ephemeral port")
    serve_cmd.add_argument(
        "--backend", choices=list(_SERVE_BACKENDS), default="thread",
        help="executor the warm pool runs on (default: thread)",
    )
    serve_cmd.add_argument(
        "--pool-size", type=int, default=None,
        help="worker count of the warm pool (default: backend's choice)",
    )
    serve_cmd.add_argument("--max-queue", type=int, default=256,
                           help="admission cap on outstanding requests")
    serve_cmd.add_argument("--max-inflight", type=int, default=4,
                           help="concurrent coalesced batches on the pool")
    serve_cmd.add_argument("--max-points", type=int, default=200_000,
                           help="largest admissible request (points)")
    serve_cmd.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request deadline in seconds (requests may "
             "override; default: none)",
    )
    serve_cmd.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also bind a plain-HTTP Prometheus scrape listener on this "
             "port (GET /metrics; 0 picks an ephemeral port; default: off)",
    )
    serve_cmd.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs (one object per line) on stderr",
    )
    run = sub.add_parser("run", help="run one experiment and print its table/figure")
    run.add_argument("experiment", choices=sorted(EXPERIMENT_IDS))
    run.add_argument("--scale", choices=["default", "paper"], default=None,
                     help="experiment sizes (default: scaled-down; see EXPERIMENTS.md)")
    run.add_argument("--m", type=int, default=50, help="simulated machines (paper: 50)")
    run.add_argument("--seed", type=int, default=2016, help="master seed")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    if args.command == "list":
        for exp in sorted(EXPERIMENT_IDS):
            print(exp)
        return 0

    if args.command == "serve":
        try:
            return _run_serve_command(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "solve":
        try:
            return _run_solve_command(args)
        except (ReproError, ConnectionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TypeError as exc:
            # Mis-typed --opt values (e.g. --opt phi=abc) surface as
            # TypeErrors inside the solver; report them like any other
            # bad input instead of a traceback.
            print(f"error: bad option value: {exc}", file=sys.stderr)
            return 2

    scale = resolve_scale(args.scale)
    exp = args.experiment
    t0 = time.perf_counter()
    if exp in SOLUTION_TABLES:
        _run_solution_table(exp, scale, args.m, args.seed, args.quiet)
    elif exp in ("table6", "table7"):
        _run_phi_table(exp, scale, args.m, args.seed, args.quiet)
    elif exp in ("figure1", "figure2a", "figure2b", "figure3a", "figure3b"):
        _run_figure_k(exp, scale, args.m, args.seed, args.quiet)
    elif exp in ("figure4a", "figure4b"):
        _run_figure4(exp, scale, args.m, args.seed, args.quiet)
    else:  # pragma: no cover - argparse choices prevent this
        parser.error(f"unknown experiment {exp}")
    print(f"\n[{exp} completed in {time.perf_counter() - t0:.1f}s at scale={scale}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
